"""Rectangular sample grids over the parameter domain."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Grid:
    """An nx-by-ny point lattice on [x0,x1] x [y0,y1].

    Points are ordered row-major: index = iy * nx + ix (x varies fastest).
    `excluded` holds closed disks (cx, cy, r) whose points are marked
    excluded up front.  `isopedal.config` declares the fields' ranges.
    """

    x0: float = 0.3
    x1: float = 1.3
    y0: float = 0.3
    y1: float = 1.3
    nx: int = 21
    ny: int = 21
    excluded: tuple = field(default_factory=tuple)

    @property
    def size(self):
        return self.nx * self.ny

    def mesh(self):
        xs = np.linspace(self.x0, self.x1, self.nx)
        ys = np.linspace(self.y0, self.y1, self.ny)
        return np.meshgrid(xs, ys, indexing="xy")  # shape (ny, nx)

    def points(self):
        """Flattened row-major coordinates, shape (size,) each."""
        X, Y = self.mesh()
        return X.ravel(), Y.ravel()

    def premask(self):
        """True where the point is *not* inside an excluded disk."""
        x, y = self.points()
        ok = np.ones(x.shape, dtype=bool)
        for cx, cy, r in self.excluded:
            ok &= (x - cx) ** 2 + (y - cy) ** 2 > r * r
        return ok

    def to_config(self) -> dict:
        out = {"x0": self.x0, "x1": self.x1, "y0": self.y0, "y1": self.y1,
               "nx": self.nx, "ny": self.ny}
        if self.excluded:
            out["excluded_disks"] = [{"center": [cx, cy], "radius": r}
                                     for cx, cy, r in self.excluded]
        return out
