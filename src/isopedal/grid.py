"""Rectangular sample grids over the parameter domain."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

DEFAULT_WINDOW = (0.3, 1.3, 0.3, 1.3)
DEFAULT_RES = 21


def finite(value, what) -> float:
    """`value` as a float; a ConfigError unless it is a finite number."""
    try:
        out = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{what} must be a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class Grid:
    """An nx-by-ny point lattice on [x0,x1] x [y0,y1].

    Points are ordered row-major: index = iy * nx + ix (x varies fastest).
    `excluded` holds closed disks (cx, cy, r) whose points are marked
    excluded up front.
    """

    x0: float = DEFAULT_WINDOW[0]
    x1: float = DEFAULT_WINDOW[1]
    y0: float = DEFAULT_WINDOW[2]
    y1: float = DEFAULT_WINDOW[3]
    nx: int = DEFAULT_RES
    ny: int = DEFAULT_RES
    excluded: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if not all(np.isfinite((self.x0, self.x1, self.y0, self.y1))):
            raise ConfigError("grid window bounds must be finite")
        if not (self.x1 >= self.x0 and self.y1 >= self.y0):
            raise ConfigError("grid window is empty (x1 < x0 or y1 < y0)")
        if self.nx < 1 or self.ny < 1:
            raise ConfigError("grid needs nx >= 1 and ny >= 1")

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

    @staticmethod
    def from_string(text: str) -> "Grid":
        """Parse "x0,x1,y0,y1,nx,ny"."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 6:
            raise ConfigError(f"grid spec needs 6 comma-separated fields, got {text!r}")
        try:
            x0, x1, y0, y1 = (float(p) for p in parts[:4])
            nx, ny = (int(p) for p in parts[4:])
        except ValueError as e:
            raise ConfigError(f"bad grid spec {text!r}: {e}") from None
        return Grid(x0, x1, y0, y1, nx, ny)

    @staticmethod
    def from_config(obj) -> "Grid":
        if isinstance(obj, str):
            return Grid.from_string(obj)
        if not isinstance(obj, dict):
            raise ConfigError("grid config must be an object or a string")
        listed = obj.get("excluded_disks", ())
        if not isinstance(listed, (list, tuple)):
            raise ConfigError(f"grid excluded_disks must be a list, got {listed!r}")
        disks = []
        for d in listed:
            try:
                if isinstance(d, dict):
                    cx, cy, r = d["center"][0], d["center"][1], d["radius"]
                else:
                    cx, cy, r = d
            except (KeyError, IndexError, TypeError, ValueError):
                raise ConfigError(
                    "excluded disk must be {center: [x, y], radius: r} "
                    f"or an [x, y, r] triple, got {d!r}"
                ) from None
            disks.append((finite(cx, "excluded disk center"), finite(cy, "excluded disk center"),
                          finite(r, "excluded disk radius")))
        disks = tuple(disks)
        known = {"x0", "x1", "y0", "y1", "nx", "ny", "excluded_disks"}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown grid keys: {sorted(unknown)}")
        x0, x1, y0, y1 = (finite(obj.get(k, v), f"grid {k}")
                          for k, v in zip(("x0", "x1", "y0", "y1"), DEFAULT_WINDOW))
        return Grid(
            x0, x1, y0, y1,
            nx=int(finite(obj.get("nx", DEFAULT_RES), "grid nx")),
            ny=int(finite(obj.get("ny", DEFAULT_RES), "grid ny")),
            excluded=disks,
        )

    def to_config(self) -> dict:
        out = {
            "x0": self.x0, "x1": self.x1, "y0": self.y0, "y1": self.y1,
            "nx": self.nx, "ny": self.ny,
        }
        if self.excluded:
            out["excluded_disks"] = [
                {"center": [cx, cy], "radius": r} for cx, cy, r in self.excluded
            ]
        return out
