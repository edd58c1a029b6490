"""Pedal surfaces: feet of perpendiculars onto tangent planes.

For a surface patch f the pedal surface (with respect to the origin)
sends each parameter point to the foot of the perpendicular dropped from
the origin onto the affine tangent plane at f.  Writing the position
vector as f = (tangential part) + (normal part), the foot is

    g = f - <f, e1> e1 - <f, e2> e2,

which is f translated by minus its tangential component, hence a vector
field orthogonal to every tangent plane.  Splitting g further along the
normal flag of a minimal f,

    g = delta + eta,   delta in N_1,  eta in N_1-perp (inside the normal
                       space),

yields the quantities controlling the pedal's geometry; in particular
with  theta = ||tangential part||^2 + ||delta||^2  (the squared length
of the position's projection onto the second osculating space), the
pedal is an immersion exactly where K * theta != 0, its metric is
conformal to the original with factor -K * theta / 2, and its mean
curvature is (2/theta)(tangential part - delta).

Jet bookkeeping: g involves first derivatives of f, so a pedal jet of
trusted order k is built from an f jet of order k + 1; the other parts
are values.  `pedal_surface` is the pedal as a lazy evaluator; a
`SurfacePipeline` composes the pedal, and the normal shadow of a
constant vector, on one evaluation of f over a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .geometry import _TINY, SurfaceJets, _nvalue
from .grid import Grid
from .jets import JetVec, dot_values
from .weierstrass import SurfaceEvaluator

# the least jet order a pipeline takes: a pipeline other than a run's own
# surface serves only the pedal's second-order data, which needs the base
# surface at order 3
MIN_ORDER = 3
PEDAL_IMMERSION_RTOL = 1e-10
REGULARITY_RTOL = 1e-6  # relative floor for the tangent / first-normal parts


@dataclass
class PedalBundle:
    """Pedal decomposition of a bundle's position vector, each part built
    on first use and kept: the pedal point `foot` as a jet of the bundle's
    order, every other part as a value array.  The tangential part and
    the pedal point read only the tangent frame; `valid`, the first-normal
    part and every part that reads it build the first flag level."""

    base: SurfaceJets

    @cached_property
    def foot(self) -> JetVec:  # pedal point g: the position projected off the tangent plane
        return normal_part(self.base, self.base.f)

    @cached_property
    def tangent_part(self) -> np.ndarray:  # Z = f - g, the position's tangential component
        return _nvalue(self.base.f) - _nvalue(self.foot)

    @cached_property
    def first_normal_part(self) -> np.ndarray:  # component delta of g in the first normal space
        g = _nvalue(self.foot)
        _, _, e3, e4 = self.frames  # N_1 has rank 2 in every ambient dimension n >= 4
        return e3 * dot_values(g, e3) + e4 * dot_values(g, e4) + 0.0

    @cached_property
    def higher_normal_part(self) -> np.ndarray:  # eta = g - delta
        return _nvalue(self.foot) - self.first_normal_part

    @cached_property
    def valid(self) -> np.ndarray:
        return self.base.flag(1)[0].valid

    @cached_property
    def theta(self) -> np.ndarray:
        """||Z||^2 + ||delta||^2 (see the module docstring), shape (*batch)."""
        Z, delta = self.tangent_part, self.first_normal_part
        return dot_values(Z, Z) + dot_values(delta, delta)

    @cached_property
    def frames(self) -> tuple:
        """Values of the tangent frame e1, e2 and the first normal frame
        e3, e4, each of shape (n, *batch)."""
        e3, e4 = self.base.flag(1)[0].frames
        return tuple(_nvalue(e) for e in (self.base.e1, self.base.e2, e3, e4))

    @cached_property
    def tangent_coords(self) -> tuple:
        """Frame coordinates (<Z, e1>, <Z, e2>), each (*batch)."""
        return tuple(np.sum(self.tangent_part * e, axis=0) for e in self.frames[:2])

    @cached_property
    def sections(self) -> tuple:
        """u1 = Z - delta and u2 = JZ + J1(delta), each of shape (n, *batch).

        u2 is the tangential part turned a quarter in the tangent plane
        plus the first-normal part turned a quarter in its oriented plane.
        """
        Z, delta = self.tangent_part, self.first_normal_part
        e1, e2, e3, e4 = self.frames
        z1, z2 = self.tangent_coords
        d3, d4 = (np.sum(delta * e, axis=0) for e in (e3, e4))
        return Z - delta, (z1 * e2 - z2 * e1) + (d3 * e4 - d4 * e3)

    @cached_property
    def theta_ok(self) -> np.ndarray:
        """Points where `mean_curvature_predicted` may divide by theta:
        the flag level is valid and theta exceeds 1e-14 |f|^2."""
        f_sq = np.sum(_nvalue(self.base.f) ** 2, axis=0)
        return self.valid & (np.abs(self.theta) > 1e-14 * f_sq)

    def mean_curvature_predicted(self) -> np.ndarray:
        """(2 / theta)(Z - delta), shape (n, *batch); junk outside `theta_ok`."""
        two_over = (1.0 / np.where(self.theta_ok, self.theta, 1.0)) * 2.0
        return (self.tangent_part - self.first_normal_part) * two_over + 0.0

    def conformal_factor_predicted(self) -> np.ndarray:
        """-K * theta / 2 pointwise (the pedal/base metric ratio)."""
        K = self.base.curvature_scalars["K"]
        return -K * self.theta / 2.0


def pedal_split(bundle: SurfaceJets) -> PedalBundle:
    """Split the position vector along tangent plane and normal flag."""
    return PedalBundle(bundle)


def normal_part(bundle: SurfaceJets, w: JetVec) -> JetVec:
    """w - e1<w, e1> - e2<w, e2>: the pedal for w the position f, the normal
    shadow of v for w constant v; exact to one order less than the bundle."""
    return w - bundle.e1.scale(w.dot(bundle.e1)) - bundle.e2.scale(w.dot(bundle.e2))


def pedal_surface(surface: SurfaceEvaluator) -> SurfaceEvaluator:
    """Evaluator of the pedal surface of `surface`.

    Base jets are requested one order higher, so the result is exact at
    the requested order.  The mask marks points where the base surface is
    an immersion with well-conditioned frames; degeneracy of the pedal's
    own metric (K * theta -> 0) is left to downstream geometry.
    """

    def fn(x, y, order):
        bundle = SurfaceJets(surface, x, y, order + 1)
        return pedal_split(bundle).foot.truncate(order), bundle.valid

    return SurfaceEvaluator(surface.ambient_dim, f"pedal({surface.provenance})", fn)


class SurfacePipeline:
    """One surface evaluated once on one grid, with its pedal composed on
    that evaluation.

    `base` is the surface's bundle at the pipeline's jet order, `split`
    the pedal decomposition of its position vector, `pedal_evaluated` and
    `pedal` the pedal's jets and bundle one order lower, built from
    `split.foot`; `on(res)` is the same surface on the res x res subgrid
    of the window at MIN_ORDER, or the pipeline itself when that subgrid
    is its grid.  Each is built on first use and kept.
    """

    def __init__(self, evaluator: SurfaceEvaluator, grid: Grid, order: int):
        self.evaluator = evaluator
        self.grid = grid
        self.order = order
        self.x, self.y = grid.points()
        self.pre = grid.premask()
        self._subgrids = {}

    @cached_property
    def evaluated(self) -> SurfaceEvaluator:
        """The surface's one evaluation on the grid, at the pipeline's order."""
        return self.evaluator.evaluated(self.x, self.y, self.order)

    @cached_property
    def base(self) -> SurfaceJets:
        return SurfaceJets(self.evaluated, self.x, self.y, self.order)

    @cached_property
    def split(self) -> PedalBundle:
        return pedal_split(self.base)

    def normal_surface(self, v=None) -> SurfaceEvaluator:
        """The pedal (v None, `split.foot`) or the normal shadow of the
        constant vector v on the grid, one order lower.  The
        shadow is the c = 0 member of the shifted pedal family: the pedal
        of c*f + v is c*(pedal of f) + (shadow of v), and the shadow
        survives c -> 0."""
        kind = "pedal" if v is None else "shadow"
        jets = (self.split.foot if v is None
                else normal_part(self.base, JetVec.const(v, self.order, self.base.batch)))
        return SurfaceEvaluator.of_jets(f"{kind}({self.evaluator.provenance})", self.x, self.y,
                                        jets.truncate(self.order - 1), self.base.valid)

    @cached_property
    def pedal_evaluated(self) -> SurfaceEvaluator:
        return self.normal_surface()

    @cached_property
    def pedal(self) -> SurfaceJets:
        return SurfaceJets(self.pedal_evaluated, self.x, self.y, self.order - 1)

    def mask(self, *extra) -> np.ndarray:
        m = self.pre & self.base.valid & self.split.valid & self.pedal.valid
        for e in extra:
            m = m & e
        return m

    def on(self, res: int) -> "SurfacePipeline":
        """The surface on the res x res subgrid (at most the grid's own
        resolution) at MIN_ORDER, built once per pipeline; the pipeline
        itself when the subgrid is its grid, since truncated jets agree in
        every coefficient both orders keep."""
        sub = replace(self.grid, nx=min(self.grid.nx, res), ny=min(self.grid.ny, res))
        if sub == self.grid:
            return self
        if sub not in self._subgrids:
            self._subgrids[sub] = SurfacePipeline(self.evaluator, sub, MIN_ORDER)
        return self._subgrids[sub]


def pedal_regularity(pb: PedalBundle):
    """Exclusion report for the pedal over the bundle's points.

    A pedal point is excluded unless the base flag is regular there, the
    position has a nonzero tangential and a nonzero first-normal part
    (relative to the position-vector scale), and the pedal's differential
    has rank 2.  Returns a dict of per-point masks:
      tangent_nonzero / first_normal_nonzero: decomposition regularity,
      immersed:   pedal differential has rank 2 (metric nondegenerate),
      excluded:   points failing any regularity test, with `reasons`.
    """
    if pb.base.order < MIN_ORDER:
        raise ValueError(f"pedal regularity needs base jets of order >= {MIN_ORDER}")
    gx = pb.foot.dx()
    gy = pb.foot.dy()
    gx_sq = gx.dot_value(gx).real
    gy_sq = gy.dot_value(gy).real
    gxy = gx.dot_value(gy).real
    gram = gx_sq * gy_sq - gxy * gxy
    gscale = np.maximum(gx_sq, gy_sq)
    immersed = pb.valid & (gram > PEDAL_IMMERSION_RTOL * gscale * gscale)
    f_scale = REGULARITY_RTOL * np.maximum(np.linalg.norm(_nvalue(pb.base.f), axis=0), _TINY)
    tangent_nonzero = np.linalg.norm(pb.tangent_part, axis=0) > f_scale
    first_normal_nonzero = np.linalg.norm(pb.first_normal_part, axis=0) > f_scale
    excluded = ~(pb.valid & immersed & tangent_nonzero & first_normal_nonzero)
    reasons = []
    for idx in np.argwhere(excluded):
        t = tuple(int(v) for v in idx)
        why = []
        if not pb.valid[t]:
            why.append("flag degenerate")
        if not tangent_nonzero[t]:
            why.append("tangential part ~ 0")
        if not first_normal_nonzero[t]:
            why.append("first-normal part ~ 0")
        if pb.valid[t] and not immersed[t]:
            why.append("pedal rank < 2")
        reasons.append((t, ", ".join(why)))
    return {
        "immersed": immersed,
        "tangent_nonzero": tangent_nonzero,
        "first_normal_nonzero": first_normal_nonzero,
        "excluded": excluded,
        "reasons": reasons,
    }
