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
with  osc_norm_sq = ||tangential part||^2 + ||delta||^2  (the squared
length of the position's projection onto the second osculating space),
the pedal is an immersion exactly where K * osc_norm_sq != 0, its metric
is conformal to the original with factor -K * osc_norm_sq / 2, and its
mean curvature is (2/osc_norm_sq)(tangential part - delta).

Jet bookkeeping: g involves first derivatives of f and delta second
ones, so a pedal jet of trusted order k is built from an f jet of order
k + 1.  `pedal_surface` is the pedal as a lazy evaluator; a
`SurfacePipeline` composes the pedal, and the normal shadow of a
constant vector, on one evaluation of f over a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .geometry import SurfaceJets, _nvalue
from .grid import Grid
from .jets import Jet, JetVec
from .weierstrass import SurfaceEvaluator

PEDAL_IMMERSION_RTOL = 1e-10
REGULARITY_RTOL = 1e-6  # relative floor for the tangent / first-normal parts


@dataclass
class PedalBundle:
    """Jet-level pedal decomposition over a batch of points."""

    base: SurfaceJets
    tangent_part: JetVec      # projection of the position onto the tangent plane
    foot: JetVec              # pedal point g = f - tangent_part
    first_normal_part: JetVec  # component of g in the first normal space
    higher_normal_part: JetVec  # g minus that component
    osc_norm_sq: Jet          # ||tangent_part||^2 + ||first_normal_part||^2
    valid: np.ndarray
    # per-point data derived from this bundle by its consumers (the
    # inversion residual system), kept for the bundle's lifetime
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def rotation_section(self) -> np.ndarray:
        """Values of JZ + J1(delta), shape (n, *batch).

        The tangential part turned a quarter in the tangent plane plus
        the first-normal part turned a quarter in its oriented plane.
        """
        Z = _nvalue(self.tangent_part)
        delta = _nvalue(self.first_normal_part)
        e1, e2 = _nvalue(self.base.e1), _nvalue(self.base.e2)
        lev1 = self.base.flag(1)[0]
        e3, e4 = _nvalue(lev1.frames[0]), _nvalue(lev1.frames[1])
        z1 = np.sum(Z * e1, axis=0)
        z2 = np.sum(Z * e2, axis=0)
        d3 = np.sum(delta * e3, axis=0)
        d4 = np.sum(delta * e4, axis=0)
        return (z1 * e2 - z2 * e1) + (d3 * e4 - d4 * e3)

    def mean_curvature_predicted(self) -> JetVec:
        """(2 / osc_norm_sq)(tangent_part - first_normal_part) as jets."""
        guard = self.valid & (np.abs(self.osc_norm_sq.value().real) > 1e-14)
        two_over = self.osc_norm_sq.recip(guard=guard).scale(2.0)
        return (self.tangent_part - self.first_normal_part).scale(two_over)

    def conformal_factor_predicted(self) -> np.ndarray:
        """-K * osc_norm_sq / 2 pointwise (the pedal/base metric ratio)."""
        K = self.base.curvature_scalars()["K"]
        return -K * self.osc_norm_sq.value().real / 2.0


def pedal_split(bundle: SurfaceJets) -> PedalBundle:
    """Split the position vector along tangent plane and normal flag.

    All five parts are returned as jets; the first-normal component is
    only trustworthy to (bundle order - 2).
    """
    f = bundle.f
    z1 = f.dot(bundle.e1)
    z2 = f.dot(bundle.e2)
    tangent_part = bundle.e1.scale(z1) + bundle.e2.scale(z2)
    foot = f - tangent_part
    lev1 = bundle.flag(1)[0]
    e3, e4 = lev1.frames  # N_1 has rank 2 in every ambient dimension n >= 4
    delta = e3.scale(foot.dot(e3)) + e4.scale(foot.dot(e4))
    eta = foot - delta
    osc = tangent_part.norm_sq() + delta.norm_sq()
    return PedalBundle(
        base=bundle,
        tangent_part=tangent_part,
        foot=foot,
        first_normal_part=delta,
        higher_normal_part=eta,
        osc_norm_sq=osc,
        valid=lev1.valid,
    )


def normal_part(bundle: SurfaceJets, order: int, v=None):
    """(jets, valid) of w - e1<w, e1> - e2<w, e2> truncated to `order`,
    for w the position f (the pedal) or the constant vector v (its
    normal shadow); exact to one order less than the bundle."""
    w = bundle.f
    if v is not None:
        w = JetVec.const(v, w.order, bundle.batch)
    part = w - bundle.e1.scale(w.dot(bundle.e1)) - bundle.e2.scale(w.dot(bundle.e2))
    return part.truncate(order), bundle.valid


def pedal_surface(surface: SurfaceEvaluator) -> SurfaceEvaluator:
    """Evaluator of the pedal surface of `surface`.

    Base jets are requested one order higher, so the result is exact at
    the requested order.  The mask marks points where the base surface is
    an immersion with well-conditioned frames; degeneracy of the pedal's
    own metric (K * osc_norm_sq -> 0) is left to downstream geometry.
    """

    def fn(x, y, order):
        return normal_part(SurfaceJets(surface, x, y, order + 1), order)

    return SurfaceEvaluator(surface.ambient_dim, f"pedal({surface.provenance})", fn)


class SurfacePipeline:
    """One surface evaluated once on one grid, with its pedal composed on
    that evaluation.

    `base` is the surface's bundle at the pipeline's jet order, `split`
    the pedal decomposition of its position vector, `pedal_evaluated` and
    `pedal` the pedal's jets and bundle one order lower, built from
    `base`'s jets; `on(res)` is the same surface on the res x res subgrid
    of the window at jet order 4.  Each is built on first use and kept.
    """

    def __init__(self, evaluator: SurfaceEvaluator, grid: Grid, order: int):
        if order < 3:
            raise ConfigError("pedal geometry needs jet order >= 3")
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
        """The pedal (v None) or the normal shadow of the constant vector v
        on the grid, from the base bundle's jets, one order lower.  The
        shadow is the c = 0 member of the shifted pedal family: the pedal
        of c*f + v is c*(pedal of f) + (shadow of v), and the shadow
        survives c -> 0."""
        kind = "pedal" if v is None else "shadow"
        return SurfaceEvaluator.of_jets(f"{kind}({self.evaluator.provenance})", self.x, self.y,
                                        *normal_part(self.base, self.order - 1, v))

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
        resolution) at jet order 4, built once per pipeline."""
        if res not in self._subgrids:
            sub = replace(self.grid, nx=min(self.grid.nx, res), ny=min(self.grid.ny, res))
            self._subgrids[res] = SurfacePipeline(self.evaluator, sub, 4)
        return self._subgrids[res]


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
    if pb.base.order < 3:
        raise ValueError("pedal regularity needs base jets of order >= 3")
    gx = pb.foot.dx()
    gy = pb.foot.dy()
    gx_sq = gx.dot_value(gx).real
    gy_sq = gy.dot_value(gy).real
    gxy = gx.dot_value(gy).real
    gram = gx_sq * gy_sq - gxy * gxy
    gscale = np.maximum(gx_sq, gy_sq)
    immersed = pb.valid & (gram > PEDAL_IMMERSION_RTOL * gscale * gscale)
    f_scale = REGULARITY_RTOL * np.maximum(np.linalg.norm(_nvalue(pb.base.f), axis=0), 1e-300)
    tangent_nonzero = np.linalg.norm(_nvalue(pb.tangent_part), axis=0) > f_scale
    first_normal_nonzero = np.linalg.norm(_nvalue(pb.first_normal_part), axis=0) > f_scale
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
