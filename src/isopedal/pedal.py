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
k + 1 (the evaluator below does this automatically).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NotImmersion, PedalDegenerate
from .jets import DEFAULT_ORDER, Jet, JetVec
from .geometry import SurfaceJets, _nvalue
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


def pedal_split(surface_or_bundle, x=None, y=None, order: int = DEFAULT_ORDER) -> PedalBundle:
    """Split the position vector along tangent plane and normal flag.

    Accepts either a SurfaceEvaluator plus points, or a prebuilt
    SurfaceJets bundle.  All five parts are returned as jets; the
    first-normal component is only trustworthy to (input order - 2).
    """
    if isinstance(surface_or_bundle, SurfaceJets):
        bundle = surface_or_bundle
    else:
        bundle = SurfaceJets(surface_or_bundle, x, y, order)
    f = bundle.f
    z1 = f.dot(bundle.e1)
    z2 = f.dot(bundle.e2)
    tangent_part = bundle.e1.scale(z1) + bundle.e2.scale(z2)
    foot = f - tangent_part
    lev1 = bundle.flag(1)[0]
    delta = None
    for fr in lev1.frames:
        term = fr.scale(foot.dot(fr))
        delta = term if delta is None else delta + term
    if delta is None:
        delta = JetVec([Jet.zeros(f.order, bundle.batch) for _ in range(len(f))])
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
        w = JetVec([Jet.const(np.full(bundle.batch, val), w.order) for val in v])
    part = w - bundle.e1.scale(w.dot(bundle.e1)) - bundle.e2.scale(w.dot(bundle.e2))
    return part.truncate(order), bundle.valid


def normal_part_evaluator(surface: SurfaceEvaluator, v=None) -> SurfaceEvaluator:
    """Evaluator of the normal part of a vector field along `surface`.

    With v None this is the pedal surface of `surface`; with a constant
    vector v it is the normal shadow of v, the c = 0 member of the
    shifted pedal family (the pedal of c*f + v is c*(pedal of f) +
    (shadow of v), and the shadow survives c -> 0).  Base jets are
    requested one order higher, so the result is exact at the requested
    order.  The mask marks points where the base surface is an immersion
    with well-conditioned frames; degeneracy of the result's own metric
    (for the pedal, K * osc_norm_sq -> 0) is left to downstream geometry.
    """
    kind = "pedal" if v is None else "shadow"
    if v is not None:
        v = np.asarray(v, dtype=float)
        if v.shape != (surface.ambient_dim,):
            raise ConfigError(
                f"shadow vector has dimension {v.shape}, surface {surface.ambient_dim}"
            )

    def fn(x, y, order):
        return normal_part(SurfaceJets(surface, x, y, order + 1), order, v)

    return SurfaceEvaluator(surface.ambient_dim, f"{kind}({surface.provenance})", fn)


def pedal_surface(surface: SurfaceEvaluator) -> SurfaceEvaluator:
    """Evaluator of the pedal surface of `surface`."""
    return normal_part_evaluator(surface)


def regularity_flags(pb: PedalBundle):
    """Per-point regularity of the decomposition (not of the pedal metric).

    tangent_nonzero:      the position has a nonzero tangential component,
    first_normal_nonzero: and a nonzero first-normal component,
    both relative to the position-vector scale.
    """
    f_norm = np.linalg.norm(_nvalue(pb.base.f), axis=0)
    scale = np.maximum(f_norm, 1e-300)
    z_norm = np.linalg.norm(_nvalue(pb.tangent_part), axis=0)
    d_norm = np.linalg.norm(_nvalue(pb.first_normal_part), axis=0)
    return z_norm > REGULARITY_RTOL * scale, d_norm > REGULARITY_RTOL * scale


def pedal_regularity(surface: SurfaceEvaluator, x, y, order: int = 3):
    """Exclusion report for the pedal over a batch of points.

    Returns a dict with per-point masks and the conformal-factor data:
      tangent_nonzero / first_normal_nonzero: decomposition regularity,
      immersed:   pedal differential has rank 2 (metric nondegenerate),
      ratio:      ||g_x||^2 / ||f_x||^2 measured from jets,
      predicted:  -K * osc_norm_sq / 2 (the closed-form factor),
      defect:     relative disagreement of the two routes,
      valid:      base-surface flag regularity,
      excluded:   points failing any regularity test, with `reasons`.
    """
    if order < 3:
        raise ValueError("pedal regularity needs base jets of order >= 3")
    pb = pedal_split(surface, x, y, order)
    fx_sq = pb.base.partial(1, 0).norm_sq().value().real
    gx = pb.foot.dx()
    gy = pb.foot.dy()
    gx_sq = gx.norm_sq().value().real
    gy_sq = gy.norm_sq().value().real
    gxy = gx.dot(gy).value().real
    gram = gx_sq * gy_sq - gxy * gxy
    gscale = np.maximum(gx_sq, gy_sq)
    immersed = pb.valid & (gram > PEDAL_IMMERSION_RTOL * gscale * gscale)
    ratio = gx_sq / np.maximum(fx_sq, 1e-300)
    predicted = pb.conformal_factor_predicted()
    scale = np.maximum(np.maximum(np.abs(ratio), np.abs(predicted)), 1e-300)
    defect = np.abs(ratio - predicted) / scale
    tangent_nonzero, first_normal_nonzero = regularity_flags(pb)
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
        "ratio": ratio,
        "predicted": predicted,
        "defect": defect,
        "immersed": immersed,
        "tangent_nonzero": tangent_nonzero,
        "first_normal_nonzero": first_normal_nonzero,
        "valid": pb.valid,
        "excluded": excluded,
        "reasons": reasons,
    }


@dataclass
class PedalSample:
    """Pointwise pedal decomposition values at one parameter point."""

    x: float
    y: float
    foot: np.ndarray                   # the pedal point itself
    tangent_part: np.ndarray           # ambient vector
    tangent_coords: tuple              # its coordinates in the (e1, e2) frame
    first_normal_part: np.ndarray
    higher_normal_part: np.ndarray
    osc_norm_sq: float
    mean_curvature_predicted: np.ndarray
    conformal_factor: float
    tangent_nonzero: bool
    first_normal_nonzero: bool
    immersed: bool


def pedal_decompose(surface: SurfaceEvaluator, p, order: int = DEFAULT_ORDER) -> PedalSample:
    """Pedal decomposition at one point; raises PedalDegenerate if unusable."""
    xs = np.asarray([p[0]], dtype=float)
    ys = np.asarray([p[1]], dtype=float)
    pb = pedal_split(surface, xs, ys, order)
    if not pb.base.immersed[0]:
        raise NotImmersion(f"base surface degenerates at {tuple(p)}")
    if not pb.valid[0]:
        raise PedalDegenerate(f"normal flag degenerates at {tuple(p)}")
    osc = float(pb.osc_norm_sq.value().real[0])
    if abs(osc) < 1e-14:
        raise PedalDegenerate(
            f"position vector orthogonal to the second osculating space at {tuple(p)}"
        )
    z1 = float(pb.base.f.dot(pb.base.e1).value().real[0])
    z2 = float(pb.base.f.dot(pb.base.e2).value().real[0])
    tangent_nonzero, first_normal_nonzero = regularity_flags(pb)
    gx = pb.foot.dx()
    gy = pb.foot.dy()
    gxs = float(gx.norm_sq().value().real[0])
    gys = float(gy.norm_sq().value().real[0])
    gxy = float(gx.dot(gy).value().real[0])
    immersed = gxs * gys - gxy * gxy > PEDAL_IMMERSION_RTOL * max(gxs, gys) ** 2
    Hp = _nvalue(pb.mean_curvature_predicted())[:, 0]
    return PedalSample(
        x=float(p[0]), y=float(p[1]),
        foot=_nvalue(pb.foot)[:, 0],
        tangent_part=_nvalue(pb.tangent_part)[:, 0],
        tangent_coords=(z1, z2),
        first_normal_part=_nvalue(pb.first_normal_part)[:, 0],
        higher_normal_part=_nvalue(pb.higher_normal_part)[:, 0],
        osc_norm_sq=osc,
        mean_curvature_predicted=Hp,
        conformal_factor=float(pb.conformal_factor_predicted()[0]),
        tangent_nonzero=bool(tangent_nonzero[0]),
        first_normal_nonzero=bool(first_normal_nonzero[0]),
        immersed=bool(immersed),
    )
