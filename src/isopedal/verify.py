"""Grid certification of the pedal-surface identities.

Given a minimal immersion f = Re phi of a planar domain into R^n whose
curvature ellipses are circles up to some order, this module certifies —
numerically, over a rectangular sample grid — every identity the package
is built around:

  * the generator is exact (null bilinear square of phi', vanishing mean
    curvature relative to the second-form scale);
  * the pedal surface g = f - (tangential part of f) is superconformal
    when f has two curvature circles, and generically fails the circle
    test when f has only one (refutation branch);
  * f is conformal to g with factor -K*theta/2, where theta is the
    squared norm of the osculating part of the position vector;
  * the normal bundle of g splits off the two explicit sections Z - delta
    and JZ + J1(delta), plus the orthogonal complement of the first
    normal space of f;
  * the mean curvature of g equals (2/theta)(Z - delta) and the flat
    Laplacian of g equals 2K(delta - Z) * E;
  * the (2,0)-part of the second form of g lies in the second osculating
    flag of f, pairs conjugately with the two explicit normal sections,
    and its top components are carried by the connection form of the
    first normal frames;
  * no inversion of the ambient space makes g minimal (a closed-form
    residual system stays bounded away from zero over a 3^n lattice of
    candidate centers, cross-checked against direct jets);
  * g never satisfies the S-Willmore parallelism condition (the defect
    stays large on most of the grid, in agreement with a scalar
    criterion computed along a completely different route);
  * pedals of the shifted family c*f + v decompose as c*g + (normal
    shadow of v), the shadow surface itself is superconformal, its
    inversion centered at v is minimal, and the first normal bundle of
    g keeps rank three under random inversions.

Positive checks require a normalized defect BELOW threshold at every
non-excluded grid point.  Refutation checks require the defect to EXCEED
the threshold at >= 90% of points: analytic quantities may vanish on
thin sets, so isolated near-zeros are tolerated.  Reports are
deterministic functions of the configuration (no timestamps, fixed
seeds), and every defect is invariant under ambient rotation of the
seed curve.

The 30 checks are declared once, in `CHECKS`, in report order: id,
statement, threshold, mode, the `verify_<group>` function that
computes it, and the least ambient dimension it needs, if any.  The
run's own surface is differentiated with jets of order JET_ORDER, the
highest order any check reads on it; every other pipeline (the reference
surfaces, the subgrids and the sample families) at `pedal.MIN_ORDER`.
The config's `jet_order` is read only by `export`'s CSV table.  A group
function computes values only: it returns an `Outcome` per check id, a
per-point defect array with its mask or an already reduced scalar.
`run_all` is the one runner: it selects checks by id prefix, reports
each check whose requirement the ambient dimension fails as
inconclusive, with the requirement's reason, runs a group iff one of its
checks is left, and turns every outcome into its record (masked max or
low quantile, threshold, pass/fail, status).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .geometry import (
    _TINY,
    SurfaceJets,
    _nvalue,
    first_normal_rank,
    hodge_relation_residuals,
)
from .grid import Grid
from .jets import dot_values
from .moebius import invert_evaluator, minimality_residuals
from .pedal import MIN_ORDER, PedalBundle, SurfacePipeline
from .weierstrass import preset_curve, surface_evaluator

REPORT_VERSION = "1"
# the highest jet order any check reads (the Hodge relations and the
# S-Willmore checks, on the run's own surface); truncated jets are exact in
# every coefficient they keep, so a higher order would change no record
JET_ORDER = 4
REFUTE_QUANTILE = 0.90  # a refutation holds if the defect exceeds threshold here
# the parallelism defect at which the pedal counts as not S-Willmore: the
# threshold of swillmore.refute and the cut both routes of
# swillmore.scalar_agreement are judged at
SWILLMORE_CUT = 1e-3

_RANK_SEED = 20260826  # random inversions of first_normal_rank.*


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Requirement:
    """A check needs an ambient dimension of at least `min_dim`; below it
    the check is reported "inconclusive", its statement replaced by
    `reason`, and no defect."""

    min_dim: int
    reason: str


@dataclass(frozen=True)
class Check:
    """One registry entry.  mode "upper": pass iff defect <= threshold
    (identity); mode "lower": pass iff defect >= threshold (refutation or
    separation).  `group` names the module function computing it."""

    id: str
    group: str
    threshold: float
    statement: str
    mode: str = "upper"
    requires: Optional[Requirement] = None


# the scalar obstruction reads the frames of the second normal space,
# which exists from R^5 on (there it has rank 1)
_SWILLMORE = Requirement(5, "the scalar obstruction needs a second normal space "
                            "(ambient dimension >= 5)")
_NORMAL2 = Requirement(6, "second-normal components need a second normal plane "
                          "(ambient dimension >= 6)")
_HODGE = Requirement(6, "connection-form relations need two normal planes "
                        "(ambient dimension >= 6)")


CHECKS = (
    Check("generator.isotropy", "verify_generation", 1e-10,
          "the derivative of the generated curve has exactly null bilinear square "
          "(relative coefficient norm)"),
    Check("generator.minimality", "verify_generation", 1e-9,
          "the generated surface has vanishing mean curvature relative to its "
          "second-form scale"),
    Check("pedal_circle.positive", "verify_superconformal", 1e-8,
          "the curvature ellipse of the pedal surface is a circle at every "
          "non-excluded grid point"),
    Check("pedal_circle.wintgen", "verify_superconformal", 1e-7,
          "the pedal surface attains equality in the normal-curvature inequality "
          "K + |K_N| <= |H|^2 (relative defect)"),
    Check("pedal_circle.negative", "verify_superconformal", 1e-3,
          "for a surface with only one curvature circle the pedal fails the circle "
          "test on at least 90% of the grid", "lower"),
    Check("pedal_conformal.orthogonality", "verify_pedal_conformality", 1e-8,
          "the pedal surface is isothermal in the base surface's isothermal "
          "coordinates (conformality of base and pedal)"),
    Check("pedal_conformal.factor", "verify_pedal_conformality", 1e-7,
          "the pedal/base metric ratio equals -K*theta/2 (relative defect)"),
    Check("pedal_conformal.one_circle", "verify_pedal_conformality", 1e-8,
          "one curvature circle already makes the pedal conformal to the base "
          "(control surface passes the same test)"),
    Check("pedal_normal_span", "verify_normal_span", 1e-8,
          "the pedal's normal bundle contains the two explicit rotation sections of "
          "the position vector and the complement of the first normal space "
          "(max residual)"),
    Check("pedal_mean.formula", "verify_meancurvature", 1e-7,
          "the pedal's mean curvature vector equals (2/theta)(Z - delta) "
          "(relative defect)"),
    Check("pedal_mean.laplacian", "verify_meancurvature", 1e-6,
          "the metric Laplacian of the pedal equals 2K(delta - Z) (relative defect)"),
    Check("pedal_mean.scaling", "verify_meancurvature", 1e-9,
          "tripling the base surface divides the pedal's mean curvature by three "
          "pointwise (homothety control)"),
    Check("pedal_secondform.span", "verify_pedal_secondform", 1e-7,
          "the (2,0) second form of the pedal lies in the base's second osculating "
          "flag (checked also in R^8 where the complement is nontrivial)"),
    Check("pedal_secondform.pairing", "verify_pedal_secondform", 1e-7,
          "the (2,0) second form of the pedal pairs conjugately with the two "
          "explicit normal sections"),
    Check("pedal_secondform.normal2", "verify_pedal_secondform", 1e-6,
          "the second-normal components of the pedal's (2,0) form are carried by "
          "the first-normal connection form", requires=_NORMAL2),
    Check("pedal_secondform.one_circle", "verify_pedal_secondform", 1e-7,
          "flag containment and conjugate pairing need only one curvature circle "
          "(control surface, axis ratio < 1)"),
    Check("pedal_secondform.hodge", "verify_pedal_secondform", 1e-8,
          "the connection forms of the two normal planes satisfy the coupled "
          "rotation relations under the recorded Hodge sign convention",
          requires=_HODGE),
    Check("swillmore.refute", "verify_swillmore", SWILLMORE_CUT,
          "the normal derivative of the pedal's mean curvature is not "
          "complex-parallel to its (2,0) second form on at least 90% of the grid",
          "lower", _SWILLMORE),
    Check("swillmore.scalar_agreement", "verify_swillmore", 0.99,
          "the direct parallelism defect and the base-side scalar obstruction "
          "vanish or not together (fraction of agreeing grid points)",
          "lower", _SWILLMORE),
    Check("swillmore.kappa_theta", "verify_swillmore", 1e-3,
          "the circle radius times the osculating norm stays bounded away from "
          "zero (min/max ratio over the grid)", "lower", _SWILLMORE),
    Check("inversion.norm", "verify_inversion_minimality", 1e-3,
          "for every lattice center, the inverted pedal's mean curvature exceeds "
          "threshold at some grid point (in units of its second-form scale)",
          "lower"),
    Check("inversion.system", "verify_inversion_minimality", 1e-3,
          "the residual system that an inversion center would have to solve at "
          "every grid point simultaneously is infeasible for every lattice center",
          "lower"),
    Check("inversion.crosscheck", "verify_inversion_minimality", 1e-7,
          "the closed-form mean-curvature ratio of the inverted pedal matches "
          "direct jets of the inverted surface at sampled centers"),
    Check("shifted_pedal.family", "verify_shifted_pedals", 1e-8,
          "pedals of the shifted family c*f + v are superconformal and conformal "
          "to f for sampled (c, v)"),
    Check("shifted_pedal.decomposition", "verify_shifted_pedals", 1e-10,
          "the pedal of c*f + v equals c*(pedal of f) plus the normal shadow of v, "
          "pointwise"),
    Check("shifted_pedal.shadow_superconformal", "verify_shifted_pedals", 1e-8,
          "the normal shadow of a constant vector over f is itself superconformal"),
    Check("shifted_pedal.inverted_minimal", "verify_shifted_pedals", 1e-7,
          "inverting the normal shadow about its defining vector yields a minimal "
          "surface (mean curvature over second-form scale)"),
    Check("first_normal_rank.pedal", "verify_shifted_pedals", 0.5,
          "the first normal bundle of the pedal has rank exactly three at every "
          "non-excluded point"),
    Check("first_normal_rank.inverted", "verify_shifted_pedals", 0.5,
          "the rank-three first normal bundle of the pedal persists under ten "
          "random inversions"),
    Check("first_normal_rank.higher_isotropy", "verify_shifted_pedals", 0.5,
          "for the three-circle surface in R^8 the pedal's first normal bundle also "
          "has rank three, before and after ten random inversions"),
)


@dataclass
class Outcome:
    """What a group computed for one check.

    `defect` is a per-point array, which the runner reduces over `mask`
    (masked max for mode "upper", the low quantile for "lower"), or an
    already reduced scalar (None: nothing could be evaluated).  Unset
    fields take the surface pipeline's defaults: its mask and its grid.
    The points outside the mask are reported as `excluded`.
    """

    defect: object
    mask: Optional[np.ndarray] = None
    grid: Optional[Grid] = None
    details: dict = field(default_factory=dict)


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return v if math.isfinite(v) else None
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in sorted(v.items())}
    return str(v)


def _masked_max(values, mask):
    if not np.any(mask):
        return None
    return float(np.max(np.asarray(values)[mask]))


def _masked_min(values, mask):
    if not np.any(mask):
        return None
    return float(np.min(np.asarray(values)[mask]))


def _max_defined(*values):
    """The largest of the values that are not None (None if none is)."""
    defined = [v for v in values if v is not None]
    return max(defined) if defined else None


def _low_quantile(values, mask):
    """Conservative low quantile, 1 - REFUTE_QUANTILE, of values over the mask."""
    if not np.any(mask):
        return None
    vals = np.sort(np.asarray(values)[mask])
    idx = min(len(vals) - 1, int(math.floor((1.0 - REFUTE_QUANTILE) * len(vals))))
    return float(vals[idx])


def _norms(values):
    """Euclidean length over the leading (component) axis."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        return np.sqrt(np.sum(np.abs(v) ** 2, axis=0))
    return np.sqrt(np.sum(v * v, axis=0))


def _traceless_scale(bundle: SurfaceJets):
    """sqrt(2 (|xi1|^2 + |xi2|^2)), the scale of the traceless second
    form, pointwise."""
    xi1, xi2 = (_nvalue(xi) for xi in bundle.traceless_second())
    return np.sqrt(2.0 * (np.sum(xi1 * xi1, axis=0) + np.sum(xi2 * xi2, axis=0)))


def _mean_ratio(bundle: SurfaceJets):
    """|H| in units of the traceless second-form scale, pointwise."""
    return _norms(_nvalue(bundle.mean_curvature())) / np.maximum(_traceless_scale(bundle), _TINY)


# ---------------------------------------------------------------------------
# the surfaces of a run
# ---------------------------------------------------------------------------


class Run:
    """What the check groups of one run share: the config, the pipeline of
    its surface at JET_ORDER and those of the two reference surfaces (the
    one-circle control in R^6 and the three-circle surface in R^8) at
    MIN_ORDER, each built on first use on the run's grid, and the ids
    whose outcomes the runner will report (None: all).

    One pipeline per distinct curve: a reference surface whose curve is
    the config's own (holo4's `higher`, noniso's `control`) is `surface`."""

    def __init__(self, config: RunConfig, ids=None):
        self.config = config
        self.ids = ids

    def _build(self, curve, order):
        if curve is not self.config.curve and curve.phi == self.config.curve.phi:
            return self.surface
        return SurfacePipeline(surface_evaluator(curve), self.config.grid, order)

    @cached_property
    def surface(self) -> SurfacePipeline:
        return self._build(self.config.curve, JET_ORDER)

    @cached_property
    def control(self) -> SurfacePipeline:
        return self._build(preset_curve("noniso"), MIN_ORDER)

    @cached_property
    def higher(self) -> SurfacePipeline:
        return self._build(preset_curve("holo4"), MIN_ORDER)

    def wants(self, check_id: str) -> bool:
        return self.ids is None or check_id in self.ids


# ---------------------------------------------------------------------------
# generator checks
# ---------------------------------------------------------------------------


def verify_generation(run: Run) -> dict:
    """Exactness of the generated surface: null curve square, minimality."""
    pipe = run.surface
    base = pipe.base
    H = _nvalue(base.mean_curvature())
    a11, a12, a22 = (_nvalue(a) for a in base.second_fundamental)
    scale = np.sqrt(np.sum(a11 * a11, axis=0) + 2 * np.sum(a12 * a12, axis=0)
                    + np.sum(a22 * a22, axis=0))
    return {
        "generator.isotropy": Outcome(float(run.config.curve.isotropy_residual()),
                                      np.ones(run.config.grid.size, dtype=bool)),
        "generator.minimality": Outcome(_norms(H) / np.maximum(scale, _TINY),
                                        pipe.pre & base.valid),
    }


# ---------------------------------------------------------------------------
# superconformality of the pedal (positive + refutation branches)
# ---------------------------------------------------------------------------


def verify_superconformal(run: Run) -> dict:
    """Circle test of the pedal's curvature ellipse, both branches.

    The positive branch runs on the run's surface (expected: two
    curvature circles upstream); the refutation branch runs on the
    one-circle control surface and must see a LARGE circle defect on at
    least 90% of the grid.
    """
    gb = run.surface.pedal
    defect1, _ = gb.circle_defect(1)
    sc = gb.curvature_scalars
    scale = np.abs(sc["K"]) + np.abs(sc["K_N"]) + sc["H_norm_sq"]
    ctrl = run.control
    cdef, _ = ctrl.pedal.circle_defect(1)
    return {
        "pedal_circle.positive": Outcome(defect1),
        "pedal_circle.wintgen": Outcome(np.abs(sc["wintgen_defect"]) / np.maximum(scale, _TINY)),
        "pedal_circle.negative": Outcome(cdef, ctrl.mask()),
    }


# ---------------------------------------------------------------------------
# conformality of the base to its pedal
# ---------------------------------------------------------------------------


def _conformality_defect(gb: SurfaceJets):
    E, F, G = gb.E0, gb.F0, gb.G0
    scale = np.maximum(np.maximum(E, G), _TINY)
    return np.maximum(np.abs(F), np.abs(E - G)) / scale, E


def verify_pedal_conformality(run: Run) -> dict:
    """Isothermal defect of the pedal and the metric-ratio closed form.

    In isothermal coordinates of the base surface, conformality of base
    and pedal is exactly isothermality of the pedal's own first
    fundamental form; the ratio of the metrics must equal -K*theta/2.
    One curvature circle suffices, so the one-circle control surface
    must pass the conformality part as well.
    """
    pipe = run.surface
    defect, Eg = _conformality_defect(pipe.pedal)
    ratio = Eg / np.maximum(pipe.base.E0, _TINY)
    predicted = pipe.split.conformal_factor_predicted()
    ctrl = run.control
    cdef, _ = _conformality_defect(ctrl.pedal)
    return {
        "pedal_conformal.orthogonality": Outcome(defect),
        "pedal_conformal.factor": Outcome(
            np.abs(ratio - predicted) / np.maximum(np.abs(ratio), _TINY)),
        "pedal_conformal.one_circle": Outcome(cdef, ctrl.mask()),
    }


# ---------------------------------------------------------------------------
# the normal bundle of the pedal
# ---------------------------------------------------------------------------


def verify_normal_span(run: Run) -> dict:
    """Span/orthogonality residuals of the pedal's normal bundle.

    The two explicit sections u1 = Z - delta and u2 = JZ + J1(delta)
    must be normal to the pedal, mutually orthogonal with common squared
    length theta, and the pedal's tangent plane must stay inside the
    span of the base tangent plane and first normal space.
    """
    pipe = run.surface
    sp = pipe.split
    gb = pipe.pedal
    theta = sp.theta
    u1, u2 = sp.sections

    gx = _nvalue(gb.partial(1, 0))
    gy = _nvalue(gb.partial(0, 1))
    tfloor = np.maximum(theta, _TINY)
    sq_theta = np.sqrt(tfloor)
    residuals = []
    for tangent in (gx, gy):
        tn = np.maximum(_norms(tangent), _TINY)
        # the product of the floored factors underflows at a branch point
        den = np.maximum(tn * sq_theta, _TINY)
        for u in (u1, u2):
            residuals.append(np.abs(np.sum(tangent * u, axis=0)) / den)
        # containment: the pedal's tangent plane sits inside the base's
        # tangent + first-normal span, i.e. normal sections of the base
        # beyond that span are normal to the pedal too
        rem = tangent.copy()
        for fr in sp.frames:
            rem = rem - np.sum(tangent * fr, axis=0) * fr
        residuals.append(_norms(rem) / tn)
    residuals.append(np.abs(np.sum(u1 * u2, axis=0)) / tfloor)
    residuals.append(np.abs(np.sum(u1 * u1, axis=0) - theta) / tfloor)
    residuals.append(np.abs(np.sum(u2 * u2, axis=0) - theta) / tfloor)
    return {"pedal_normal_span": Outcome(np.maximum.reduce(residuals))}


# ---------------------------------------------------------------------------
# mean curvature of the pedal
# ---------------------------------------------------------------------------


def verify_meancurvature(run: Run) -> dict:
    """Closed forms for the pedal's mean curvature and flat Laplacian."""
    pipe = run.surface
    sp = pipe.split

    H_direct = _nvalue(pipe.pedal.mean_curvature())
    H_pred = sp.mean_curvature_predicted()
    defect = _norms(H_direct - H_pred) / np.maximum(_norms(H_pred), _TINY)

    lap = _nvalue(pipe.pedal.laplacian()) / np.maximum(pipe.base.E0, _TINY)
    K = pipe.base.curvature_scalars["K"]
    rhs = 2.0 * K * (sp.first_normal_part - sp.tangent_part)
    ldef = _norms(lap - rhs) / np.maximum(_norms(rhs), _TINY)

    # homothety control: the pedal of 3f is 3g, so its mean curvature is a
    # third of g's, pointwise (not 2: doubling is exact, the defect reads 0)
    sub = pipe.on(7)
    thrice = SurfacePipeline(sub.evaluated.affine(scale=3.0), sub.grid, MIN_ORDER).pedal
    H_base = _nvalue(sub.pedal.mean_curvature())
    H_thrice = _nvalue(thrice.mean_curvature())
    sdef = _norms(H_thrice - H_base / 3.0) / np.maximum(_norms(H_base / 3.0), _TINY)
    return {
        "pedal_mean.formula": Outcome(defect, pipe.mask(sp.theta_ok)),
        "pedal_mean.laplacian": Outcome(ldef),
        "pedal_mean.scaling": Outcome(sdef, sub.pre & sub.pedal.valid & thrice.valid, sub.grid),
    }


# ---------------------------------------------------------------------------
# structure of the pedal's (2,0) second form
# ---------------------------------------------------------------------------


def _complex_dot(values_c, frame_values):
    """Bilinear pairing of a complex vector field with a real frame."""
    return np.sum(values_c * frame_values, axis=0)


def _alpha_dz_position(sp: PedalBundle, n3, n4):
    """The base's second form on (Wirtinger vector, tangential part Z) and
    its pairing with a first-normal frame given by its values n3, n4:
    (alpha(dz, Z), <alpha(dz, Z), n3 + i n4>)."""
    alpha = sp.base.second_form_on(sp.base.wirtinger_coords, sp.tangent_coords)
    return alpha, _complex_dot(alpha, n3) + 1j * _complex_dot(alpha, n4)


def _secondform_span_pairing(pipe: SurfacePipeline):
    """(a) flag containment and (b) conjugate pairing defects, with the
    points where both are defined: the pipeline's mask and the deepest
    flag level's (a degenerate ellipse there leaves no frame to pair)."""
    base = pipe.base
    sp = pipe.split
    ag = pipe.pedal.alpha_wirtinger  # complex (n, points)
    lev = base.flag(min(2, base.flag_capacity()))
    u1, u2 = sp.sections
    frames = [*sp.frames, *(_nvalue(fr) for level in lev[1:] for fr in level.frames)]
    rem = ag.copy()
    for fr in frames:
        rem = rem - _complex_dot(rem, fr) * fr
    amag = np.maximum(_norms(ag), _TINY)
    span_defect = _norms(rem) / amag
    pair = _complex_dot(ag, u2) - 1j * _complex_dot(ag, u1)
    # the product of the floored factors underflows, as in verify_normal_span
    pair_defect = np.abs(pair) / np.maximum(amag * np.sqrt(np.maximum(sp.theta, _TINY)), _TINY)
    return span_defect, pair_defect, pipe.mask(lev[-1].valid)


def _secondform_top_defect(pipe: SurfacePipeline):
    """(c) components of alpha_g along the second normal space of the base.

    Both components must be carried by a single complex scalar: (the
    connection form of the first normal frames toward the second,
    evaluated on the Wirtinger vector) times (the second form of the
    base on (Wirtinger, Z) paired with the oriented first normal frame),
    with the second component damped by the axis ratio lambda of the
    second curvature ellipse.
    """
    base = pipe.base
    sp = pipe.split
    ag = pipe.pedal.alpha_wirtinger
    lev = base.flag(2)
    f3, f4, f5, f6 = (_nvalue(fr) for level in lev for fr in level.frames)
    lam = lev[1].lam

    # connection form on the Wirtinger vector: <D_dz f3, f5>
    omega_dz = base.connection_forms()["omega_dz"][0, 2]
    _, zpair = _alpha_dz_position(sp, f3, f4)

    carried = omega_dz * zpair
    lhs5, lhs6 = _complex_dot(ag, f5), _complex_dot(ag, f6)
    rhs5 = -carried
    rhs6 = 1j * lam * carried
    scale = np.maximum(
        np.abs(lhs5) + np.abs(lhs6) + np.abs(carried),
        1e-9 * np.maximum(_norms(ag), _TINY),
    )
    defect = (np.abs(lhs5 - rhs5) + np.abs(lhs6 - rhs6)) / scale
    return defect, lam


def verify_pedal_secondform(run: Run) -> dict:
    """Structure of the pedal's (2,0)-part of the second form.

    (a) it lies in the base's second osculating flag — content only when
        the ambient has room beyond that flag, so the test also runs on
        the shipped three-circle surface in R^8;
    (b) its pairings with the two explicit normal sections are conjugate:
        <alpha_g, u2> = i <alpha_g, u1>;
    (c) its components along the second normal space are carried by the
        connection form (requires two curvature circles, lambda = 1);
    plus the connection-form relations between the two normal planes
    under the recorded Hodge sign convention.
    """
    pipe = run.surface
    span_d, pair_d, fmask = _secondform_span_pairing(pipe)
    hspan, _, hmask = _secondform_span_pairing(run.higher)
    ambient_6, ambient_8 = _masked_max(span_d, fmask), _masked_max(hspan, hmask)
    # the R^8 value adds to the run's own; it cannot stand in for it
    span = None if ambient_6 is None else _max_defined(ambient_6, ambient_8)
    ctrl = run.control
    cspan, cpair, cmask = _secondform_span_pairing(ctrl)
    clam = ctrl.base.flag(2)[1].lam
    out = {
        "pedal_secondform.span": Outcome(span, fmask, details={
            "ambient_6": ambient_6, "ambient_8": ambient_8}),
        "pedal_secondform.pairing": Outcome(pair_d, fmask),
        "pedal_secondform.one_circle": Outcome(np.maximum(cspan, cpair), cmask, details={
            "lambda_min": _masked_min(clam, cmask), "lambda_max": _masked_max(clam, cmask)}),
    }
    if run.wants("pedal_secondform.normal2"):
        top_d, lam = _secondform_top_defect(pipe)
        mask = pipe.mask()
        out["pedal_secondform.normal2"] = Outcome(top_d, details={
            "lambda_min": _masked_min(lam, mask), "lambda_max": _masked_max(lam, mask)})
    if run.wants("pedal_secondform.hodge"):
        hodge = hodge_relation_residuals(pipe.base)
        hodge_mask = pipe.pre & hodge["valid"]
        out["pedal_secondform.hodge"] = Outcome(hodge["minus"], hodge_mask, details={
            "convention": "minus",
            "rejected_convention_residual": _masked_max(hodge["plus"], hodge_mask)})
    return out


# ---------------------------------------------------------------------------
# refutation: the pedal is never S-Willmore
# ---------------------------------------------------------------------------


def _plane_angle_defect(u, w):
    """Sine of the largest principal angle between the realified planes.

    u, w: complex (n, points).  Each is realified to the plane spanned by
    its real and imaginary parts; complex parallelism makes the planes
    coincide.  Points where either plane degenerates get defect 0 (the
    parallelism condition is vacuous there).
    """
    planes = []
    for v in (u, w):
        a = np.stack([v.real, v.imag], axis=0)  # (2, n, P)
        # orthonormalize the two rows per point
        a0 = a[0]
        n0 = np.maximum(_norms(a0), _TINY)
        b0 = a0 / n0
        a1 = a[1] - np.sum(a[1] * b0, axis=0) * b0
        n1 = np.maximum(_norms(a1), _TINY)
        b1 = a1 / n1
        planes.append((b0, b1, (n0 > 1e3 * _TINY) & (n1 > 1e-12 * n0)))
    (p0, p1, ok_u), (q0, q1, ok_w) = planes
    m = np.stack([
        np.stack([np.sum(p0 * q0, axis=0), np.sum(p0 * q1, axis=0)], axis=-1),
        np.stack([np.sum(p1 * q0, axis=0), np.sum(p1 * q1, axis=0)], axis=-1),
    ], axis=-2)  # (P, 2, 2)
    # overflowed points are outside both masks; zeroing their matrices, as
    # geometry._rank does, keeps NaN out of the SVD
    m = np.where(np.all(np.isfinite(m), axis=(-2, -1))[..., None, None], m, 0.0)
    sv = np.linalg.svd(m, compute_uv=False)
    cos_small = np.clip(sv[..., -1], 0.0, 1.0)
    defect = np.sqrt(np.maximum(0.0, 1.0 - cos_small**2))
    return np.where(ok_u & ok_w, defect, 0.0), ok_u & ok_w


def verify_swillmore(run: Run) -> dict:
    """The pedal never satisfies the S-Willmore parallelism condition.

    Direct route: the normal derivative of the pedal's mean curvature
    along the Wirtinger vector must NOT be complex-parallel to the
    pedal's (2,0) second form; the defect (sine of the largest principal
    angle between the realified planes) must exceed the threshold on at
    least 90% of the grid.  Cross-check: a scalar obstruction assembled
    purely from base-surface data (connection form, second form against
    the position vector) must vanish/not-vanish in agreement with the
    direct route.  The product kappa*theta whose vanishing would be the
    only escape is recorded as bounded away from zero.
    """
    pipe = run.surface
    gb = pipe.pedal
    mask = pipe.mask()
    H = gb.mean_curvature()
    nabH = H.wirtinger().project_off([gb.e1, gb.e2]).value()  # H is carried to order <= 1
    ag = gb.alpha_wirtinger
    direct, both_ok = _plane_angle_defect(nabH, ag)
    mask_d = mask & both_ok

    # scalar route, entirely from base-surface data: e3 = delta/|delta| is
    # c f3 + s f4 as a jet identity, and f3, f4 are orthogonal to f5, so
    # <D_dz e3, f5> = c omega_35(dz) + s omega_45(dz)
    base = pipe.base
    sp = pipe.split
    delta = sp.first_normal_part
    dval = dot_values(delta, delta)
    guard = mask & (dval > 1e-20 * np.sum(_nvalue(base.f) ** 2, axis=0))
    e3 = delta * (1.0 / np.sqrt(np.where(guard, dval, 1.0)))
    _, _, f3, f4 = sp.frames
    c, s = dot_values(e3, f3), dot_values(e3, f4)
    e4 = f4 * c - f3 * s
    w35, w45 = base.connection_forms()["omega_dz"][:2, 2]
    omega_dz = c * w35 + s * w45

    alpha_zz = base.alpha_wirtinger
    A3 = _complex_dot(alpha_zz, e3)
    (w1, w2), (z1, z2) = base.wirtinger_coords, sp.tangent_coords
    pairing_Z = w1 * z1 + w2 * z2  # <f_z, Z>

    alpha_dz_Z, zpair = _alpha_dz_position(sp, e3, e4)

    scalar = omega_dz * (dval * A3 + pairing_Z * zpair)
    scale = np.abs(omega_dz) * (
        dval * np.maximum(_norms(alpha_zz), _TINY)
        + np.abs(pairing_Z) * np.maximum(_norms(alpha_dz_Z), _TINY)
    )
    scalar_n = np.abs(scalar) / np.maximum(scale, _TINY)

    agree = (direct >= SWILLMORE_CUT) == (scalar_n >= SWILLMORE_CUT)
    gmask = mask_d & guard
    total = int(np.sum(gmask))
    frac = float(np.sum(agree & gmask)) / total if total else None

    xi1, _ = base.traceless_second()
    kappa_theta = _norms(_nvalue(xi1)) * sp.theta
    hi = _masked_max(np.abs(kappa_theta), mask)
    lo = _masked_min(np.abs(kappa_theta), mask)
    ratio = (lo / hi) if (hi not in (None, 0.0) and lo is not None) else None
    return {
        "swillmore.refute": Outcome(direct, mask_d),
        "swillmore.scalar_agreement": Outcome(frac, gmask, details={
            "scalar_min": _masked_min(scalar_n, gmask),
            "scalar_low_quantile": _low_quantile(scalar_n, gmask)}),
        "swillmore.kappa_theta": Outcome(ratio, details={"min": lo, "max": hi}),
    }


# ---------------------------------------------------------------------------
# refutation: no inversion makes the pedal minimal
# ---------------------------------------------------------------------------


# center x point elements per minimality_residuals call on the lattice: each
# (centers, points) temporary is 512 KB whatever 3^n is, and so is peak
# lattice memory.  Blocks of 2^16 left the group about 1.5x faster than
# 2^17 or 2^18 on a 2-vCPU Xeon with 2 MB of L2 per core, where a block's
# temporaries stay in cache.
_LATTICE_BLOCK = 1 << 16

# the slack absorbs the rounding difference between a lattice bound's
# product over a column subset and one over the whole grid
_PRUNE_SLACK = 1e-12


def _center_lattice(n: int) -> np.ndarray:
    """The 3^n lattice centers on [-1.6, 1.6]^n, shape (3**n, n), in the
    row-major order of itertools.product (last coordinate fastest)."""
    axis = np.linspace(-1.6, 1.6, 3)
    return axis[np.indices((3,) * n).reshape(n, -1).T]


def _crosscheck_centers(n: int) -> np.ndarray:
    """The centers of inversion.crosscheck, shape (3, n): two opposite
    corners of the lattice's cube and its center."""
    return np.outer(np.linspace(-1.6, 1.6, 3), np.ones(n))


def _inverted_mean_ratio(res, tr_scale, keep):
    """|H| of the inverted pedals in units of their traceless second-form
    scale over (centers, points), from `minimality_residuals` output `res`
    and the base pedal's traceless scale `tr_scale`; evaluated only where
    `keep` holds, 0 elsewhere.

    Both scales carry the factor ||g - p0||^2 relative to base pedal
    data, so the ratio is 2 sqrt((r1^2 + r2^2) / theta + r3^2) over
    (||g - p0||^2 * base traceless scale).
    """
    ratio = np.zeros(res["pos_sq"].shape)
    np.divide(res["mean_norm"], 2.0 * res["pos_sq"], out=ratio, where=keep)
    return np.divide(2.0 * ratio, np.maximum(tr_scale, _TINY), out=ratio, where=keep)


def verify_inversion_minimality(run: Run) -> dict:
    """No center of inversion makes the pedal minimal.

    For each center of the 3^n lattice the closed-form residual system
    (two scalar residuals and one distance residual, all dimensionless)
    must fail at some grid point, and the inverted pedal's mean
    curvature, measured in units of its own second-form scale, must be
    large at some grid point.  Both reduce per center over the points
    first, then take the worst center.  The closed forms are
    cross-checked against direct jets of the inverted pedal at the three
    `_crosscheck_centers`.  Every inversion is in a unit sphere.

    Both defects are a min over centers of a max over kept points, and a
    center's max over some of the points bounds its max over all of them
    from below.  The walk's levels take every stride-th kept point, for
    the strides 4, 16, 64, ... that leave at least 4 points, coarsest
    first.  Each level bounds the surviving centers on its points, grades
    (evaluates on the whole grid) the centers of least bound, and drops
    each center whose two bounds both exceed the least graded values, as
    it can hold neither minimum; the survivors are graded last.  So each
    defect, the least graded value, is the whole lattice's.  Every call is
    a block of at most _LATTICE_BLOCK center x point elements.
    """
    pipe = run.surface
    n = pipe.evaluator.ambient_dim
    sp = pipe.split
    valid = pipe.mask()
    tr_scale = _traceless_scale(pipe.pedal)

    def reduced(idx, points=None):
        """Per-center max norm ratio and system margin of centers[idx]
        over `points` (default: the whole grid)."""
        keep, scale = (valid, tr_scale) if points is None else (valid[points], tr_scale[points])
        step = max(1, _LATTICE_BLOCK // keep.size)

        def block_maxima(start):  # its (centers, points) arrays die on return
            block = centers[idx[start:start + step]]
            res = minimality_residuals(sp, block, valid=valid, points=points)
            return _inverted_mean_ratio(res, scale, keep).max(axis=1), res["margin_per_center"]

        ratios, margins = zip(*map(block_maxima, range(0, idx.size, step)))
        return np.concatenate(ratios), np.concatenate(margins)

    norm_defect = system_defect = None
    if np.any(valid):
        centers = _center_lattice(n)
        kept = np.flatnonzero(valid)
        graded = np.zeros(centers.shape[0], dtype=bool)  # evaluated on the whole grid
        top = np.full(2, np.inf)  # least whole-grid norm ratio and margin so far

        def grade(idx):
            graded[idx] = True
            top[:] = np.minimum(top, [values.min() for values in reduced(idx)])

        alive = np.arange(centers.shape[0])
        ladder, stride = [], 4
        while 3 * stride < kept.size:  # kept[::stride] holds at least 4 points
            ladder.insert(0, stride)
            stride *= 4
        for stride in ladder:
            if not alive.size:
                break
            low_norm, low_system = reduced(alive, kept[::stride])
            grade(alive[sorted({low_norm.argmin(), low_system.argmin()})])
            bound = top * (1.0 + _PRUNE_SLACK)
            pruned = (low_norm > bound[0]) & (low_system > bound[1])
            alive = alive[~pruned & ~graded[alive]]
        if alive.size:
            grade(alive)
        norm_defect, system_defect = map(float, top)

    # direct-jet cross-check at three fixed centers on a coarse subgrid,
    # where one evaluation of the surface feeds the split, the pedal's
    # geometry and the sampled inversions, stacked in one bundle
    sub = pipe.on(5)
    probes = _crosscheck_centers(n)
    sres = minimality_residuals(sub.split, probes)
    bundle = SurfaceJets(invert_evaluator(sub.pedal_evaluated, probes), sub.x, sub.y, 2)
    masks = sub.pre & bundle.valid & sub.split.valid  # one row per center
    closed = _inverted_mean_ratio(sres, _traceless_scale(sub.pedal), masks)[masks]
    diff = np.abs(_mean_ratio(bundle)[masks] - closed) / np.maximum(closed, _TINY)
    worst = float(diff.max()) if diff.size else None
    kept = sub.pre & sub.split.valid & np.all(masks, axis=0)
    return {
        "inversion.norm": Outcome(norm_defect, valid, details={"centers": 3 ** n}),
        "inversion.system": Outcome(system_defect, valid, details={"centers": 3 ** n}),
        "inversion.crosscheck": Outcome(worst, kept, sub.grid, details={
            "sampled_centers": len(probes)}),
    }


# ---------------------------------------------------------------------------
# the shifted pedal family and the rank of the first normal bundle
# ---------------------------------------------------------------------------


def _rank_deviation(bundle: SurfaceJets):
    """|rank - 3| of the first normal bundle at each point of the bundle."""
    return np.abs(first_normal_rank(bundle) - 3.0)


def _random_inversion_rank_defect(pipe: SurfacePipeline, rng, count, span):
    """Worst |rank - 3| of the first normal bundle over random inversions
    of the pipeline's pedal, stacked in one bundle, the number of
    inversions evaluated, and the points no inversion dropped."""
    centers = []
    for _ in range(count):
        direction = rng.normal(size=pipe.evaluator.ambient_dim)
        direction /= np.linalg.norm(direction)
        centers.append(span * direction)
    bundle = SurfaceJets(invert_evaluator(pipe.pedal_evaluated, np.array(centers)),
                         pipe.x, pipe.y, 2)
    masks = pipe.pre & bundle.valid  # one row per inversion
    defects = [d for d in map(_masked_max, _rank_deviation(bundle), masks) if d is not None]
    return max(defects, default=None), len(defects), pipe.pre & np.all(masks, axis=0)


def _inverted_rank(pipe: SurfacePipeline, seed: int):
    """Random inversions of the pedal on the 7 x 7 subgrid, the centers
    scaled to the pedal's finite extent over the whole grid."""
    foot = np.abs(_nvalue(pipe.split.foot))
    span = 3.0 * float(np.max(foot, where=np.isfinite(foot), initial=0.0)) + 1.0
    return _random_inversion_rank_defect(pipe.on(7), np.random.default_rng(seed), 10, span)


def verify_shifted_pedals(run: Run) -> dict:
    """The shifted pedal family and first-normal-rank stability.

    (a) pedals of c*f + v are superconformal and conformal to f for
        sampled (c, v), including the identity sample (1, 0); v is the
        config's `shift_vector()`, c its scale unless that is 1 (default:
        0.7);
    (b) they decompose as c*(pedal of f) + (normal shadow of v);
    (c) the c = 0 member (the shadow of v) is superconformal and its
        inversion centered at v is minimal;
    (d) the first normal bundle of the pedal has rank exactly three, and
        keeps rank three under random inversions — including for the
        three-circle surface in R^8.

    (a) to (c) run on an 11 x 11 subgrid, on the surface's one evaluation
    there: the pedal of f and the shadow of v are normal parts of its base
    bundle, and the members c*f + v are stacked in one base bundle and one
    pedal bundle.  The R^8 surface is built only when its check is wanted.
    """
    pipe = run.surface
    config = run.config
    v = config.shift_vector()
    cc = float(config.scale) if config.scale != 1.0 else 0.7
    sub = pipe.on(11)
    sx, sy, spre = sub.x, sub.y, sub.pre
    shadow_at = sub.normal_surface(v)
    shadow = SurfaceJets(shadow_at, sx, sy, 2)
    # the members c*f + v; the decomposition reads member (cc, v), slice 0
    scales, shifts = (cc, -1.3), (v, 0.5 * v)
    shifted = SurfacePipeline(sub.evaluated.affine(scales, np.transpose(shifts)), sub.grid,
                              MIN_ORDER).pedal
    # the identity sample (c, v) = (1, 0) is the pedal of f itself
    gb = sub.pedal
    defects = [np.maximum(gb.circle_defect(1)[0], _conformality_defect(gb)[0]),
               *np.maximum(shifted.circle_defect(1)[0], _conformality_defect(shifted)[0])]
    samples, kept = [], spre & sub.base.valid
    for c, defect, valid in zip([1.0, *scales], defects, [gb.valid, *shifted.valid]):
        m = spre & valid & sub.base.valid
        kept = kept & m  # a point any sample drops is excluded
        samples.append({"scale": c, "defect": _masked_max(defect, m)})
    out = {"shifted_pedal.family": Outcome(
        _max_defined(*(s["defect"] for s in samples)), kept, sub.grid,
        details={"samples": samples})}

    # pedal(c f + v) = c * pedal(f) + shadow(v)
    rhs = cc * _nvalue(sub.pedal.f) + _nvalue(shadow.f)
    m = spre & shifted.valid[0] & sub.pedal.valid & shadow.valid
    out["shifted_pedal.decomposition"] = Outcome(
        _norms(_nvalue(shifted.f)[:, 0] - rhs) / np.maximum(_norms(rhs), _TINY), m,
        sub.grid, details={"scale": cc})

    # the shadow surface itself: superconformal, and minimal after the
    # inversion centered at its defining vector
    scirc, _ = shadow.circle_defect(1)
    out["shifted_pedal.shadow_superconformal"] = Outcome(scirc, spre & shadow.valid, sub.grid)
    inverted = SurfaceJets(invert_evaluator(shadow_at, v), sx, sy, 2)
    out["shifted_pedal.inverted_minimal"] = Outcome(
        _mean_ratio(inverted), spre & inverted.valid, sub.grid)

    # rank of the first normal bundle: the pedal itself, then random
    # inversions of it, then the same pair for the R^8 three-circle surface
    out["first_normal_rank.pedal"] = Outcome(_rank_deviation(pipe.pedal))
    rdef, evaluated, kept = _inverted_rank(pipe, _RANK_SEED)
    out["first_normal_rank.inverted"] = Outcome(rdef, kept, pipe.on(7).grid, details={
        "inversions": evaluated})
    if run.wants("first_normal_rank.higher_isotropy"):
        hi = run.higher
        hmask = hi.mask()
        hdef = _masked_max(_rank_deviation(hi.pedal), hmask)
        hrdef, hev, _ = _inverted_rank(hi, _RANK_SEED + 1)
        out["first_normal_rank.higher_isotropy"] = Outcome(
            _max_defined(hdef, hrdef), hmask, details={
                "pedal_rank_defect": hdef, "inverted_rank_defect": hrdef, "inversions": hev})
    return out


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def _select(prefixes) -> tuple:
    """The registry entries whose id starts with one of the prefixes (all
    of them when there are none); a prefix matching no id is an error."""
    if not prefixes:
        return CHECKS
    unknown = [p for p in prefixes if not any(c.id.startswith(p) for c in CHECKS)]
    if unknown:
        groups = ", ".join(dict.fromkeys(c.id.split(".")[0] for c in CHECKS))
        raise ConfigError(f"no check id starts with {', '.join(map(repr, unknown))}; "
                          f"ids start with one of: {groups}")
    return tuple(c for c in CHECKS if c.id.startswith(tuple(prefixes)))


def _record(check: Check, run: Run, outcome: Optional[Outcome],
            unmet: Optional[Requirement]) -> dict:
    """The report record of one check: its outcome reduced over its mask
    and judged against its threshold, or the requirement it lacks."""
    grid = run.config.grid
    statement, details = check.statement, {}
    if unmet is not None:
        statement, defect, excluded = unmet.reason, None, grid.size
    else:
        mask = run.surface.mask() if outcome.mask is None else outcome.mask
        defect = outcome.defect
        if isinstance(defect, np.ndarray):
            reduce = _masked_max if check.mode == "upper" else _low_quantile
            defect = reduce(defect, mask)
        excluded = int(np.sum(~mask))
        grid = outcome.grid or grid
        details = outcome.details
    passed, status = False, "evaluated"
    if defect is None or not math.isfinite(defect):
        status = "inconclusive"
    elif check.mode == "upper":
        passed = defect <= check.threshold
    else:
        passed = defect >= check.threshold
    rec = {
        "id": check.id,
        "statement": statement,
        "grid": [grid.nx, grid.ny],
        "excluded": excluded,
        "defect": _jsonable(defect),
        "threshold": check.threshold,
        "mode": check.mode,
        "pass": bool(passed),
        "status": status,
    }
    if details:
        rec["details"] = {k: _jsonable(v) for k, v in sorted(details.items())}
    return rec


def run_all(config: RunConfig) -> dict:
    """Execute every (selected) check and assemble the JSON-ready report.

    The report is a deterministic function of the config: fixed random
    seeds, no timestamps.  Overall status is "pass" when every executed
    check passes, "fail" when any evaluated check fails, and
    "inconclusive" when nothing failed but some selected checks could
    not run (no usable grid points, or an ambient dimension below a
    check's requirement).  The run's surface is differentiated at
    JET_ORDER and every other pipeline at MIN_ORDER, whatever the
    config's `jet_order`.
    """
    if not isinstance(config, RunConfig):
        raise ConfigError("run_all needs a RunConfig")
    checks = _select(config.checks)
    grid = config.grid
    environment = {
        "grid": [grid.nx, grid.ny],
        "window": [grid.x0, grid.x1, grid.y0, grid.y1],
        "spec_sha256": config.digest(),
        "ambient_dim": config.curve.ambient_dim,
    }
    usable = int(np.sum(grid.premask())) if grid.size else 0
    environment["points"] = {"total": grid.size, "usable": usable}
    records = []
    if usable:
        n = config.curve.ambient_dim
        unmet = {c.id: c.requires for c in checks if c.requires and n < c.requires.min_dim}
        run = Run(config, {c.id for c in checks if c.id not in unmet})
        environment["points"]["usable"] = int(np.sum(run.surface.mask()))
        outcomes = {}
        # looked up at call time, so a replaced module function is the one run
        for group in dict.fromkeys(c.group for c in checks if c.id in run.ids):
            outcomes.update(globals()[group](run))
        records = [_record(c, run, outcomes.get(c.id), unmet.get(c.id)) for c in checks]

    # an evaluated failure is a failure; checks that could not run at all
    # (ambient dimension too small) make the run inconclusive
    if not records:
        status = "inconclusive"
    elif any(r["status"] == "evaluated" and not r["pass"] for r in records):
        status = "fail"
    elif any(r["status"] != "evaluated" for r in records):
        status = "inconclusive"
    else:
        status = "pass"
    return {
        "version": REPORT_VERSION,
        "environment": environment,
        "status": status,
        "checks": records,
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
