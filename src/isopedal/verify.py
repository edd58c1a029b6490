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
    residual system stays bounded away from zero over a lattice of
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
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .config import RunConfig
from .errors import ConfigError
from .geometry import (
    SurfaceJets,
    first_normal_rank,
    hodge_relation_residuals,
)
from .grid import Grid
from .jets import DEFAULT_ORDER, JetVec
from .moebius import InversionSpec, invert_evaluator, minimality_residuals
from .pedal import (
    PedalBundle,
    normal_part,
    normal_part_evaluator,
    pedal_split,
    pedal_surface,
)
from .weierstrass import (
    IsotropicCurve,
    IsotropicSpec,
    SurfaceEvaluator,
    preset_curve,
    surface_evaluator,
    w_generate,
)

REPORT_VERSION = "1"
REFUTE_QUANTILE = 0.90  # a refutation holds if the defect exceeds threshold here
_TINY = 1e-300

DEFAULT_TOLERANCES = {
    "generator_isotropy": 1e-10,
    "generator_minimality": 1e-9,
    "pedal_circle_positive": 1e-8,
    "pedal_circle_wintgen": 1e-7,
    "pedal_circle_negative": 1e-3,
    "pedal_conformal": 1e-8,
    "pedal_conformal_factor": 1e-7,
    "pedal_normal_span": 1e-8,
    "pedal_mean_formula": 1e-7,
    "pedal_mean_laplacian": 1e-6,
    "pedal_mean_scaling": 1e-9,
    "secondform_span": 1e-7,
    "secondform_pairing": 1e-7,
    "secondform_normal2": 1e-6,
    "secondform_hodge": 1e-8,
    "swillmore_refute": 1e-3,
    "swillmore_agreement": 0.99,
    "swillmore_kappa_theta": 1e-3,
    "inversion_norm": 1e-3,
    "inversion_system": 1e-3,
    "inversion_crosscheck": 1e-7,
    "shifted_family": 1e-8,
    "shifted_decomposition": 1e-10,
    "shadow_superconformal": 1e-8,
    "shadow_inverted_minimal": 1e-7,
    "first_normal_rank": 0.5,
}

# A fixed generic direction used when the config supplies no translation
# vector; scaled to the ambient dimension at hand.
_GENERIC_DIRECTION = (0.9, -0.4, 0.7, 0.3, -0.8, 0.5, 0.2, -0.6, 0.4, 0.1, -0.3, 0.8)


@dataclass
class CheckResult:
    """Outcome of one grid check.

    mode "upper": pass iff defect <= threshold (identity certification).
    mode "lower": pass iff defect >= threshold (refutation / separation).
    A defect of None means the check could not be evaluated; `passed` is
    False then and `status` explains why ("insufficient jet order",
    "inconclusive").
    """

    check_id: str
    statement: str
    grid: tuple
    excluded: int
    defect: Optional[float]
    threshold: float
    mode: str = "upper"
    passed: bool = False
    status: str = "evaluated"
    details: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        rec = {
            "id": self.check_id,
            "statement": self.statement,
            "grid": list(self.grid),
            "excluded": int(self.excluded),
            "defect": _jsonable(self.defect),
            "threshold": float(self.threshold),
            "mode": self.mode,
            "pass": bool(self.passed),
            "status": self.status,
        }
        if self.details:
            rec["details"] = {k: _jsonable(v) for k, v in sorted(self.details.items())}
        return rec


def _jsonable(v):
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, (float, np.floating)):
        v = float(v)
        return v if math.isfinite(v) else None
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in sorted(v.items())}
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    return str(v)


def _finish(check: CheckResult) -> CheckResult:
    """Decide pass/fail from defect, mode and threshold."""
    if check.defect is None or not math.isfinite(check.defect):
        check.passed = False
        if check.status == "evaluated":
            check.status = "inconclusive"
        return check
    if check.mode == "upper":
        check.passed = check.defect <= check.threshold
    else:
        check.passed = check.defect >= check.threshold
    return check


def _masked_max(values, mask):
    if not np.any(mask):
        return None
    return float(np.max(np.asarray(values)[mask]))


def _masked_min(values, mask):
    if not np.any(mask):
        return None
    return float(np.min(np.asarray(values)[mask]))


def _low_quantile(values, mask, q=1.0 - REFUTE_QUANTILE):
    """Conservative low quantile of values over the mask."""
    if not np.any(mask):
        return None
    vals = np.sort(np.asarray(values)[mask])
    idx = min(len(vals) - 1, int(math.floor(q * len(vals))))
    return float(vals[idx])


def _norms(values):
    """Euclidean length over the leading (component) axis."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        return np.sqrt(np.sum(np.abs(v) ** 2, axis=0))
    return np.sqrt(np.sum(v * v, axis=0))


def _values(jv: JetVec):
    return jv.value().real


# ---------------------------------------------------------------------------
# pipelines: generation -> pedal -> geometry, cached per surface and grid
# ---------------------------------------------------------------------------


class SurfacePipeline:
    """Caches the jet bundles of one surface and its pedal over one grid."""

    def __init__(self, curve: IsotropicCurve, grid: Grid, order: int, label: str):
        if order < 3:
            raise ConfigError("pedal geometry needs jet order >= 3")
        self.curve = curve
        self.grid = grid
        self.order = order
        self.label = label
        self.evaluator = surface_evaluator(curve)
        x, y = grid.points()
        self.x = x
        self.y = y
        self.pre = grid.premask()
        self._cache = {}

    @property
    def base(self) -> SurfaceJets:
        if "base" not in self._cache:
            self._cache["base"] = SurfaceJets(self.evaluator, self.x, self.y, self.order)
        return self._cache["base"]

    @property
    def split(self) -> PedalBundle:
        if "split" not in self._cache:
            self._cache["split"] = pedal_split(self.base)
        return self._cache["split"]

    @property
    def pedal_evaluator(self) -> SurfaceEvaluator:
        if "pedal_eval" not in self._cache:
            self._cache["pedal_eval"] = pedal_surface(self.evaluator)
        return self._cache["pedal_eval"]

    @property
    def pedal(self) -> SurfaceJets:
        """The pedal's bundle, composed on the base bundle's jets."""
        if "pedal" not in self._cache:
            k = self.order - 1
            evaluated = SurfaceEvaluator.of_jets(
                self.pedal_evaluator.provenance, self.x, self.y, *normal_part(self.base, k))
            self._cache["pedal"] = SurfaceJets(evaluated, self.x, self.y, k)
        return self._cache["pedal"]

    def mask(self, *extra) -> np.ndarray:
        m = self.pre & self.base.valid & self.split.valid & self.pedal.valid
        for e in extra:
            m = m & e
        return m

    def grid_shape(self):
        return (self.grid.nx, self.grid.ny)


def _resolve_curve(fspec) -> IsotropicCurve:
    if isinstance(fspec, IsotropicCurve):
        return fspec
    if isinstance(fspec, IsotropicSpec):
        return w_generate(fspec)
    if isinstance(fspec, str):
        return preset_curve(fspec)
    raise ConfigError(f"cannot build a surface from {type(fspec).__name__}")


def _pipeline(fspec, grid, order, label="surface") -> SurfacePipeline:
    if isinstance(fspec, SurfacePipeline):
        return fspec
    return SurfacePipeline(_resolve_curve(fspec), grid or Grid(), order, label)


def _tol(tolerances, name):
    if tolerances and name in tolerances:
        return float(tolerances[name])
    return DEFAULT_TOLERANCES[name]


def _generic_vector(n: int) -> np.ndarray:
    reps = -(-n // len(_GENERIC_DIRECTION))
    return np.asarray((_GENERIC_DIRECTION * reps)[:n], dtype=float)


def _subgrid(grid: Grid, res: int) -> Grid:
    return Grid(grid.x0, grid.x1, grid.y0, grid.y1,
                min(grid.nx, res), min(grid.ny, res), grid.excluded)


# ---------------------------------------------------------------------------
# generator checks
# ---------------------------------------------------------------------------


def verify_generation(fspec, grid=None, order=DEFAULT_ORDER, tolerances=None):
    """Exactness of the generated surface: null curve square, minimality."""
    pipe = _pipeline(fspec, grid, order)
    shape = pipe.grid_shape()
    out = []

    residual = pipe.curve.isotropy_residual()
    out.append(_finish(CheckResult(
        check_id="generator.isotropy",
        statement="the derivative of the generated curve has exactly null "
                  "bilinear square (relative coefficient norm)",
        grid=shape,
        excluded=0,
        defect=float(residual),
        threshold=_tol(tolerances, "generator_isotropy"),
    )))

    base = pipe.base
    mask = pipe.pre & base.valid
    H = _values(base.mean_curvature())
    a11, a12, a22 = (_values(a) for a in base.second_fundamental())
    scale = np.sqrt(_norms(a11) ** 2 + 2 * _norms(a12) ** 2 + _norms(a22) ** 2)
    defect = _norms(H) / np.maximum(scale, _TINY)
    out.append(_finish(CheckResult(
        check_id="generator.minimality",
        statement="the generated surface has vanishing mean curvature "
                  "relative to its second-form scale",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=_masked_max(defect, mask),
        threshold=_tol(tolerances, "generator_minimality"),
    )))
    return out


# ---------------------------------------------------------------------------
# superconformality of the pedal (positive + refutation branches)
# ---------------------------------------------------------------------------


def verify_superconformal(fspec, grid=None, order=DEFAULT_ORDER, tolerances=None,
                          control=None):
    """Circle test of the pedal's curvature ellipse, both branches.

    The positive branch runs on `fspec` (expected: two curvature circles
    upstream); the refutation branch runs on `control` (default: the
    shipped surface with exactly one curvature circle) and must see a
    LARGE circle defect on at least 90% of the grid.
    """
    pipe = _pipeline(fspec, grid, order)
    shape = pipe.grid_shape()
    out = []

    gb = pipe.pedal
    defect1, _, _ = gb.circle_defect(1)
    mask = pipe.mask()
    out.append(_finish(CheckResult(
        check_id="pedal_circle.positive",
        statement="the curvature ellipse of the pedal surface is a circle "
                  "at every non-excluded grid point",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=_masked_max(defect1, mask),
        threshold=_tol(tolerances, "pedal_circle_positive"),
    )))

    sc = gb.curvature_scalars()
    scale = np.abs(sc["K"]) + np.abs(sc["K_N"]) + sc["H_norm_sq"]
    wdef = np.abs(sc["wintgen_defect"]) / np.maximum(scale, _TINY)
    out.append(_finish(CheckResult(
        check_id="pedal_circle.wintgen",
        statement="the pedal surface attains equality in the normal-curvature "
                  "inequality K + |K_N| <= |H|^2 (relative defect)",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=_masked_max(wdef, mask),
        threshold=_tol(tolerances, "pedal_circle_wintgen"),
    )))

    ctrl = _pipeline(control if control is not None else "noniso",
                     pipe.grid, order, label="control")
    cgb = ctrl.pedal
    cdef, _, _ = cgb.circle_defect(1)
    cmask = ctrl.mask()
    out.append(_finish(CheckResult(
        check_id="pedal_circle.negative",
        statement="for a surface with only one curvature circle the pedal "
                  "fails the circle test on at least 90% of the grid",
        grid=shape,
        excluded=int(np.sum(~cmask)),
        defect=_low_quantile(cdef, cmask),
        threshold=_tol(tolerances, "pedal_circle_negative"),
        mode="lower",
    )))
    return out


# ---------------------------------------------------------------------------
# conformality of the base to its pedal
# ---------------------------------------------------------------------------


def _conformality_defect(gb: SurfaceJets):
    gx = _values(gb.partial(1, 0))
    gy = _values(gb.partial(0, 1))
    E = np.sum(gx * gx, axis=0)
    F = np.sum(gx * gy, axis=0)
    G = np.sum(gy * gy, axis=0)
    scale = np.maximum(np.maximum(E, G), _TINY)
    return np.maximum(np.abs(F), np.abs(E - G)) / scale, E


def verify_pedal_conformality(fspec, grid=None, order=DEFAULT_ORDER, tolerances=None,
                              control=None):
    """Isothermal defect of the pedal and the metric-ratio closed form.

    In isothermal coordinates of the base surface, conformality of base
    and pedal is exactly isothermality of the pedal's own first
    fundamental form; the ratio of the metrics must equal -K*theta/2.
    One curvature circle suffices, so the one-circle control surface
    must pass the conformality part as well.
    """
    pipe = _pipeline(fspec, grid, order)
    shape = pipe.grid_shape()
    out = []

    defect, Eg = _conformality_defect(pipe.pedal)
    mask = pipe.mask()
    out.append(_finish(CheckResult(
        check_id="pedal_conformal.orthogonality",
        statement="the pedal surface is isothermal in the base surface's "
                  "isothermal coordinates (conformality of base and pedal)",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=_masked_max(defect, mask),
        threshold=_tol(tolerances, "pedal_conformal"),
    )))

    Ef, _, _ = (j.value().real for j in pipe.base.first_fundamental())
    ratio = Eg / np.maximum(Ef, _TINY)
    predicted = pipe.split.conformal_factor_predicted()
    fdef = np.abs(ratio - predicted) / np.maximum(np.abs(ratio), _TINY)
    out.append(_finish(CheckResult(
        check_id="pedal_conformal.factor",
        statement="the pedal/base metric ratio equals -K*theta/2 "
                  "(relative defect)",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=_masked_max(fdef, mask),
        threshold=_tol(tolerances, "pedal_conformal_factor"),
    )))

    ctrl = _pipeline(control if control is not None else "noniso",
                     pipe.grid, order, label="control")
    cdef, _ = _conformality_defect(ctrl.pedal)
    cmask = ctrl.mask()
    out.append(_finish(CheckResult(
        check_id="pedal_conformal.one_circle",
        statement="one curvature circle already makes the pedal conformal "
                  "to the base (control surface passes the same test)",
        grid=shape,
        excluded=int(np.sum(~cmask)),
        defect=_masked_max(cdef, cmask),
        threshold=_tol(tolerances, "pedal_conformal"),
    )))
    return out


# ---------------------------------------------------------------------------
# the normal bundle of the pedal
# ---------------------------------------------------------------------------


def verify_normal_span(fspec, grid=None, order=DEFAULT_ORDER, tolerances=None):
    """Span/orthogonality residuals of the pedal's normal bundle.

    The two explicit sections u1 = Z - delta and u2 = JZ + J1(delta)
    must be normal to the pedal, mutually orthogonal with common squared
    length theta, and the pedal's tangent plane must stay inside the
    span of the base tangent plane and first normal space.
    """
    pipe = _pipeline(fspec, grid, order)
    base = pipe.base
    sp = pipe.split
    gb = pipe.pedal
    mask = pipe.mask()

    Z = _values(sp.tangent_part)
    delta = _values(sp.first_normal_part)
    theta = sp.osc_norm_sq.value().real
    e1, e2 = _values(base.e1), _values(base.e2)
    lev1 = base.flag(1)[0]
    e3, e4 = _values(lev1.frames[0]), _values(lev1.frames[1])
    u1 = Z - delta
    u2 = sp.rotation_section()

    gx = _values(gb.partial(1, 0))
    gy = _values(gb.partial(0, 1))
    tfloor = np.maximum(theta, _TINY)
    sq_theta = np.sqrt(tfloor)
    residuals = []
    for tangent in (gx, gy):
        tn = np.maximum(_norms(tangent), _TINY)
        for u in (u1, u2):
            residuals.append(np.abs(np.sum(tangent * u, axis=0)) / (tn * sq_theta))
        # containment: the pedal's tangent plane sits inside the base's
        # tangent + first-normal span, i.e. normal sections of the base
        # beyond that span are normal to the pedal too
        rem = tangent.copy()
        for fr in (e1, e2, e3, e4):
            rem = rem - np.sum(tangent * fr, axis=0) * fr
        residuals.append(_norms(rem) / tn)
    residuals.append(np.abs(np.sum(u1 * u2, axis=0)) / tfloor)
    residuals.append(np.abs(_norms(u1) ** 2 - theta) / tfloor)
    residuals.append(np.abs(_norms(u2) ** 2 - theta) / tfloor)
    worst = np.maximum.reduce(residuals)

    return [_finish(CheckResult(
        check_id="pedal_normal_span",
        statement="the pedal's normal bundle contains the two explicit "
                  "rotation sections of the position vector and the "
                  "complement of the first normal space (max residual)",
        grid=pipe.grid_shape(),
        excluded=int(np.sum(~mask)),
        defect=_masked_max(worst, mask),
        threshold=_tol(tolerances, "pedal_normal_span"),
    ))]


# ---------------------------------------------------------------------------
# mean curvature of the pedal
# ---------------------------------------------------------------------------


def _pedal_mean_values(evaluator: SurfaceEvaluator, x, y):
    bundle = SurfaceJets(pedal_surface(evaluator), x, y, 2)
    return _values(bundle.mean_curvature()), bundle.valid


def verify_meancurvature(fspec, grid=None, order=DEFAULT_ORDER, tolerances=None):
    """Closed forms for the pedal's mean curvature and flat Laplacian."""
    pipe = _pipeline(fspec, grid, order)
    shape = pipe.grid_shape()
    sp = pipe.split
    mask = pipe.mask()
    out = []

    H_direct = _values(pipe.pedal.mean_curvature())
    H_pred = _values(sp.mean_curvature_predicted())
    denom = np.maximum(_norms(H_pred), _TINY)
    defect = _norms(H_direct - H_pred) / denom
    out.append(_finish(CheckResult(
        check_id="pedal_mean.formula",
        statement="the pedal's mean curvature vector equals "
                  "(2/theta)(Z - delta) (relative defect)",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=_masked_max(defect, mask),
        threshold=_tol(tolerances, "pedal_mean_formula"),
    )))

    Ef, _, _ = (j.value().real for j in pipe.base.first_fundamental())
    lap = _values(pipe.pedal.laplacian()) / np.maximum(Ef, _TINY)
    K = pipe.base.curvature_scalars()["K"]
    rhs = 2.0 * K * (_values(sp.first_normal_part) - _values(sp.tangent_part))
    scale = np.maximum(_norms(rhs), _TINY)
    ldef = _norms(lap - rhs) / scale
    out.append(_finish(CheckResult(
        check_id="pedal_mean.laplacian",
        statement="the metric Laplacian of the pedal equals 2K(delta - Z) "
                  "(relative defect)",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=_masked_max(ldef, mask),
        threshold=_tol(tolerances, "pedal_mean_laplacian"),
    )))

    # homothety control: the pedal of 2f is 2g, so its mean curvature is
    # half that of g, pointwise
    sub = _subgrid(pipe.grid, 7)
    sx, sy = sub.points()
    H_base, ok_base = _pedal_mean_values(pipe.evaluator, sx, sy)
    H_twice, ok_twice = _pedal_mean_values(pipe.evaluator.affine(scale=2.0), sx, sy)
    smask = sub.premask() & ok_base & ok_twice
    sdef = _norms(H_twice - 0.5 * H_base) / np.maximum(_norms(0.5 * H_base), _TINY)
    out.append(_finish(CheckResult(
        check_id="pedal_mean.scaling",
        statement="doubling the base surface halves the pedal's mean "
                  "curvature pointwise (homothety control)",
        grid=(sub.nx, sub.ny),
        excluded=int(np.sum(~smask)),
        defect=_masked_max(sdef, smask),
        threshold=_tol(tolerances, "pedal_mean_scaling"),
    )))
    return out


# ---------------------------------------------------------------------------
# structure of the pedal's (2,0) second form
# ---------------------------------------------------------------------------


def _complex_dot(values_c, frame_values):
    """Bilinear pairing of a complex vector field with a real frame."""
    return np.sum(values_c * frame_values, axis=0)


def _pedal_wirtinger_data(pipe: SurfacePipeline):
    """alpha_g(dz,dz) of the pedal plus the base-side pairing sections."""
    base = pipe.base
    sp = pipe.split
    ag = pipe.pedal.alpha_wirtinger().value()  # complex (n, points)
    theta = sp.osc_norm_sq.value().real
    lev = base.flag(min(2, base.flag_capacity()))
    u1 = _values(sp.tangent_part) - _values(sp.first_normal_part)
    return ag, u1, sp.rotation_section(), theta, lev


def _secondform_span_pairing(pipe: SurfacePipeline):
    """(a) flag containment and (b) conjugate pairing defects."""
    ag, u1, u2, theta, lev = _pedal_wirtinger_data(pipe)
    base = pipe.base
    frames = [_values(base.e1), _values(base.e2)]
    for level in lev:
        frames.extend(_values(fr) for fr in level.frames)
    rem = ag.copy()
    for fr in frames:
        rem = rem - _complex_dot(rem, fr) * fr
    amag = np.maximum(_norms(ag), _TINY)
    span_defect = _norms(rem) / amag
    pair = _complex_dot(ag, u2) - 1j * _complex_dot(ag, u1)
    pair_defect = np.abs(pair) / (amag * np.sqrt(np.maximum(theta, _TINY)))
    return span_defect, pair_defect


def _secondform_top_defect(pipe: SurfacePipeline, tolerances):
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
    ag = pipe.pedal.alpha_wirtinger().value()
    lev = base.flag(2)
    f3, f4 = lev[0].frames
    f5, f6 = lev[1].frames
    lam = lev[1].lam

    # connection form on the Wirtinger vector: <D_dz f3, f5>
    d3dz = JetVec([(c.dx() - c.dy().scale(1j)).scale(0.5) for c in f3])
    omega_dz = d3dz.dot(f5).value()

    # base second form on (dz, Z): assembled from coordinate partials
    h = {
        key: base.tangent_project_off(base.partial(*key))
        for key in ((2, 0), (1, 1), (0, 2))
    }
    a, b, c = (j.value().real for j in base.tangent_coeff_jets())
    Z = _values(sp.tangent_part)
    e1v, e2v = _values(base.e1), _values(base.e2)
    z1 = np.sum(Z * e1v, axis=0)
    z2 = np.sum(Z * e2v, axis=0)
    p = z1 * a + z2 * b
    q = z2 * c
    hxx, hxy, hyy = (_values(h[k]) for k in ((2, 0), (1, 1), (0, 2)))
    alpha_dz_Z = 0.5 * ((p * hxx + q * hxy) - 1j * (p * hxy + q * hyy))
    zpair = (_complex_dot(alpha_dz_Z, _values(f3))
             + 1j * _complex_dot(alpha_dz_Z, _values(f4)))

    carried = omega_dz * zpair
    lhs5 = _complex_dot(ag, _values(f5))
    lhs6 = _complex_dot(ag, _values(f6))
    rhs5 = -carried
    rhs6 = 1j * lam * carried
    scale = np.maximum(
        np.abs(lhs5) + np.abs(lhs6) + np.abs(carried),
        1e-9 * np.maximum(_norms(ag), _TINY),
    )
    defect = (np.abs(lhs5 - rhs5) + np.abs(lhs6 - rhs6)) / scale
    return defect, lam


def verify_pedal_secondform(fspec, grid=None, order=DEFAULT_ORDER, tolerances=None,
                            control=None, higher=None):
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
    pipe = _pipeline(fspec, grid, order)
    order = pipe.order
    shape = pipe.grid_shape()
    mask = pipe.mask()
    out = []

    span_d, pair_d = _secondform_span_pairing(pipe)
    hi = _pipeline(higher if higher is not None else "holo4",
                   pipe.grid, order, label="higher")
    hspan, hpair = _secondform_span_pairing(hi)
    hmask = hi.mask()
    span_defect = max(
        v for v in (_masked_max(span_d, mask), _masked_max(hspan, hmask))
        if v is not None
    ) if (np.any(mask) or np.any(hmask)) else None
    out.append(_finish(CheckResult(
        check_id="pedal_secondform.span",
        statement="the (2,0) second form of the pedal lies in the base's "
                  "second osculating flag (checked also in R^8 where the "
                  "complement is nontrivial)",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=span_defect,
        threshold=_tol(tolerances, "secondform_span"),
        details={"ambient_6": _masked_max(span_d, mask),
                 "ambient_8": _masked_max(hspan, hmask)},
    )))

    out.append(_finish(CheckResult(
        check_id="pedal_secondform.pairing",
        statement="the (2,0) second form of the pedal pairs conjugately "
                  "with the two explicit normal sections",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=_masked_max(pair_d, mask),
        threshold=_tol(tolerances, "secondform_pairing"),
    )))

    if pipe.base.flag_capacity() >= 2:
        top_d, lam = _secondform_top_defect(pipe, tolerances)
        out.append(_finish(CheckResult(
            check_id="pedal_secondform.normal2",
            statement="the second-normal components of the pedal's (2,0) form "
                      "are carried by the first-normal connection form",
            grid=shape,
            excluded=int(np.sum(~mask)),
            defect=_masked_max(top_d, mask),
            threshold=_tol(tolerances, "secondform_normal2"),
            details={"lambda_min": _masked_min(lam, mask),
                     "lambda_max": _masked_max(lam, mask)},
        )))
    else:
        out.append(CheckResult(
            check_id="pedal_secondform.normal2",
            statement="second-normal components need a second normal plane "
                      "(ambient dimension >= 6 and jet order >= 3)",
            grid=shape,
            excluded=shape[0] * shape[1],
            defect=None,
            threshold=_tol(tolerances, "secondform_normal2"),
            status="inconclusive",
        ))

    ctrl = _pipeline(control if control is not None else "noniso",
                     pipe.grid, order, label="control")
    cspan, cpair = _secondform_span_pairing(ctrl)
    cmask = ctrl.mask()
    clam = ctrl.base.flag(2)[1].lam
    cdef = None
    vals = [v for v in (_masked_max(cspan, cmask), _masked_max(cpair, cmask))
            if v is not None]
    if vals:
        cdef = max(vals)
    out.append(_finish(CheckResult(
        check_id="pedal_secondform.one_circle",
        statement="flag containment and conjugate pairing need only one "
                  "curvature circle (control surface, axis ratio < 1)",
        grid=shape,
        excluded=int(np.sum(~cmask)),
        defect=cdef,
        threshold=_tol(tolerances, "secondform_pairing"),
        details={"lambda_min": _masked_min(clam, cmask),
                 "lambda_max": _masked_max(clam, cmask)},
    )))

    # the connection forms differentiate the level-2 frames, which are
    # order-(jet order - 3) jets: one more order than the flag itself
    if pipe.base.flag_capacity() >= 2 and order >= 4:
        hodge = hodge_relation_residuals(pipe.base)
        hodge_mask = pipe.pre & hodge["valid"]
        out.append(_finish(CheckResult(
            check_id="pedal_secondform.hodge",
            statement="the connection forms of the two normal planes satisfy "
                      "the coupled rotation relations under the recorded "
                      "Hodge sign convention",
            grid=shape,
            excluded=int(np.sum(~hodge_mask)),
            defect=_masked_max(hodge["minus"], hodge_mask),
            threshold=_tol(tolerances, "secondform_hodge"),
            details={
                "convention": "minus",
                "rejected_convention_residual": _masked_max(hodge["plus"], hodge_mask),
            },
        )))
    else:
        out.append(CheckResult(
            check_id="pedal_secondform.hodge",
            statement="connection-form relations need two normal planes and "
                      "jets of order >= 4",
            grid=shape,
            excluded=shape[0] * shape[1],
            defect=None,
            threshold=_tol(tolerances, "secondform_hodge"),
            status="insufficient jet order" if order < 4 else "inconclusive",
        ))
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
    sv = np.linalg.svd(m, compute_uv=False)
    cos_small = np.clip(sv[..., -1], 0.0, 1.0)
    defect = np.sqrt(np.maximum(0.0, 1.0 - cos_small**2))
    return np.where(ok_u & ok_w, defect, 0.0), ok_u & ok_w


def verify_swillmore(fspec, grid=None, order=DEFAULT_ORDER, tolerances=None):
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
    out = []
    trouble = None
    pipe = None
    if order < 4:
        if isinstance(fspec, SurfacePipeline):
            shape = fspec.grid_shape()
        else:
            g = grid or Grid()
            shape = (g.nx, g.ny)
        trouble = ("insufficient jet order",
                   "S-Willmore refutation needs jets of the pedal's mean "
                   "curvature (jet order >= 4)")
    else:
        pipe = _pipeline(fspec, grid, order)
        shape = pipe.grid_shape()
        if pipe.base.flag_capacity() < 2:
            trouble = ("inconclusive",
                       "the scalar obstruction needs a second normal plane "
                       "(ambient dimension >= 6)")
    if trouble is not None:
        status, statement = trouble
        for cid, thr in (
            ("swillmore.refute", "swillmore_refute"),
            ("swillmore.scalar_agreement", "swillmore_agreement"),
            ("swillmore.kappa_theta", "swillmore_kappa_theta"),
        ):
            out.append(CheckResult(
                check_id=cid,
                statement=statement,
                grid=shape,
                excluded=shape[0] * shape[1],
                defect=None,
                threshold=_tol(tolerances, thr),
                mode="lower",
                passed=False,
                status=status,
            ))
        return out

    gb = pipe.pedal
    mask = pipe.mask()
    H = gb.mean_curvature()
    dH = JetVec([(c.dx() - c.dy().scale(1j)).scale(0.5) for c in H])
    nabH = dH.project_off([gb.e1, gb.e2]).value()
    ag = gb.alpha_wirtinger().value()
    direct, both_ok = _plane_angle_defect(nabH, ag)
    mask_d = mask & both_ok
    out.append(_finish(CheckResult(
        check_id="swillmore.refute",
        statement="the normal derivative of the pedal's mean curvature is "
                  "not complex-parallel to its (2,0) second form on at "
                  "least 90% of the grid",
        grid=shape,
        excluded=int(np.sum(~mask_d)),
        defect=_low_quantile(direct, mask_d),
        threshold=_tol(tolerances, "swillmore_refute"),
        mode="lower",
    )))

    # scalar route, entirely from base-surface data
    base = pipe.base
    sp = pipe.split
    delta = sp.first_normal_part
    dsq = delta.norm_sq()
    dval = dsq.value().real
    guard = mask & (dval > 1e-20)
    e3 = delta.scale(dsq.sqrt(guard=guard).recip(guard=guard))
    lev = base.flag(2)
    f3, f4 = lev[0].frames
    e4 = f4.scale(e3.dot(f3)) - f3.scale(e3.dot(f4))
    f5 = lev[1].frames[0]
    de3dz = JetVec([(c.dx() - c.dy().scale(1j)).scale(0.5) for c in e3])
    omega_dz = de3dz.dot(f5).value()

    alpha_zz = base.alpha_wirtinger()
    A3 = alpha_zz.dot(e3).value()
    fx, fy = base.partial(1, 0), base.partial(0, 1)
    fz = (fx - fy.scale(1j)).scale(0.5)
    Z = sp.tangent_part
    pairing_Z = fz.dot(Z).value()

    h = {
        key: base.tangent_project_off(base.partial(*key))
        for key in ((2, 0), (1, 1), (0, 2))
    }
    a, b, c = (j.value().real for j in base.tangent_coeff_jets())
    Zv = _values(Z)
    z1 = np.sum(Zv * _values(base.e1), axis=0)
    z2 = np.sum(Zv * _values(base.e2), axis=0)
    p = z1 * a + z2 * b
    q = z2 * c
    hxx, hxy, hyy = (_values(h[k]) for k in ((2, 0), (1, 1), (0, 2)))
    alpha_dz_Z = 0.5 * ((p * hxx + q * hxy) - 1j * (p * hxy + q * hyy))
    zpair = (_complex_dot(alpha_dz_Z, _values(e3))
             + 1j * _complex_dot(alpha_dz_Z, _values(e4)))

    scalar = omega_dz * (dval * A3 + pairing_Z * zpair)
    scale = np.abs(omega_dz) * (
        dval * np.maximum(_norms(alpha_zz.value()), _TINY)
        + np.abs(pairing_Z) * np.maximum(_norms(alpha_dz_Z), _TINY)
    )
    scalar_n = np.abs(scalar) / np.maximum(scale, _TINY)

    cut = _tol(tolerances, "swillmore_refute")
    agree = (direct >= cut) == (scalar_n >= cut)
    gmask = mask_d & guard
    total = int(np.sum(gmask))
    frac = float(np.sum(agree & gmask)) / total if total else None
    out.append(_finish(CheckResult(
        check_id="swillmore.scalar_agreement",
        statement="the direct parallelism defect and the base-side scalar "
                  "obstruction vanish or not together (fraction of "
                  "agreeing grid points)",
        grid=shape,
        excluded=int(np.sum(~gmask)),
        defect=frac,
        threshold=_tol(tolerances, "swillmore_agreement"),
        mode="lower",
        details={"scalar_min": _masked_min(scalar_n, gmask),
                 "scalar_low_quantile": _low_quantile(scalar_n, gmask)},
    )))

    xi1, _ = base.traceless_second()
    kappa_theta = _norms(_values(xi1)) * sp.osc_norm_sq.value().real
    hi = _masked_max(np.abs(kappa_theta), mask)
    lo = _masked_min(np.abs(kappa_theta), mask)
    ratio = (lo / hi) if (hi not in (None, 0.0) and lo is not None) else None
    out.append(_finish(CheckResult(
        check_id="swillmore.kappa_theta",
        statement="the circle radius times the osculating norm stays "
                  "bounded away from zero (min/max ratio over the grid)",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=ratio,
        threshold=_tol(tolerances, "swillmore_kappa_theta"),
        mode="lower",
        details={"min": lo, "max": hi},
    )))
    return out


# ---------------------------------------------------------------------------
# refutation: no inversion makes the pedal minimal
# ---------------------------------------------------------------------------


# center x point elements per minimality_residuals call on the lattice: each
# (centers, points) temporary is 512 KB whatever per_axis^n is.  Blocks of
# 2^16 left the group about 1.5x faster than 2^17 or 2^18 on a 2-vCPU Xeon
# with 2 MB of L2 per core, where a block's temporaries stay in cache.
_LATTICE_BLOCK = 1 << 16


def _lattice_blocks(count: int, points: int):
    """Slices of `count` lattice centers holding at most _LATTICE_BLOCK
    center x point elements (but at least three centers).

    No slice holds a single center unless the lattice does: numpy
    evaluates a one-row `C @ X` as a matrix-vector product, which rounds
    differently from the matrix product of a larger block, and the
    defects must not depend on where the blocks fall.
    """
    step = max(3, _LATTICE_BLOCK // points)
    start = 0
    while start < count:
        stop = min(start + step, count)
        if count - stop == 1:
            stop -= 1  # leave two centers for the last block
        yield slice(start, stop)
        start = stop


def _center_lattice(n: int, lattice: dict) -> np.ndarray:
    """The per_axis^n lattice centers, shape (per_axis**n, n), in the
    row-major order of itertools.product (last coordinate fastest)."""
    per = int(lattice["per_axis"])
    axis = np.linspace(float(lattice["lo"]), float(lattice["hi"]), per)
    return axis[np.indices((per,) * n).reshape(n, -1).T]


def verify_inversion_minimality(fspec, grid=None, order=DEFAULT_ORDER,
                                tolerances=None, lattice=None):
    """No center of inversion makes the pedal minimal.

    For each candidate center the closed-form residual system (two scalar
    residuals and one distance residual, all dimensionless) must fail at
    some grid point — and in fact the inverted pedal's mean curvature,
    measured in units of its own second-form scale, stays large at EVERY
    grid point.  The closed forms are cross-checked against direct jets
    of the inverted pedal at sampled centers.

    The lattice is evaluated in blocks of at most _LATTICE_BLOCK
    center x point elements, keeping a running minimum of the norm ratio
    and the per-center system margins, so memory does not grow with the
    number of centers; ||g - p0||^2 comes from minimality_residuals'
    pos_sq.
    """
    pipe = _pipeline(fspec, grid, order)
    shape = pipe.grid_shape()
    lattice = dict(lattice or {"per_axis": 3, "lo": -1.6, "hi": 1.6, "radius": 1.0})
    radius = float(lattice.get("radius", 1.0))
    centers = _center_lattice(pipe.curve.ambient_dim, lattice)
    out = []

    sp = pipe.split
    valid = sp.valid.reshape(-1) & pipe.mask()
    # mean curvature of the inverted pedal in units of its second-form
    # scale: both transform covariantly, so the ratio is computable from
    # base pedal data alone
    xi1, xi2 = pipe.pedal.traceless_second()
    tr_scale = np.sqrt(2.0 * (_norms(_values(xi1)) ** 2 + _norms(_values(xi2)) ** 2))
    ratio_mins, margins = [], []
    for block in _lattice_blocks(centers.shape[0], valid.size):
        res = minimality_residuals(sp, centers[block], radius, valid=valid)
        rho = res["pos_sq"]
        hn = res["mean_norm"] * radius**2 / (2.0 * rho)  # sqrt((r1^2+r2^2)/th + r3^2)
        ratio = 2.0 * hn / np.maximum(tr_scale[None, :], _TINY)
        ratio_mins.append(np.min(np.where(valid[None, :], ratio, np.inf)))
        margins.append(res["margin_per_center"])
    margins = np.concatenate(margins)

    norm_defect = float(np.min(ratio_mins)) if np.any(valid) else None
    out.append(_finish(CheckResult(
        check_id="inversion.norm",
        statement="for every lattice center, the inverted pedal's mean "
                  "curvature stays above threshold at every grid point "
                  "(in units of its second-form scale)",
        grid=shape,
        excluded=int(np.sum(~valid)),
        defect=norm_defect,
        threshold=_tol(tolerances, "inversion_norm"),
        mode="lower",
        details={"centers": int(centers.shape[0]), "radius": radius},
    )))
    out.append(_finish(CheckResult(
        check_id="inversion.system",
        statement="the residual system that an inversion center would have "
                  "to solve at every grid point simultaneously is "
                  "infeasible for every lattice center",
        grid=shape,
        excluded=int(np.sum(~valid)),
        defect=float(margins.min()) if margins.size and np.any(valid) else None,
        threshold=_tol(tolerances, "inversion_system"),
        mode="lower",
        details={"centers": int(centers.shape[0])},
    )))

    # direct-jet cross-check at a few sampled centers on a coarse subgrid
    sub = _subgrid(pipe.grid, 5)
    sx, sy = sub.points()
    # distinct indices, so a one-center lattice is sampled once
    picks = sorted({0, centers.shape[0] // 2, centers.shape[0] - 1})
    sub_split = pedal_split(SurfaceJets(pipe.evaluator, sx, sy, order))
    # one pedal evaluation on the subgrid feeds its own geometry and the
    # sampled inversions
    sub_pedal = pipe.pedal_evaluator.evaluated(sx, sy, 2)
    sxi1, sxi2 = SurfaceJets(sub_pedal, sx, sy, 2).traceless_second()
    strs = np.sqrt(2.0 * (_norms(_values(sxi1)) ** 2 + _norms(_values(sxi2)) ** 2))
    worst = None
    for idx in picks:
        c = centers[idx]
        inv = InversionSpec(center=tuple(c), radius=radius)
        bundle = SurfaceJets(invert_evaluator(sub_pedal, inv), sx, sy, 2)
        m = sub.premask() & bundle.valid & sub_split.valid
        if not np.any(m):
            continue
        Hd = _norms(_values(bundle.mean_curvature()))
        x1, x2 = bundle.traceless_second()
        sd = np.sqrt(2.0 * (_norms(_values(x1)) ** 2 + _norms(_values(x2)) ** 2))
        direct_ratio = Hd / np.maximum(sd, _TINY)
        sres = minimality_residuals(sub_split, c[None, :], radius)
        rho_s = sres["pos_sq"][0]
        # ||H|| and the second-form scale of the inverted surface both
        # carry the factor rho/R^2 relative to base pedal data, so the
        # dimensionless ratio is 2*sqrt((r1^2+r2^2)/theta + r3^2) over
        # (rho * base traceless scale)
        hn_s = sres["mean_norm"][0] * radius**2 / (2.0 * rho_s)
        closed_ratio = 2.0 * hn_s / np.maximum(strs, _TINY)
        diff = np.abs(direct_ratio - closed_ratio) / np.maximum(closed_ratio, _TINY)
        w = _masked_max(diff, m)
        if w is not None:
            worst = w if worst is None else max(worst, w)
    out.append(_finish(CheckResult(
        check_id="inversion.crosscheck",
        statement="the closed-form mean-curvature ratio of the inverted "
                  "pedal matches direct jets of the inverted surface at "
                  "sampled centers",
        grid=(sub.nx, sub.ny),
        excluded=0,
        defect=worst,
        threshold=_tol(tolerances, "inversion_crosscheck"),
        details={"sampled_centers": len(picks)},
    )))
    return out


# ---------------------------------------------------------------------------
# the shifted pedal family and the rank of the first normal bundle
# ---------------------------------------------------------------------------


def _rank_defect(bundle: SurfaceJets, mask):
    rank, _ = first_normal_rank(bundle)
    dev = np.abs(rank.astype(float) - 3.0)
    return _masked_max(dev, mask), rank


def _random_inversion_rank_defect(pedal_eval, grid, rng, count, span):
    """Worst |rank - 3| of the first normal bundle over random inversions,
    all composed on one evaluation of the pedal over the grid."""
    x, y = grid.points()
    pre = grid.premask()
    pedal_at = pedal_eval.evaluated(x, y, 2)
    worst = 0.0
    evaluated = 0
    for _ in range(count):
        direction = rng.normal(size=pedal_eval.ambient_dim)
        direction /= np.linalg.norm(direction)
        center = span * direction
        inv = InversionSpec(center=tuple(center), radius=1.0)
        bundle = SurfaceJets(invert_evaluator(pedal_at, inv), x, y, 2)
        m = pre & bundle.valid
        if not np.any(m):
            continue
        d, _ = _rank_defect(bundle, m)
        if d is not None:
            worst = max(worst, d)
            evaluated += 1
    return (worst if evaluated else None), evaluated


def verify_shifted_pedals(fspec, grid=None, order=DEFAULT_ORDER, tolerances=None,
                          v=None, c=None, higher=None, rng_seed=20260826):
    """The shifted pedal family and first-normal-rank stability.

    (a) pedals of c*f + v are superconformal and conformal to f for
        sampled (c, v), including the identity sample (1, 0);
    (b) they decompose as c*(pedal of f) + (normal shadow of v);
    (c) the c = 0 member (the shadow of v) is superconformal and its
        inversion centered at v is minimal;
    (d) the first normal bundle of the pedal has rank exactly three, and
        keeps rank three under random inversions — including for the
        three-circle surface in R^8.
    """
    pipe = _pipeline(fspec, grid, order)
    shape = pipe.grid_shape()
    n = pipe.curve.ambient_dim
    v = _generic_vector(n) if v is None else np.asarray(v, dtype=float)
    out = []

    sub = _subgrid(pipe.grid, 11)
    sx, sy = sub.points()
    spre = sub.premask()

    samples = [(1.0, np.zeros(n)), (float(c) if c is not None else 0.7, v),
               (-1.3, 0.5 * v)]
    family_defect = None
    family_members = []
    base_sub = SurfaceJets(pipe.evaluator, sx, sy, max(order, 3))
    for cc, vv in samples:
        shifted = pipe.evaluator.affine(scale=cc, translation=vv)
        gb = SurfaceJets(pedal_surface(shifted), sx, sy, 3)
        m = spre & gb.valid & base_sub.valid
        circ, _, _ = gb.circle_defect(1)
        conf, _ = _conformality_defect(gb)
        worst = _masked_max(np.maximum(circ, conf), m)
        family_members.append({"scale": cc, "defect": worst})
        if worst is not None:
            family_defect = worst if family_defect is None else max(family_defect, worst)
    out.append(_finish(CheckResult(
        check_id="shifted_pedal.family",
        statement="pedals of the shifted family c*f + v are superconformal "
                  "and conformal to f for sampled (c, v)",
        grid=(sub.nx, sub.ny),
        excluded=int(np.sum(~spre)),
        defect=family_defect,
        threshold=_tol(tolerances, "shifted_family"),
        details={"samples": family_members},
    )))

    # decomposition: pedal(c f + v) = c * pedal(f) + shadow(v)
    cc = float(c) if c is not None else 0.7
    shifted = pipe.evaluator.affine(scale=cc, translation=v)
    g_shift = SurfaceJets(pedal_surface(shifted), sx, sy, 2)
    g_base = SurfaceJets(pipe.pedal_evaluator, sx, sy, 2)
    shadow_eval = normal_part_evaluator(pipe.evaluator, v)
    shadow = SurfaceJets(shadow_eval, sx, sy, 2)
    lhs = _values(g_shift.f)
    rhs = cc * _values(g_base.f) + _values(shadow.f)
    m = spre & g_shift.valid & g_base.valid & shadow.valid
    dec = _norms(lhs - rhs) / np.maximum(_norms(rhs), _TINY)
    out.append(_finish(CheckResult(
        check_id="shifted_pedal.decomposition",
        statement="the pedal of c*f + v equals c*(pedal of f) plus the "
                  "normal shadow of v, pointwise",
        grid=(sub.nx, sub.ny),
        excluded=int(np.sum(~m)),
        defect=_masked_max(dec, m),
        threshold=_tol(tolerances, "shifted_decomposition"),
        details={"scale": cc},
    )))

    # the shadow surface itself: superconformal, and minimal after the
    # inversion centered at its defining vector
    shadow3 = SurfaceJets(shadow_eval, sx, sy, 3)
    mshadow = spre & shadow3.valid
    scirc, _, _ = shadow3.circle_defect(1)
    out.append(_finish(CheckResult(
        check_id="shifted_pedal.shadow_superconformal",
        statement="the normal shadow of a constant vector over f is itself "
                  "superconformal",
        grid=(sub.nx, sub.ny),
        excluded=int(np.sum(~mshadow)),
        defect=_masked_max(scirc, mshadow),
        threshold=_tol(tolerances, "shadow_superconformal"),
    )))

    inv = InversionSpec(center=tuple(v), radius=1.0)
    inverted = SurfaceJets(invert_evaluator(shadow_eval, inv), sx, sy, 2)
    minv = spre & inverted.valid
    Hn = _norms(_values(inverted.mean_curvature()))
    ix1, ix2 = inverted.traceless_second()
    iscale = np.sqrt(2.0 * (_norms(_values(ix1)) ** 2 + _norms(_values(ix2)) ** 2))
    idef = Hn / np.maximum(iscale, _TINY)
    out.append(_finish(CheckResult(
        check_id="shifted_pedal.inverted_minimal",
        statement="inverting the normal shadow about its defining vector "
                  "yields a minimal surface (mean curvature over "
                  "second-form scale)",
        grid=(sub.nx, sub.ny),
        excluded=int(np.sum(~minv)),
        defect=_masked_max(idef, minv),
        threshold=_tol(tolerances, "shadow_inverted_minimal"),
    )))

    # rank of the first normal bundle: the pedal itself, then random
    # inversions of it, then the same pair for the R^8 three-circle surface
    mask = pipe.mask()
    rank_defect, _ = _rank_defect(pipe.pedal, mask)
    out.append(_finish(CheckResult(
        check_id="first_normal_rank.pedal",
        statement="the first normal bundle of the pedal has rank exactly "
                  "three at every non-excluded point",
        grid=shape,
        excluded=int(np.sum(~mask)),
        defect=rank_defect,
        threshold=_tol(tolerances, "first_normal_rank"),
    )))

    rng = np.random.default_rng(rng_seed)
    rsub = _subgrid(pipe.grid, 7)
    span = 3.0 * float(np.max(np.abs(_values(pipe.split.foot)))) + 1.0
    rdef, evaluated = _random_inversion_rank_defect(
        pipe.pedal_evaluator, rsub, rng, 10, span
    )
    out.append(_finish(CheckResult(
        check_id="first_normal_rank.inverted",
        statement="the rank-three first normal bundle of the pedal "
                  "persists under ten random inversions",
        grid=(rsub.nx, rsub.ny),
        excluded=0,
        defect=rdef,
        threshold=_tol(tolerances, "first_normal_rank"),
        details={"inversions": evaluated},
    )))

    hi = _pipeline(higher if higher is not None else "holo4",
                   pipe.grid, order, label="higher")
    hmask = hi.mask()
    hdef, _ = _rank_defect(hi.pedal, hmask)
    hrdef, hev = _random_inversion_rank_defect(
        hi.pedal_evaluator, rsub, np.random.default_rng(rng_seed + 1), 10,
        3.0 * float(np.max(np.abs(_values(hi.split.foot)))) + 1.0,
    )
    combined = None
    vals = [x for x in (hdef, hrdef) if x is not None]
    if vals:
        combined = max(vals)
    out.append(_finish(CheckResult(
        check_id="first_normal_rank.higher_isotropy",
        statement="for the three-circle surface in R^8 the pedal's first "
                  "normal bundle also has rank three, before and after "
                  "ten random inversions",
        grid=shape,
        excluded=int(np.sum(~hmask)),
        defect=combined,
        threshold=_tol(tolerances, "first_normal_rank"),
        details={"pedal_rank_defect": hdef, "inverted_rank_defect": hrdef,
                 "inversions": hev},
    )))
    return out


# ---------------------------------------------------------------------------
# the full report
# ---------------------------------------------------------------------------


def _selected(check_ids, check_fn_id: str) -> bool:
    if not check_ids:
        return True
    return any(check_fn_id.startswith(prefix) for prefix in check_ids)


def run_all(config: RunConfig) -> dict:
    """Execute every (selected) check and assemble the JSON-ready report.

    The report is a deterministic function of the config: fixed random
    seeds, no timestamps.  Overall status is "pass" when every executed
    check passes, "fail" when any evaluated check fails, and
    "inconclusive" when nothing failed but some selected checks could
    not run (no usable grid points, jet order or ambient dimension too
    small for them).
    """
    if not isinstance(config, RunConfig):
        raise ConfigError("run_all needs a RunConfig")
    grid = config.grid
    order = config.jet_order
    tol = config.tolerances
    selected = config.checks

    environment = {
        "jet_order": order,
        "grid": [grid.nx, grid.ny],
        "window": [grid.x0, grid.x1, grid.y0, grid.y1],
        "tolerances": {k: _tol(tol, k) for k in sorted(DEFAULT_TOLERANCES)},
        "spec_sha256": config.digest(),
        "ambient_dim": config.curve.ambient_dim,
    }

    usable = int(np.sum(grid.premask())) if grid.size else 0
    environment["points"] = {"total": grid.size, "usable": usable}
    if usable == 0:
        return {
            "version": REPORT_VERSION,
            "environment": environment,
            "status": "inconclusive",
            "checks": [],
        }

    if order < 3:
        # grid geometry of the pedal needs at least order-3 jets of the
        # base; report every selected family as under-resolved
        checks = []
        for fam in ("generator", "pedal", "secondform", "swillmore",
                    "inversion", "shifted", "first_normal_rank"):
            if _selected(selected, fam):
                checks.append(CheckResult(
                    check_id=fam,
                    statement="grid certification needs jet order >= 3",
                    grid=(grid.nx, grid.ny),
                    excluded=grid.size,
                    defect=None,
                    threshold=0.0,
                    passed=False,
                    status="insufficient jet order",
                ).to_record())
        return {
            "version": REPORT_VERSION,
            "environment": environment,
            "status": "inconclusive",
            "checks": checks,
        }

    pipe = SurfacePipeline(config.curve, grid, order, "surface")
    environment["points"]["usable"] = int(np.sum(pipe.mask()))
    shared = {}

    def ctrl():
        if "ctrl" not in shared:
            shared["ctrl"] = SurfacePipeline(
                preset_curve("noniso"), grid, order, "control")
        return shared["ctrl"]

    def high():
        if "high" not in shared:
            shared["high"] = SurfacePipeline(
                preset_curve("holo4"), grid, order, "higher")
        return shared["high"]

    results = []
    groups = (
        ("generator", lambda: verify_generation(pipe, tolerances=tol)),
        ("pedal_circle", lambda: verify_superconformal(
            pipe, tolerances=tol, control=ctrl())),
        ("pedal_conformal", lambda: verify_pedal_conformality(
            pipe, tolerances=tol, control=ctrl())),
        ("pedal_normal_span", lambda: verify_normal_span(pipe, tolerances=tol)),
        ("pedal_mean", lambda: verify_meancurvature(pipe, tolerances=tol)),
        ("pedal_secondform", lambda: verify_pedal_secondform(
            pipe, tolerances=tol, control=ctrl(), higher=high())),
        ("swillmore", lambda: verify_swillmore(pipe, order=order, tolerances=tol)),
        ("inversion", lambda: verify_inversion_minimality(
            pipe, tolerances=tol, lattice=config.lattice)),
        ("shifted", lambda: verify_shifted_pedals(
            pipe, tolerances=tol, v=config.translation,
            c=config.scale if config.scale != 1.0 else None, higher=high())),
    )
    for prefix, fn in groups:
        if prefix == "shifted":
            run_this = _selected(selected, "shifted_pedal") or _selected(
                selected, "first_normal_rank")
        else:
            run_this = _selected(selected, prefix)
        if run_this:
            results.extend(fn())

    if selected:
        results = [r for r in results
                   if any(r.check_id.startswith(p) for p in selected)]

    # an evaluated failure is a failure; checks that could not run at all
    # (jet order / ambient dimension too small) make the run inconclusive
    if not results:
        status = "inconclusive"
    elif any(r.status == "evaluated" and not r.passed for r in results):
        status = "fail"
    elif any(r.status != "evaluated" for r in results):
        status = "inconclusive"
    else:
        status = "pass"
    return {
        "version": REPORT_VERSION,
        "environment": environment,
        "status": status,
        "checks": [r.to_record() for r in results],
    }


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
