"""Report harness: determinism, invariance, degradation, and separation.

The certification report must be a pure function of the config document
(byte-identical on reruns), its defects must be invariant under ambient
rotations of the surface, and impossible requests (jet order too low,
fully excluded grids) must degrade to explicit non-evaluated statuses
rather than numbers.
"""

import itertools

import numpy as np
import pytest

from isopedal import moebius, verify
from isopedal.config import RunConfig
from isopedal.cpoly import cv_linear_map
from isopedal.grid import Grid
from isopedal.pedal import normal_part_evaluator, pedal_surface
from isopedal.verify import (
    DEFAULT_TOLERANCES,
    SurfacePipeline,
    _center_lattice,
    report_to_json,
    run_all,
    verify_inversion_minimality,
)
from isopedal.weierstrass import ambient_curve, preset_curve, surface_evaluator

SMALL_GRID = Grid(nx=9, ny=9)


def small_config(**kw):
    kw.setdefault("curve", preset_curve("holo3"))
    kw.setdefault("grid", SMALL_GRID)
    return RunConfig(**kw)


def by_id(report):
    return {rec["id"]: rec for rec in report["checks"]}


def test_reports_are_byte_identical():
    doc = {"seed_preset": "holo3", "grid": "0.3,1.3,0.3,1.3,7,7"}
    a = report_to_json(run_all(RunConfig.from_document(doc)))
    b = report_to_json(run_all(RunConfig.from_document(doc)))
    assert a == b


def test_full_default_run_passes():
    report = run_all(small_config())
    assert report["status"] == "pass"
    recs = by_id(report)
    assert len(recs) == 30
    assert report["environment"]["points"] == {"total": 81, "usable": 81}
    # every evaluated identity holds with a wide margin
    for rec in recs.values():
        assert rec["status"] == "evaluated"
        assert rec["pass"], rec


def test_defects_invariant_under_ambient_rotation():
    rng = np.random.default_rng(17)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    base_curve = preset_curve("holo3")
    v = np.array([0.9, -0.4, 0.7, 0.3, -0.8, 0.5])
    plain = run_all(small_config(translation=tuple(v)))
    rotated_curve = ambient_curve(cv_linear_map(Q, base_curve.phi))
    rotated = run_all(small_config(curve=rotated_curve, translation=tuple(Q @ v)))
    pl, ro = by_id(plain), by_id(rotated)
    assert set(pl) == set(ro)
    for cid in pl:
        a, b = pl[cid]["defect"], ro[cid]["defect"]
        if cid.startswith("inversion."):
            # the center lattice is axis-aligned, hence not rotation-
            # covariant; only the verdict is comparable
            assert pl[cid]["pass"] == ro[cid]["pass"]
            continue
        scale = max(abs(a), abs(b), 1e-12)
        assert abs(a - b) <= 1e-6 * scale + 1e-12, (cid, a, b)


def test_jet_order_too_low_yields_insufficient_status():
    report = run_all(small_config(jet_order=2))
    assert report["status"] == "inconclusive"
    assert report["checks"]
    for rec in report["checks"]:
        assert rec["status"] == "insufficient jet order"
        assert not rec["pass"]
        assert rec["defect"] is None


def test_order_three_marks_swillmore_underresolved_only():
    report = run_all(small_config(jet_order=3))
    recs = by_id(report)
    assert report["status"] == "inconclusive"
    for cid, rec in recs.items():
        if cid.startswith("swillmore."):
            assert rec["status"] == "insufficient jet order"
        elif cid in ("pedal_secondform.normal2", "pedal_secondform.hodge",
                     "pedal_secondform.one_circle", "pedal_mean.laplacian"):
            # these need order-4 base jets as well; accept either outcome
            assert rec["status"] in ("evaluated", "inconclusive",
                                     "insufficient jet order")
        else:
            assert rec["pass"], rec


def test_fully_excluded_grid_is_inconclusive():
    g = Grid(nx=5, ny=5, excluded=((0.8, 0.8, 2.0),))
    report = run_all(small_config(grid=g))
    assert report["status"] == "inconclusive"
    assert report["checks"] == []
    assert report["environment"]["points"]["usable"] == 0


def test_check_selection_filters_report():
    cfg = small_config(checks=("pedal_mean",))
    report = run_all(cfg)
    ids = [rec["id"] for rec in report["checks"]]
    assert ids and all(i.startswith("pedal_mean") for i in ids)
    assert report["status"] == "pass"


def test_negative_control_fails_positive_checks():
    report = run_all(small_config(curve=preset_curve("noniso"),
                                  checks=("pedal_circle",)))
    recs = by_id(report)
    assert report["status"] == "fail"
    assert not recs["pedal_circle.positive"]["pass"]
    assert recs["pedal_circle.negative"]["pass"]


def test_refutation_margins_are_wide():
    # margin-style refutations clear their thresholds by >= 10x, so the
    # verdicts are not tolerance artifacts (agreement fractions cap at 1
    # and are excluded from this property)
    report = run_all(small_config())
    recs = by_id(report)
    for cid in ("pedal_circle.negative", "swillmore.refute",
                "swillmore.kappa_theta", "inversion.norm", "inversion.system"):
        rec = recs[cid]
        assert rec["mode"] == "lower"
        assert rec["defect"] >= 10.0 * rec["threshold"], rec


def test_identity_margins_are_wide():
    report = run_all(small_config())
    for rec in report["checks"]:
        if rec["mode"] == "upper":
            assert rec["defect"] <= rec["threshold"] / 10.0, rec


def test_tolerance_override_respected():
    cfg = small_config(tolerances={"generator_isotropy": 1e-30},
                       checks=("generator",))
    report = run_all(cfg)
    recs = by_id(report)
    assert report["environment"]["tolerances"]["generator_isotropy"] == 1e-30
    # holo3 coefficients are exactly isotropic, so even 1e-30 passes
    assert recs["generator.isotropy"]["pass"]
    assert set(report["environment"]["tolerances"]) == set(DEFAULT_TOLERANCES)


def test_shadow_surface_is_pedal_family_limit():
    ev = surface_evaluator(preset_curve("holo3"))
    v = np.array([0.9, -0.4, 0.7, 0.3, -0.8, 0.5])
    shadow = normal_part_evaluator(ev, v)
    x = np.array([0.6, 1.0])
    y = np.array([0.8, 0.5])
    c = 0.25
    lhs = pedal_surface(ev.affine(scale=c, translation=v)).jets(x, y, 2).value().real
    g = pedal_surface(ev).jets(x, y, 2).value().real
    rhs = c * g + shadow.jets(x, y, 2).value().real
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_report_json_is_sorted_and_versioned():
    report = run_all(small_config(checks=("generator",)))
    text = report_to_json(report)
    assert '"version"' in text
    assert text.index('"checks"') < text.index('"environment"')  # sorted keys


def _dense_inversion_defects(pipe, centers, radius):
    """The whole-lattice evaluation: inversion.norm and inversion.system
    defects from dense (centers, points) arrays, rho recomputed here."""
    res = moebius.minimality_residuals(pipe.split, centers, radius)
    valid = res["valid"] & pipe.mask()
    g = pipe.split.foot.value().real.reshape(pipe.curve.ambient_dim, -1)
    rho = np.maximum(
        np.sum((g[:, None, :] - centers.T[:, :, None]) ** 2, axis=0), 1e-300
    )
    xi1, xi2 = pipe.pedal.traceless_second()
    xi1, xi2 = xi1.value().real, xi2.value().real
    tr_scale = np.sqrt(2.0 * (np.sum(xi1 * xi1, axis=0) + np.sum(xi2 * xi2, axis=0)))
    hn = res["mean_norm"] * radius**2 / (2.0 * rho)
    ratio = 2.0 * hn / np.maximum(tr_scale[None, :], 1e-300)
    ratio = np.where(valid[None, :], ratio, np.inf)
    combined = np.maximum(
        np.maximum(np.abs(res["r1"]) / rho, np.abs(res["r2"]) / rho),
        np.abs(res["r3"]) / np.sqrt(rho),
    )
    combined = np.where(valid[None, :], combined, 0.0)
    return float(np.min(ratio)), float(combined.max(axis=1).min())


def test_center_lattice_is_the_product_order():
    for n, per in ((4, 3), (6, 3), (8, 3), (5, 1), (3, 4)):
        axis = np.linspace(-1.6, 1.6, per)
        ref = np.array(list(itertools.product(axis, repeat=n)), dtype=float)
        got = _center_lattice(n, {"per_axis": per, "lo": -1.6, "hi": 1.6})
        assert got.shape == (per**n, n)
        assert np.array_equal(got, ref)


# 729 centers at 81 points: 50 centers a block leaves a ragged block of 29,
# and 8 a block would leave a single center, which the blocking avoids
@pytest.mark.parametrize("per_block", [50, 8])
def test_inversion_lattice_blocks_equal_the_dense_lattice(monkeypatch, per_block):
    pipe = SurfacePipeline(preset_curve("holo3"), SMALL_GRID, 4, "surface")
    lattice = {"per_axis": 3, "lo": -1.6, "hi": 1.6, "radius": 1.0}
    centers = _center_lattice(6, lattice)
    ref_norm, ref_system = _dense_inversion_defects(pipe, centers, 1.0)

    block = per_block * SMALL_GRID.size
    monkeypatch.setattr(verify, "_LATTICE_BLOCK", block)
    calls = []

    def spy(pedal_bundle, C, radius, **kw):
        calls.append((C.shape[0], pedal_bundle.valid.size))
        return moebius.minimality_residuals(pedal_bundle, C, radius, **kw)

    monkeypatch.setattr(verify, "minimality_residuals", spy)
    got = {r.check_id: r for r in verify_inversion_minimality(pipe, lattice=lattice)}
    assert got["inversion.norm"].defect == ref_norm
    assert got["inversion.system"].defect == ref_system

    lattice_calls = [c for c, pts in calls if pts == SMALL_GRID.size]
    assert sum(lattice_calls) == centers.shape[0]
    assert len(lattice_calls) > 2 and min(lattice_calls) > 1
    assert lattice_calls[-1] != per_block
    assert all(c * pts <= block for c, pts in calls)


def test_inversion_crosscheck_samples_distinct_centers():
    lattice = {"per_axis": 1, "lo": -1.6, "hi": 1.6, "radius": 1.0}
    out = verify_inversion_minimality(preset_curve("holo3"), SMALL_GRID, 4,
                                      lattice=lattice)
    got = {r.check_id: r for r in out}
    assert got["inversion.norm"].details["centers"] == 1
    assert got["inversion.crosscheck"].details["sampled_centers"] == 1


def test_random_inversions_share_one_pedal_evaluation():
    ev = surface_evaluator(preset_curve("holo3"))
    grid = Grid(nx=5, ny=5)
    pedal = pedal_surface(ev)
    calls = []
    inner = pedal.fn
    pedal.fn = lambda *args: calls.append(args[2]) or inner(*args)
    worst, evaluated = verify._random_inversion_rank_defect(
        pedal, grid, np.random.default_rng(3), 10, 4.0)
    assert calls == [2] and evaluated == 10
    # the same defect as inverting a fresh pedal evaluation each time
    x, y = grid.points()
    rng = np.random.default_rng(3)
    want = 0.0
    for _ in range(10):
        direction = rng.normal(size=6)
        center = 4.0 * direction / np.linalg.norm(direction)
        inv = moebius.InversionSpec(center=tuple(center), radius=1.0)
        bundle = verify.SurfaceJets(moebius.invert_evaluator(pedal_surface(ev), inv), x, y, 2)
        want = max(want, verify._rank_defect(bundle, grid.premask() & bundle.valid)[0])
    assert worst == want


def test_pipeline_pedal_is_composed_on_the_base_bundle(monkeypatch):
    pipe = SurfacePipeline(preset_curve("holo3"), SMALL_GRID, 4, "surface")
    base = pipe.base
    builds = []
    init = verify.SurfaceJets.__init__

    def spy(self, surface, *args, **kw):
        builds.append(surface.provenance)
        init(self, surface, *args, **kw)

    monkeypatch.setattr(verify.SurfaceJets, "__init__", spy)
    got = pipe.pedal
    assert builds == [pipe.pedal_evaluator.provenance] and pipe.base is base
    monkeypatch.undo()
    want = verify.SurfaceJets(pipe.pedal_evaluator, pipe.x, pipe.y, 3)
    assert np.array_equal(got.valid, want.valid)
    for a, b in zip(got.f, want.f):
        assert np.array_equal(a.t, b.t)
