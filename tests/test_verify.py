"""Report harness: determinism, invariance, degradation, and separation.

The certification report must be a pure function of the config document
(byte-identical on reruns), its defects must be invariant under ambient
rotations of the surface, and impossible requests (an ambient dimension
below a check's requirement, fully excluded grids) must degrade to
explicit non-evaluated statuses rather than numbers.
"""

import itertools
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from isopedal import geometry, jets, moebius, pedal, verify
from isopedal.config import RunConfig
from isopedal.errors import ConfigError
from isopedal.geometry import SurfaceJets
from isopedal.grid import Grid
from isopedal.jets import JetVec
from isopedal.pedal import SurfacePipeline, normal_part, pedal_surface
from isopedal.verify import (
    _center_lattice,
    _crosscheck_centers,
    report_to_json,
    run_all,
    verify_inversion_minimality,
)
from isopedal.weierstrass import ambient_curve, preset_curve, surface_evaluator
from oracles import coordinate_alpha_dz, cv_linear_map, dense_inversion_defects

SMALL_GRID = Grid(nx=9, ny=9)
# the holo3 report on the window through the branch point, frozen: its
# masks and excluded counts must not move when samples are stacked
BRANCH_REPORT = Path(__file__).parent / "data" / "report_branch_window.json"
# holo4 in R^8, frozen: the largest frozen lattice, 6561 centers; its
# document asks for order-5 jets, which verify does not read
HOLO4_REPORT = Path(__file__).parent / "data" / "report_holo4.json"


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


# 2^k times holo3 is the same surface up to a homothety, exact in floating
# point, so every verdict is k = 0's; a floor in absolute length units
# breaks that (pedal_mean.formula fails at k = -23 and -100 on this grid)
@pytest.mark.parametrize("k", [-100, -23, 1, 150])
def test_verdicts_are_invariant_under_a_power_of_two_homothety(k):
    phi = preset_curve("holo3").phi

    def report(k):
        curve = [[[math.ldexp(c.real, k), math.ldexp(c.imag, k)] for c in p] for p in phi]
        doc = {"ambient_curve": curve, "grid": "0.3,1.3,0.3,1.3,5,5"}
        return [(r["id"], r["status"], r["pass"])
                for r in run_all(RunConfig.from_document(doc))["checks"]]

    assert report(k) == report(0)


# tripling is not exact in floating point, so the homothety control
# measures rounding: a defect of 0 would mean it compares equal numbers
@pytest.mark.parametrize("doc", [
    {"seed_preset": "holo3"},
    {"seed_preset": "holo4"},
    {"seed_preset": "holo3", "grid": "-0.5,0.5,-0.5,0.5,11,11"},
], ids=["holo3", "holo4", "branch-window"])
def test_the_homothety_control_reads_a_nonzero_passing_defect(doc):
    report = run_all(RunConfig.from_document({**doc, "checks": "pedal_mean.scaling"}))
    rec = by_id(report)["pedal_mean.scaling"]
    assert rec["status"] == "evaluated" and rec["pass"]
    assert 0.0 < rec["defect"] <= rec["threshold"]


R5_SPEC = {"ambient_dim": 5, "isotropy_order": 1,
           "alpha0": [[1, 0, 0.5]], "betas": [[1], [0, 1]]}


@pytest.mark.parametrize("doc, inconclusive", [
    # level-3 frames are order-0 jets at order 4: the connection forms
    # must stop at level 2
    ({"seed_preset": "holo4"}, set()),
    # the second normal space of a surface in R^5 has rank 1
    ({"spec": R5_SPEC}, {"pedal_secondform.normal2", "pedal_secondform.hodge"}),
    # a surface in R^4 has no second normal space
    ({"curve": [[0, 1], [0, 0, 1]]}, {"pedal_secondform.normal2", "pedal_secondform.hodge",
                                      "swillmore.refute", "swillmore.scalar_agreement",
                                      "swillmore.kappa_theta"}),
], ids=["holo4-order4", "r5", "r4"])
def test_reports_are_well_formed_beyond_the_default_surface(doc, inconclusive):
    report = run_all(RunConfig.from_document(dict(doc, grid="0.3,1.3,0.3,1.3,7,7")))
    assert report["status"] in ("pass", "fail")
    recs = by_id(report)
    assert len(recs) == 30
    for rec in recs.values():
        assert {"id", "status", "pass", "defect"} <= set(rec)
    assert {cid for cid, rec in recs.items() if rec["status"] != "evaluated"} == inconclusive
    statements = {c.id: c.requires.reason for c in verify.CHECKS if c.requires}
    for cid in inconclusive:
        assert recs[cid]["status"] == "inconclusive" and recs[cid]["defect"] is None
        assert recs[cid]["statement"] == statements[cid]


def test_each_requirement_reason_states_its_dimension():
    reqs = {c.requires for c in verify.CHECKS if c.requires}
    assert {r.min_dim for r in reqs} == {5, 6}
    for req in reqs:
        assert req.reason.endswith(f"(ambient dimension >= {req.min_dim})")


@pytest.fixture(scope="module")
def holo3_checks_at_order_4():
    return run_all(small_config())["checks"]


@pytest.mark.parametrize("order", [2, 3, 6])
def test_verify_differentiates_at_order_4_whatever_the_jet_order(order,
                                                                  holo3_checks_at_order_4):
    assert run_all(small_config(jet_order=order))["checks"] == holo3_checks_at_order_4


@pytest.mark.parametrize("doc", [
    {"seed_preset": "holo4", "grid": "0.3,1.3,0.3,1.3,9,9"},
    {"spec": R5_SPEC, "grid": "0.3,1.3,0.3,1.3,7,7"},
], ids=["holo4", "r5"])
def test_a_higher_jet_order_changes_no_record(monkeypatch, doc):
    # guards JET_ORDER: a check that reads a coefficient above it would
    # read truncated data at 4 and change here
    at_4 = run_all(RunConfig.from_document(doc))["checks"]
    monkeypatch.setattr(verify, "JET_ORDER", verify.JET_ORDER + 1)
    assert run_all(RunConfig.from_document(doc))["checks"] == at_4


# holo3's 13 x 13 grid holds all three subgrids (5, 7 and 11) of the run
ORDER_GUARD_DOCS = pytest.mark.parametrize("doc", [
    {"seed_preset": "holo3", "grid": "0.3,1.3,0.3,1.3,13,13"},
    {"seed_preset": "holo4", "grid": "0.3,1.3,0.3,1.3,9,9"},
    {"spec": R5_SPEC, "grid": "0.3,1.3,0.3,1.3,7,7"},
], ids=["holo3", "holo4", "r5"])


@ORDER_GUARD_DOCS
def test_a_higher_pipeline_floor_changes_no_record(monkeypatch, doc):
    # guards MIN_ORDER: a check that reads a coefficient above it on a
    # reference, subgrid or sample pipeline would change here
    at_floor = run_all(RunConfig.from_document(doc))["checks"]
    raised = pedal.MIN_ORDER + 1
    for module in (pedal, verify):
        monkeypatch.setattr(module, "MIN_ORDER", raised)
    assert run_all(RunConfig.from_document(doc))["checks"] == at_floor


@ORDER_GUARD_DOCS
def test_a_higher_second_order_cap_changes_no_record(monkeypatch, doc):
    # guards geometry.SECOND_ORDER_CAP: a check that reads second-order data
    # above it would read truncated data at the cap and change here
    at_cap = run_all(RunConfig.from_document(doc))["checks"]
    monkeypatch.setattr(geometry, "SECOND_ORDER_CAP", geometry.SECOND_ORDER_CAP + 1)
    assert run_all(RunConfig.from_document(doc))["checks"] == at_cap


def test_a_default_run_builds_only_its_surface_above_the_floor(monkeypatch):
    built = []
    init = SurfacePipeline.__init__

    def spy(self, evaluator, grid, order):
        built.append((evaluator.provenance, grid, order))
        init(self, evaluator, grid, order)

    monkeypatch.setattr(SurfacePipeline, "__init__", spy)
    cfg = RunConfig.from_document({"seed_preset": "holo3"})
    assert run_all(cfg)["status"] == "pass"
    above = [b for b in built if b[2] > pedal.MIN_ORDER]
    assert above == [(surface_evaluator(cfg.curve).provenance, cfg.grid, verify.JET_ORDER)]
    # besides it: the two references, four subgrids (5, 7 and 11 of the
    # surface, 7 of the R^8 reference) and two sample families
    assert len(built) == 9


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


def test_shadow_surface_is_pedal_family_limit():
    ev = surface_evaluator(preset_curve("holo3"))
    v = np.array([0.9, -0.4, 0.7, 0.3, -0.8, 0.5])
    x = np.array([0.6, 1.0])
    y = np.array([0.8, 0.5])
    shadow = normal_part(SurfaceJets(ev, x, y, 3), JetVec.const(v, 3, x.shape))
    c = 0.25
    lhs = pedal_surface(ev.affine(scale=c, translation=v)).jets(x, y, 2).value().real
    g = pedal_surface(ev).jets(x, y, 2).value().real
    rhs = c * g + shadow.value().real
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_report_json_is_sorted_and_versioned():
    report = run_all(small_config(checks=("generator",)))
    text = report_to_json(report)
    assert '"version"' in text
    assert text.index('"checks"') < text.index('"environment"')  # sorted keys


def test_center_lattice_is_the_product_order():
    axis = np.linspace(-1.6, 1.6, 3)
    for n in range(4, 9):
        ref = np.array(list(itertools.product(axis, repeat=n)), dtype=float)
        got = _center_lattice(n)
        assert got.shape == (3**n, n)
        assert np.array_equal(got, ref)


def test_crosscheck_centers_are_rows_of_the_lattice():
    # two opposite corners of the cube and its center, bit for bit
    for n in range(4, 11):
        rows = _center_lattice(n)[[0, 3**n // 2, -1]]
        got = _crosscheck_centers(n)
        assert got.dtype == rows.dtype and got.shape == rows.shape
        assert got.tobytes() == rows.tobytes()


# the tiny curve keeps no point, so only the crosscheck runs; it reads no
# lattice, and the records still count the lattice's centers
@pytest.mark.parametrize("doc, calls, centers", [
    ({"curve": [[0, 1e-200], [0, 0, 1e-200]]}, [], 81),
    ({"seed_preset": "holo3"}, [6], 729),
], ids=["no-kept-point", "holo3"])
def test_only_the_lattice_walk_builds_the_lattice(monkeypatch, doc, calls, centers):
    built = []

    def spy(n):
        built.append(n)
        return _center_lattice(n)

    monkeypatch.setattr(verify, "_center_lattice", spy)
    cfg = RunConfig.from_document({**doc, "grid": "0.3,1.3,0.3,1.3,5,5", "checks": ["inversion"]})
    records = by_id(run_all(cfg))
    assert built == calls
    for cid in ("inversion.norm", "inversion.system"):
        assert records[cid]["details"] == {"centers": centers}


# 729 centers at 81 points: 50 centers a block leaves a ragged block of 29,
# and 1 a block grades every center in a one-center call of its own
@pytest.mark.parametrize("per_block", [50, 1])
def test_inversion_lattice_blocks_equal_the_dense_lattice(monkeypatch, per_block):
    pipe = SurfacePipeline(surface_evaluator(preset_curve("holo3")), SMALL_GRID, 4)
    centers = _center_lattice(6)
    ref_norm, ref_system = dense_inversion_defects(pipe, centers)

    block = per_block * SMALL_GRID.size
    monkeypatch.setattr(verify, "_LATTICE_BLOCK", block)
    calls = []

    def spy(pedal_bundle, C, **kw):
        pts = pedal_bundle.valid.size if kw.get("points") is None else len(kw["points"])
        calls.append((C, pts))
        return moebius.minimality_residuals(pedal_bundle, C, **kw)

    monkeypatch.setattr(verify, "minimality_residuals", spy)
    got = verify_inversion_minimality(verify.Run(small_config()))
    assert got["inversion.norm"].defect == ref_norm
    assert got["inversion.system"].defect == ref_system

    assert all(len(C) * pts <= block for C, pts in calls)
    # the crosscheck's calls run on the 5 x 5 subgrid
    graded = [C for C, pts in calls if pts == SMALL_GRID.size]
    assert graded
    rows = Counter(map(tuple, np.concatenate(graded)))
    assert len(rows) < centers.shape[0] / 10
    assert max(rows.values()) == 1


def _spec_doc(n, m):
    """A degree-1 spec in R^n with m curvature circles."""
    line = [[0.3, -0.8], [1.1, 0.4], [-0.6, 0.9], [0.7, 1.3]]
    return {"ambient_dim": n, "isotropy_order": m,
            "alpha0": [line[k % 4] for k in range(n - 2 * (m + 1))],
            "betas": [line[(k + 1) % 4] for k in range(m + 1)]}


# holo4 at order 5 prunes least of the presets; the branch window
# excludes its origin; in R^10 on 5 x 5 points most of the 59,049
# centers reach the whole grid, in many blocks at every level; holo3's
# 441 kept points give a three-level walk.  Each case names the strides
# its walk takes: 4, 16, 64, ... up to the largest that leaves at least 4
# kept points, coarsest first, until no center survives (the branch
# window's first level grades or drops every center)
@pytest.mark.parametrize("doc, ladder", [
    ({"seed_preset": "holo4", "grid": "0.3,1.3,0.3,1.3,9,9", "jet_order": 5}, (16, 4)),
    ({"seed_preset": "holo3", "grid": "-0.5,0.5,-0.5,0.5,11,11"}, (16,)),
    ({"seed_preset": "noniso", "grid": "0.3,1.3,0.3,1.3,9,9"}, (16, 4)),
    ({"spec": _spec_doc(10, 4), "grid": "0.3,1.3,0.3,1.3,5,5"}, (4,)),
    ({"seed_preset": "holo3"}, (64, 16, 4)),
], ids=["holo4-order5", "branch-window", "noniso", "r10", "holo3-21x21"])
def test_pruned_inversion_lattice_equals_the_dense_lattice(monkeypatch, doc, ladder):
    levels = []

    def spy(pedal_bundle, C, **kw):
        if kw.get("points") is not None:
            levels.append(tuple(kw["points"]))
        return moebius.minimality_residuals(pedal_bundle, C, **kw)

    monkeypatch.setattr(verify, "minimality_residuals", spy)
    run = verify.Run(RunConfig.from_document(doc))
    got = verify_inversion_minimality(run)
    ref = dense_inversion_defects(run.surface, _center_lattice(run.surface.evaluator.ambient_dim))
    assert (got["inversion.norm"].defect, got["inversion.system"].defect) == ref
    kept = np.flatnonzero(run.surface.mask())
    assert list(dict.fromkeys(levels)) == [tuple(kept[::stride]) for stride in ladder]


def test_inversion_lattice_without_a_kept_point_has_no_defect():
    # every point of a plane's pedal is excluded
    run = verify.Run(RunConfig.from_document({"curve": [[0, 1], [0, 2]],
                                              "grid": {"nx": 5, "ny": 5}}))
    assert not np.any(run.surface.mask())
    got = verify_inversion_minimality(run)
    assert got["inversion.norm"].defect is None
    assert got["inversion.system"].defect is None


# holo3 inverted about the lattice center (0, 0, 0, 0, -1.6, -1.6) has
# |H| = 0 at an isolated point near (1.0627, 1.0627): a window around it
# and the 81 x 81 grid both sample it closely, yet that inversion is not
# minimal, because its |H| is large elsewhere on the grid
@pytest.mark.parametrize("grid", ["1.0527,1.0727,1.0527,1.0727,11,11", "0.3,1.3,0.3,1.3,81,81"],
                         ids=["window-at-the-zero", "81x81"])
def test_inversion_norm_passes_on_grids_through_an_isolated_zero(grid):
    doc = {"seed_preset": "holo3", "grid": grid, "checks": ["inversion.norm"]}
    rec = by_id(run_all(RunConfig.from_document(doc)))["inversion.norm"]
    assert rec["status"] == "evaluated" and rec["pass"], rec


def test_a_plane_ends_in_a_report():
    # every point of a plane's pedal is excluded, so the inversion group
    # must not evaluate its ratios there, where they overflow (the suite
    # turns a RuntimeWarning into an error)
    report = run_all(RunConfig.from_document({"curve": [[0, 1], [0, 2]],
                                              "grid": {"nx": 5, "ny": 5}}))
    assert len(report["checks"]) == 30


class _Draws:
    """A generator whose normal draws are the given vectors, in order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def normal(self, size):
        return np.array(next(self.draws), dtype=float)


def _spy_builds(monkeypatch):
    """A list that records (provenance, batch) of each bundle built."""
    builds = []
    init = verify.SurfaceJets.__init__

    def spy(self, surface, *args, **kw):
        init(self, surface, *args, **kw)
        builds.append((surface.provenance, self.batch))

    monkeypatch.setattr(verify.SurfaceJets, "__init__", spy)
    return builds


def test_random_inversions_share_one_pedal_evaluation(monkeypatch):
    # a window through the branch point, where the pedal is invalid at the
    # origin, so no inversion keeps that point; the fourth center is the
    # pedal's point 0, so only that inversion drops it
    ev = surface_evaluator(preset_curve("holo3"))
    grid = Grid(-0.5, 0.5, -0.5, 0.5, 7, 7)
    g0 = pedal_surface(ev).jets(*grid.points(), 2).value()[:, 0]
    draws = list(np.random.default_rng(3).normal(size=(10, 6)))
    draws[3] = g0
    span = np.linalg.norm(g0)
    calls = []
    inner = ev.fn
    ev.fn = lambda *args: calls.append(args[2]) or inner(*args)
    pipe = SurfacePipeline(ev, grid, 4)
    pipe.pedal_evaluated  # built before the spy
    builds = _spy_builds(monkeypatch)
    worst, evaluated, kept = verify._random_inversion_rank_defect(pipe, _Draws(draws), 10, span)
    monkeypatch.undo()
    # one evaluation of the surface, one bundle of the ten inversions
    assert calls == [4] and [batch for _, batch in builds] == [(10, 49)]
    # the same as inverting a fresh pedal evaluation each time
    x, y = grid.points()
    want, want_evaluated, want_kept = 0.0, 0, grid.premask()
    for direction in draws:
        center = span * direction / np.linalg.norm(direction)
        bundle = verify.SurfaceJets(moebius.invert_evaluator(pedal_surface(ev), center),
                                    x, y, 2)
        m = grid.premask() & bundle.valid
        want_kept = want_kept & m
        if np.any(m):
            want = max(want, verify._masked_max(verify._rank_deviation(bundle), m))
            want_evaluated += 1
    assert (worst, evaluated) == (want, want_evaluated) == (want, 10)
    assert np.array_equal(kept, want_kept)
    assert np.array_equal(np.flatnonzero(~kept), [0, 24])


def test_a_default_run_builds_one_bundle_per_sample_family(monkeypatch):
    builds = _spy_builds(monkeypatch)
    report = run_all(RunConfig.from_document({"seed_preset": "holo3"}))
    assert report["status"] == "pass"
    # one stacked bundle each: the 10 + 10 random inversions, the 3
    # crosscheck inversions and the two members of the shifted family (base
    # and pedal)
    assert len(builds) == 22
    stacks = sorted(batch for _, batch in builds if len(batch) == 2)
    assert stacks == [(2, 121), (2, 121), (3, 25), (10, 49), (10, 49)]


def test_pipeline_pedal_is_composed_on_the_base_bundle(monkeypatch):
    pipe = SurfacePipeline(surface_evaluator(preset_curve("holo3")), SMALL_GRID, 4)
    base = pipe.base
    builds = []
    init = verify.SurfaceJets.__init__

    def spy(self, surface, *args, **kw):
        builds.append(surface.provenance)
        init(self, surface, *args, **kw)

    monkeypatch.setattr(verify.SurfaceJets, "__init__", spy)
    got = pipe.pedal
    assert builds == [pipe.pedal_evaluated.provenance] and pipe.base is base
    monkeypatch.undo()
    want = verify.SurfaceJets(pedal_surface(pipe.evaluator), pipe.x, pipe.y, 3)
    assert np.array_equal(got.valid, want.valid)
    for a, b in zip(got.f, want.f):
        assert np.array_equal(a.t, b.t)


def test_a_subgrid_is_built_once_at_the_floor_unless_it_is_the_grid():
    pipe = SurfacePipeline(surface_evaluator(preset_curve("holo3")), Grid(nx=7, ny=11),
                           verify.JET_ORDER)
    assert pipe.on(11) is pipe and pipe.on(12) is pipe
    sub = pipe.on(5)
    assert (sub.grid.nx, sub.grid.ny, sub.order) == (5, 5, pedal.MIN_ORDER)
    assert pipe.on(5) is sub and pipe.on(7) is not pipe


def test_registry_ids_are_unique_and_in_report_order():
    ids = [c.id for c in verify.CHECKS]
    assert len(ids) == 30 and len(set(ids)) == 30
    assert ids == [rec["id"] for rec in run_all(small_config())["checks"]]


def test_registry_thresholds_are_positive_constants():
    assert all(math.isfinite(c.threshold) and c.threshold > 0 for c in verify.CHECKS)
    # the agreement cut is the refutation's own threshold
    refute = next(c for c in verify.CHECKS if c.id == "swillmore.refute")
    assert verify.SWILLMORE_CUT == refute.threshold


def test_run_all_calls_the_group_function_of_the_module(monkeypatch):
    # a replaced verify.verify_<group> must be the one run_all calls
    calls = []
    original = verify.verify_swillmore

    def spy(run):
        calls.append(run)
        return original(run)

    monkeypatch.setattr(verify, "verify_swillmore", spy)
    report = run_all(small_config(checks=("swillmore", "generator.isotropy")))
    assert len(calls) == 1
    assert [rec["id"] for rec in report["checks"]] == [
        "generator.isotropy", "swillmore.refute", "swillmore.scalar_agreement",
        "swillmore.kappa_theta"]
    assert report["status"] == "pass"


def test_selected_check_runs_only_its_part_of_the_group(monkeypatch):
    full = by_id(run_all(small_config()))
    built = []
    build = verify.Run._build
    monkeypatch.setattr(verify.Run, "_build",
                        lambda run, curve, order: built.append(curve) or build(run, curve, order))
    cfg = small_config(checks=("shifted_pedal.decomposition",))
    report = run_all(cfg)
    # neither the R^8 pipeline nor the control is built for it
    assert len(built) == 1 and built[0] is cfg.curve
    assert report["checks"] == [full["shifted_pedal.decomposition"]]


def test_subgrid_checks_share_the_surface_bundle_on_the_7x7_subgrid(monkeypatch):
    # the scaling control and the random inversions read one bundle of
    # the surface there (the control's tripled surface has its own)
    cfg = small_config(checks=("pedal_mean.scaling", "first_normal_rank.inverted"))
    builds = []
    init = verify.SurfaceJets.__init__

    def spy(self, surface, x, *args, **kw):
        builds.append((surface.provenance, np.size(x)))
        init(self, surface, x, *args, **kw)

    monkeypatch.setattr(verify.SurfaceJets, "__init__", spy)
    report = run_all(cfg)
    assert builds.count((cfg.curve.provenance, 49)) == 1
    assert report["status"] == "pass"


def test_inversion_crosscheck_does_not_depend_on_the_layout_of_the_cached_arrays(monkeypatch):
    # noniso is a surface where a one-row product of strided arrays rounds
    # differently from one of contiguous arrays
    cfg = small_config(curve=preset_curve("noniso"))
    want = verify_inversion_minimality(verify.Run(cfg))["inversion.crosscheck"].defect
    points = moebius._minimality_points

    def strided(a):
        wide = np.zeros(a.shape + (2,))
        wide[..., 0] = a
        return wide[..., 0]

    def served(pb):
        arrays = points(pb)
        assert all(a.flags.c_contiguous for a in arrays[:-2])
        return tuple([strided(a) for a in v] if isinstance(v, list) else strided(v)
                     for v in arrays)

    monkeypatch.setattr(moebius, "_minimality_points", served)
    got = verify_inversion_minimality(verify.Run(cfg))["inversion.crosscheck"].defect
    assert got == want


def test_a_curve_of_tiny_coefficients_is_inconclusive():
    # squared coefficients underflow to 0; pyproject's filterwarnings turns
    # a RuntimeWarning into an error, so this also asserts that no division
    # warns
    doc = {"curve": [[0, 1e-200], [0, 0, 1e-200]], "grid": "0.3,1.3,0.3,1.3,5,5"}
    report = run_all(RunConfig.from_document(doc))
    assert report["environment"]["points"] == {"total": 25, "usable": 0}
    assert report["status"] == "inconclusive"
    assert by_id(report)["generator.isotropy"]["defect"] == 0.0
    # holo4's R^8 value alone does not make the run's own span check pass
    span = by_id(report)["pedal_secondform.span"]
    assert span["status"] == "inconclusive" and span["defect"] is None
    assert span["details"]["ambient_6"] is None


def test_unknown_check_prefix_is_a_config_error():
    with pytest.raises(ConfigError, match="'bogus'.*pedal_circle"):
        run_all(small_config(checks=("generator", "bogus")))


def test_a_point_whose_theta_the_formula_guards_is_excluded_not_failed():
    formula = next(c for c in verify.CHECKS if c.id == "pedal_mean.formula")

    def record(theta_at=None):
        run = verify.Run(small_config())
        if theta_at is not None:
            theta = run.surface.split.theta.copy()
            theta.flat[theta_at] = 0.0  # the formula cannot divide by it
            run.surface.split.theta = theta
        outcome = verify.verify_meancurvature(run)["pedal_mean.formula"]
        return verify._record(formula, run, outcome, None), run.surface.mask()

    before, kept = record()
    point = int(np.flatnonzero(kept)[len(np.flatnonzero(kept)) // 2])
    after, _ = record(point)
    assert before["pass"] and after["pass"]
    assert after["excluded"] == before["excluded"] + 1
    assert after["defect"] <= before["defect"]


def test_holo4_report_bytes_are_frozen():
    doc = {"seed_preset": "holo4", "grid": "0.3,1.3,0.3,1.3,13,13", "jet_order": 5}
    report = run_all(RunConfig.from_document(doc))
    assert report_to_json(report) == HOLO4_REPORT.read_bytes().decode("utf-8")


@pytest.mark.parametrize("preset, shared", [
    ("holo4", "higher"), ("noniso", "control"), ("holo3", None)])
def test_a_run_builds_one_pipeline_per_distinct_curve(preset, shared):
    run = verify.Run(small_config(curve=preset_curve(preset)))
    for name in ("control", "higher"):
        assert (getattr(run, name) is run.surface) == (name == shared)


# 11 x 11 puts a grid point on the branch point at the origin, where the
# control surface's second curvature ellipse degenerates; 10 x 10 misses it
@pytest.mark.parametrize("grid", ["-0.5,0.5,-0.5,0.5,11,11", "-0.5,0.5,-0.5,0.5,10,10"],
                         ids=["branch-point", "around-branch-point"])
def test_every_check_passes_on_a_window_through_the_branch_point(grid):
    report = run_all(RunConfig.from_document({"seed_preset": "holo3", "grid": grid}))
    if grid.endswith("11"):
        assert report_to_json(report) == BRANCH_REPORT.read_bytes().decode("utf-8")
    recs = by_id(report)
    assert len(recs) == 30
    assert all(rec["pass"] for rec in recs.values()), [
        cid for cid, rec in recs.items() if not rec["pass"]]
    assert report["status"] == "pass"
    # points where the control's deepest flag level is degenerate are
    # excluded from the control's second-form checks, and counted
    flag_excluded = (recs["pedal_secondform.one_circle"]["excluded"]
                     - recs["pedal_conformal.one_circle"]["excluded"])
    assert flag_excluded == (10 if grid.endswith("11") else 0)
    # a check on samples counts the points any sample drops: the invalid
    # pedal at the origin, which the 5 x 5 and 7 x 7 subgrids always hold
    # and the 11 x 11 family subgrid holds on the odd grid only
    assert recs["shifted_pedal.family"]["excluded"] == (1 if grid.endswith("11") else 0)
    assert recs["inversion.crosscheck"]["excluded"] == 1
    assert recs["first_normal_rank.inverted"]["excluded"] == 1


def test_a_small_run_does_at_most_the_recorded_jet_work(monkeypatch):
    # jet work, counted as ROADMAP counts it: the products of jet tables,
    # and their multiply-adds, the terms of each truncated product times the
    # components and points it runs over
    work = []
    product = jets._product

    def counted(a, b, lead):
        out = product(a, b, lead)
        work.append(math.comb(jets._side(len(out)) + 3, 4) * math.prod(out.shape[1:]))
        return out

    monkeypatch.setattr(jets, "_product", counted)
    run_all(small_config(grid=Grid(nx=5, ny=5)))
    assert len(work) <= 763 and sum(work) <= 787_350


@pytest.mark.parametrize("preset", ["holo3", "holo4", "noniso"])
def test_alpha_on_dz_and_the_position_is_the_coordinate_assembly(preset):
    pipe = SurfacePipeline(surface_evaluator(preset_curve(preset)), Grid(nx=5, ny=5), 4)
    sp = pipe.split
    got = verify._alpha_dz_position(sp, *sp.frames[2:])[0]
    want = coordinate_alpha_dz(pipe.base, sp.tangent_part)
    norm = np.sqrt(np.sum(np.abs(want) ** 2, axis=0))
    assert np.min(norm) > 0
    assert np.max(np.sqrt(np.sum(np.abs(got - want) ** 2, axis=0)) / norm) <= 1e-13
