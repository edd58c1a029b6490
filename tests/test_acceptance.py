"""Acceptance gate: the thirteen headline properties at contract tolerances.

One full certification run on the default 21 x 21 grid over [0.3, 1.3]^2
with order-4 jets backs most criteria; the Gauss-curvature oracle, the
isotropy stress test, and the finite-difference hygiene check recompute
their quantities directly.  Each test prints a single PASS/FAIL line so
the gate reads as a checklist under ``pytest -v -s``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from isopedal.config import RunConfig
from isopedal.geometry import SurfaceJets
from isopedal.grid import Grid
from isopedal.pedal import pedal_surface
from isopedal.verify import report_to_json, run_all
from isopedal.weierstrass import preset_curve, surface_evaluator, w_generate
from oracles import deriv, sample_spec

DEFAULT_DOC = {"seed_preset": "holo3"}
# the default report, frozen: a change that alters its bytes replaces this
# file and says why
FROZEN_REPORT = Path(__file__).parent / "data" / "report_default.json"
# the benchmark's reference report of the same config, read only
BENCHMARK_REFERENCE = (Path(__file__).parents[1] / "perfbench" / "reference"
                       / "verify_default.json")


def _line(num, desc, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {desc}")
    return ok


def _evaluated(rec):
    return rec["status"] == "evaluated"


@pytest.fixture(scope="module")
def report():
    return run_all(RunConfig.from_document(dict(DEFAULT_DOC)))


@pytest.fixture(scope="module")
def checks(report):
    return {rec["id"]: rec for rec in report["checks"]}


def test_criterion_01_exact_isotropy():
    worst = max(preset_curve(name).isotropy_residual()
                for name in ("holo3", "holo4", "noniso"))
    rng = np.random.default_rng(20260826)
    for _ in range(200):
        worst = max(worst, w_generate(sample_spec(rng)).isotropy_residual())
    ok = worst <= 1e-10
    assert _line(1, "derivative curves of shipped presets and 200 random "
                    f"specs are isotropic, worst residual {worst:.2e} <= 1e-10", ok)


def test_criterion_02_generated_surfaces_minimal(checks):
    rec = checks["generator.minimality"]
    ok = _evaluated(rec) and rec["defect"] <= 1e-9
    assert _line(2, "mean curvature of the generated surface vanishes, "
                    f"max ratio {rec['defect']:.2e} <= 1e-9", ok)


def test_criterion_03_gauss_curvature_closed_form():
    ev = surface_evaluator(preset_curve("holo3"))
    x, y = Grid().points()
    K = SurfaceJets(ev, x, y, 3).curvature_scalars()["K"]
    want = -8.0 / (1.0 + 2.0 * (x * x + y * y)) ** 4
    rel = float(np.max(np.abs(K - want) / np.abs(want)))
    x0, y0 = Grid(x0=-0.5, x1=0.5, y0=-0.5, y1=0.5, nx=3, ny=3).points()
    K0 = SurfaceJets(ev, x0, y0, 3).curvature_scalars()["K"][4]
    origin_rel = abs(K0 + 8.0) / 8.0
    ok = rel <= 1e-6 and origin_rel <= 1e-6
    assert _line(3, "Gauss curvature matches -8/(1+2(x^2+y^2))^4, relative "
                    f"error {rel:.2e} on the grid, {origin_rel:.2e} at 0", ok)


def test_criterion_04_pedal_is_superconformal(report, checks):
    circ = checks["pedal_circle.positive"]
    wint = checks["pedal_circle.wintgen"]
    pts = report["environment"]["points"]
    ok = (_evaluated(circ) and circ["defect"] <= 1e-8
          and _evaluated(wint) and wint["defect"] <= 1e-7
          and circ["excluded"] == 0 and pts["usable"] == pts["total"])
    assert _line(4, "pedal of the two-circle surface: circle defect "
                    f"{circ['defect']:.2e} <= 1e-8 and Wintgen defect "
                    f"{wint['defect']:.2e} <= 1e-7 at all grid points", ok)


def test_criterion_05_one_circle_pedal_fails_circle_test(checks):
    rec = checks["pedal_circle.negative"]
    ok = _evaluated(rec) and rec["defect"] >= 1e-3
    assert _line(5, "pedal of the one-circle surface: circle defect at the "
                    f"10th percentile {rec['defect']:.2e} >= 1e-3", ok)


def test_criterion_06_pedal_conformal_with_curvature_factor(checks):
    orth = checks["pedal_conformal.orthogonality"]
    fact = checks["pedal_conformal.factor"]
    ok = (_evaluated(orth) and orth["defect"] <= 1e-8
          and _evaluated(fact) and fact["defect"] <= 1e-7)
    assert _line(6, f"pedal conformality defect {orth['defect']:.2e} <= 1e-8, "
                    f"relative factor defect {fact['defect']:.2e} <= 1e-7", ok)


def test_criterion_07_tangent_spans_orthogonal(checks):
    rec = checks["pedal_normal_span"]
    ok = _evaluated(rec) and rec["defect"] <= 1e-8
    assert _line(7, "pedal tangents lie in the predicted span, residual "
                    f"{rec['defect']:.2e} <= 1e-8", ok)


def test_criterion_08_pedal_mean_curvature_formula(checks):
    formula = checks["pedal_mean.formula"]
    lap = checks["pedal_mean.laplacian"]
    ok = (_evaluated(formula) and formula["defect"] <= 1e-7
          and _evaluated(lap) and lap["defect"] <= 1e-6)
    assert _line(8, f"pedal mean curvature formula {formula['defect']:.2e} "
                    f"<= 1e-7, Laplacian identity {lap['defect']:.2e} <= 1e-6",
                 ok)


def test_criterion_09_second_form_structure(checks):
    span = checks["pedal_secondform.span"]
    pair = checks["pedal_secondform.pairing"]
    norm2 = checks["pedal_secondform.normal2"]
    hodge = checks["pedal_secondform.hodge"]
    ok = (_evaluated(span) and span["defect"] <= 1e-7
          and _evaluated(pair) and pair["defect"] <= 1e-7
          and _evaluated(norm2) and norm2["defect"] <= 1e-6
          and _evaluated(hodge)
          and hodge["details"]["convention"] in ("minus", "plus"))
    assert _line(9, "second-form structure: span {:.2e} <= 1e-7, pairing "
                    "{:.2e} <= 1e-7, second normal plane {:.2e} <= 1e-6 "
                    "(duality convention '{}')".format(
                        span["defect"], pair["defect"], norm2["defect"],
                        hodge["details"]["convention"]), ok)


def test_criterion_10_inverted_pedal_not_minimal(checks):
    norm = checks["inversion.norm"]
    system = checks["inversion.system"]
    ok = (_evaluated(norm) and norm["defect"] >= 1e-3
          and norm["details"]["centers"] >= 125
          and _evaluated(system) and system["defect"] >= 1e-3)
    assert _line(10, f"over {norm['details']['centers']} inversion centers "
                     f"min mean-curvature scale {norm['defect']:.2e} >= 1e-3 "
                     f"and residual system {system['defect']:.2e} >= 1e-3", ok)


def test_criterion_11_pedal_not_s_willmore(checks):
    refute = checks["swillmore.refute"]
    agree = checks["swillmore.scalar_agreement"]
    ok = (_evaluated(refute) and refute["defect"] >= 1e-3
          and _evaluated(agree) and agree["defect"] >= 0.99)
    assert _line(11, "parallelism defect at the 10th percentile "
                     f"{refute['defect']:.2e} >= 1e-3, scalar criterion "
                     f"agrees on {100 * agree['defect']:.1f}% of points", ok)


def test_criterion_12_shifted_family_endpoints(checks):
    shadow = checks["shifted_pedal.shadow_superconformal"]
    inv = checks["shifted_pedal.inverted_minimal"]
    rank = checks["first_normal_rank.pedal"]
    rank_inv = checks["first_normal_rank.inverted"]
    rank_hi = checks["first_normal_rank.higher_isotropy"]
    ok = (_evaluated(shadow) and shadow["defect"] <= 1e-8
          and _evaluated(inv) and inv["defect"] <= 1e-7
          and _evaluated(rank) and rank["defect"] == 0
          and _evaluated(rank_inv) and rank_inv["defect"] == 0
          and rank_inv["details"]["inversions"] == 10
          and _evaluated(rank_hi) and rank_hi["defect"] == 0)
    assert _line(12, "degenerate member superconformal "
                     f"({shadow['defect']:.2e} <= 1e-8), its inversion minimal "
                     f"({inv['defect']:.2e} <= 1e-7), first normal rank 3 for "
                     "the pedal, 10 inversions, and the R^8 preset", ok)


def test_criterion_13_hygiene_and_determinism(report):
    h = 1e-4
    rng = np.random.default_rng(20260826)
    x = rng.uniform(0.35, 1.25, size=100)
    y = rng.uniform(0.35, 1.25, size=100)
    worst = 0.0
    f_eval = surface_evaluator(preset_curve("holo3"))
    for ev in (f_eval, pedal_surface(f_eval)):
        jet = ev.jets(x, y, 3)
        for dv, fd in (
            (deriv(jet, 1, 0),
             (ev.jets(x + h, y, 2).value() - ev.jets(x - h, y, 2).value())
             / (2 * h)),
            (deriv(jet, 0, 1),
             (ev.jets(x, y + h, 2).value() - ev.jets(x, y - h, 2).value())
             / (2 * h)),
            (deriv(jet, 2, 0),
             (ev.jets(x + h, y, 2).value() - 2 * jet.value()
              + ev.jets(x - h, y, 2).value()) / (h * h)),
        ):
            rel = np.abs(dv.real - fd.real) / np.maximum(1.0, np.abs(dv.real))
            worst = max(worst, float(np.max(rel)))
    fresh = run_all(RunConfig.from_document(dict(DEFAULT_DOC)))
    same = report_to_json(fresh) == report_to_json(report)
    ok = worst <= 1e-5 and same
    assert _line(13, "jet derivatives match central differences on 100 "
                     f"probes ({worst:.2e} <= 1e-5); repeated reports are "
                     f"byte-identical ({same})", ok)


def test_default_report_bytes_are_frozen(report):
    assert report_to_json(report) == FROZEN_REPORT.read_bytes().decode("utf-8")


def test_default_report_meets_the_benchmark_reference(report):
    # the verify_default workload's correctness gate: same overall status
    # and, in order, the same (id, status, pass) of every check
    reference = json.loads(BENCHMARK_REFERENCE.read_text())

    def verdicts(rep):
        return rep["status"], [(c["id"], c["status"], c["pass"]) for c in rep["checks"]]

    assert verdicts(report) == verdicts(reference)
