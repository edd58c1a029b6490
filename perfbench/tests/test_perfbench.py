"""Tests of the benchmark's own arithmetic, report diff and spec generator."""

import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import report_diff  # noqa: E402
import specgen  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, mul_cost, self_times  # noqa: E402


def span(name, start, end, parent):
    return [name, start, end, parent, 0]  # [name, start, end, parent, op]


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 4.0, 0),
        span("b", 3.0, 6.0, 0),     # overlaps a: covered once
        span("c", 1.5, 2.0, 1),     # grandchild: only a loses it
        span("d", 9.0, 12.0, 0),    # runs past its parent: clipped
        span("other", 20.0, 21.0, -1),
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 1.0, 2.5, 3.0, 0.5, 3.0, 1.0])


def test_wrapped_calls_record_nested_spans():
    tracer = Tracer()
    tracer.begin_round()

    def inner():
        time.sleep(0.01)

    inner_t = tracer.wrap(inner, "inner")

    def outer():
        inner_t()
        inner_t()

    tracer.wrap(outer, "outer")()
    tracer.begin_op()
    inner_t()
    names = [sp[0] for sp in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [sp[3] for sp in tracer.spans] == [-1, 0, 0, -1]
    assert [sp[4] for sp in tracer.spans] == [0, 0, 0, 1]  # op ids
    assert tracer.op_round == [0, 0]  # both ops belong to round 0
    outer_self, in1, in2, _ = self_times(tracer.spans)
    assert in1 >= 0.01 and in2 >= 0.01
    assert outer_self == pytest.approx(
        tracer.spans[0][2] - tracer.spans[0][1] - in1 - in2)
    assert 0.0 <= outer_self < 0.01


def test_mul_counter_matches_the_kernel_formula():
    import numpy as np
    from isopedal.jets import Jet

    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin_round()
        a = Jet(np.ones((7, 5, 5), dtype=complex))
        a * a
    finally:
        tracer.uninstall()
    totals = tracer.round_totals(0)
    flops, nbytes = mul_cost(5)
    assert totals["jets.mul.calls"] == 1
    assert totals["jets.mul.flops_computed"] == 7 * flops
    assert totals["jets.mul.bytes_computed"] == 7 * nbytes
    assert Jet.__mul__.__name__ == "__mul__"  # uninstall restored it


def _report(*checks, status="pass"):
    return {"status": status, "checks": [
        {"id": cid, "defect": d, "pass": p, "status": "evaluated"} for cid, d, p in checks]}


def test_report_diff_flags_a_flipped_check():
    ref = _report(("a", 1e-9, True), ("b", 2.0, True))
    new = _report(("a", 1e-9, True), ("b", 2e-4, False), status="fail")
    diff = report_diff.compare(ref, new)
    assert any("b: FLIP pass -> fail" in p for p in diff["problems"])
    assert "FLIP" in report_diff.format_diff(diff)


def test_report_diff_accepts_a_pure_defect_change():
    ref = _report(("a", 1e-9, True), ("b", 2.0, True), ("c", None, True))
    new = _report(("a", 1.5e-9, True), ("b", 2.0, True), ("c", None, True))
    diff = report_diff.compare(ref, new)
    assert diff["problems"] == []
    assert diff["max_rel_change"] == pytest.approx(0.5)
    assert [r[3] for r in diff["rows"]] == [pytest.approx(1.5), 1.0, None]


def test_report_diff_flags_missing_checks():
    diff = report_diff.compare(_report(("a", 1.0, True), ("b", 1.0, True)),
                               _report(("a", 1.0, True)))
    assert diff["problems"] == ["check ids differ: missing ['b'], extra []"]


def test_reference_report_agrees_with_itself():
    path = os.path.join(workloads.REFERENCE_DIR, "verify_default.json")
    assert report_diff.main([path, path]) == 0


def test_output_summary_tolerates_reorders_only():
    ref = {"t.csv": {"header": "x,y", "rows": 2, "columns": [
        {"nonfinite": 0, "sum": 3.0, "abs_sum": 3.0}]}}
    close = json.loads(json.dumps(ref))
    close["t.csv"]["columns"][0]["sum"] = 3.0 + 1e-12
    far = json.loads(json.dumps(ref))
    far["t.csv"]["columns"][0]["sum"] = 3.1
    assert workloads.compare_summaries(ref, close) == []
    assert workloads.compare_summaries(ref, far)


def test_spec_generator_is_deterministic_per_seed():
    assert specgen.generate(3) == specgen.generate(3)
    assert specgen.generate(3) != specgen.generate(4)
    assert json.dumps(specgen.generate(7), sort_keys=True) == json.dumps(
        specgen.generate(7), sort_keys=True)


@pytest.mark.parametrize("seed", [0, 7, 12345])
def test_spec_generator_emits_only_admissible_specs(seed):
    from isopedal.config import RunConfig

    docs = specgen.generate(seed)
    assert len(docs) == len(specgen.strata())
    for doc in docs:
        spec = doc["spec"]
        n, m = spec["ambient_dim"], spec["isotropy_order"]
        assert 4 <= n <= 8 and m >= 1 and n >= 2 * (m + 1)
        assert 3 <= doc["jet_order"] <= 5
        cfg = RunConfig.from_document(doc)  # raises ConfigError if inadmissible
        assert cfg.curve.ambient_dim == n


def test_spec_strata_cover_every_admissible_pair_up_to_n8():
    pairs = {(n, m) for n, m, _ in specgen.strata()}
    assert pairs == {(4, 1), (5, 1), (6, 1), (6, 2), (7, 1), (7, 2),
                     (8, 1), (8, 2), (8, 3)}


def test_tail_percentile_needs_ten_samples_beyond_it():
    import run

    assert run.tail_percentile(list(range(10))) is None
    pct, value = run.tail_percentile([float(v) for v in range(1, 21)])
    assert (pct, value) == (50.0, 10.0)


def test_benchmark_json_lists_every_per_layer_metric():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert [m["name"] for m in doc["per_layer"]] == run.per_layer_names()
