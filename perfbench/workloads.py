"""The benchmark's workloads: fixed inputs, one closed-loop round at a time.

A round is one verify op (verify_default, verify_large), one export
session of three CLI commands (export_fine), or one pass over the
generated specs (spec_sweep, one op per spec).  Every op goes through
isopedal's public functions or CLI `main()`, looked up at call time so
that a tracer's wrappers are seen.  Each workload checks its outputs:
verify reports against a reference made at the parent commit (through
`report_diff.compare`) and against the previous repetition's bytes,
export files against a reference summary, spec reports for being well
formed and each spec's outcome class for repeating across passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
import time

import report_diff
import specgen

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "reference")
GRID41 = ["--grid", "0.3,1.3,0.3,1.3,41,41"]

VERIFY_DOCS = {
    "verify_default": {"seed_preset": "holo3"},
    "verify_large": {"seed_preset": "holo4", "grid": {"nx": 41, "ny": 41},
                     "jet_order": 5},
}
VERIFY_ARGV = {
    "verify_default": ["verify"],
    "verify_large": ["verify", "--seed-preset", "holo4", *GRID41, "--jet-order", "5"],
}
EXPORT_COMMANDS = (
    ["pedal", *GRID41],
    ["export", "--what", "inverted", "--format", "csv", *GRID41],
    ["export", "--what", "g", "--format", "obj", *GRID41],
)
SUMMARY_RTOL = 1e-6


class Stats:
    """Attempted and failed ops, timed samples and output problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.samples = []     # seconds, one per timed op
        self.problems = []    # wrong outputs: each makes the run incorrect

    def op(self, seconds=None, crashed=False, problems=()):
        self.attempted += 1
        self.failed += bool(crashed or problems)
        if seconds is not None:
            self.samples.append(seconds)
        self.problems.extend(problems)


def _cli(argv):
    """Run the isopedal CLI in-process with its output captured."""
    from isopedal import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        return cli.main(argv)


def _crash_text(e):
    return f"{type(e).__name__}: {e}"


# ---------------------------------------------------------------------------
# verify_default, verify_large
# ---------------------------------------------------------------------------


class VerifyWorkload:
    """One op = `run_all(cfg)` plus `report_to_json` on a fixed config."""

    min_rounds = 2  # the report bytes of two repetitions must agree

    def __init__(self, name, work_dir):
        from isopedal.config import RunConfig

        self.name = name
        self.setup_argv = [VERIFY_ARGV[name]]
        self.cfg = RunConfig.from_document(VERIFY_DOCS[name])
        with open(os.path.join(REFERENCE_DIR, name + ".json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self.last_text = None

    def round(self, stats, tracer=None):
        from isopedal import verify

        t0 = time.perf_counter()
        try:
            text = verify.report_to_json(verify.run_all(self.cfg))
        except Exception as e:  # an uncaught program exception fails the op
            stats.op(problems=[f"{self.name}: crash {_crash_text(e)}"])
            return
        seconds = time.perf_counter() - t0
        problems = [f"{self.name}: {p}" for p in
                    report_diff.compare(self.reference, json.loads(text))["problems"]]
        if self.last_text is not None and text != self.last_text:
            problems.append(f"{self.name}: report bytes differ between repetitions")
        self.last_text = text
        stats.op(seconds, problems=problems)


# ---------------------------------------------------------------------------
# export_fine
# ---------------------------------------------------------------------------


def _column_stats(values):
    finite = [v for v in values if math.isfinite(v)]
    return {"nonfinite": len(values) - len(finite), "sum": math.fsum(finite),
            "abs_sum": math.fsum(abs(v) for v in finite)}


def summarize_outputs(out_dir):
    """Counts and per-column sums of every OBJ and CSV file in out_dir."""
    summary = {}
    for fname in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, fname)
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        if fname.endswith(".obj"):
            verts = [[float(t) for t in ln.split()[1:]] for ln in lines if ln.startswith("v ")]
            summary[fname] = {
                "header": [ln for ln in lines if ln.startswith("#")],
                "vertices": len(verts),
                "faces": sum(1 for ln in lines if ln.startswith("f ")),
                "columns": [_column_stats(col) for col in zip(*verts)],
            }
        elif fname.endswith(".csv"):
            rows = [[float(t) for t in ln.split(",")] for ln in lines[1:]]
            summary[fname] = {
                "header": lines[0],
                "rows": len(rows),
                "columns": [_column_stats(col) for col in zip(*rows)],
            }
    return summary


def compare_summaries(ref, new):
    """Problems between two output summaries; column sums may move by
    SUMMARY_RTOL times the column's absolute sum (arithmetic reorders)."""
    problems = []
    if sorted(ref) != sorted(new):
        return [f"output files {sorted(new)} != {sorted(ref)}"]
    for fname, a in ref.items():
        b = new[fname]
        for key in a:
            if key == "columns":
                continue
            if a[key] != b.get(key):
                problems.append(f"{fname}: {key} differs")
        if len(a["columns"]) != len(b["columns"]):
            problems.append(f"{fname}: column count differs")
            continue
        for k, (ca, cb) in enumerate(zip(a["columns"], b["columns"])):
            if ca["nonfinite"] != cb["nonfinite"]:
                problems.append(f"{fname}: column {k} non-finite count differs")
            elif abs(ca["sum"] - cb["sum"]) > SUMMARY_RTOL * ca["abs_sum"] + 1e-300:
                problems.append(f"{fname}: column {k} sum {cb['sum']!r} != {ca['sum']!r}")
    return problems


def export_session(out_dir):
    """The export_fine CLI commands writing to out_dir; their exit codes."""
    return [_cli(cmd + ["--out", out_dir]) for cmd in EXPORT_COMMANDS]


class ExportWorkload:
    """One op = the session pedal; export inverted csv; export g obj."""

    min_rounds = 1

    def __init__(self, name, work_dir):
        self.name = name
        self.work_dir = work_dir
        self.setup_argv = [list(cmd) for cmd in EXPORT_COMMANDS]
        with open(os.path.join(REFERENCE_DIR, name + ".json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)

    def round(self, stats, tracer=None):
        out_dir = tempfile.mkdtemp(prefix="export-", dir=self.work_dir)
        try:
            t0 = time.perf_counter()
            try:
                codes = export_session(out_dir)
            except Exception as e:  # an uncaught program exception fails the op
                stats.op(problems=[f"{self.name}: crash {_crash_text(e)}"])
                return
            seconds = time.perf_counter() - t0
            problems = []
            if codes != self.reference["exit_codes"]:
                problems.append(f"exit codes {codes} != {self.reference['exit_codes']}")
            problems += compare_summaries(self.reference["outputs"],
                                          summarize_outputs(out_dir))
            stats.op(seconds, problems=[f"{self.name}: {p}" for p in problems])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# spec_sweep
# ---------------------------------------------------------------------------


def _check_report(out_dir, code):
    """Problems with a CLI verify report that ended with exit `code`."""
    path = os.path.join(out_dir, "report.json")
    try:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as e:
        return [f"no readable report: {e}"]
    problems = []
    if report.get("status") not in ("pass", "fail", "inconclusive"):
        problems.append(f"bad status {report.get('status')!r}")
    for rec in report.get("checks", []):
        if not {"id", "status", "pass", "defect"} <= set(rec):
            problems.append(f"malformed check record {rec.get('id')!r}")
    expect = {0: "pass", 1: "fail"}.get(code)
    if expect is not None and report.get("status") != expect:
        problems.append(f"exit {code} with status {report.get('status')!r}")
    return problems


class SpecSweepWorkload:
    """One round = one pass over the seeded specs; one op per spec:
    CLI verify then CLI pedal.  The timed sample of a pass is the mean
    CLI pedal time per spec; verify is not timed, because fixing a verify
    crash turns a short traceback into a full report."""

    min_rounds = 1

    def __init__(self, name, work_dir, seed):
        self.name = name
        self.work_dir = work_dir
        self.paths = specgen.write(specgen.generate(seed),
                                   os.path.join(work_dir, "specs"))
        self.setup_argv = [["verify", "--config", p] for p in self.paths]
        self.seen = {}  # spec path -> outcome classes of its first pass

    @staticmethod
    def _command(argv, tracer):
        """Run one CLI command; (outcome class, exit code or None, seconds)."""
        t0 = time.perf_counter()
        try:
            code = _cli(argv)
        except Exception as e:  # a crash is an outcome class of this workload
            kind, code, detail = "crash", None, "crash:" + type(e).__name__
        else:
            kind = detail = "config_error" if code == 2 else "report"
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.record_outcome(kind)
        return detail, code, seconds

    def round(self, stats, tracer=None):
        pedal_seconds = []
        for k, path in enumerate(self.paths):
            if tracer is not None and k:
                tracer.begin_op()
            out_dir = tempfile.mkdtemp(prefix="spec-", dir=self.work_dir)
            try:
                v_kind, v_code, _ = self._command(
                    ["verify", "--config", path, "--out", out_dir], tracer)
                p_kind, p_code, p_seconds = self._command(
                    ["pedal", "--config", path, "--out", out_dir], tracer)
                problems = []
                if v_kind == "report":
                    problems += _check_report(out_dir, v_code)
                if p_kind == "report":
                    missing = [f for f in ("f.obj", "g.obj", "pedal.csv")
                               if not os.path.exists(os.path.join(out_dir, f))]
                    if missing:
                        problems.append(f"pedal wrote no {missing}")
                kinds = (v_kind, p_kind)
                if self.seen.setdefault(path, kinds) != kinds:
                    problems.append(f"outcomes {kinds} != first pass {self.seen[path]}")
                name = os.path.basename(path)
                stats.op(crashed=v_code is None or p_code is None,
                         problems=[f"{self.name} {name}: {p}" for p in problems])
                if p_code is not None:
                    pedal_seconds.append(p_seconds)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
        if pedal_seconds:
            stats.samples.append(sum(pedal_seconds) / len(pedal_seconds))


WORKLOADS = ("verify_default", "verify_large", "export_fine", "spec_sweep")


def make(name, seed, work_dir):
    if name in VERIFY_DOCS:
        return VerifyWorkload(name, work_dir)
    if name == "export_fine":
        return ExportWorkload(name, work_dir)
    if name == "spec_sweep":
        return SpecSweepWorkload(name, work_dir, seed)
    raise ValueError(f"unknown workload {name!r}")
