"""End-to-end command-line behavior: artifacts, summaries, exit codes."""

import contextlib
import csv
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from isopedal import cli
from isopedal.cli import main
from isopedal.config import RunConfig
from isopedal.export import GEOMETRY_COLUMNS
from isopedal.geometry import SurfaceJets
from isopedal.pedal import MIN_ORDER
from isopedal.verify import report_to_json, run_all
from isopedal.weierstrass import surface_evaluator

SMALL = "0.3,1.3,0.3,1.3,5,5"
V6 = [0.9, -0.4, 0.7, 0.3, -0.8, 0.5]
TINY_CURVE = [[0, 1e-200], [0, 0, 1e-200]]
# sha256 of stdout and of every file written by the pedal and export
# commands on the configs below, frozen: a change that alters a byte of
# them replaces this file and says why
CLI_ARTIFACTS = Path(__file__).parent / "data" / "cli_artifacts.json"
ARTIFACT_CONFIGS = {
    "default": {"seed_preset": "holo3", "grid": SMALL},
    "branch_window": {"seed_preset": "holo3", "grid": "-0.5,0.5,-0.5,0.5,11,11"},
    "scale_0": {"seed_preset": "holo3", "grid": SMALL, "scale": 0.0, "translation": V6},
    "scale_0.7": {"seed_preset": "holo3", "grid": SMALL, "scale": 0.7, "translation": V6},
}
ARTIFACT_COMMANDS = {"pedal": ["pedal"], **{
    f"export_{what}_{fmt}": ["export", "--what", what, "--format", fmt]
    for what in ("f", "g", "inverted") for fmt in ("obj", "csv")}}


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def count_prefixed(path, prefix):
    return sum(1 for line in path.read_text().splitlines()
               if line.startswith(prefix))


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset, summary, requested, circles", [
    ("holo3", "ambient dimension 6, degree 3", 2, 2),
    ("holo4", "ambient dimension 8, degree 4", None, 3),
    ("noniso", "ambient dimension 6, degree 7", 1, 1),
], ids=["holo3", "holo4", "noniso"])
def test_generate_summary_and_roundtrip(tmp_path, capsys, preset, summary, requested,
                                        circles):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    assert main(["generate", "--seed-preset", preset, "--out", str(d1)]) == 0
    out = capsys.readouterr().out
    assert summary in out
    assert ("requested curvature circles" in out) == (requested is not None)
    if requested is not None:
        assert f"requested curvature circles: {requested}" in out
    assert f"curvature circles: {circles}" in out.splitlines()
    # the written coefficients reproduce the curve bit for bit
    assert main(["generate", "--config", str(d1 / "curve.json"),
                 "--out", str(d2)]) == 0
    assert (d1 / "curve.json").read_bytes() == (d2 / "curve.json").read_bytes()


# the doubled (z, z^2) with tiny and with huge coefficients has one
# circle, and the plane (z, z) doubled has a point for its ellipse
@pytest.mark.parametrize("curve, circles", [
    (TINY_CURVE, 1), ([[0, 1e150], [0, 0, 1]], 1), ([[0, 1], [0, 1]], 0)],
    ids=["tiny", "huge", "plane"])
def test_generate_counts_circles_from_the_coefficients(tmp_path, capsys, monkeypatch,
                                                       curve, circles):
    built = []
    init = SurfaceJets.__init__
    monkeypatch.setattr(SurfaceJets, "__init__", lambda self, *a, **k: (
        built.append(a) or init(self, *a, **k)))
    cfg = write_json(tmp_path / "cfg.json", {"curve": curve})
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert f"curvature circles: {circles}" in capsys.readouterr().out.splitlines()
    assert built == []


def test_generate_odd_dimension_note(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "spec": {"ambient_dim": 5, "isotropy_order": 1,
                 "alpha0": [[1, 0, 0.5]], "betas": [[1], [0, 1]]},
    })
    assert main(["generate", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "ambient dimension 5" in out
    assert "last normal space: rank 1 (odd ambient dimension)" in out


# ---------------------------------------------------------------------------
# pedal
# ---------------------------------------------------------------------------


def test_pedal_writes_meshes_and_table(tmp_path, capsys):
    assert main(["pedal", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "excluded points: 0 of 441" in out
    for name in ("f.obj", "g.obj"):
        mesh = tmp_path / name
        assert count_prefixed(mesh, "v ") == 441
        assert count_prefixed(mesh, "f ") == 800
    table = tmp_path / "pedal.csv"
    assert len(table.read_text().strip().split("\n")) == 1 + 441


def test_pedal_reports_degenerate_points(tmp_path, capsys):
    code = main(["pedal", "--out", str(tmp_path),
                 "--grid=-0.5,0.5,-0.5,0.5,5,5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "excluded (0, 0):" in out
    assert "excluded points: 1 of 25" in out


def test_pedal_reports_a_degenerate_flag(tmp_path, capsys):
    # (z^2, z^3) doubled has a branch point at the grid center
    cfg = write_json(tmp_path / "cfg.json", {
        "curve": [[0, 0, 1], [0, 0, 0, 1]], "grid": "-0.5,0.5,-0.5,0.5,11,11"})
    assert main(["pedal", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert ("excluded (0, 0): flag degenerate, tangential part ~ 0, "
            "first-normal part ~ 0") in out


def test_pedal_mesh_drops_the_points_its_table_excludes(tmp_path, capsys):
    grid = "--grid=-0.5,0.5,-0.5,0.5,11,11"
    assert main(["pedal", "--out", str(tmp_path / "pedal"), grid]) == 0
    assert "excluded points: 1 of 121" in capsys.readouterr().out
    assert main(["export", "--what", "g", "--out", str(tmp_path / "export"), grid]) == 0
    for mesh in (tmp_path / "pedal" / "g.obj", tmp_path / "export" / "g.obj"):
        assert "# excluded points: 1\n" in mesh.read_text()
        assert count_prefixed(mesh, "f ") == 194


def test_pedal_scale_zero_is_the_shadow_member(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "seed_preset": "holo3", "scale": 0.0, "translation": V6,
    })
    assert main(["pedal", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "decomposition table skipped" in out
    assert count_prefixed(tmp_path / "g.obj", "v ") == 441
    assert not (tmp_path / "pedal.csv").exists()


# a curve whose squared coefficients underflow: every command ends in an
# exit code, with no traceback and no warning
@pytest.mark.parametrize("command, code", [
    (["generate"], 0), (["pedal"], 3), (["verify"], 3), (["report"], 3),
    (["export", "--what", "inverted"], 3)], ids=["generate", "pedal", "verify", "report",
                                               "export"])
def test_a_curve_of_tiny_coefficients_ends_in_an_exit_code(tmp_path, command, code):
    cfg = write_json(tmp_path / "cfg.json", {"curve": TINY_CURVE, "grid": SMALL})
    assert main(command + ["--config", cfg, "--out", str(tmp_path)]) == code


# values that overflow inside the run (a huge coefficient, a huge scale, a
# huge window) warn, and the run ends in its outputs with exit 3, not in a
# traceback or a configuration error
@pytest.mark.parametrize("command, doc, written", [
    (["verify"], {"curve": [[0, 1e150], [0, 0, 1]]}, "report.json"),
    (["pedal"], {"seed_preset": "holo3", "scale": 1e200}, "pedal.csv"),
    (["verify"], {"seed_preset": "holo3", "grid": {
        "x0": 1e100, "x1": 1e100, "y0": 0.3, "y1": 1.3, "nx": 5, "ny": 5}}, "report.json"),
    (["verify"], {"seed_preset": "holo3", "grid": {
        "x0": -1e30, "x1": 1e30, "y0": -1e30, "y1": 1e30, "nx": 5, "ny": 5}}, "report.json"),
], ids=["verify-huge-curve", "pedal-huge-scale", "verify-far-window", "verify-wide-window"])
def test_overflow_inside_a_run_ends_in_exit_3(tmp_path, command, doc, written):
    cfg = write_json(tmp_path / "cfg.json", {"grid": SMALL, **doc})
    with pytest.warns(RuntimeWarning) as caught:
        assert main(command + ["--config", cfg, "--out", str(tmp_path)]) == 3
    assert any("overflow" in str(w.message) for w in caught)
    assert (tmp_path / written).exists()


def test_pedal_exclusion_overflow_exits_3(tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {
        "seed_preset": "holo3",
        "grid": {"x0": 0.3, "x1": 1.3, "y0": 0.3, "y1": 1.3, "nx": 5, "ny": 5,
                 "excluded_disks": [[0.8, 0.8, 10.0]]},
    })
    assert main(["pedal", "--config", cfg, "--out", str(tmp_path)]) == 3


# ---------------------------------------------------------------------------
# verify / report
# ---------------------------------------------------------------------------


def test_verify_passes_and_writes_report(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path), "--grid", SMALL]) == 0
    out = capsys.readouterr().out
    assert "status: pass" in out
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "pass"
    assert len(report["checks"]) == 30
    assert all(rec["pass"] for rec in report["checks"])
    assert report["environment"]["points"] == {"total": 25, "usable": 25}


def test_verify_writes_the_report_bytes(tmp_path):
    assert main(["verify", "--out", str(tmp_path), "--grid", SMALL, "--check", "generator"]) == 0
    cfg = RunConfig.from_document({"seed_preset": "holo3", "grid": SMALL, "checks": "generator"})
    assert (tmp_path / "report.json").read_bytes() == report_to_json(run_all(cfg)).encode()


def test_pedal_mesh_and_table_carry_the_same_pedal(tmp_path):
    assert main(["pedal", "--out", str(tmp_path)]) == 0
    mesh = [[float(c) for c in line.split()[1:]]
            for line in (tmp_path / "g.obj").read_text().splitlines() if line.startswith("v ")]
    rows = list(csv.DictReader((tmp_path / "pedal.csv").open(newline="")))
    table = [[float(row[f"g_{k}"]) for k in range(3)] for row in rows]
    assert len(mesh) == 441 and mesh == table


def test_verify_reports_are_deterministic(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    args = ["verify", "--grid", SMALL, "--check", "pedal_mean,pedal_conformal"]
    assert main(args + ["--out", str(d1)]) == 0
    assert main(args + ["--out", str(d2)]) == 0
    assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


def test_verify_flags_broken_circle_condition(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path), "--grid", SMALL,
                 "--seed-preset", "noniso", "--check", "pedal_circle"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL pedal_circle.positive" in out
    assert "PASS pedal_circle.negative" in out
    assert "status: fail" in out


def test_verify_ignores_a_low_jet_order(tmp_path, capsys):
    # verify differentiates at order 4 whatever --jet-order says
    args = ["verify", "--grid", SMALL]
    assert main(args + ["--out", str(tmp_path / "low"), "--jet-order", "2"]) == 0
    assert "status: pass" in capsys.readouterr().out
    assert main(args + ["--out", str(tmp_path / "default")]) == 0
    low, default = (json.loads((tmp_path / d / "report.json").read_text())
                    for d in ("low", "default"))
    assert low["checks"] == default["checks"]


def test_verify_exclusion_overflow_exits_3(tmp_path):
    # a passing report on fewer than half of the grid's points
    cfg = write_json(tmp_path / "cfg.json", {
        "seed_preset": "holo3",
        "grid": {"nx": 7, "ny": 7, "excluded_disks": [[0.3, 0.3, 0.85]]},
    })
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["environment"]["points"] == {"total": 49, "usable": 21}
    assert report["status"] == "pass"
    assert len(report["checks"]) == 30
    assert all(rec["pass"] for rec in report["checks"])


def test_verify_check_filter_limits_report(tmp_path):
    assert main(["verify", "--out", str(tmp_path), "--grid", SMALL,
                 "--check", "pedal_mean"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    ids = [rec["id"] for rec in report["checks"]]
    assert ids and all(i.startswith("pedal_mean") for i in ids)


def test_verify_check_with_a_full_id_writes_that_record(tmp_path):
    assert main(["verify", "--out", str(tmp_path), "--grid", SMALL,
                 "--check", "pedal_circle.positive"]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert [rec["id"] for rec in report["checks"]] == ["pedal_circle.positive"]
    assert report["status"] == "pass"


def test_verify_empty_check_list_exits_2(tmp_path, capsys):
    # "," lists no prefix; "" is no selection
    assert main(["verify", "--out", str(tmp_path), "--grid", SMALL, "--check", ","]) == 2
    assert capsys.readouterr().err == "error: checks needs >= 1 items, got 0\n"
    assert main(["verify", "--out", str(tmp_path), "--grid", SMALL, "--check", "",
                 "--jet-order", "2"]) == 0
    assert len(json.loads((tmp_path / "report.json").read_text())["checks"]) == 30


def test_verify_unknown_check_prefix_exits_2(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path), "--grid", SMALL,
                 "--check", "pedal_mean,bogus"]) == 2
    err = capsys.readouterr().err
    assert "'bogus'" in err and "pedal_circle" in err and "first_normal_rank" in err
    assert not (tmp_path / "report.json").exists()


def test_report_prints_digest(tmp_path, capsys):
    assert main(["report", "--out", str(tmp_path), "--grid", SMALL,
                 "--check", "pedal_mean"]) == 0
    out = capsys.readouterr().out
    assert "config digest:" in out
    assert "grid points: 25 usable of 25" in out
    assert "3 of 3 checks passed" in out
    assert "tightest identity margin" in out
    assert (tmp_path / "report.json").exists()


def test_report_prints_the_refutation_margin(capsys):
    assert main(["report", "--grid", "0.3,1.3,0.3,1.3,7,7",
                 "--check", "inversion,swillmore"]) == 0
    out = capsys.readouterr().out
    assert "6 of 6 checks passed" in out
    assert "tightest identity margin: defect / threshold = " in out
    assert "weakest refutation margin: defect / threshold = " in out


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def test_export_geometry_csv_columns(tmp_path, capsys):
    assert main(["export", "--what", "g", "--format", "csv",
                 "--grid", SMALL, "--out", str(tmp_path)]) == 0
    header = (tmp_path / "g.csv").read_text().split("\n", 1)[0]
    assert header == ",".join(GEOMETRY_COLUMNS)
    out = capsys.readouterr().out
    assert "first normal bundle rank over the grid: [3]" in out
    # a window through the origin, where the pedal degenerates
    assert main(["export", "--what", "g", "--format", "csv",
                 "--grid=-0.5,0.5,-0.5,0.5,5,5", "--out", str(tmp_path)]) == 0
    assert "excluded points: 1 of 25" in capsys.readouterr().out


def _spy_orders(monkeypatch):
    """A list that records the jet order of each evaluation of f by the
    evaluator that cli obtains from surface_evaluator."""
    orders = []

    def counted(curve):
        ev = surface_evaluator(curve)
        inner = ev.fn
        ev.fn = lambda *args: orders.append(args[2]) or inner(*args)
        return ev

    monkeypatch.setattr(cli, "surface_evaluator", counted)
    return orders


def _table_bytes(order):
    """{command: (exit, stdout, {file name: bytes})} of `pedal` and of the
    three `export --format csv` tables at `--jet-order order`, each run
    on SMALL into its own relative output directory."""
    out = {}
    for argv in (["pedal"], *(["export", "--what", w, "--format", "csv"]
                              for w in ("f", "g", "inverted"))):
        name = "_".join(argv)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv + ["--grid", SMALL, "--jet-order", str(order), "--out", name])
        out[name] = (code, stdout.getvalue(),
                     {p.name: p.read_bytes() for p in sorted(Path(name).iterdir())})
    return out


def test_tables_are_the_same_at_every_jet_order_from_3(tmp_path, monkeypatch):
    # pedal and export read no coefficient above order 3, and so never
    # differentiate f past order 4 (the pedal's order 3 needs f's order 4)
    orders = _spy_orders(monkeypatch)
    tables = []
    for order in (3, 4, 12):
        (tmp_path / str(order)).mkdir()
        monkeypatch.chdir(tmp_path / str(order))
        tables.append(_table_bytes(order))
    assert tables[0] == tables[1] == tables[2]
    assert len(tables[0]) == 4 and all(code == 0 for code, _, _ in tables[0].values())
    assert max(orders) == MIN_ORDER + 1


def test_export_table_at_jet_order_2_has_no_second_circle(tmp_path):
    second = [GEOMETRY_COLUMNS.index(c) for c in ("circle_defect_2", "lambda_2")]
    cells = {}
    for order in (2, 3):
        out = tmp_path / str(order)
        assert main(["export", "--what", "f", "--format", "csv", "--grid", SMALL,
                     "--jet-order", str(order), "--out", str(out)]) == 0
        rows = (out / "f.csv").read_text().splitlines()[1:]
        cells[order] = {row.split(",")[i] for row in rows for i in second}
    assert cells[2] == {"nan"} and "nan" not in cells[3]


@pytest.mark.parametrize("what, fmt", [("f", "obj"), ("g", "csv"), ("inverted", "csv"),
                                       ("inverted", "obj")])
def test_export_evaluates_the_surface_once(tmp_path, monkeypatch, what, fmt):
    # every exported surface (f, its pedal, the inverted pedal) is built on
    # the one evaluator of f that cli obtains from surface_evaluator
    orders = _spy_orders(monkeypatch)
    assert main(["export", "--what", what, "--format", fmt, "--jet-order", "3",
                 "--grid", SMALL, "--out", str(tmp_path)]) == 0
    assert len(orders) == 1


@pytest.mark.parametrize("doc", [{}, {"scale": 0.0, "translation": V6}],
                         ids=["default", "scale-0"])
def test_pedal_evaluates_the_surface_once(tmp_path, monkeypatch, doc):
    # both meshes, the table and the exclusions come from one evaluation
    # of f; the scale-0 member's pedal is the shadow of v over f
    orders = _spy_orders(monkeypatch)
    cfg = write_json(tmp_path / "cfg.json", {"seed_preset": "holo3", **doc})
    assert main(["pedal", "--config", cfg, "--grid", SMALL, "--out", str(tmp_path)]) == 0
    assert len(orders) == 1


def test_export_inverted_mesh(tmp_path):
    assert main(["export", "--what", "inverted", "--grid", SMALL,
                 "--out", str(tmp_path)]) == 0
    head = (tmp_path / "inverted.obj").read_text().split("\n", 1)[0]
    v = cli.RunConfig.from_document(cli.DEFAULT_CONFIG).shift_vector()
    center = ", ".join(f"{c:g}" for c in v)
    assert head.startswith(f"# inverted pedal surface (center [{center}])")


def test_export_custom_projection(tmp_path):
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(6, 3)))
    proj = write_json(tmp_path / "proj.json", q.T.tolist())
    assert main(["export", "--what", "f", "--grid", SMALL,
                 "--out", str(tmp_path), "--projection", proj]) == 0
    text = (tmp_path / "f.obj").read_text()
    assert "custom 3x6 matrix" in text


def test_export_skewed_projection_warns(tmp_path):
    proj = write_json(tmp_path / "proj.json",
                      (2.0 * np.eye(3, 6)).tolist())
    with pytest.warns(UserWarning, match="not orthonormal"):
        code = main(["export", "--what", "f", "--grid", SMALL,
                     "--out", str(tmp_path), "--projection", proj])
    assert code == 0


def artifact_hashes(doc):
    """{command: {"exit", "stdout", file name: sha256}} of every command of
    ARTIFACT_COMMANDS run on the config `doc` in the working directory,
    each writing to its own relative output directory."""
    write_json(Path("config.json"), doc)
    out = {}
    for name, argv in ARTIFACT_COMMANDS.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = main(argv + ["--config", "config.json", "--out", name])
        rec = {"exit": code,
               "stdout": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
        for path in sorted(Path(name).iterdir()):
            rec[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        out[name] = rec
    return out


@pytest.mark.parametrize("config", sorted(ARTIFACT_CONFIGS))
def test_cli_artifacts_are_frozen(tmp_path, monkeypatch, config):
    frozen = json.loads(CLI_ARTIFACTS.read_text())[config]
    monkeypatch.chdir(tmp_path)
    assert artifact_hashes(ARTIFACT_CONFIGS[config]) == frozen


# ---------------------------------------------------------------------------
# configuration errors -> exit 2
# ---------------------------------------------------------------------------


NAN, INF = float("nan"), float("inf")
COMMANDS = {"pedal": ["pedal"], "verify": ["verify"], "export": ["export", "--what", "inverted"]}
SPEC = {"ambient_dim": 6, "isotropy_order": 2, "betas": [[1], [1], [1]]}


def grid5(**fields):
    return {"grid": {"nx": 5, "ny": 5, **fields}}


# (case id, field path, document): a non-finite number, run on all three
# commands
NON_FINITE = [
    ("scale-nan", "scale", {"scale": NAN}),
    ("scale-inf", "scale", {"scale": INF}),
    ("curve-inf", "curve[1][2]", {"curve": [[0, 1], [0, 0, INF]]}),
    ("curve-nan-imag", "curve[1][2]", {"curve": [[0, 1], [0, 0, [1, NAN]]]}),
    ("translation-nan", "translation[2]", {"translation": [0.9, -0.4, NAN, 0.3, -0.8, 0.5]}),
    ("window-inf", "grid.x1", grid5(x1=INF)),
    ("hi-inf", "grid.y1", grid5(y1=-INF)),
    ("window-nan", "grid.y0", grid5(y0=NAN)),
    ("nx-inf", "grid.nx", {"grid": {"nx": INF, "ny": 5}}),
    ("nx-400-digits", "grid.nx", {"grid": {"nx": 10**400, "ny": 5}}),
    ("ny-nan", "grid.ny", {"grid": {"nx": 5, "ny": NAN}}),
    ("disk-center-nan", "grid.excluded_disks[0].center[1]",
     grid5(excluded_disks=[[0.8, NAN, 0.1]])),
    ("disk-radius-nan", "grid.excluded_disks[0].radius",
     grid5(excluded_disks=[{"center": [0.8, 0.8], "radius": NAN}])),
    ("jet-order-nan", "jet_order", {"jet_order": NAN}),
    ("jet-order-inf", "jet_order", {"jet_order": INF}),
]
# (case id, field path, document, a fragment of the message): a wrong
# type, a value out of range, an unknown key or spec fields that disagree,
# run on verify.  With the cases above, every path of the config document
# has a bad value here.
BAD_FIELDS = [
    ("translation", "translation", {"translation": 5}, "a list"),
    ("translation-short", "translation", {"translation": [1, 2]}, "dimension 2, surface has 6"),
    ("lattice", "lattice", {"lattice": {}}, "unknown"),
    ("tolerances", "tolerances", {"tolerances": {}}, "unknown"),
    ("checks", "checks", {"checks": 5}, "a list"),
    ("checks-empty", "checks", {"checks": []}, ">= 1 items"),
    ("curve", "curve", {"curve": 3}, "a list"),
    ("spec-ambient-dim", "spec.ambient_dim", {"spec": {**SPEC, "ambient_dim": "x"}}, "an integer"),
    ("excluded-disks", "grid.excluded_disks", grid5(excluded_disks=5), "a list"),
    ("out", "out", {"out": 5}, "a string"),
    ("jet-order-string", "jet_order", {"jet_order": "4"}, "an integer"),
    ("jet-order-fraction", "jet_order", {"jet_order": 4.7}, "an integer"),
    ("nx-fraction", "grid.nx", {"grid": {"nx": 7.9, "ny": 5}}, "an integer"),
    ("nx-string", "grid.nx", {"grid": {"nx": "7", "ny": 5}}, "an integer"),
    ("scale-bool", "scale", {"scale": False}, "a number"),
    ("translation-strings", "translation[0]",
     {"translation": ["0.9", "-0.4", "0.7", "0.3", "-0.8", "0.5"]}, "a number"),
    ("disk-radius-negative", "grid.excluded_disks[0].radius",
     grid5(excluded_disks=[[0.8, 0.8, -0.3]]), ">= 0"),
    ("ambient-dim-fraction", "spec.ambient_dim", {"spec": {**SPEC, "ambient_dim": 6.5}},
     "an integer"),
    ("ambient-dim-string", "spec.ambient_dim", {"spec": {**SPEC, "ambient_dim": "6"}},
     "an integer"),
    ("ambient-dim-low", "spec.ambient_dim", {"spec": {**SPEC, "ambient_dim": 3}}, ">= 4"),
    ("spec-unknown-key", "spec.alpha", {"spec": {**SPEC, "alpha": []}}, "unknown"),
    ("curve-in-r2", "curve", {"curve": [[0, 1]]}, ">= 2"),
    ("seed-preset", "seed_preset", {"seed_preset": 5}, "a string"),
    ("spec", "spec", {"spec": 5}, "an object"),
    ("isotropy-order", "spec.isotropy_order", {"spec": {**SPEC, "isotropy_order": 0}}, ">= 1"),
    ("alpha0", "spec.alpha0", {"spec": {**SPEC, "alpha0": 5}}, "a list"),
    ("alpha0-polynomial", "spec.alpha0[0]", {"spec": {**SPEC, "alpha0": [5]}}, "a list"),
    ("alpha0-coefficient", "spec.alpha0[0][1]", {"spec": {**SPEC, "alpha0": [[1, "x"]]}},
     "[re, im]"),
    ("betas-missing", "spec.betas", {"spec": {"ambient_dim": 6, "isotropy_order": 2}},
     "required"),
    ("betas-polynomial", "spec.betas[2]", {"spec": {**SPEC, "betas": [[1], [1], 1]}}, "a list"),
    ("betas-coefficient", "spec.betas[0][0]", {"spec": {**SPEC, "betas": [[True], [1], [1]]}},
     "[re, im]"),
    ("curve-polynomial", "curve[1]", {"curve": [[0, 1], 5]}, "a list"),
    ("curve-coefficient", "curve[0][1]", {"curve": [[0, [1, 2, 3]], [0, 0, 1]]}, "[re, im]"),
    ("curve-constant", "curve", {"curve": [[1], [2]]}, "nonconstant"),
    ("ambient-curve-short", "ambient_curve", {"ambient_curve": [[0, 1], [0, [0, 1]]]}, ">= 4"),
    ("ambient-curve-polynomial", "ambient_curve[3]",
     {"ambient_curve": [[0, 1], [0, [0, 1]], [0, 0, 1], None]}, "a list"),
    ("ambient-curve-coefficient", "ambient_curve[0][0]",
     {"ambient_curve": [["0", 1], [0, [0, 1]], [0, 0, 1], [0, 0, [0, 1]]]}, "[re, im]"),
    ("ambient-curve-not-isotropic", "ambient_curve",
     {"ambient_curve": [[0, 1], [0, 1], [0, 1], [0, 1]]}, "not isotropic"),
    ("ambient-curve-constant", "ambient_curve", {"ambient_curve": [[1], [2], [3], [4]]},
     "nonconstant"),
    ("grid", "grid", {"grid": 5}, "an object"),
    ("grid-unknown-key", "grid.nz", grid5(nz=5), "unknown"),
    ("grid-string-field", "grid.nx", {"grid": "0.3,1.3,0.3,1.3,five,5"}, "an integer"),
    ("window-string", "grid.x0", grid5(x0="0.3"), "a number"),
    ("window-reversed-x", "grid.x1", grid5(x0=1.0, x1=0.5), ">= x0"),
    ("window-bool", "grid.y0", grid5(y0=True), "a number"),
    ("window-reversed-y", "grid.y1", grid5(y0=1.0, y1=0.5), ">= y0"),
    ("nx-one", "grid.nx", {"grid": {"nx": 1, "ny": 5}}, ">= 2"),
    ("ny-string", "grid.ny", {"grid": {"nx": 5, "ny": "5"}}, "an integer"),
    ("disk-pair", "grid.excluded_disks[0]", grid5(excluded_disks=[[0.8, 0.8]]), "an object"),
    ("disk-unknown-key", "grid.excluded_disks[0].r",
     grid5(excluded_disks=[{"center": [0.8, 0.8], "radius": 0.1, "r": 1}]), "unknown"),
    ("disk-center-short", "grid.excluded_disks[0].center",
     grid5(excluded_disks=[{"center": [0.8], "radius": 0.1}]), "2 items"),
    ("disk-center-string", "grid.excluded_disks[0].center[0]",
     grid5(excluded_disks=[{"center": ["0.8", 0.8], "radius": 0.1}]), "a number"),
    ("check-number", "checks[0]", {"checks": [5]}, "a string"),
    ("seed-preset-unknown", "seed_preset", {"seed_preset": "holo5"}, "holo3, holo4 or noniso"),
    ("alpha0-count", "spec.alpha0", {"spec": {**SPEC, "alpha0": [[1]]}}, "0 seed components"),
    ("isotropy-order-too-high", "spec.isotropy_order", {"spec": {**SPEC, "isotropy_order": 3}},
     "ambient_dim >= 8"),
    ("betas-count", "spec.betas", {"spec": {**SPEC, "betas": [[1], [1]]}},
     "3 weight polynomials"),
    ("betas-zero", "spec.betas[1]", {"spec": {**SPEC, "betas": [[1], [0], [1]]}},
     "identically zero"),
]
BAD_CONFIGS = [
    pytest.param(COMMANDS[cmd], path, doc, "finite", id=f"{name}-{cmd}")
    for name, path, doc in NON_FINITE for cmd in COMMANDS
] + [pytest.param(COMMANDS["verify"], path, doc, fragment, id=f"{name}-verify")
     for name, path, doc, fragment in BAD_FIELDS]


@pytest.mark.parametrize("command, path, doc, fragment", BAD_CONFIGS)
def test_non_finite_config_numbers_exit_2(tmp_path, monkeypatch, capsys, command, path, doc,
                                          fragment):
    """A bad value at any path of the config document, non-finite or
    not, exits 2 with one error line that names the path."""
    monkeypatch.chdir(tmp_path)
    if not any(k in doc for k in ("seed_preset", "spec", "curve", "ambient_curve")):
        doc = {"seed_preset": "holo3", **doc}
    cfg = write_json(tmp_path / "cfg.json", {"grid": SMALL, **doc})
    assert main(command + ["--config", cfg]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert path in lines[0] and fragment in lines[0], lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("matrix", [
    [["a", 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
    [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
    [[NAN, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]],
], ids=["non-numeric", "ragged", "nan"])
def test_bad_projection_exits_2(tmp_path, capsys, matrix):
    proj = write_json(tmp_path / "proj.json", matrix)
    assert main(["export", "--what", "f", "--grid", SMALL, "--out", str(tmp_path),
                 "--projection", proj]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: projection"), lines
    assert not (tmp_path / "f.obj").exists()


# (command, config document or None, a fragment of the message): errors
# the command line meets before a config field is read or after it is
@pytest.mark.parametrize("command, doc, fragment", [
    (["verify"], [1, 2], "config document must be an object"),
    (["pedal"], {"seed_preset": "holo3", "scale": 0}, "scale 0 needs a translation vector"),
    (["verify", "--grid", "1,2,3"], None, "grid string needs 6 comma-separated fields"),
], ids=["document-a-list", "pedal-scale-0", "grid-three-fields"])
def test_command_line_errors_exit_2(tmp_path, capsys, command, doc, fragment):
    args = command + ["--out", str(tmp_path)]
    if doc is not None:
        args += ["--config", write_json(tmp_path / "cfg.json", doc)]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and fragment in captured.err, captured.err
    assert captured.out == "" and not any(tmp_path.glob("*.obj"))


def test_a_check_the_dimension_cannot_hold_is_inconclusive_and_exits_3(tmp_path, capsys):
    # the README's R^5 curve has no second normal plane
    cfg = write_json(tmp_path / "cfg.json", {"spec": {
        "ambient_dim": 5, "isotropy_order": 1, "alpha0": [[1, 0, 0.5]], "betas": [[1], [0, 1]]},
        "grid": SMALL})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path),
                 "--check", "pedal_secondform.normal2"]) == 3
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["status"] == "inconclusive"
    assert [(rec["id"], rec["status"]) for rec in report["checks"]] == [
        ("pedal_secondform.normal2", "inconclusive")]


def test_bad_grid_string_exits_2(tmp_path, capsys):
    assert main(["verify", "--out", str(tmp_path), "--grid", "0,1,0,1,1,5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json",
                     {"seed_preset": "holo3", "grit": {}})
    assert main(["verify", "--config", cfg]) == 2
    assert "grit" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, capsys):
    assert main(["verify", "--config", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_conflicting_curve_sources_exit_2(tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {
        "seed_preset": "holo3",
        "curve": [[0, 1], [0, 0, 1], [0, 0, 0, 1]],
    })
    assert main(["verify", "--config", cfg]) == 2
    assert "exactly one of" in capsys.readouterr().err
