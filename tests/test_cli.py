"""End-to-end command-line behavior: artifacts, summaries, exit codes."""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from isopedal import cli
from isopedal.cli import main
from isopedal.export import GEOMETRY_COLUMNS
from isopedal.weierstrass import surface_evaluator

SMALL = "0.3,1.3,0.3,1.3,5,5"
V6 = [0.9, -0.4, 0.7, 0.3, -0.8, 0.5]
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
    assert f"curvature circles at probe points: {circles}" in out
    # the written coefficients reproduce the curve bit for bit
    assert main(["generate", "--config", str(d1 / "curve.json"),
                 "--out", str(d2)]) == 0
    assert (d1 / "curve.json").read_bytes() == (d2 / "curve.json").read_bytes()


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


def test_verify_low_order_is_inconclusive(tmp_path, capsys):
    code = main(["verify", "--out", str(tmp_path), "--grid", SMALL,
                 "--jet-order", "2"])
    assert code == 3
    out = capsys.readouterr().out
    assert "status: inconclusive" in out
    assert "[insufficient jet order]" in out


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


@pytest.mark.parametrize("what, fmt", [("f", "obj"), ("g", "csv"), ("inverted", "csv"),
                                       ("inverted", "obj")])
def test_export_evaluates_the_surface_once(tmp_path, monkeypatch, what, fmt):
    # every exported surface (f, its pedal, the inverted pedal) is built on
    # the one evaluator of f that cli obtains from surface_evaluator
    orders = []

    def counted(curve):
        ev = surface_evaluator(curve)
        inner = ev.fn
        ev.fn = lambda *args: orders.append(args[2]) or inner(*args)
        return ev

    monkeypatch.setattr(cli, "surface_evaluator", counted)
    assert main(["export", "--what", what, "--format", fmt, "--jet-order", "3",
                 "--grid", SMALL, "--out", str(tmp_path)]) == 0
    assert len(orders) == 1


@pytest.mark.parametrize("doc", [{}, {"scale": 0.0, "translation": V6}],
                         ids=["default", "scale-0"])
def test_pedal_evaluates_the_surface_once(tmp_path, monkeypatch, doc):
    # both meshes, the table and the exclusions come from one evaluation
    # of f; the scale-0 member's pedal is the shadow of v over f
    orders = []

    def counted(curve):
        ev = surface_evaluator(curve)
        inner = ev.fn
        ev.fn = lambda *args: orders.append(args[2]) or inner(*args)
        return ev

    monkeypatch.setattr(cli, "surface_evaluator", counted)
    cfg = write_json(tmp_path / "cfg.json", {"seed_preset": "holo3", **doc})
    assert main(["pedal", "--config", cfg, "--grid", SMALL, "--out", str(tmp_path)]) == 0
    assert len(orders) == 1


def test_export_inverted_mesh(tmp_path):
    assert main(["export", "--what", "inverted", "--grid", SMALL,
                 "--out", str(tmp_path)]) == 0
    head = (tmp_path / "inverted.obj").read_text().split("\n", 1)[0]
    assert head.startswith("# inverted pedal surface (center")
    assert "radius 1" in head


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


@pytest.mark.parametrize("command", [["pedal"], ["verify"], ["export", "--what", "inverted"]],
                         ids=["pedal", "verify", "export"])
@pytest.mark.parametrize("doc", [
    {"scale": NAN},
    {"scale": INF},
    {"curve": [[0, 1], [0, 0, INF]]},
    {"curve": [[0, 1], [0, 0, [1, NAN]]]},
    {"translation": [0.9, -0.4, NAN, 0.3, -0.8, 0.5]},
    {"tolerances": {"pedal_conformal": NAN}},
    {"tolerances": {"pedal_conformal": INF}},
    {"lattice": {"radius": INF}},
    {"lattice": {"lo": NAN}},
    {"lattice": {"hi": -INF}},
    {"lattice": {"per_axis": NAN}},
    {"grid": {"x1": INF, "nx": 5, "ny": 5}},
    {"grid": {"y0": NAN, "nx": 5, "ny": 5}},
    {"grid": {"nx": INF, "ny": 5}},
    {"grid": {"nx": 5, "ny": NAN}},
    {"grid": {"nx": 5, "ny": 5, "excluded_disks": [[0.8, NAN, 0.1]]}},
    {"grid": {"nx": 5, "ny": 5, "excluded_disks": [{"center": [0.8, 0.8], "radius": NAN}]}},
    {"jet_order": NAN},
    {"jet_order": INF},
], ids=["scale-nan", "scale-inf", "curve-inf", "curve-nan-imag", "translation-nan",
        "tolerance-nan", "tolerance-inf", "radius-inf", "lo-nan", "hi-inf", "per-axis-nan",
        "window-inf", "window-nan", "nx-inf", "ny-nan", "disk-center-nan", "disk-radius-nan",
        "jet-order-nan", "jet-order-inf"])
def test_non_finite_config_numbers_exit_2(tmp_path, capsys, command, doc):
    if "curve" not in doc:
        doc = {"seed_preset": "holo3", "grid": SMALL, **doc}
    elif "grid" not in doc:
        doc = {"grid": SMALL, **doc}
    cfg = write_json(tmp_path / "cfg.json", doc)
    assert main(command + ["--config", cfg, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert "finite" in lines[0]
    assert captured.out == ""


@pytest.mark.parametrize("doc, field", [
    ({"seed_preset": "holo3", "translation": 5}, "translation"),
    ({"seed_preset": "holo3", "lattice": 5}, "lattice"),
    ({"seed_preset": "holo3", "tolerances": [1]}, "tolerances"),
    ({"seed_preset": "holo3", "checks": 5}, "checks"),
    ({"curve": 3}, "curve"),
    ({"spec": {"ambient_dim": "x", "isotropy_order": 2, "betas": [[1], [1], [1]]}},
     "ambient_dim"),
    ({"seed_preset": "holo3", "grid": {"nx": 5, "ny": 5, "excluded_disks": 5}},
     "excluded_disks"),
    ({"seed_preset": "holo3", "out": 5}, "out"),
], ids=["translation", "lattice", "tolerances", "checks", "curve", "spec-ambient-dim",
        "excluded-disks", "out"])
def test_wrong_config_types_exit_2(tmp_path, monkeypatch, capsys, doc, field):
    monkeypatch.chdir(tmp_path)
    cfg = write_json(tmp_path / "cfg.json", {"grid": SMALL, **doc})
    assert main(["verify", "--config", cfg]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert field in lines[0]
    assert captured.out == ""


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
