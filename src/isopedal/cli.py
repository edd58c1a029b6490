"""Command-line front end: generate curves, export meshes, run certification.

One JSON config document drives every command; command-line flags override
the corresponding config fields.  With no config at all, the two-circle
surface in R^6 on the default grid is used, so every command works out of
the box.

Commands
  generate   build the curve, write its coefficients, print a summary
  pedal      export the surface and pedal meshes plus the decomposition CSV
  verify     run the certification checks, write the JSON report
  export     write one chosen artifact (f | g | inverted as OBJ or CSV)
  report     run the checks and print a human-readable digest

Exit codes: 0 all good, 1 a certification check failed, 2 configuration
error, 3 more than half of the grid was excluded (or nothing was checked).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .config import RunConfig, encode_complex
from .errors import ConfigError, IsotropyViolation
from .export import export_obj, rank_note, write_geometry_csv, write_pedal_csv
from .geometry import SurfaceJets
from .grid import Grid
from .moebius import InversionSpec, invert_evaluator
from .pedal import normal_part_evaluator, pedal_regularity, pedal_surface
from .verify import _generic_vector, report_to_json, run_all
from .weierstrass import surface_evaluator

DEFAULT_CONFIG = {"seed_preset": "holo3"}
PROBE_X = (0.7, 1.1, 0.4)
PROBE_Y = (0.4, -0.3, 0.9)
CIRCLE_PROBE_TOL = 1e-8


# ---------------------------------------------------------------------------
# config assembly
# ---------------------------------------------------------------------------


def _read_json(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{what} {path} is not valid JSON: {e}") from None


def load_config(args) -> RunConfig:
    """Merge the config file (if any) with command-line overrides."""
    doc = _read_json(args.config, "config") if args.config else {}
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    doc = dict(doc)
    if getattr(args, "seed_preset", None):
        for key in ("spec", "curve", "ambient_curve"):
            doc.pop(key, None)
        doc["seed_preset"] = args.seed_preset
    if not any(k in doc for k in ("seed_preset", "spec", "curve", "ambient_curve")):
        doc["seed_preset"] = DEFAULT_CONFIG["seed_preset"]
    if getattr(args, "grid", None):
        doc["grid"] = Grid.from_string(args.grid).to_config()
    if getattr(args, "jet_order", None) is not None:
        doc["jet_order"] = args.jet_order
    if getattr(args, "check", None):
        doc["checks"] = args.check
    if getattr(args, "out", None):
        doc["out"] = args.out
    return RunConfig.from_document(doc)


def _out_dir(cfg: RunConfig) -> str:
    out = cfg.out_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def _projection(args, ambient_dim):
    if not getattr(args, "projection", None):
        return None
    mat = _read_json(args.projection, "projection")
    arr = np.asarray(mat, dtype=float)
    if arr.ndim != 2 or arr.shape != (3, ambient_dim):
        raise ConfigError(
            f"projection {args.projection} must be a 3 x {ambient_dim} matrix, "
            f"got shape {arr.shape}"
        )
    return arr


def _surface_pair(cfg: RunConfig):
    """(surface evaluator, pedal evaluator) honoring scale and translation.

    The degenerate scale-0 member is mapped to its limit: the pedal of
    0*f + v is the normal-shadow surface of v, even though 0*f + v itself
    is not an immersion.
    """
    base = surface_evaluator(cfg.curve)
    c, v = cfg.scale, cfg.translation
    if c == 0.0:
        if v is None:
            raise ConfigError("scale 0 needs a translation vector")
        return base.affine(scale=0.0, translation=v), normal_part_evaluator(base, v)
    if c != 1.0 or v is not None:
        f_eval = base.affine(scale=c, translation=v)
    else:
        f_eval = base
    return f_eval, pedal_surface(f_eval)


def _exclusion_exit(excluded: int, total: int) -> int:
    return 3 if 2 * excluded > total else 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _count_circles(curve) -> int:
    """Leading curvature ellipses that are circles, at fixed probe points."""
    ev = surface_evaluator(curve)
    x = np.asarray(PROBE_X)
    y = np.asarray(PROBE_Y)
    cap = max((curve.ambient_dim - 1) // 2, 1)
    bundle = SurfaceJets(ev, x, y, cap + 1)
    count = 0
    for s in range(1, bundle.flag_capacity() + 1):
        defect, _, _ = bundle.circle_defect(s)
        mask = bundle.valid if s == 1 else bundle.flag(s)[s - 1].valid
        if not np.any(mask) or np.max(defect[mask]) > CIRCLE_PROBE_TOL:
            break
        count += 1
    return count


def cmd_generate(cfg: RunConfig, args) -> int:
    curve = cfg.curve
    out = _out_dir(cfg)
    path = os.path.join(out, "curve.json")
    doc = {"ambient_curve": [[encode_complex(c) for c in p] for p in curve.phi]}
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    n = curve.ambient_dim
    print(f"curve: {curve.provenance}, ambient dimension {n}, degree {curve.degree}")
    print(f"isotropy residual: {curve.isotropy_residual():.3e}")
    if curve.spec is not None:
        print(f"requested curvature circles: {curve.spec.isotropy_order}")
    print(f"curvature circles at probe points: {_count_circles(curve)}")
    if n % 2 == 1:
        print("last normal space: rank 1 (odd ambient dimension)")
    print(f"wrote {path}")
    return 0


def cmd_pedal(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    f_eval, g_eval = _surface_pair(cfg)
    proj = _projection(args, f_eval.ambient_dim)
    grid = cfg.grid
    f_path = os.path.join(out, "f.obj")
    g_path = os.path.join(out, "g.obj")
    export_obj(f_eval, grid, f_path, projection=proj, label="surface")
    export_obj(g_eval, grid, g_path, projection=proj, label="pedal surface")
    print(f"wrote {f_path}")
    print(f"wrote {g_path}")
    x, y = grid.points()
    pre = grid.premask()
    if cfg.scale == 0.0:
        bundle = SurfaceJets(g_eval, x, y, 2)
        excluded = int(np.sum(~(pre & bundle.valid)))
        print("decomposition table skipped for the degenerate member (scale 0)")
    else:
        csv_path = os.path.join(out, "pedal.csv")
        write_pedal_csv(f_eval, grid, csv_path, order=max(3, cfg.jet_order - 1))
        print(f"wrote {csv_path}")
        reg = pedal_regularity(f_eval, x, y, order=max(3, cfg.jet_order - 1))
        excluded = int(np.sum(~pre | reg["excluded"]))
        for (idx, why) in reg["reasons"][:5]:
            px, py = x[idx[0]], y[idx[0]]
            print(f"  excluded ({px:g}, {py:g}): {why}")
        if len(reg["reasons"]) > 5:
            print(f"  ... and {len(reg['reasons']) - 5} more")
    print(f"excluded points: {excluded} of {grid.size}")
    return _exclusion_exit(excluded, grid.size)


def _print_check_lines(report):
    for rec in report["checks"]:
        tag = "PASS" if rec["pass"] else "FAIL"
        cmp = "<=" if rec["mode"] == "upper" else ">="
        defect = rec["defect"]
        dtxt = f"{defect:.3e}" if defect is not None else "n/a"
        line = f"{tag} {rec['id']}: defect {dtxt} {cmp} {rec['threshold']:.1e}"
        if rec["status"] != "evaluated":
            line += f" [{rec['status']}]"
        print(line)


def _report_exit(report) -> int:
    pts = report["environment"]["points"]
    if 2 * pts["usable"] < pts["total"]:
        return 3
    if report["status"] == "pass":
        return 0
    if report["status"] == "inconclusive":
        return 3
    return 1


def cmd_verify(cfg: RunConfig, args) -> int:
    report = run_all(cfg)
    out = _out_dir(cfg)
    path = os.path.join(out, "report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_to_json(report))
        fh.write("\n")
    _print_check_lines(report)
    print(f"status: {report['status']}")
    print(f"wrote {path}")
    return _report_exit(report)


def cmd_export(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    f_eval, g_eval = _surface_pair(cfg)
    if args.what == "f":
        target, label = f_eval, "surface"
    elif args.what == "g":
        target, label = g_eval, "pedal surface"
    else:
        center = (np.asarray(cfg.translation, dtype=float)
                  if cfg.translation is not None
                  else _generic_vector(g_eval.ambient_dim))
        radius = float(cfg.lattice["radius"])
        inv = InversionSpec(center=tuple(center), radius=radius)
        target = invert_evaluator(g_eval, inv)
        center_txt = "[" + ", ".join(f"{float(c):g}" for c in center) + "]"
        label = f"inverted pedal surface (center {center_txt}, radius {radius:g})"
    grid = cfg.grid
    if args.format == "obj":
        proj = _projection(args, target.ambient_dim)
        path = os.path.join(out, f"{args.what}.obj")
        excluded = export_obj(target, grid, path, projection=proj, label=label)
    else:
        path = os.path.join(out, f"{args.what}.csv")
        order = max(2, cfg.jet_order)
        rows = write_geometry_csv(target, grid, path, order=order)
        x, y = grid.points()
        bundle = SurfaceJets(target, x, y, 2)
        excluded = int(np.sum(~(grid.premask() & bundle.valid)))
        assert rows == grid.size
    print(f"wrote {path}")
    print(f"excluded points: {excluded} of {grid.size}")
    ranks = rank_note(target, grid)
    if ranks:
        print(f"first normal bundle rank over the grid: {ranks}")
    return _exclusion_exit(excluded, grid.size)


def cmd_report(cfg: RunConfig, args) -> int:
    report = run_all(cfg)
    env = report["environment"]
    print(f"surface: ambient dimension {env['ambient_dim']}, "
          f"grid {env['grid'][0]} x {env['grid'][1]} on "
          f"[{env['window'][0]}, {env['window'][1]}] x "
          f"[{env['window'][2]}, {env['window'][3]}], "
          f"jets of order {env['jet_order']}")
    print(f"config digest: {env['spec_sha256'][:16]}")
    pts = env["points"]
    print(f"grid points: {pts['usable']} usable of {pts['total']}")
    _print_check_lines(report)
    n_pass = sum(1 for r in report["checks"] if r["pass"])
    print(f"{n_pass} of {len(report['checks'])} checks passed")
    worst_upper = None
    worst_lower = None
    for rec in report["checks"]:
        if rec["defect"] is None or rec["threshold"] in (0, None):
            continue
        ratio = rec["defect"] / rec["threshold"]
        if rec["mode"] == "upper":
            worst_upper = ratio if worst_upper is None else max(worst_upper, ratio)
        else:
            worst_lower = ratio if worst_lower is None else min(worst_lower, ratio)
    if worst_upper is not None:
        print(f"tightest identity margin: defect / threshold = {worst_upper:.2e}")
    if worst_lower is not None:
        print(f"weakest refutation margin: defect / threshold = {worst_lower:.2e}")
    print(f"status: {report['status']}")
    if cfg.out_dir:
        path = os.path.join(_out_dir(cfg), "report.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(report_to_json(report))
            fh.write("\n")
        print(f"wrote {path}")
    return _report_exit(report)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="JSON config document")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument("--jet-order", type=int, metavar="K",
                        help="jet truncation order (default 4)")
    shared.add_argument("--grid", metavar="SPEC",
                        help="grid as 'x0,x1,y0,y1,nx,ny'")
    shared.add_argument("--seed-preset", choices=["holo3", "holo4", "noniso"],
                        help="built-in seed curve (overrides the config curve)")
    shared.add_argument("--check", metavar="ID[,ID...]",
                        help="run only checks whose id starts with a listed prefix")
    shared.add_argument("--projection", metavar="PATH",
                        help="JSON file with a 3 x n projection matrix for OBJ export")

    parser = argparse.ArgumentParser(
        prog="isopedal",
        description="isotropic minimal surfaces, their pedals, and the "
                    "numerical certification of their geometry",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[shared],
                       help="build the curve and write its coefficients")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("pedal", parents=[shared],
                       help="export surface and pedal meshes plus the decomposition CSV")
    p.set_defaults(func=cmd_pedal)

    p = sub.add_parser("verify", parents=[shared],
                       help="run certification checks and write the JSON report")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", parents=[shared],
                       help="write one artifact (mesh or table)")
    p.add_argument("--what", choices=["f", "g", "inverted"], default="g",
                   help="surface, pedal surface, or inverted pedal surface")
    p.add_argument("--format", choices=["obj", "csv"], default="obj")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("report", parents=[shared],
                       help="run checks and print a human-readable digest")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return args.func(cfg, args)
    except (ConfigError, IsotropyViolation) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
