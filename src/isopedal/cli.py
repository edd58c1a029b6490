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

from .config import CURVE_SOURCES, RunConfig, encode_complex
from .errors import ConfigError
from .export import export_obj, rank_note, write_geometry_csv, write_pedal_csv
from .geometry import SurfaceJets
from .moebius import invert_evaluator
from .pedal import MIN_ORDER, SurfacePipeline, pedal_regularity
from .verify import report_to_json, run_all
from .weierstrass import surface_evaluator

DEFAULT_CONFIG = {"seed_preset": "holo3"}


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
    if not isinstance(doc, dict):  # from_document names what is wrong
        return RunConfig.from_document(doc)
    doc = dict(doc)
    if getattr(args, "seed_preset", None):
        for key in CURVE_SOURCES:
            doc.pop(key, None)
        doc["seed_preset"] = args.seed_preset
    if not any(k in doc for k in CURVE_SOURCES):
        doc["seed_preset"] = DEFAULT_CONFIG["seed_preset"]
    if getattr(args, "grid", None):
        doc["grid"] = args.grid
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


def _projection(args):
    """The --projection matrix as read; `export_obj` checks it."""
    if not getattr(args, "projection", None):
        return None
    return _read_json(args.projection, "projection")


def _member(cfg: RunConfig, order: int):
    """(pipeline, member, shadow vector) of the configured member c*f + v
    on the grid at jet `order`; the member is its evaluation on the grid,
    and `pipeline.normal_surface(shadow vector)` its pedal.

    For c != 0 this is the pipeline of c*f + v, its evaluation and None.
    The degenerate scale-0 member is mapped to its limit: the pipeline of
    f itself, the constant v and v, since the pedal of 0*f + v is the
    normal shadow of v over f, even though 0*f + v is not an immersion.
    """
    surface = surface_evaluator(cfg.curve)
    c, v = cfg.scale, cfg.translation
    if c == 0.0:
        if v is None:
            raise ConfigError("scale 0 needs a translation vector")
    elif c != 1.0 or v is not None:
        surface, v = surface.affine(scale=c, translation=v), None
    pipe = SurfacePipeline(surface, cfg.grid, order)
    return pipe, (pipe.evaluated if v is None
                  else pipe.evaluated.affine(scale=0.0, translation=v)), v


def _exported(cfg: RunConfig, what: str, order: int):
    """(evaluation on the grid with jets up to `order`, label) of the
    surface `export` writes; the member's pipeline is dropped on return.

    The member f is evaluated at MIN_ORDER, the pipeline's floor (`order`
    is at most MIN_ORDER); the pedal g needs the member one order higher,
    and the inverted pedal is g's inversion at `order`."""
    pipe, f_at, v = _member(cfg, MIN_ORDER if what == "f" else order + 1)
    if what == "f":
        return f_at, "surface"
    g_at = pipe.normal_surface(v)
    if what == "g":
        return g_at, "pedal surface"
    center = cfg.shift_vector()
    center_txt = ", ".join(f"{c:g}" for c in center)
    return (invert_evaluator(g_at, center).evaluated(pipe.x, pipe.y, order),
            f"inverted pedal surface (center [{center_txt}])")


def _exclusion_exit(excluded: int, total: int) -> int:
    return 3 if 2 * excluded > total else 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


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
    print(f"curvature circles: {curve.isotropy_order()}")
    if n % 2 == 1:
        print("last normal space: rank 1 (odd ambient dimension)")
    print(f"wrote {path}")
    return 0


def cmd_pedal(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    # one evaluation of the surface at the pipeline's floor feeds both
    # meshes, the table and the exclusions
    pipe, f_at, v = _member(cfg, MIN_ORDER)
    proj = _projection(args)
    grid = cfg.grid
    g_at = pipe.normal_surface(v)
    x, y = pipe.x, pipe.y
    # the pedal mesh drops the points the table excludes: the pedal's
    # irregular points, or for the degenerate member (scale 0) the points
    # where its shadow's bundle is invalid
    if v is not None:
        reg = None
        g_keep = pipe.pre & SurfaceJets(g_at, x, y, 2).valid
    else:
        reg = pedal_regularity(pipe.split)
        g_keep = pipe.pre & ~reg["excluded"]
    f_path = os.path.join(out, "f.obj")
    g_path = os.path.join(out, "g.obj")
    export_obj(f_at, grid, f_path, projection=proj, label="surface",
               keep=pipe.pre & pipe.base.valid)
    export_obj(g_at, grid, g_path, projection=proj, label="pedal surface", keep=g_keep)
    print(f"wrote {f_path}")
    print(f"wrote {g_path}")
    if reg is None:
        excluded = int(np.sum(~g_keep))
        print("decomposition table skipped for the degenerate member (scale 0)")
    else:
        csv_path = os.path.join(out, "pedal.csv")
        _, excluded = write_pedal_csv(pipe.split, grid, csv_path, reg)
        print(f"wrote {csv_path}")
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


def _write_report(cfg: RunConfig, report) -> str:
    """Write report.json to the output directory; returns its path."""
    path = os.path.join(_out_dir(cfg), "report.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report_to_json(report))
    return path


def cmd_verify(cfg: RunConfig, args) -> int:
    report = run_all(cfg)
    path = _write_report(cfg, report)
    _print_check_lines(report)
    print(f"status: {report['status']}")
    print(f"wrote {path}")
    return _report_exit(report)


def cmd_export(cfg: RunConfig, args) -> int:
    out = _out_dir(cfg)
    grid = cfg.grid
    # the CSV reads nothing above order 3; at 2 its second-circle columns are NaN
    order = 2 if args.format == "obj" else min(cfg.jet_order, MIN_ORDER)
    target, label = _exported(cfg, args.what, order)
    # one bundle of the exported surface feeds the mesh's mask, the table
    # and the rank note, so both formats exclude the same points
    bundle = SurfaceJets(target, *grid.points(), order)
    if args.format == "obj":
        proj = _projection(args)
        path = os.path.join(out, f"{args.what}.obj")
        excluded = export_obj(target, grid, path, projection=proj, label=label,
                              keep=grid.premask() & bundle.valid)
    else:
        path = os.path.join(out, f"{args.what}.csv")
        _, excluded = write_geometry_csv(bundle, grid, path)
    print(f"wrote {path}")
    print(f"excluded points: {excluded} of {grid.size}")
    ranks = rank_note(bundle, grid)
    if ranks:
        print(f"first normal bundle rank over the grid: {ranks}")
    return _exclusion_exit(excluded, grid.size)


def cmd_report(cfg: RunConfig, args) -> int:
    report = run_all(cfg)
    env = report["environment"]
    print(f"surface: ambient dimension {env['ambient_dim']}, "
          f"grid {env['grid'][0]} x {env['grid'][1]} on "
          f"[{env['window'][0]}, {env['window'][1]}] x "
          f"[{env['window'][2]}, {env['window'][3]}]")
    print(f"config digest: {env['spec_sha256'][:16]}")
    pts = env["points"]
    print(f"grid points: {pts['usable']} usable of {pts['total']}")
    _print_check_lines(report)
    n_pass = sum(1 for r in report["checks"] if r["pass"])
    print(f"{n_pass} of {len(report['checks'])} checks passed")
    worst_upper = None
    worst_lower = None
    for rec in report["checks"]:
        if rec["defect"] is None:
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
        print(f"wrote {_write_report(cfg, report)}")
    return _report_exit(report)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", metavar="PATH", help="JSON config document")
    shared.add_argument("--out", metavar="DIR", help="output directory")
    shared.add_argument("--jet-order", type=int, metavar="K",
                        help="jet order of the export CSV (default 4); it reads order 3 "
                             "at most, so only 2 changes it (NaN second-circle columns)")
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
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
