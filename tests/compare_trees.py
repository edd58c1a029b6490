"""Compare the reports and command outputs of a commit with the working tree.

    python3 tests/compare_trees.py [COMMIT] [--work DIR]

Extracts COMMIT (default HEAD) with `git archive`, then runs the same
inputs on it and on the working tree, each in a Python process of its
own that imports that tree's `src`:
- 39 configs through `verify.run_all`: holo3, holo4 and noniso at
  21 x 21; holo3 at 41 x 41 and 81 x 81; holo4 at 41 x 41, order 5; the
  window through the branch point; an excluded disk; scale 0.7; the
  README's R^5 spec; the doubled (z, z^2) in R^4; holo3 on the far
  window x in [-1e30, 1e30] at 5 x 5; and the 27 specs of
  `perfbench/specgen.py` for seeds 1, 7 and 13, at 11 x 11;
- 42 CLI commands: `pedal` and `export --what f|g|inverted --format
  csv|obj` for holo3, holo4 and noniso at 21 x 21 and 41 x 41.

It prints every report record that moved, with its defect's relative
change as `perfbench/report_diff.compare` reads it, and the largest
such change, overall and apart for the records whose defect at COMMIT
is above 1e-10 and for those at or below it; the records whose defect
at COMMIT is 0 and is not 0 now, with the largest new defect; every
pass/fail flip or status change, and every run that crashes on one tree
only; and every report, artifact or output file (stdout, stderr and
exit code) whose bytes differ.  Exit code 1 when a check flips or
changes status or a crash differs; moved values and files are printed,
not failed.  The outputs are kept under `--work DIR` when it is given,
and removed otherwise.  Pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from report_diff import compare  # noqa: E402
from specgen import generate  # noqa: E402

TINY_DEFECT = 1e-10
R5_SPEC = {"ambient_dim": 5, "isotropy_order": 1,
           "alpha0": [[1, 0, 0.5]], "betas": [[1], [0, 1]]}


def _grid(n):
    return f"0.3,1.3,0.3,1.3,{n},{n}"


def configs():
    """(name, config document) of each report run."""
    out = [(p, {"seed_preset": p}) for p in ("holo3", "holo4", "noniso")]
    out += [
        ("holo3-41", {"seed_preset": "holo3", "grid": _grid(41)}),
        ("holo3-81", {"seed_preset": "holo3", "grid": _grid(81)}),
        ("holo4-41-order5", {"seed_preset": "holo4", "grid": _grid(41), "jet_order": 5}),
        ("branch-window", {"seed_preset": "holo3", "grid": "-0.5,0.5,-0.5,0.5,11,11"}),
        ("excluded-disk", {"seed_preset": "holo3", "grid": {
            "x0": 0.3, "x1": 1.3, "y0": 0.3, "y1": 1.3, "nx": 21, "ny": 21,
            "excluded_disks": [[0.8, 0.8, 0.2]]}}),
        ("scale-0.7", {"seed_preset": "holo3", "scale": 0.7}),
        ("readme-r5-spec", {"spec": R5_SPEC}),
        ("r4-curve", {"curve": [[0, 1], [0, 0, 1]]}),
        ("far-window", {"seed_preset": "holo3", "grid": "-1e30,1e30,0.3,1.3,5,5"}),
    ]
    for seed in (1, 7, 13):
        out += [(f"spec-s{seed}-{k:02d}", doc) for k, doc in enumerate(generate(seed))]
    return out


def commands():
    """(name, argv without --out) of each CLI command."""
    out = []
    for preset in ("holo3", "holo4", "noniso"):
        for n in (21, 41):
            common = ["--seed-preset", preset, f"--grid={_grid(n)}"]
            out.append((f"{preset}-{n}-pedal", ["pedal", *common]))
            out += [(f"{preset}-{n}-export-{what}-{fmt}",
                     ["export", "--what", what, "--format", fmt, *common])
                    for what in ("f", "g", "inverted") for fmt in ("csv", "obj")]
    return out


# -- one tree's runs, in its own process ----------------------------------------


def run_jobs(src: Path):
    """Run every job with the current directory as the output root,
    importing isopedal from `src`."""
    sys.path.insert(0, str(src))
    import isopedal
    from isopedal.cli import main as cli_main
    from isopedal.config import RunConfig
    from isopedal.verify import report_to_json, run_all

    if Path(isopedal.__file__).resolve().parent != (src / "isopedal").resolve():
        raise SystemExit(f"imported isopedal from {isopedal.__file__}, not {src}")
    warnings.simplefilter("ignore")  # their messages name source lines
    os.makedirs("reports", exist_ok=True)
    for name, doc in configs():
        try:
            text = report_to_json(run_all(RunConfig.from_document(doc)))
        except Exception as e:  # a crash is an outcome to compare
            text = f"crash: {type(e).__name__}: {e}\n"
        Path("reports", name + ".json").write_text(text, encoding="utf-8")
    for name, argv in commands():
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv + ["--out", os.path.join("commands", name)])
        except Exception as e:  # a crash is an outcome to compare
            code = f"crash: {type(e).__name__}: {e}"
        Path("commands", name + ".out").write_text(
            f"{out.getvalue()}-- stderr\n{err.getvalue()}-- exit {code}\n", encoding="utf-8")


# -- the comparison ---------------------------------------------------------------


def _files(root: Path):
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


def _record_key(rec):
    return json.dumps(rec, sort_keys=True)


def compare_outputs(old: Path, new: Path):
    """(lines to print, whether a check flipped or a crash differs)."""
    moved, flips, files = [], [], []
    largest = 0.0
    # the largest relative change among records whose parent defect is
    # above TINY_DEFECT, and among those at or below it (rounding level)
    by_size = {True: 0.0, False: 0.0}
    # records whose parent defect is 0 and whose new one is not have no
    # relative change; they are counted apart, with their new defect
    from_zero = []
    for name, _ in configs():
        a, b = (Path(root, "reports", name + ".json").read_text(encoding="utf-8")
                for root in (old, new))
        if a == b:
            continue
        files.append(f"reports/{name}.json")
        if a.startswith("crash") or b.startswith("crash"):
            flips.append(f"{name}: {a.strip()[:120]} -> {b.strip()[:120]}")
            continue
        ra, rb = json.loads(a), json.loads(b)
        diff = compare(ra, rb)
        flips += [f"{name}: {p}" for p in diff["problems"]]
        largest = max(largest, diff["max_rel_change"])
        after = {c["id"]: _record_key(c) for c in rb["checks"]}
        for rec, (cid, da, db, ratio, _, _) in zip(ra["checks"], diff["rows"]):
            if after.get(cid) == _record_key(rec):
                continue
            if da == db:
                change = "details only"
            elif ratio is not None:
                above = da > TINY_DEFECT
                by_size[above] = max(by_size[above], abs(ratio - 1.0))
                change = f"relative change {abs(ratio - 1.0):.3e}"
            elif da == 0 and db is not None:
                from_zero.append(abs(db))
                change = "from a zero defect"
            else:
                change = "n/a"
            moved.append(f"{name} {cid}: defect {da!r} -> {db!r} ({change})")
    old_files, new_files = _files(old / "commands"), _files(new / "commands")
    for rel in sorted(old_files | new_files):
        if rel not in old_files or rel not in new_files:
            files.append(f"commands/{rel}: only in the {'new' if rel in new_files else 'old'} tree")
        elif (old / "commands" / rel).read_bytes() != (new / "commands" / rel).read_bytes():
            files.append(f"commands/{rel}")
    lines = [f"moved records: {len(moved)}", *("  " + m for m in moved),
             f"largest relative defect change: {largest:.3e}",
             f"  among defects above {TINY_DEFECT:g}: {by_size[True]:.3e}",
             f"  among defects at or below {TINY_DEFECT:g}: {by_size[False]:.3e}",
             f"records moved from a zero defect: {len(from_zero)}"
             + (f", largest new defect {max(from_zero):.3e}" if from_zero else ""),
             f"flips, status changes and crashes: {len(flips)}", *("  " + f for f in flips),
             f"files that differ: {len(files)}", *("  " + f for f in files)]
    return lines, bool(flips)


def _run_tree(tree: Path, out: Path):
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--run", str(tree / "src")],
                   cwd=out, env=env, check=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("commit", nargs="?", default="HEAD")
    ap.add_argument("--work", help="directory for the outputs, kept (default: a temporary one)")
    ap.add_argument("--run", help=argparse.SUPPRESS)  # internal: run one tree's jobs
    args = ap.parse_args(argv)
    if args.run:
        run_jobs(Path(args.run))
        return 0
    with contextlib.ExitStack() as stack:
        work = Path(args.work) if args.work else Path(
            stack.enter_context(tempfile.TemporaryDirectory()))
        old_tree = work / "commit"
        old_tree.mkdir(parents=True)
        archive = subprocess.Popen(["git", "archive", args.commit], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", str(old_tree)], stdin=archive.stdout, check=True)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {args.commit} failed")
        _run_tree(old_tree, work / "commit-out")
        _run_tree(ROOT, work / "tree-out")
        lines, failed = compare_outputs(work / "commit-out", work / "tree-out")
    print(f"{args.commit} against the working tree: "
          f"{len(configs())} configs, {len(commands())} commands")
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
