"""Seeded generator of admissible isotropic-curve specs for spec_sweep.

The generator belongs to the benchmark, not to isopedal, so a change to
the program cannot change the inputs it is measured on.  It uses
Python's `random.Random`, whose stream does not depend on numpy.

Every pass covers the same (ambient dim n, isotropy order m, jet order)
strata: each admissible (n, m) with 4 <= n <= 8 once, with the jet order
cycling through 3, 4, 5.  The seed draws the coefficients of the curve
(the seed curve alpha0 and the weights beta, complex polynomials of
degree 1), not the degrees, so the work per spec is the same for every
seed.  Which commands crash depends on the stratum, not on the
coefficients, so the share of failed specs is the same for every seed
and a change in it means the program changed.  n stops at 8: n = 9
crashes before the inversion lattice today, and n >= 10 needs gigabytes
for that lattice.

    python3 perfbench/specgen.py [--seed N] [--out DIR] [--check]

writes one JSON config document per spec; `--check` also runs each
through the CLI `verify` and prints its outcome class, and exits 0 only
if the seed draws at least one crash and an n = 8 spec whose report
evaluates the inversion group.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

DEFAULT_SEED = 7
MAX_DIM = 8
GRID = {"nx": 11, "ny": 11}
ORDERS = (3, 4, 5)


def strata():
    """(n, m, jet order) of each spec of a pass, in pass order."""
    pairs = [(n, m) for n in range(4, MAX_DIM + 1) for m in range(1, n // 2)
             if n >= 2 * (m + 1)]
    return [(n, m, ORDERS[k % len(ORDERS)]) for k, (n, m) in enumerate(pairs)]


def _poly(rnd):
    """A complex polynomial of degree 1 as [re, im] pairs; its leading
    coefficient has modulus >= 0.25, so the degree never drops."""
    coeffs = [[round(rnd.uniform(-1, 1), 6), round(rnd.uniform(-1, 1), 6)]
              for _ in range(2)]
    re, im = coeffs[-1]
    if re * re + im * im < 0.0625:
        coeffs[-1] = [re + (0.5 if re >= 0 else -0.5), im]
    return coeffs


def generate(seed: int):
    """The config documents of one pass for `seed`."""
    rnd = random.Random(seed)
    docs = []
    for n, m, order in strata():
        spec = {
            "ambient_dim": n,
            "isotropy_order": m,
            "alpha0": [_poly(rnd) for _ in range(n - 2 * (m + 1))],
            "betas": [_poly(rnd) for _ in range(m + 1)],
        }
        docs.append({"spec": spec, "grid": dict(GRID), "jet_order": order})
    return docs


def write(docs, out_dir):
    """Write the documents as spec_00.json, spec_01.json, ...; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for k, doc in enumerate(docs):
        path = os.path.join(out_dir, f"spec_{k:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        paths.append(path)
    return paths


def check(paths, work_dir):
    """Run CLI verify on each spec; True when the pass has a crash and an
    n = 8 spec whose report evaluates the inversion group."""
    import contextlib
    import io

    from isopedal.cli import main as cli_main

    crashed = reached = False
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n = json.load(fh)["spec"]["ambient_dim"]
        out = os.path.join(work_dir, os.path.basename(path)[:-5])
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = cli_main(["verify", "--config", path, "--out", out])
            outcome = "config_error" if code == 2 else f"report (exit {code})"
        except Exception as e:  # a crash is what this check looks for
            crashed = True
            outcome = f"crash: {type(e).__name__}: {e}"
        inversion = False
        report = os.path.join(out, "report.json")
        if os.path.exists(report):
            with open(report, encoding="utf-8") as fh:
                inversion = any(c["id"].startswith("inversion.")
                                and c["status"] == "evaluated"
                                for c in json.load(fh)["checks"])
        reached |= n == MAX_DIM and inversion
        print(f"{os.path.basename(path)} n={n}: {outcome}"
              + ("; inversion evaluated" if inversion else ""))
    return crashed and reached


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--out", default=os.path.join("perfbench", "out", "specs"))
    ap.add_argument("--check", action="store_true")
    args = ap.parse_args(argv)
    paths = write(generate(args.seed), args.out)
    print(f"wrote {len(paths)} specs to {args.out}")
    if not args.check:
        return 0
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    ok = check(paths, os.path.join(args.out, "runs"))
    print("crash and n=8 inversion both drawn" if ok else "condition not met")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
