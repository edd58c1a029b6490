"""Compare two isopedal certification reports check by check.

    python3 perfbench/report_diff.py REFERENCE.json NEW.json

Prints, for every check, both defects and their ratio (new / reference)
and flags pass/fail flips.  Exit code 1 when the reports disagree on
the check ids, a check's status or pass/fail, or the overall status;
a defect that only moves in value is printed, not failed, so an
arithmetic reorder can state its largest relative change.
"""

from __future__ import annotations

import json
import sys


def compare(ref: dict, new: dict) -> dict:
    """Differences between two report documents.

    Returns a dict with `rows` (one per check id of `ref`, in order:
    id, reference defect, new defect, ratio, reference pass, new pass),
    `problems` (disagreements that count as a failure) and
    `max_rel_change` (largest |new/ref - 1| over finite defects).
    """
    problems = []
    ref_ids = [c["id"] for c in ref["checks"]]
    new_ids = [c["id"] for c in new["checks"]]
    if ref_ids != new_ids:
        missing = sorted(set(ref_ids) - set(new_ids))
        extra = sorted(set(new_ids) - set(ref_ids))
        problems.append(f"check ids differ: missing {missing}, extra {extra}"
                        if missing or extra else "check order differs")
    if ref.get("status") != new.get("status"):
        problems.append(f"overall status {ref.get('status')} -> {new.get('status')}")
    by_id = {c["id"]: c for c in new["checks"]}
    rows = []
    max_rel = 0.0
    for a in ref["checks"]:
        b = by_id.get(a["id"])
        if b is None:
            continue
        da, db = a.get("defect"), b.get("defect")
        ratio = None
        if da is not None and db is not None:
            if da != 0:
                ratio = db / da
                max_rel = max(max_rel, abs(ratio - 1.0))
            elif db == 0:
                ratio = 1.0
        if a["status"] != b["status"]:
            problems.append(f"{a['id']}: status {a['status']} -> {b['status']}")
        if a["pass"] != b["pass"]:
            problems.append(f"{a['id']}: FLIP {_tag(a['pass'])} -> {_tag(b['pass'])}")
        rows.append((a["id"], da, db, ratio, a["pass"], b["pass"]))
    return {"rows": rows, "problems": problems, "max_rel_change": max_rel}


def _tag(passed):
    return "pass" if passed else "fail"


def _num(v):
    return "n/a" if v is None else f"{v:.6e}"


def format_diff(diff: dict) -> str:
    lines = [f"{'check':<40} {'reference':>13} {'new':>13} {'ratio':>12}  pass"]
    for cid, da, db, ratio, pa, pb in diff["rows"]:
        flag = "" if pa == pb else "   <-- FLIP"
        rtxt = "n/a" if ratio is None else f"{ratio:.9f}"
        lines.append(f"{cid:<40} {_num(da):>13} {_num(db):>13} {rtxt:>12}  "
                     f"{_tag(pa)}->{_tag(pb)}{flag}")
    lines.append(f"largest relative defect change: {diff['max_rel_change']:.3e}")
    for p in diff["problems"]:
        lines.append("PROBLEM: " + p)
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            docs.append(json.load(fh))
    diff = compare(*docs)
    print(format_diff(diff))
    return 1 if diff["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
