"""Write the reference outputs the benchmark checks against.

    python3 perfbench/make_reference.py

Run from the root of a checkout of the commit whose outputs are the
reference (the parent of the change being measured).  Writes the
verify_default and verify_large reports, as `report_to_json` prints
them, and the exit codes and output summary of one export_fine session,
to perfbench/reference/.
"""

import json
import os
import shutil
import sys
import tempfile

import workloads


def main():
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from isopedal.config import RunConfig
    from isopedal.verify import report_to_json, run_all

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for name in workloads.VERIFY_DOCS:
        text = report_to_json(run_all(RunConfig.from_document(workloads.VERIFY_DOCS[name])))
        with open(os.path.join(workloads.REFERENCE_DIR, name + ".json"), "w",
                  encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {name}.json")
    out_dir = tempfile.mkdtemp(prefix="reference-", dir=workloads.HERE)
    try:
        codes = workloads.export_session(out_dir)
        doc = {"exit_codes": codes, "outputs": workloads.summarize_outputs(out_dir)}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    with open(os.path.join(workloads.REFERENCE_DIR, "export_fine.json"), "w",
              encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote export_fine.json")


if __name__ == "__main__":
    main()
