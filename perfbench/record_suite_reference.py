#!/usr/bin/env python3
"""Record the suite workload's reference results from the current program.

    python3 perfbench/record_suite_reference.py

Runs every CLI experiment at its defaults and stores the `results` of the
ones that do not read the seed in perfbench/suite_reference.json.  Rerun it
only when a change to the program is meant to change those results.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import workloads  # noqa: E402
from stablepgf import cli  # noqa: E402


def main() -> None:
    reference = {}
    os.makedirs(workloads.OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workloads.OUT_DIR) as outdir:
        for name in cli.EXPERIMENTS:
            if name in workloads.SEEDED_EXPERIMENTS:
                continue
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.run_experiment(name, workloads.suite_defaults(name), 0, 1e-9, outdir)
            if code != 0:
                raise SystemExit(f"{name} failed")
            with open(os.path.join(outdir, f"{name}.json")) as fh:
                reference[name] = json.load(fh)["results"]
    with open(workloads.SUITE_REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
