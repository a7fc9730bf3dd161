"""Regenerate reference.json: each workload's primary output at the default seed.

Usage, from the root of a checkout:  python3 perfbench/make_reference.py

Run it only when a change to the program is meant to change its outputs, and
say so in the change: the benchmark fails every run whose output drifts from
the stored reference by more than workloads.REF_TOL.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS, primary_output, read_outputs, write_inputs

HERE = Path(__file__).resolve().parent


def main():
    root = Path.cwd()
    work = HERE / ".work" / "reference"
    references = {}
    try:
        for workload in WORKLOADS.values():
            config = write_inputs(workload, DEFAULT_SEED, work)
            out = work / "out"
            shutil.rmtree(out, ignore_errors=True)
            code = subprocess.run(
                [sys.executable, "-m", "paralyap", workload.command, "--config", str(config),
                 "--out", str(out), "--workers", "1"],
                cwd=root, env={"PYTHONPATH": str(root / "src")}, timeout=300,
            ).returncode
            if code != workload.expected_exit:
                raise SystemExit(f"{workload.name}: exit {code}, expected {workload.expected_exit}")
            values = primary_output(workload, read_outputs(workload, out))
            references[workload.name] = {c: [float(v) for v in vals] for c, vals in values.items()}
            print(f"{workload.name}: {sum(len(v) for v in values.values())} values")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
