"""Record the reference CSVs that check.py compares every sweep against.

Usage, from the root of a checkout:  python3 perfbench/record_reference.py

Runs each workload once, serially, at workloads.REFERENCE_SEED through the
marcsim command line on the sources under src/, and writes
perfbench/reference/<workload>.csv.  Re-record only in a change that declares
why the CSVs move (a random-stream or science change); a speed-up must leave
them byte-identical.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile

from run import REFERENCE_DIR, ROOT, RUNS_DIR, _child_env
from workloads import REFERENCE_SEED, WORKLOADS


def record(workloads, reference_dir: str) -> None:
    os.makedirs(reference_dir, exist_ok=True)
    os.makedirs(RUNS_DIR, exist_ok=True)
    for w in workloads.values():
        tmp = tempfile.mkdtemp(dir=RUNS_DIR, prefix="reference-")
        try:
            out = os.path.join(tmp, "ref.csv")
            cmd = [sys.executable, "-m", "marcsim.cli", *w.cli_args(REFERENCE_SEED, out, 1)]
            subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True, stdout=subprocess.DEVNULL)
            shutil.copyfile(out, os.path.join(reference_dir, f"{w.name}.csv"))
        finally:
            shutil.rmtree(tmp, ignore_errors=True)


def main() -> int:
    record(WORKLOADS, REFERENCE_DIR)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
