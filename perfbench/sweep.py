"""Sweep runner, started by run.py in a fresh process per benchmark run.

Usage: python3 perfbench/sweep.py JOB.json

It runs `marcsim.cli.main` on the job's command line, times each sweep from an
empty output directory and each resume on the completed journal, optionally
runs traced sweeps, and writes REPORT (job["out_dir"]/report.json) with the
timings, the CSV paths and its own peak memory.  run.py checks the CSVs.
`marcsim` must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time

from marcsim import cli, montecarlo

from spans import Tracer, layer_metrics
from workloads import Workload

MIN_SWEEPS = 3
RESUMES_PER_SWEEP = 3
TRACED_SWEEPS = 3  # per-layer metrics are the median over these


def _cli(argv: list[str]) -> int:
    # cli.main is looked up on each call so that the tracer's wrapper is used
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Runner:
    def __init__(self, job: dict):
        self.workload = Workload(**job["workload"])
        self.out_dir = job["out_dir"]

    def sweep(self, tag: str, seed: int, workers: int, resumes: int = 0) -> dict:
        """One sweep from an empty directory, then ``resumes`` re-runs of the
        same spec on its completed journal."""
        d = os.path.join(self.out_dir, tag)
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        csv = os.path.join(d, "sweep.csv")
        argv = self.workload.cli_args(seed, csv, workers)
        t0 = time.perf_counter()
        rc = _cli(argv)
        rec = {"tag": tag, "csv": csv, "seed": seed, "workers": workers, "rc": rc,
               "sweep_s": time.perf_counter() - t0, "resume_s": [], "resume_same": []}
        if rc != 0:
            return rec
        with open(csv, "rb") as fh:
            first = fh.read()
        for _ in range(resumes):
            t0 = time.perf_counter()
            rc = _cli(argv)
            rec["resume_s"].append(time.perf_counter() - t0)
            with open(csv, "rb") as fh:
                rec["resume_same"].append(rc == 0 and fh.read() == first)
        return rec


def run(job: dict) -> dict:
    r = Runner(job)
    seed, workers = job["seed"], r.workload.workers
    # untimed warm-up; run serially it is also the determinism reference
    report = {"warm": r.sweep("warm", seed, 1), "sweeps": []}

    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        report["sweeps"].append(r.sweep(f"s{len(report['sweeps'])}", seed, workers, RESUMES_PER_SWEEP))
        cycle = time.perf_counter() - t0
        elapsed = time.perf_counter() - t_start
        if len(report["sweeps"]) >= MIN_SWEEPS and elapsed + cycle > job["seconds"]:
            break

    if job["trace"]:
        untraced = statistics.median(s["sweep_s"] for s in report["sweeps"])
        serial = r.sweep("serial", seed, 1)["sweep_s"] if workers > 1 else untraced
        report["traced"], per_sweep, d = [], [], None
        for k in range(TRACED_SWEEPS):
            with Tracer() as tracer:
                rec = r.sweep(f"traced{k}", seed, 1)
            report["traced"].append(rec)
            if rec["rc"] == 0:
                per_sweep.append(layer_metrics(tracer.spans, rec["sweep_s"]))
                d = os.path.dirname(rec["csv"])
        if per_sweep:
            layers = {k: statistics.median(m.get(k, 0.0) for m in per_sweep) for k in per_sweep[0]}
            layers["experiment.bytes_written"] = sum(
                os.path.getsize(os.path.join(d, f)) for f in os.listdir(d)
            )
            layers["experiment.pool_efficiency"] = layers["experiment.cell_s"] / (workers * untraced)
            layers["trace.overhead_frac"] = layers["trace.sweep_s"] / serial - 1.0
            report["layers"] = layers
        report["reference"] = r.sweep("reference", job["reference_seed"], workers)

    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    report["peak_rss_mb"] = kib / 1024.0
    report["batch_size"] = montecarlo.BATCH_SIZE
    return report


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    report = run(job)
    with open(os.path.join(job["out_dir"], "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
