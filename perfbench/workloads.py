"""The benchmark's workloads: `marcsim` command lines, one per figure family.

Each workload is a figure with CLI overrides, a per-cell trial cap and a worker
count.  The master seed is appended by the benchmark (`--seed`), so the same
seed always gives the same inputs.  The SNR subsets are chosen so that every
cell either reaches 400 errors well inside its first 16,384-trial batch or
runs firmly to the cap; the work in a sweep (batches run) therefore does not
depend on the seed, and run-to-run spread is machine noise, not workload.
"""

from __future__ import annotations

import dataclasses

# seed of the recorded reference CSVs in perfbench/reference/
REFERENCE_SEED = 2012


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]  # marcsim CLI flags, without --seed/--out/--workers
    trials: int            # per-cell trial cap, passed as --trials
    workers: int
    why: str

    def cli_args(self, seed: int, out: str, workers: int) -> list[str]:
        return [*self.args, "--trials", str(self.trials), "--seed", str(seed), "--out", out,
                "--workers", str(workers)]


def _w(name, args, trials, workers, why):
    return Workload(name, tuple(args.split()), trials, workers, why)


WORKLOADS = {
    w.name: w
    for w in (
        _w(
            "ser_mpsk_hi",
            "--figure fig2 --scheme anc,df --mod 8,16 --relays 1,3 --snr 20",
            32768,
            1,
            "8/16-PSK ANC+DF: M^2 joint-ML detection and DF relay decode dominate; "
            "analytic and allocator layers nearly idle",
        ),
        _w(
            "outage_relays",
            "--figure fig4 --snr 0:20:10",
            49152,
            1,
            "outage only: channel sampling and relay selection, no symbols, "
            "no detection, no quadrature",
        ),
        _w(
            "power_alloc",
            "--figure fig5 --snr 20",
            65536,
            1,
            "equal vs optimized power split: allocator objective (SER quadrature) "
            "plus cheap BPSK Monte Carlo",
        ),
        _w(
            "ser_bpsk_pool",
            "--figure fig3 --snr 0:20:5",
            32768,
            2,
            "BPSK ANC vs DF with 2 workers: the only process-pool path "
            "(fork, pickling, ordered map, cell imbalance)",
        ),
    )
}
