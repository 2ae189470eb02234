"""Budget-paced job scheduling across electricity zones.

A scheduler routes arriving work to zones with noisy prices while
keeping long-run spend per zone on a fixed budget line (equality
constraints) and serving enough of the arrivals (inequality). Prices
come from the seeded synthetic generator unless a trace CSV is given.
Compares the online algorithm against the best fixed allocation in
hindsight and the Reac baseline, which only reacts to current prices.
"""

import argparse
import dataclasses
import tempfile

from pdomd import ExperimentConfig, run_experiment
from pdomd.config import DatacenterSettings


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--horizon", type=int, default=2000)
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--trace", default=None, help="price trace CSV (slot,zone,price)")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    out_dir = args.out or tempfile.mkdtemp(prefix="pdomd-datacenter-")
    config = dataclasses.replace(
        ExperimentConfig(),
        scenario="datacenter",
        horizon=args.horizon,
        seeds=tuple(range(args.seeds)),
        datacenter=DatacenterSettings(trace=args.trace),
        out_dir=out_dir,
    )
    result = run_experiment(config)
    series = result["series"]

    print(f"T={args.horizon}, {args.seeds} seeds, config {result['config_hash'][:12]}")
    print()
    print("cumulative cost at the end of the horizon:")
    for name in ("algorithm", "hindsight", "reac"):
        print(f"  {name:<10} {series['cost'][name][-1]:14.0f}")
    print()
    pacing = series["eq"]["algorithm"]
    checkpoints = [100, args.horizon // 4, args.horizon // 2, args.horizon]
    print("budget pacing norm ||cumulative spend / t - budget|| over time:")
    for t in checkpoints:
        print(f"  t={t:<6} {pacing[t - 1]:10.4f}")
    print()
    unserved = series["ineq"]["algorithm"]
    print(f"running-average unserved work: t=200 {unserved[199]:.3f}, end {unserved[-1]:.3f}")
    print()
    print(f"per-policy CSVs written under {out_dir}")


if __name__ == "__main__":
    main()
