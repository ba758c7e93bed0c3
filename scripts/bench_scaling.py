#!/usr/bin/env python3
"""Reproduce the main runtime-trend benchmarks and write one CSV per trend.

  python3 scripts/bench_scaling.py --out-dir bench_out [--repeat 3] [--quick]

Trends covered: runtime vs number of voters (poset profiles), runtime vs
number of candidates (insertion-model profiles), runtime vs cover width
(fixed-width conditioned profiles), and speedup of the parallel solver.
"""

import argparse
from pathlib import Path

from mewvote.bench import BenchRun, rows_to_csv, run_bench


def voter_scaling(quick: bool) -> list[BenchRun]:
    ns = (250, 500, 1000) if quick else (1000, 2000, 4000, 8000)
    return [
        BenchRun(kind="poset", m=10, n=n, rule=rule, phi=0.5, p_max=0.1, seed=n)
        for n in ns for rule in ("plurality", "k-approval:2", "borda")
    ]


def candidate_scaling(quick: bool) -> list[BenchRun]:
    ms = (10, 20, 40) if quick else (10, 20, 40, 80)
    return [
        BenchRun(kind="rim", m=m, n=2, rule="plurality", phi=0.5, seed=m)
        for m in ms
    ]


def cover_width_scaling(quick: bool) -> list[BenchRun]:
    widths = range(1, 5) if quick else range(1, 6)
    return [
        BenchRun(kind="cover_width", m=10, n=1, rule="plurality", phi=0.5, k=w, seed=w)
        for w in widths
    ]


def parallel_scaling(quick: bool) -> list[BenchRun]:
    n = 2000 if quick else 20000
    return [
        BenchRun(kind="poset", m=10, n=n, rule="plurality", phi=0.5, p_max=0.1,
                 workers=w, seed=1)
        for w in (1, 2, 4, 8)
    ]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="bench_out")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--quick", action="store_true", help="smaller sweeps")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sweeps = {
        "time_vs_voters.csv": voter_scaling(args.quick),
        "time_vs_candidates.csv": candidate_scaling(args.quick),
        "time_vs_cover_width.csv": cover_width_scaling(args.quick),
        "time_vs_workers.csv": parallel_scaling(args.quick),
    }
    for name, runs in sweeps.items():
        rows = run_bench(runs, repeat=args.repeat)
        path = out_dir / name
        path.write_text(rows_to_csv(rows))
        print(f"wrote {path} ({len(rows)} rows)")


if __name__ == "__main__":
    main()
