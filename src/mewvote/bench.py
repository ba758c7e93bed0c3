"""Timing harness: run solver configurations over generated profiles, emit CSV rows."""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
from dataclasses import dataclass

from .engine import mew, mew_parallel
from .generators import GenSpec, cover_width_profile, generate
from .mpw import mpw
from .profiles import Profile
from .rules import parse_rule

CSV_COLUMNS = (
    "kind", "algo", "m", "n", "rule", "pruning", "grouping", "workers",
    "phi", "p_max", "k", "t", "b", "cw", "repeats", "mean_seconds", "stddev_seconds",
)


@dataclass(frozen=True)
class BenchRun:
    kind: str
    algo: str = "mew"          # mew | mpw
    m: int = 10
    n: int = 100
    rule: str = "plurality"
    pruning: bool = True
    grouping: bool = True
    workers: int = 0           # > 0 selects the parallel solver
    phi: float = 0.5
    p_max: float = 0.1
    k: int | None = None
    t: int = 0
    b: int = 0
    cw: int = 0                # > 0 selects the fixed-cover-width profile family
    seed: int = 0


def build_profile(run: BenchRun) -> Profile:
    if run.cw > 0:
        return cover_width_profile(run.m, run.n, run.cw, run.phi, run.seed)
    spec = GenSpec(kind=run.kind, m=run.m, n=run.n, phi=run.phi, p_max=run.p_max,
                   k=run.k, t=run.t, b=run.b, seed=run.seed)
    return generate(spec)


def time_run(run: BenchRun, profile: Profile) -> float:
    rule = parse_rule(run.rule, profile.m)
    start = time.perf_counter()
    if run.algo == "mpw":
        mpw(profile, rule)
    elif run.workers > 0:
        mew_parallel(profile, rule, workers=run.workers)
    else:
        mew(profile, rule, pruning=run.pruning, grouping=run.grouping)
    return time.perf_counter() - start


def run_bench(runs: list[BenchRun], repeat: int = 3) -> list[dict]:
    rows = []
    for run in runs:
        profile = build_profile(run)
        times = [time_run(run, profile) for _ in range(repeat)]
        rows.append({
            "kind": run.kind, "algo": run.algo, "m": run.m, "n": run.n,
            "rule": run.rule, "pruning": run.pruning, "grouping": run.grouping,
            "workers": run.workers, "phi": run.phi, "p_max": run.p_max,
            "k": run.k if run.k is not None else "", "t": run.t, "b": run.b,
            "cw": run.cw, "repeats": repeat,
            "mean_seconds": statistics.fmean(times),
            "stddev_seconds": statistics.stdev(times) if len(times) > 1 else 0.0,
        })
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def parse_bench_spec(text: str) -> list[BenchRun]:
    doc = json.loads(text)
    runs = doc["runs"] if isinstance(doc, dict) else doc
    return [BenchRun(**entry) for entry in runs]
