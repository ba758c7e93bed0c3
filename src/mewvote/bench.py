"""Timing harness: run solver configurations over generated profiles, emit CSV rows."""

from __future__ import annotations

import csv
import io
import json
import statistics
import time
import typing
from dataclasses import dataclass, fields

from .engine import mew, mew_parallel
from .errors import ParseError
from .generators import GenSpec, cover_width_profile, generate
from .mpw import mpw
from .preferences import check_count
from .profiles import Profile
from .rep import clear_caches
from .rules import parse_rule


@dataclass(frozen=True)
class BenchRun:
    kind: str                  # a generator kind, or "cover_width" (its width is k)
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
    seed: int = 0


CSV_COLUMNS = (*(f.name for f in fields(BenchRun) if f.name != "seed"),
               "repeats", "mean_seconds", "stddev_seconds")


def build_profile(run: BenchRun) -> Profile:
    if run.kind == "cover_width":
        return cover_width_profile(run.m, run.n, run.k, run.phi, run.seed)
    spec = GenSpec(kind=run.kind, m=run.m, n=run.n, phi=run.phi, p_max=run.p_max,
                   k=run.k, t=run.t, b=run.b, seed=run.seed)
    return generate(spec)


def time_run(run: BenchRun, profile: Profile) -> float:
    """Wall time of one cold run: ``rep.clear_caches`` empties every solver,
    preference and model cache first, so repeats are never averaged with warm ones."""
    rule = parse_rule(run.rule, profile.m)
    clear_caches()
    start = time.perf_counter()
    if run.algo == "mpw":
        mpw(profile, rule)
    elif run.workers > 0:
        mew_parallel(profile, rule, workers=run.workers)
    else:
        mew(profile, rule, pruning=run.pruning, grouping=run.grouping)
    return time.perf_counter() - start


def run_bench(runs: list[BenchRun], repeat: int = 3) -> list[dict]:
    repeat = check_count("repeat", repeat)
    rows = []
    for run in runs:
        profile = build_profile(run)
        times = [time_run(run, profile) for _ in range(repeat)]
        rows.append({**{name: getattr(run, name) for name in CSV_COLUMNS[:-3]},
                     "repeats": repeat, "mean_seconds": statistics.fmean(times),
                     "stddev_seconds": statistics.stdev(times) if len(times) > 1 else 0.0})
    return rows


def rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _check_types(i: int, entry: dict) -> None:
    """Each given field's value has its ``BenchRun`` type: a bool is not an
    int, and an int is fine for a float."""
    hints = typing.get_type_hints(BenchRun)
    for name in entry.keys() & {f.name for f in fields(BenchRun)}:
        allowed = typing.get_args(hints[name]) or (hints[name],)  # ``int | None`` unpacks
        value = entry[name]
        if float in allowed:
            allowed += (int,)
        if isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed):
            names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
            raise ParseError(f"run {i}: field {name!r} must be {names}, got {value!r}")


def _check_values(i: int, run: BenchRun) -> None:
    """``algo`` is one the harness runs, and ``workers`` is not negative."""
    if run.algo not in ("mew", "mpw"):
        raise ParseError(f"run {i}: field 'algo' must be 'mew' or 'mpw', got {run.algo!r}")
    check_count(f"run {i}: field 'workers'", run.workers, low=0, error=ParseError)


def parse_bench_spec(text: str) -> list[BenchRun]:
    """A JSON array of ``BenchRun`` fields, or an object holding one as ``runs``;
    a missing ``runs``, an entry that is not an object, an unknown field or a
    value of the wrong type or out of range raises ParseError naming the entry."""
    doc = json.loads(text)
    runs = doc.get("runs") if isinstance(doc, dict) else doc
    if not isinstance(runs, list):
        raise ParseError("a bench spec is a JSON array of runs or an object with a 'runs' array")
    parsed = []
    for i, entry in enumerate(runs):
        if isinstance(entry, dict):
            _check_types(i, entry)
        try:
            parsed.append(BenchRun(**entry))
        except TypeError as exc:
            raise ParseError(f"run {i}: malformed entry ({exc})") from exc
        _check_values(i, parsed[-1])
    return parsed
