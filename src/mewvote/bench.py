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
from .errors import MewError, ParseError, ValidationError
from .generators import GenSpec, cover_width_profile, generate
from .mpw import mpw
from .preferences import check_count
from .profiles import Profile
from .rep import clear_caches
from .rules import parse_rule


@dataclass(frozen=True)
class BenchRun:
    """One timed configuration, checked as it is built: each field has its declared
    type (a bool is not an int; an int is fine for a float), and ``algo``,
    ``workers``, ``rule`` and its ``GenSpec`` are valid; for ``cover_width``, its
    one-voter profile builds instead (its width is k, an integer in 1..m-1)."""
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

    def __post_init__(self):
        for name, hint in typing.get_type_hints(BenchRun).items():
            allowed = typing.get_args(hint) or (hint,)  # ``int | None`` unpacks
            if float in allowed:
                allowed += (int,)
            value = getattr(self, name)
            if isinstance(value, bool) != (bool in allowed) or not isinstance(value, allowed):
                names = " or ".join("null" if t is type(None) else t.__name__ for t in allowed)
                raise ValidationError(f"field {name!r} must be {names}, got {value!r}")
        if self.algo not in ("mew", "mpw"):
            raise ValidationError(f"field 'algo' must be 'mew' or 'mpw', got {self.algo!r}")
        check_count("field 'workers'", self.workers, low=0)
        if self.kind == "cover_width":  # checks the width against m, and phi
            cover_width_profile(self.m, 1, self.k, self.phi)
        else:
            _gen_spec(self)
        parse_rule(self.rule, self.m)


CSV_COLUMNS = (*(f.name for f in fields(BenchRun) if f.name != "seed"),
               "repeats", "mean_seconds", "stddev_seconds")


def _gen_spec(run: BenchRun) -> GenSpec:
    return GenSpec(**{f.name: getattr(run, f.name) for f in fields(GenSpec)})


def build_profile(run: BenchRun) -> Profile:
    if run.kind == "cover_width":
        return cover_width_profile(run.m, run.n, run.k, run.phi)
    return generate(_gen_spec(run))


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


def parse_bench_spec(text: str) -> list[BenchRun]:
    """A JSON array of ``BenchRun`` fields, or an object holding one as ``runs``;
    a missing ``runs``, an entry that is not an object or has an unknown field,
    and any run ``BenchRun`` refuses raise ParseError naming the entry."""
    doc = json.loads(text)
    runs = doc.get("runs") if isinstance(doc, dict) else doc
    if not isinstance(runs, list):
        raise ParseError("a bench spec is a JSON array of runs or an object with a 'runs' array")
    parsed = []
    for i, entry in enumerate(runs):
        try:
            parsed.append(BenchRun(**entry))
        except TypeError as exc:
            raise ParseError(f"run {i}: malformed entry ({exc})") from exc
        except MewError as exc:
            raise ParseError(f"run {i}: {exc}") from exc
    return parsed
