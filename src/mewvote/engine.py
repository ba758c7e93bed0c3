"""Profile-level expected-score aggregation and winner determination.

One loop computes every result: identical voters are grouped into weighted
groups, and each group in turn adds its weighted exact expected score to every
candidate still alive.  With pruning on, per-candidate score bounds are first
seeded from best/worst attainable ranks; each group's exact contribution then
replaces its bound contribution, and candidates whose upper bound falls below
the best lower bound are dropped.  Pruning and grouping never change the
winner set.  The parallel mode computes the groups' score vectors across
worker processes and runs the same loop with pruning off, so its output is
bit-identical for any worker count and equals ``mew(pruning=False)``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable

import numpy as np

from .errors import InvalidRule
from .preferences import rank_bounds
from .profiles import Profile
from .rep import Voter, rep_dispatch
from .rules import ScoringRule, check_rule_size

WINNER_REL_TOL = 1e-9
PRUNE_REL_TOL = 1e-9


@dataclass(frozen=True)
class MewStats:
    voters: int
    groups: int
    prunings: int
    seconds: float
    workers: int = 1


@dataclass(frozen=True)
class MewResult:
    winners: tuple[str, ...]
    expected_scores: dict[str, float]
    bounds: dict[str, tuple[float, float]]
    pruned: tuple[str, ...]
    stats: MewStats


@dataclass(frozen=True)
class _Group:
    voter: Voter      # weight-1 view used for solver calls
    weight: int
    first_index: int


def expected_score(c: int, voter: Voter, rule: ScoringRule) -> float:
    """Expected score of candidate ``c`` from a single voter (weight excluded)."""
    dist = rep_dispatch(c, voter, rule.m)
    return float(np.dot(dist, rule.scores))


def _grouped(profile: Profile, grouping: bool) -> list[_Group]:
    if not grouping:
        return [_Group(Voter(v.model, v.observation), v.weight, i)
                for i, v in enumerate(profile.voters)]
    groups: list[_Group] = []
    index: dict[tuple, int] = {}
    for i, v in enumerate(profile.voters):
        key = v.group_key()
        if key in index:
            g = groups[index[key]]
            groups[index[key]] = _Group(g.voter, g.weight + v.weight, g.first_index)
        else:
            index[key] = len(groups)
            groups.append(_Group(Voter(v.model, v.observation), v.weight, i))
    groups.sort(key=lambda g: (-g.weight, g.first_index))
    return groups


def _winner_ids(profile: Profile, scores: dict[int, float]) -> tuple[str, ...]:
    top = max(scores.values())
    tol = WINNER_REL_TOL * max(1.0, abs(top))
    return tuple(profile.candidates.ids[c] for c in sorted(scores)
                 if scores[c] >= top - tol)


def _seed_bounds(groups: list[_Group], rule: ScoringRule) -> tuple[np.ndarray, np.ndarray]:
    """Per-(group, candidate) scores at the best and the worst attainable rank."""
    m = rule.m
    best = np.empty((len(groups), m))
    worst = np.empty((len(groups), m))
    for gi, g in enumerate(groups):
        for c in range(m):
            b, w = rank_bounds(c, g.voter.observation, m)
            best[gi, c] = rule.scores[b - 1]
            worst[gi, c] = rule.scores[w - 1]
    return best, worst


def _survivors(alive: set[int], ub: list[float], lb: list[float]) -> set[int]:
    max_lb = max(lb[c] for c in alive)
    eps = PRUNE_REL_TOL * max(1.0, abs(max_lb))
    return {c for c in alive if ub[c] >= max_lb - eps}


def _solve(profile: Profile, rule: ScoringRule, groups: list[_Group],
           group_scores: Callable[[int, list[int]], list[float]], pruning: bool,
           t0: float, workers: int = 1) -> MewResult:
    """The engine loop; ``group_scores(gi, cands)`` are the exact scores of
    candidates ``cands`` from one voter of group ``gi``."""
    m = profile.m
    alive = set(range(m))
    exact = [0.0] * m
    groups_done = [0] * m
    if pruning:
        best, worst = _seed_bounds(groups, rule)
        weights = np.array([g.weight for g in groups], dtype=float)
        ub = [float(v) for v in weights @ best]
        lb = [float(v) for v in weights @ worst]
        alive = _survivors(alive, ub, lb)

    for gi, g in enumerate(groups):
        if len(alive) == 1:  # only pruning gets here, since m >= 2
            break
        cands = sorted(alive)
        for c, e in zip(cands, group_scores(gi, cands)):
            exact[c] += g.weight * e
            groups_done[c] += 1
            if pruning:
                ub[c] += g.weight * (e - best[gi, c])
                lb[c] += g.weight * (e - worst[gi, c])
        if pruning:
            alive = _survivors(alive, ub, lb)

    # a score is fully determined once all groups contributed exactly, or once
    # the optimistic and pessimistic bounds coincide (only pruning leaves a
    # group out); a pruned candidate's bounds are the ones it was pruned at,
    # since it is never refined again
    score_of: dict[int, float] = {}
    open_bounds: dict[int, tuple[float, float]] = {}
    for c in range(m):
        if groups_done[c] == len(groups):
            score_of[c] = exact[c]
        elif ub[c] == lb[c]:
            score_of[c] = ub[c]
        else:
            open_bounds[c] = (lb[c], ub[c])
    ids = profile.candidates.ids
    if alive <= score_of.keys():
        winners = _winner_ids(profile, {c: score_of[c] for c in alive})
    else:  # early return: a single survivor with partially refined bounds
        winners = tuple(ids[c] for c in sorted(alive))
    pruned = tuple(ids[c] for c in range(m) if c not in alive)
    stats = MewStats(voters=profile.n, groups=len(groups), prunings=len(pruned),
                     seconds=time.perf_counter() - t0, workers=workers)
    return MewResult(winners, {ids[c]: s for c, s in score_of.items()},
                     {ids[c]: b for c, b in open_bounds.items()}, pruned, stats)


def mew(profile: Profile, rule: ScoringRule, *,
        pruning: bool = True, grouping: bool = True) -> MewResult:
    """Most-expected-winner set; identical for every pruning/grouping setting."""
    t0 = time.perf_counter()
    check_rule_size(rule, profile.m)
    groups = _grouped(profile, grouping)
    return _solve(profile, rule, groups,
                  lambda gi, cands: [expected_score(c, groups[gi].voter, rule) for c in cands],
                  pruning, t0)


# ---------------------------------------------------------------------------
# Deterministic parallel mode (pruning off)


def _score_chunk(chunk: list[tuple[int, Voter]],
                 rule: ScoringRule) -> list[tuple[int, list[float]]]:
    return [(gi, [expected_score(c, voter, rule) for c in range(rule.m)])
            for gi, voter in chunk]


def mew_parallel(profile: Profile, rule: ScoringRule, workers: int = 1) -> MewResult:
    """Winner determination with voter groups split across worker processes.

    Each group's score vector is computed in a worker, then the engine loop
    runs with pruning off, so the result is bit-identical for any worker count
    and equals ``mew(pruning=False)``.
    """
    t0 = time.perf_counter()
    check_rule_size(rule, profile.m)
    if workers < 1:
        raise InvalidRule(f"workers must be >= 1, got {workers}")
    groups = _grouped(profile, grouping=True)
    indexed = list(enumerate(g.voter for g in groups))
    chunks = [indexed[i::workers] for i in range(min(workers, len(indexed)))]
    if len(chunks) < 2:  # a pool would run everything on one worker anyway
        vectors = dict(_score_chunk(indexed, rule))
    else:
        ctx = get_context("fork")
        with ProcessPoolExecutor(max_workers=len(chunks), mp_context=ctx) as ex:
            parts = ex.map(_score_chunk, chunks, [rule] * len(chunks))
            vectors = {gi: vec for part in parts for gi, vec in part}
    return _solve(profile, rule, groups, lambda gi, cands: [vectors[gi][c] for c in cands],
                  pruning=False, t0=t0, workers=workers)


def expected_regret(c: int, profile: Profile, rule: ScoringRule,
                    cap: int | None = None) -> float:
    """Expected (best-in-world score minus c's score); minimized by the winners."""
    from .oracle import oracle_expected_regret

    check_rule_size(rule, profile.m)
    return oracle_expected_regret(c, profile, rule, cap)
