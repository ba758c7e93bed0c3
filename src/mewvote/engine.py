"""Profile-level expected-score aggregation and winner determination.

One loop computes every result: identical voters are grouped into
``(voter, total weight)`` pairs, and each group in turn adds its weighted
exact expected score to every candidate still alive.  With pruning on,
per-candidate score bounds are first seeded from best/worst attainable ranks;
each group's exact contribution then replaces its bound contribution, and
candidates whose upper bound falls below the best lower bound are dropped.
Pruning and grouping never change the winner set.  The parallel mode solves
one share of the scores in the caller and the others in forked children, then
runs the same loop with pruning off, so its output is bit-identical for any
worker count and equals ``mew(pruning=False)``.

The engine solves through ``rep`` alone; the possible-worlds oracle that
checks it (and owns the expected regret) is never imported here.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Callable

import numpy as np

from .errors import InvalidRule, MewError
from .preferences import rank_bounds
from .profiles import Profile, Voter
from .rep import rep_dispatch
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


def expected_score(c: int, voter: Voter, rule: ScoringRule) -> float:
    """Expected score of candidate ``c`` from a single voter (weight excluded)."""
    dist = rep_dispatch(c, voter, rule.m)
    return float(np.dot(dist, rule.score_array))


def _grouped(profile: Profile, grouping: bool) -> list[tuple[Voter, int]]:
    """(voter, total weight) pairs.  Grouped, one per distinct (model,
    observation), heaviest first and ties in order of first appearance;
    ungrouped, every voter with its own weight in profile order."""
    if not grouping:
        return [(v, v.weight) for v in profile.voters]
    groups: dict[tuple, list] = {}
    for v in profile.voters:
        groups.setdefault(v.group_key(), [v, 0])[1] += v.weight
    return sorted(((v, w) for v, w in groups.values()), key=lambda g: -g[1])


def _winner_ids(profile: Profile, scores: dict[int, float]) -> tuple[str, ...]:
    top = max(scores.values())
    tol = WINNER_REL_TOL * max(1.0, abs(top))
    return tuple(profile.candidates.ids[c] for c in sorted(scores)
                 if scores[c] >= top - tol)


def _seed_bounds(groups: list[tuple[Voter, int]],
                 rule: ScoringRule) -> tuple[np.ndarray, np.ndarray]:
    """Per-(group, candidate) scores at the best and the worst attainable rank."""
    m = rule.m
    best = np.empty((len(groups), m))
    worst = np.empty((len(groups), m))
    for gi, (voter, _) in enumerate(groups):
        for c in range(m):
            b, w = rank_bounds(c, voter.observation, m)
            best[gi, c] = rule.scores[b - 1]
            worst[gi, c] = rule.scores[w - 1]
    return best, worst


def _survivors(alive: set[int], ub: list[float], lb: list[float]) -> set[int]:
    max_lb = max(lb[c] for c in alive)
    eps = PRUNE_REL_TOL * max(1.0, abs(max_lb))
    return {c for c in alive if ub[c] >= max_lb - eps}


def _solve(profile: Profile, rule: ScoringRule, groups: list[tuple[Voter, int]],
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
        weights = np.array([w for _, w in groups], dtype=float)
        ub = [float(v) for v in weights @ best]
        lb = [float(v) for v in weights @ worst]
        alive = _survivors(alive, ub, lb)

    for gi, (_, weight) in enumerate(groups):
        if len(alive) == 1:  # only pruning gets here, since m >= 2
            break
        cands = sorted(alive)
        for c, e in zip(cands, group_scores(gi, cands)):
            exact[c] += weight * e
            groups_done[c] += 1
            if pruning:
                ub[c] += weight * (e - best[gi, c])
                lb[c] += weight * (e - worst[gi, c])
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
                  lambda gi, cands: [expected_score(c, groups[gi][0], rule) for c in cands],
                  pruning, t0)


# ---------------------------------------------------------------------------
# Deterministic parallel mode (pruning off)


def _run_shares(fn: Callable, shares: list) -> list:
    """``[fn(share) for share in shares]``, share 0 here and each other in a forked child."""
    def child(send, share):  # sends (True, fn(share)) or (False, exception)
        try:
            send.send((True, fn(share)))
        except Exception as exc:  # re-raised in the caller with its own type
            send.send((False, exc))

    ctx = get_context("fork")  # nothing is pickled on the way in
    sys.stdout.flush()  # or a child would write out the caller's buffers again
    sys.stderr.flush()
    children, done = [], False
    try:
        for share in shares[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(send, share))
            proc.start()
            children.append((proc, recv))
            send.close()
        results = [fn(shares[0])]
        for proc, recv in children:
            try:
                ok, value = recv.recv()
            except EOFError:
                proc.join()
                raise MewError(f"worker exited with code {proc.exitcode} before sending") from None
            if not ok:
                raise value
            results.append(value)
        done = True
        return results
    finally:  # every child is joined, and first terminated if the caller is unwinding
        for proc, recv in children:
            if not done:
                proc.terminate()
            recv.close()
            proc.join()


def mew_parallel(profile: Profile, rule: ScoringRule, workers: int = 1) -> MewResult:
    """Winner determination with the scoring work split across processes.

    Each group's candidates are cut into ``ceil(workers / groups)`` slices, and
    the (group, slice) units are dealt round-robin into ``min(workers, units)``
    shares.  This process solves share 0 while each other share runs in a forked
    child; the engine loop then runs with pruning off, so the result is
    bit-identical for any worker count and equals ``mew(pruning=False)``.
    """
    t0 = time.perf_counter()
    check_rule_size(rule, profile.m)
    if workers < 1:
        raise InvalidRule(f"workers must be >= 1, got {workers}")
    groups = _grouped(profile, grouping=True)
    k = min(rule.m, -(-workers // len(groups)))  # candidate slices per group
    units = [(gi, range(j, rule.m, k)) for gi in range(len(groups)) for j in range(k)]
    shares = [[(gi, c) for gi, cands in units[i::workers] for c in cands]
              for i in range(min(workers, len(units)))]
    parts = _run_shares(lambda share: [expected_score(c, groups[gi][0], rule)
                                       for gi, c in share], shares)
    scores = {pair: s for share, part in zip(shares, parts) for pair, s in zip(share, part)}
    return _solve(profile, rule, groups, lambda gi, cands: [scores[gi, c] for c in cands],
                  pruning=False, t0=t0, workers=workers)
