"""Profile-level expected-score aggregation and winner determination.

One loop computes every result: identical voters are grouped into
``(voter, total weight)`` pairs, and each group in turn adds its weighted
exact expected score to every candidate still alive, in one ``rep_dispatch``
call.  With pruning on, ``rep.closed_form`` groups go first, and uniform posets
too while 2^m is within ``SOLVE_FIRST_IDEALS`` and ``preferences.IDEAL_BUDGET``.
Each candidate's score then lies in an interval: its exact score so far plus
the unsolved groups' worst and best, read from a table of those groups'
weighted worst-rank and best-rank scores (a group solved first adds 0).  Once
those first groups are all in, after each group a candidate whose interval
ends below the best interval start is dropped, keeping the interval it was
dropped at.  A zero-width interval is reported as a score.
Grouping never changes the winner set, nor does pruning when every group
solves.  Pruning stops once one candidate is alive, so a group it never
reaches cannot raise: a voter whose observation has zero posterior, or one
past a solver budget, then gives winners where ``pruning=False`` raises.
The parallel mode runs the same loop with pruning off, solving in the caller
until the work left looks long enough to pay for a fork (``FORK_AFTER_S``);
it then solves one share of what is left in the caller and the others in
forked children.  Its output is bit-identical for any worker count and any
fork point, and equals ``mew(pruning=False)``.

The engine solves through ``rep`` alone; the possible-worlds oracle that
checks it (and owns the expected regret) is never imported here.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, replace
from multiprocessing import get_context
from typing import Callable

import numpy as np

from . import preferences
from .errors import InvalidRule, MewError
from .preferences import check_count, rank_bounds
from .profiles import Profile, Voter
from .rep import closed_form, rep_dispatch, shared_table
from .rules import ScoringRule, check_rule_size

# the tie tolerance, and the pruning margin too: a narrower margin could prune a co-winner
WINNER_REL_TOL = 1e-9
# seconds of solving after which ``mew_parallel`` may fork, read at each call: the
# about 4 ms a fork and join added to a call on a 2-core box with the other core
# idle.  A call that forks with that much work left, or waits that long before
# forking, then loses at most about 2 ms to the better choice.
FORK_AFTER_S = 0.004
# pruning solves uniform posets before any bound while 2^m is within this, read at each
# call: a stop that skips one saves its table, for a star 2 ms against 0.05 ms to bound
# at m = 10, the largest the benchmark runs, but 0.56 s at m = 18 (2-core box)
SOLVE_FIRST_IDEALS = 1 << 10


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
    return float(np.dot(rep_dispatch(c, voter, rule.m), rule.score_array))


def _scores(voter: Voter, cands: list[int], rule: ScoringRule) -> list[float]:
    """``expected_score`` of each of ``cands``, on the rows of one ``rep_dispatch`` call."""
    return [float(np.dot(row, rule.score_array)) for row in rep_dispatch(cands, voter, rule.m)]


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


def _pending(groups: list[tuple[Voter, int]], order: list[int], rule: ScoringRule,
             first: int) -> tuple[list[list[float]], list[list[float]]]:
    """Rows ``hi[k]``, ``lo[k]`` for k = 0..len(order): the weighted scores at
    the best and the worst attainable rank, summed over the groups
    ``order[k:]`` not solved yet.  The last row is 0; the groups
    ``order[:first]`` add 0, since they are solved before any bound is used."""
    m = rule.m
    hi, lo = [[0.0] * m], [[0.0] * m]
    for k in reversed(range(len(order))):
        voter, weight = groups[order[k]]
        h, l = hi[-1], lo[-1]
        if k >= first:
            ranks = [rank_bounds(c, voter.observation, m) for c in range(m)]
            h = [h[c] + weight * rule.scores[b - 1] for c, (b, _) in enumerate(ranks)]
            l = [l[c] + weight * rule.scores[w - 1] for c, (_, w) in enumerate(ranks)]
        hi.append(h)
        lo.append(l)
    return hi[::-1], lo[::-1]


def _solve(profile: Profile, rule: ScoringRule, groups: list[tuple[Voter, int]],
           group_scores: Callable[[int, list[int]], list[float]], pruning: bool,
           t0: float) -> MewResult:
    """The engine loop; ``group_scores(gi, cands)`` are the exact scores of
    candidates ``cands`` from one voter of group ``gi``."""
    m = profile.m
    alive = set(range(m))
    exact = [0.0] * m
    order, first = list(range(len(groups))), len(groups)
    if pruning:  # cheap groups first, with no bound: closed-form ones, and small uniform
        # posets, whose table cannot raise (a component of k items has at most 2^k ideals)
        small = 2 ** m <= min(SOLVE_FIRST_IDEALS, preferences.IDEAL_BUDGET)
        cheap = (lambda v: v.model is None) if small else closed_form
        order.sort(key=lambda gi: not cheap(groups[gi][0]))
        first = sum(cheap(v) for v, _ in groups)
    hi, lo = _pending(groups, order, rule, first)
    solved = {}  # a pruned candidate -> the groups solved when it was pruned
    k = 0
    while True:
        if pruning and k >= first:  # a bound holds once those groups are all in
            top = max(exact[c] + lo[k][c] for c in alive)
            eps = WINNER_REL_TOL * max(1.0, abs(top))
            solved.update((c, k) for c in alive if exact[c] + hi[k][c] < top - eps)
            alive -= solved.keys()
        if k == len(order) or len(alive) == 1:  # only pruning stops early, since m >= 2
            break
        cands = sorted(alive)
        weight = groups[order[k]][1]
        for c, e in zip(cands, group_scores(order[k], cands)):
            exact[c] += weight * e
        k += 1

    # each candidate's interval is its exact score so far plus the unsolved
    # groups' worst and best: a pruned one's as it was pruned, and a zero-width
    # one is a score
    ids = profile.candidates.ids
    scores: dict[int, float] = {}
    bounds: dict[str, tuple[float, float]] = {}
    for c in range(m):
        kc = solved.get(c, k)
        low, high = exact[c] + lo[kc][c], exact[c] + hi[kc][c]
        if low == high:
            scores[c] = high
        else:
            bounds[ids[c]] = (low, high)
    # the winners tie at the top of the survivors' upper ends: a lone survivor
    # wins on any interval, and several survive only when all are solved
    top = max(exact[c] + hi[k][c] for c in alive)
    tol = WINNER_REL_TOL * max(1.0, abs(top))
    winners = tuple(ids[c] for c in sorted(alive) if exact[c] + hi[k][c] >= top - tol)
    pruned = tuple(ids[c] for c in range(m) if c not in alive)
    stats = MewStats(voters=profile.n, groups=len(groups), prunings=len(pruned),
                     seconds=time.perf_counter() - t0)
    return MewResult(winners, {ids[c]: s for c, s in scores.items()}, bounds, pruned, stats)


def mew(profile: Profile, rule: ScoringRule, *,
        pruning: bool = True, grouping: bool = True) -> MewResult:
    """Most-expected-winner set; identical for every pruning/grouping setting,
    unless pruning skips a group that would raise (see the module docstring)."""
    t0 = time.perf_counter()
    check_rule_size(rule, profile.m)
    groups = _grouped(profile, grouping)
    return _solve(profile, rule, groups, lambda gi, cands: _scores(groups[gi][0], cands, rule),
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


def _fork_pays(spent: float, solved: int, left: int) -> bool:
    """Whether ``mew_parallel``, ``spent`` seconds into solving and past
    ``FORK_AFTER_S``, forks now: the ``left`` (group, candidate) units still to
    solve would take at least ``FORK_AFTER_S`` more at the pace of the ``solved``
    ones."""
    return spent * left >= FORK_AFTER_S * solved


def _forked_scores(groups: list[tuple[Voter, int]], rule: ScoringRule, workers: int,
                   rest: list[tuple[int, list[int]]]) -> tuple[dict[tuple[int, int], float], int]:
    """The scores of the (group, candidates) pairs ``rest``, by (group, candidate),
    and the number of shares, each solved by its own process.

    Each group's candidates are cut into ``ceil(workers / len(rest))`` slices, and
    the (group, slice) units are dealt round-robin into at most ``workers``
    shares.  A group whose rows are read from one ``rep.shared_table`` has that
    table built here before any fork when its candidates are split, so it is
    built once, not once per share.  This process solves share 0 while each
    other share runs in a forked child.
    """
    k = min(rule.m, -(-workers // len(rest)))  # candidate slices per group
    if k > 1:  # the children inherit the built tables
        for gi, _ in rest:
            shared_table(groups[gi][0], rule.m)
    units = [(gi, cands[j::k]) for gi, cands in rest for j in range(min(k, len(cands)))]
    shares = [[(gi, c) for gi, cands in units[i::workers] for c in cands]
              for i in range(min(workers, len(units)))]
    parts = _run_shares(lambda share: [expected_score(c, groups[gi][0], rule)
                                       for gi, c in share], shares)
    return ({pair: s for share, part in zip(shares, parts) for pair, s in zip(share, part)},
            len(shares))


def mew_parallel(profile: Profile, rule: ScoringRule, workers: int = 1) -> MewResult:
    """Winner determination with the scoring work split across processes.

    The engine loop runs with pruning off and solves each group's candidates
    here, in order.  Before each (group, candidate) unit it checks whether a
    fork pays (``_fork_pays``): once ``FORK_AFTER_S`` seconds went into solving
    and the units left would take that long again, the rest of this group and
    the later groups are dealt across ``workers`` processes
    (``_forked_scores``), and the loop goes on from their scores.  Set
    ``engine.FORK_AFTER_S = 0`` to deal the whole profile at once.  Every score
    is an ``expected_score`` call, whose arithmetic and row ``mew``'s ``_scores``
    share, added in group order, so the result is bit-identical for any worker
    count and fork point and equals ``mew(pruning=False)``.  ``stats.workers`` counts the processes
    that solved: 1 with no fork, else the shares dealt.
    """
    t0 = time.perf_counter()
    check_rule_size(rule, profile.m)
    workers = check_count("workers", workers, error=InvalidRule)
    groups = _grouped(profile, grouping=True)
    forked: dict[tuple[int, int], float] = {}  # set once, by the one fork
    used = 1  # the processes that solved
    start = time.perf_counter()
    due = start + FORK_AFTER_S if workers > 1 else float("inf")

    def group_scores(gi: int, cands: list[int]) -> list[float]:
        nonlocal forked, used
        if forked:
            return [forked[gi, c] for c in cands]
        voter, m, scores = groups[gi][0], len(cands), []  # pruning off: m candidates a group
        for j, c in enumerate(cands):
            now = time.perf_counter()
            if now >= due and _fork_pays(now - start, gi * m + j, (len(groups) - gi) * m - j):
                rest = [(gi, cands[j:])] + [(g, cands) for g in range(gi + 1, len(groups))]
                forked, used = _forked_scores(groups, rule, workers, rest)
                return scores + [forked[gi, c] for c in cands[j:]]
            scores.append(expected_score(c, voter, rule))
        return scores

    res = _solve(profile, rule, groups, group_scores, pruning=False, t0=t0)
    return replace(res, stats=replace(res.stats, workers=used))
