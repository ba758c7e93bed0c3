"""Output checks, run untimed after the timed rounds.

Each check is either computed apart from the solver code (rank ranges, the
possible-worlds oracle, a second solver route) or is a property every correct
answer has (conservation of score mass, doubly stochastic rank matrices,
invariance of the winners under pruning, grouping and parallelism).  None
compares against stored output.
"""

from __future__ import annotations

import math

import mewvote as mv
import numpy as np
from mewvote.oracle import oracle_expected_scores, oracle_mpw

TOL = 1e-9
DS_SAMPLE = 4          # voters per profile whose m x m rank matrix is checked
ROUTE_SAMPLE = 4       # voters per profile checked against a second solver route


class Checker:
    """Collects failed checks; ``ok`` is false once any check has failed."""

    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, cond: bool, what: str) -> None:
        if cond:
            self.passed += 1
        else:
            self.failures.append(what)

    @property
    def ok(self) -> bool:
        return not self.failures


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def _ancestors(pairs, m: int) -> list[set[int]]:
    """anc[c]: every item preferred to c, by repeated relaxation of the pairs."""
    anc = [set() for _ in range(m)]
    for a, b in pairs:
        anc[b].add(a)
    changed = True
    while changed:
        changed = False
        for c in range(m):
            grown = set(anc[c])
            for a in anc[c]:
                grown |= anc[a]
            if grown != anc[c]:
                anc[c], changed = grown, True
    return anc


def _pairs(obs) -> list[tuple[int, int]]:
    if isinstance(obs, mv.PartialOrder):
        return list(obs.pairs)
    if isinstance(obs, mv.PartialChain):
        return list(zip(obs.chain, obs.chain[1:]))
    return []


def rank_range(obs, m: int) -> tuple[list[int], list[int]]:
    """Best and worst attainable rank (1-based) of every candidate."""
    best, worst = [1] * m, [m] * m
    if isinstance(obs, (mv.PartialOrder, mv.PartialChain)):
        anc = _ancestors(_pairs(obs), m)
        for c in range(m):
            best[c] = 1 + len(anc[c])
            worst[c] = m - sum(1 for d in range(m) if c in anc[d])
    elif isinstance(obs, mv.TruncatedRanking):
        t, b = len(obs.top), len(obs.bottom)
        for c in range(m):
            if c in obs.top:
                best[c] = worst[c] = obs.top.index(c) + 1
            elif c in obs.bottom:
                best[c] = worst[c] = m - b + obs.bottom.index(c) + 1
            else:
                best[c], worst[c] = t + 1, m - b
    elif isinstance(obs, mv.PartitionedPreference):
        sizes = [len(bucket) for bucket in obs.buckets]
        for i, bucket in enumerate(obs.buckets):
            for c in bucket:
                best[c] = 1 + sum(sizes[:i])
                worst[c] = m - sum(sizes[i + 1:])
    return best, worst


def score_bounds(profile: mv.Profile, rule: mv.ScoringRule) -> tuple[np.ndarray, np.ndarray]:
    """Per-candidate expected-score bounds from each voter's rank range."""
    m = profile.m
    scores = np.array(rule.scores)
    lo, hi = np.zeros(m), np.zeros(m)
    for v in profile.voters:
        best, worst = rank_range(v.observation, m)
        hi += v.weight * scores[np.array(best) - 1]
        lo += v.weight * scores[np.array(worst) - 1]
    return lo, hi


def check_mew(ck: Checker, case, ref, results: list, parallel: list) -> None:
    """Timed ``mew`` and ``mew_parallel`` results against the unpruned reference."""
    profile, rule, label = case.profile, case.rule, case.label
    ids = profile.candidates.ids
    lo, hi = score_bounds(profile, rule)
    mass = sum(v.weight for v in profile.voters) * sum(rule.scores)
    for res in [ref] + parallel:
        ck.expect(set(res.expected_scores) == set(ids), f"{label}: unpruned result lacks scores")
        total = sum(res.expected_scores.values())
        ck.expect(abs(total - mass) <= TOL * mass,
                  f"{label}: expected scores sum to {total!r}, not {mass!r}")
    for res in [ref] + results + parallel:
        ck.expect(res.winners == ref.winners,
                  f"{label}: winners {res.winners} differ from unpruned {ref.winners}")
        for name, value in res.expected_scores.items():
            c = profile.candidates.index_of(name)
            slack = TOL * max(1.0, abs(hi[c]))
            ck.expect(lo[c] - slack <= value <= hi[c] + slack,
                      f"{label}: score {value!r} of {name} outside [{lo[c]}, {hi[c]}]")
            ck.expect(_close(value, ref.expected_scores[name]),
                      f"{label}: score {value!r} of {name} differs from unpruned "
                      f"{ref.expected_scores[name]!r}")


def _sample(voters, k: int, keep=lambda v: True) -> list:
    """Up to k distinct voters, spread over the profile."""
    chosen = list({v.group_key(): v for v in voters if keep(v)}.values())
    step = max(1, len(chosen) // k)
    return chosen[::step][:k]


def check_rank_matrices(ck: Checker, case) -> None:
    """For sampled voters, the m x m matrix Pr(c at rank j) is doubly stochastic."""
    m = case.profile.m
    for i, v in enumerate(_sample(case.profile.voters, DS_SAMPLE)):
        matrix = np.array([mv.rep_dispatch(c, v, m) for c in range(m)])
        ok = (matrix.min() >= -TOL and np.allclose(matrix.sum(axis=0), 1.0, rtol=0, atol=TOL)
              and np.allclose(matrix.sum(axis=1), 1.0, rtol=0, atol=TOL))
        ck.expect(ok, f"{case.label}: rank matrix of sampled voter {i} is not doubly stochastic")


def check_poset_route(ck: Checker, case) -> None:
    """Uniform posets: the prefix-set table agrees with the tracked-item DP."""
    m = case.profile.m
    uniform = mv.uniform_rim(tuple(range(m)))
    posets = _sample(case.profile.voters, ROUTE_SAMPLE,
                     lambda v: v.model is None and isinstance(v.observation, mv.PartialOrder))
    for v in posets:
        for c in range(m):
            table = mv.rep_dispatch(c, v, m)
            try:
                tracked = mv.rep_rim_poset(c, uniform, v.observation)
            except mv.CoverWidthExceeded:
                break  # the second route refuses this voter; the next one is checked
            ck.expect(np.allclose(table, tracked, rtol=0, atol=TOL),
                      f"{case.label}: poset routes disagree for candidate {c}")


def check_truncated_route(ck: Checker, case) -> None:
    """Mallows + truncated: bucket restriction agrees with the insertion DP."""
    m = case.profile.m
    voters = _sample(case.profile.voters, ROUTE_SAMPLE,
                     lambda v: isinstance(v.model, mv.MallowsModel)
                     and isinstance(v.observation, mv.TruncatedRanking))
    for v in voters:
        rim = mv.mallows_to_rim(v.model)
        for c in range(m):
            a = mv.rep_mallows_partitioned(c, v.model, v.observation.to_partitioned(m), m)
            b = mv.rep_rim_truncated(c, rim, v.observation)
            ck.expect(np.allclose(a, b, rtol=0, atol=TOL),
                      f"{case.label}: truncated routes disagree for candidate {c}")


def check_mpw(ck: Checker, case, res) -> None:
    """Win probabilities are probabilities, winners are their argmax, and under
    plurality a candidate that no voter can rank first never wins."""
    probs = res.win_probs
    label = case.label
    ck.expect(all(-TOL <= p <= 1 + TOL for p in probs.values()),
              f"{label}: win probability outside [0, 1]")
    ck.expect(sum(probs.values()) >= 1 - TOL, f"{label}: win probabilities sum below 1")
    top = max(probs.values())
    argmax = tuple(c for c in case.profile.candidates.ids if probs[c] >= top - 1e-12)
    ck.expect(res.winners == argmax, f"{label}: winners {res.winners} are not the argmax")
    if case.rule.name == "plurality":
        m = case.profile.m
        never_first = set(range(m))
        for v in case.profile.voters:
            best, _ = rank_range(v.observation, m)
            never_first &= {c for c in range(m) if best[c] > 1}
        for c in never_first:
            name = case.profile.candidates.ids[c]
            ck.expect(probs[name] == 0.0,
                      f"{label}: {name} is never first but wins with {probs[name]!r}")


def check_twin(ck: Checker, case, timed_mpw: list) -> None:
    """Down-scaled twin: MEW scores and MPW probabilities against the oracle."""
    profile, rule, label = case.profile, case.rule, case.label
    ids = profile.candidates.ids
    scores = oracle_expected_scores(profile, rule)
    res = mv.mew(profile, rule, pruning=False, grouping=False)
    ck.expect(all(_close(res.expected_scores[ids[c]], scores[c]) for c in range(profile.m)),
              f"{label}: expected scores differ from the oracle")
    wins = oracle_mpw(profile, rule)
    for r in [mv.mpw(profile, rule)] + timed_mpw:
        check_mpw(ck, case, r)
        ck.expect(all(math.isclose(r.win_probs[ids[c]], wins[c], rel_tol=0, abs_tol=TOL)
                      for c in range(profile.m)),
                  f"{label}: win probabilities differ from the oracle")
