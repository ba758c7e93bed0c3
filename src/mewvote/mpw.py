"""Most-probable-winner computation by score-vector dynamic programming.

States are exact integer score vectors (one entry per candidate, rule scores
scaled to integers), mapped to probabilities.  Each voter contributes a
distribution over per-world score assignments; identical score vectors are
merged after every voter.  For rules where a single rank position determines
the whole assignment (plurality- and veto-like vectors) the assignment
distribution collapses to a rank marginal and is computed in closed form;
otherwise the voter's completions are enumerated and weighted by the model
posterior.

State counts generally grow quickly with the number of voters; the explicit
``state_cap`` turns that growth into a loud error instead of a hang.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import TooLarge
from .profiles import Profile
from .rep import Voter, rep_dispatch, voter_support
from .rules import ScoringRule, check_rule_size, integer_scores


@dataclass(frozen=True)
class MpwResult:
    winners: tuple[str, ...]
    win_probs: dict[str, float]
    worlds_explored: int
    seconds: float = 0.0

STATE_CAP = 10_000_000
WIN_PROB_TOL = 1e-12


def _assignment_deltas(voter: Voter, m: int, int_scores: tuple[int, ...],
                       support_cap: int) -> list[tuple[tuple[int, ...], float]]:
    """Distribution over the integer score vectors one voter can contribute."""
    base, rest = int_scores[0], int_scores[1:]
    plurality_like = all(s == rest[0] for s in rest) and base > rest[0]
    veto_like = all(s == base for s in int_scores[:-1]) and int_scores[-1] < base

    if plurality_like or veto_like:
        rank = 0 if plurality_like else m - 1
        fill = int_scores[1] if plurality_like else int_scores[0]
        special = int_scores[0] if plurality_like else int_scores[-1]
        out = []
        for c in range(m):
            p = float(rep_dispatch(c, voter, m)[rank])
            if p > 0.0:
                delta = tuple(special if x == c else fill for x in range(m))
                out.append((delta, p))
        return out

    merged: dict[tuple[int, ...], float] = {}
    for ranking, p in voter_support(voter, m, cap=support_cap):
        delta = [0] * m
        for j, c in enumerate(ranking):
            delta[c] = int_scores[j]
        key = tuple(delta)
        merged[key] = merged.get(key, 0.0) + p
    return list(merged.items())


def mpw(profile: Profile, rule: ScoringRule, *,
        state_cap: int = STATE_CAP, support_cap: int = 1_000_000) -> MpwResult:
    """Winning probability of every candidate over the possible worlds."""
    t0 = time.perf_counter()
    check_rule_size(rule, profile.m)
    m = profile.m
    int_scores = integer_scores(rule)

    states: dict[tuple[int, ...], float] = {(0,) * m: 1.0}
    worlds_explored = 1
    for voter in profile.voters:
        deltas = _assignment_deltas(voter, m, int_scores, support_cap)
        for _ in range(voter.weight):  # a weight-w voter is w independent voters
            nstates: dict[tuple[int, ...], float] = {}
            for sv, p in states.items():
                for dv, q in deltas:
                    key = tuple(a + b for a, b in zip(sv, dv))
                    nstates[key] = nstates.get(key, 0.0) + p * q
                    if len(nstates) > state_cap:
                        raise TooLarge(f"score-vector states exceed cap {state_cap}")
            states = nstates
            worlds_explored += len(states)

    win = [0.0] * m
    for sv, p in states.items():
        top = max(sv)
        for c in range(m):
            if sv[c] == top:
                win[c] += p

    ids = profile.candidates.ids
    best = max(win)
    winners = tuple(ids[c] for c in range(m) if win[c] >= best - WIN_PROB_TOL)
    return MpwResult(winners, {ids[c]: win[c] for c in range(m)}, worlds_explored,
                     time.perf_counter() - t0)
