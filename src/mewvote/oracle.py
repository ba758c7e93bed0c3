"""Brute-force ground truth by explicit possible-world enumeration.

Everything here recomputes posteriors by direct enumeration and filtering,
on purpose sharing no code with the rank-estimation solvers it is used to
check: it imports the data modules and none of ``rep``, ``engine``, ``mpw``
or ``bench``.  Caps are explicit and loud; nothing is ever sampled.

A weighted voter (multiplicity w) is expanded into w independent copies, so
possible-world semantics match a profile in which the voter literally appears
w times.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge, ValidationError, ZeroPosterior
from .models import MallowsModel, RimModel, RsmRankingModel, kendall_tau, rim_probability, rsm_probability
from .preferences import (
    PartialChain,
    PartialOrder,
    PartitionedPreference,
    Ranking,
    TruncatedRanking,
)
from .profiles import Profile, Voter
from .rules import ScoringRule, check_rule_size, integer_scores

DEFAULT_WORLD_CAP = 1_000_000
ENUMERATION_M_CAP = 10


def world_cap() -> int:
    env = os.environ.get("MEW_ENUM_CAP")
    if env and not (env.isdecimal() and int(env) >= 1):
        raise ValidationError(f"MEW_ENUM_CAP must be a positive integer, got {env!r}")
    return int(env) if env else DEFAULT_WORLD_CAP


@dataclass(frozen=True)
class PossibleWorld:
    rankings: tuple[Ranking, ...]
    prob: float


def _satisfies(perm: Ranking, obs) -> bool:
    pos = {c: j for j, c in enumerate(perm)}
    if obs is None:
        return True
    if isinstance(obs, PartialOrder):
        return all(pos[a] < pos[b] for a, b in obs.pairs)
    if isinstance(obs, PartialChain):
        return all(pos[obs.chain[i]] < pos[obs.chain[i + 1]]
                   for i in range(len(obs.chain) - 1))
    if isinstance(obs, PartitionedPreference):
        level = {}
        for i, bucket in enumerate(obs.buckets):
            for c in bucket:
                level[c] = i
        ordered = [level[c] for c in perm if c in level]
        return all(ordered[i] <= ordered[i + 1] for i in range(len(ordered) - 1))
    if isinstance(obs, TruncatedRanking):
        t, b = len(obs.top), len(obs.bottom)
        return perm[:t] == obs.top and (b == 0 or perm[-b:] == obs.bottom)
    raise TypeError(f"unknown observation {type(obs).__name__}")


def _model_weight(perm: Ranking, model) -> float:
    if model is None:
        return 1.0
    if isinstance(model, MallowsModel):
        return model.phi ** kendall_tau(model.sigma, perm)
    if isinstance(model, RimModel):
        return rim_probability(perm, model)
    if isinstance(model, RsmRankingModel):
        return rsm_probability(perm, model)
    raise TypeError(f"unknown model {type(model).__name__}")


def voter_posterior(voter: Voter, m: int) -> list[tuple[Ranking, float]]:
    """Support of one voter's posterior, by filtering all m! permutations."""
    if m > ENUMERATION_M_CAP:
        raise TooLarge(f"m={m} exceeds oracle enumeration cap {ENUMERATION_M_CAP}")
    support = []
    for perm in itertools.permutations(range(m)):
        if not _satisfies(perm, voter.observation):
            continue
        w = _model_weight(perm, voter.model)
        if w > 0.0:
            support.append((perm, w))
    total = sum(w for _, w in support)
    if total <= 0.0:
        raise ZeroPosterior("voter's observation has zero probability under the model")
    return [(perm, w / total) for perm, w in support]


def _expanded_posteriors(profile: Profile, cap: int | None) -> list[list[tuple[Ranking, float]]]:
    cap = world_cap() if cap is None else cap
    posteriors = []
    count = 1
    for voter in profile.voters:
        post = voter_posterior(voter, profile.m)
        for _ in range(voter.weight):
            posteriors.append(post)
            count *= len(post)
            if count > cap:
                raise TooLarge(f"possible-world count exceeds cap {cap}")
    return posteriors


def count_worlds(profile: Profile) -> int:
    n = 1
    for voter in profile.voters:
        n *= len(voter_posterior(voter, profile.m)) ** voter.weight
    return n


def enumerate_worlds(profile: Profile, cap: int | None = None):
    """Yield every possible world with its probability."""
    posteriors = _expanded_posteriors(profile, cap)
    for combo in itertools.product(*posteriors):
        prob = 1.0
        for _, p in combo:
            prob *= p
        yield PossibleWorld(tuple(r for r, _ in combo), prob)


def fcp_count(c: int, j: int, p: PartialOrder, m: int) -> int:
    """Number of linear extensions of ``p`` placing ``c`` at rank ``j``."""
    if m > ENUMERATION_M_CAP:
        raise TooLarge(f"m={m} exceeds oracle enumeration cap {ENUMERATION_M_CAP}")
    count = 0
    for perm in itertools.permutations(range(m)):
        if perm[j - 1] == c and _satisfies(perm, p):
            count += 1
    return count


def oracle_rank_distribution(voter: Voter, c: int, m: int) -> np.ndarray:
    """Posterior Pr(c -> j) for one voter, for checking the fast solvers."""
    probs = np.zeros(m)
    for perm, p in voter_posterior(voter, m):
        probs[perm.index(c)] += p
    return probs


def oracle_expected_scores(profile: Profile, rule: ScoringRule,
                           cap: int | None = None) -> np.ndarray:
    """Per-candidate expected score, summed world by world."""
    m = profile.m
    scores = np.zeros(m)
    for world in enumerate_worlds(profile, cap):
        for ranking in world.rankings:
            for j, c in enumerate(ranking):
                scores[c] += world.prob * rule.scores[j]
    return scores


def _world_winners(rankings, int_scores, m: int) -> list[int]:
    totals = [0] * m
    for ranking in rankings:
        for j, c in enumerate(ranking):
            totals[c] += int_scores[j]
    top = max(totals)
    return [c for c in range(m) if totals[c] == top]


def oracle_mpw(profile: Profile, rule: ScoringRule, cap: int | None = None) -> np.ndarray:
    """Per-candidate probability of being a co-winner in a random world."""
    m = profile.m
    int_scores = integer_scores(rule)
    wins = np.zeros(m)
    for world in enumerate_worlds(profile, cap):
        for c in _world_winners(world.rankings, int_scores, m):
            wins[c] += world.prob
    return wins


def meta_profile(profile: Profile, cap: int | None = None) -> list[tuple[Ranking, float]]:
    """All worlds' rankings, each weighted by its world's probability."""
    out = []
    for world in enumerate_worlds(profile, cap):
        for ranking in world.rankings:
            out.append((ranking, world.prob))
    return out


def meta_scores(meta: list[tuple[Ranking, float]], rule: ScoringRule, m: int) -> np.ndarray:
    scores = np.zeros(m)
    for ranking, w in meta:
        for j, c in enumerate(ranking):
            scores[c] += w * rule.scores[j]
    return scores


def oracle_expected_regret(c: int, profile: Profile, rule: ScoringRule,
                           cap: int | None = None) -> float:
    """E[ max candidate score in world - c's score in world ]; minimized by
    the winners."""
    check_rule_size(rule, profile.m)
    m = profile.m
    total = 0.0
    for world in enumerate_worlds(profile, cap):
        scores = [0.0] * m
        for ranking in world.rankings:
            for j, x in enumerate(ranking):
                scores[x] += rule.scores[j]
        total += world.prob * (max(scores) - scores[c])
    return total
