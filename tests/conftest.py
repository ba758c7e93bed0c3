"""Shared builders for randomized solver-vs-oracle instances."""

from pathlib import Path

import pytest

import mewvote.models
import mewvote.preferences
import mewvote.rep
from mewvote import (
    MallowsModel,
    PartialChain,
    PartialOrder,
    PartitionedPreference,
    Profile,
    TruncatedRanking,
    Voter,
    candidate_set,
    mallows_to_rim,
    mallows_to_rsm,
)
from mewvote.oracle import voter_posterior

DATA = Path(__file__).parent / "data"

OBSERVATION_KINDS = ("poset", "fp", "pp", "chain", "truncated", "ranking")
MODEL_KINDS = ("uniform", "mallows", "rim")


@pytest.fixture
def data_dir() -> Path:
    return DATA


def solver_caches():
    """Every ``lru_cache`` in the solver, preference and model modules,
    found by walking the modules rather than from a list that could go stale."""
    modules = (mewvote.rep, mewvote.preferences, mewvote.models)
    found = {id(obj): obj for module in modules for obj in vars(module).values()
             if hasattr(obj, "cache_info")}
    return list(found.values())


def random_ranking(rng, m):
    return tuple(int(x) for x in rng.permutation(m))


def random_poset(rng, m, density=0.3):
    perm = rng.permutation(m)
    pairs = []
    for i in range(m):
        for j in range(i + 1, m):
            if rng.random() < density:
                pairs.append((int(perm[i]), int(perm[j])))
    return PartialOrder(pairs)


def random_partition(rng, m, partial):
    perm = [int(x) for x in rng.permutation(m)]
    k = int(rng.integers(1, m + 1))
    buckets = [[c] for c in perm[:k]]
    missing = []
    for c in perm[k:]:
        if partial and rng.random() < 0.35:
            missing.append(c)
        else:
            buckets[int(rng.integers(k))].append(c)
    return PartitionedPreference(buckets, missing)


def random_chain(rng, m, full=False):
    size = m if full else int(rng.integers(0, m + 1))
    return PartialChain(int(x) for x in rng.permutation(m)[:size])


def random_truncated(rng, m):
    t = int(rng.integers(0, m))
    b = int(rng.integers(0, m - t + 1))
    perm = [int(x) for x in rng.permutation(m)]
    return TruncatedRanking(perm[:t], perm[m - b:] if b else [])


def random_observation(rng, m, kind=None):
    kind = kind or str(rng.choice(OBSERVATION_KINDS))
    if kind == "poset":
        return random_poset(rng, m)
    if kind == "fp":
        return random_partition(rng, m, partial=False)
    if kind == "pp":
        return random_partition(rng, m, partial=True)
    if kind == "chain":
        return random_chain(rng, m)
    if kind == "truncated":
        return random_truncated(rng, m)
    if kind == "ranking":
        return random_chain(rng, m, full=True)
    raise ValueError(kind)


def pair_poset(obs, m):
    """An observation as the poset of its preference pairs, built from
    ``to_pairs()``: the reference the bucket views are compared against."""
    if isinstance(obs, PartialOrder):
        return obs
    if isinstance(obs, TruncatedRanking):
        obs = obs.to_partitioned(m)
    return PartialOrder(obs.to_pairs())


def random_model(rng, m, kind=None):
    kind = kind or str(rng.choice(MODEL_KINDS))
    if kind == "uniform":
        return None
    sigma = random_ranking(rng, m)
    phi = float(rng.uniform(0.2, 1.0))
    if kind == "mallows":
        return MallowsModel(sigma, phi)
    if kind == "rim":
        return mallows_to_rim(MallowsModel(sigma, phi))
    if kind == "rsm":
        return mallows_to_rsm(MallowsModel(sigma, phi))
    raise ValueError(kind)


# every generation/observation combination with an exact solver
SUPPORTED_COMBOS = [
    ("uniform", None), ("uniform", "poset"), ("uniform", "fp"), ("uniform", "pp"),
    ("uniform", "chain"), ("uniform", "truncated"), ("uniform", "ranking"),
    ("mallows", None), ("mallows", "poset"), ("mallows", "fp"), ("mallows", "pp"),
    ("mallows", "chain"), ("mallows", "truncated"),
    ("rim", None), ("rim", "poset"), ("rim", "fp"), ("rim", "pp"),
    ("rim", "chain"), ("rim", "truncated"),
    ("rsm", None),
]


def random_supported_voter(rng, m, combo=None):
    model_kind, obs_kind = combo or SUPPORTED_COMBOS[int(rng.integers(len(SUPPORTED_COMBOS)))]
    model = random_model(rng, m, model_kind)
    obs = random_observation(rng, m, obs_kind) if obs_kind else None
    return Voter(model, obs)


def random_supported_profile(rng, m_range=(3, 6), n_range=(1, 5), world_budget=2000):
    """A profile of supported voter types whose world count stays enumerable.

    Voters pushing the possible-world count past the budget are replaced with
    complete-ranking voters (support size 1).
    """
    m = int(rng.integers(m_range[0], m_range[1] + 1))
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    voters = []
    count = 1
    for _ in range(n):
        v = random_supported_voter(rng, m)
        size = len(voter_posterior(v, m))
        if count * size > world_budget:
            v = Voter(None, random_chain(rng, m, full=True))
            size = 1
        count *= size
        voters.append(v)
    cands = candidate_set(*(f"c{i}" for i in range(1, m + 1)))
    return Profile(cands, voters)


def wide_second_group_profile():
    """A uniform voter of weight 2, then a Mallows voter whose poset puts c1..c7
    above c24 and leaves the rest unrelated: cover width 7, past the tracked-item
    DP's cap, and 129 * 2^16 order ideals, past the ideal DP's budget, so
    solving it raises CoverWidthExceeded.  ``mew_parallel(workers=2)``, told to
    deal the whole profile at once (``engine.FORK_AFTER_S = 0``), deals that
    second group to its forked child."""
    m = 24
    wide = PartialOrder([(i, m - 1) for i in range(7)])
    return Profile(candidate_set(*(f"c{i + 1}" for i in range(m))),
                   [Voter(None, None, weight=2), Voter(MallowsModel(tuple(range(m)), 0.5), wide)])
