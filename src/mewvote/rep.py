"""Rank-estimation solvers: Pr(candidate -> rank) under one voter's posterior.

Every solver returns the full rank distribution of one candidate as a numpy
vector indexed by rank - 1.  ``rep_dispatch`` routes a voter (generation-step
model plus optional observation) to the cheapest applicable solver:

  - closed-form combinatorics for partitioned preferences, partial chains and
    truncated rankings under the uniform model;
  - an insertion-position dynamic program for insertion models (and Mallows,
    via its insertion-model form);
  - a selection dynamic program for ranking selection models;
  - a tracked-item insertion DP for insertion models conditioned on posets,
    whose cost is exponential in the poset's cover width;
  - a prefix-set counting DP for uniform posets at small m (same posterior as
    the tracked-item DP, better constants).

Conditioning on evidence with zero probability raises ZeroPosterior: the
posterior is undefined there, and returning a default would poison expected
scores silently.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CoverWidthExceeded, RankOutOfRange, TooLarge, Unsupported, ValidationError, ZeroPosterior
from .models import (
    MallowsModel,
    RimModel,
    RsmRankingModel,
    mallows_probability,
    mallows_to_rim,
    rim_probability,
    rsm_probability,
    uniform_rim,
)
from .preferences import (
    Observation,
    PartialChain,
    PartialOrder,
    PartitionedPreference,
    Ranking,
    TruncatedRanking,
    cover_width,
    observation_pairs,
    validate,
)

COVER_WIDTH_CAP = 6
UNIFORM_POSET_DP_LIMIT = 16

RankDistribution = np.ndarray


@dataclass(frozen=True)
class Voter:
    """One voter: a generation-step model, an optional observation, a multiplicity.

    ``model`` is None for the uniform generation step.  A complete ranking is
    represented as a full-length partial chain observation.
    """

    model: MallowsModel | RimModel | RsmRankingModel | None = None
    observation: Observation | None = None
    weight: int = 1

    def __post_init__(self):
        if isinstance(self.observation, PartialOrder) and not self.observation.pairs:
            object.__setattr__(self, "observation", None)  # canonical "no information"
        if self.weight < 1:
            raise ValidationError(f"voter weight must be >= 1, got {self.weight}")

    def group_key(self):
        return (self.model, self.observation)


def check_rank_distribution(probs: np.ndarray, tol: float = 1e-9) -> None:
    if np.any(probs < -tol) or np.any(probs > 1 + tol):
        raise ValidationError("rank probabilities outside [0, 1]")
    if abs(float(probs.sum()) - 1.0) > tol:
        raise ValidationError(f"rank probabilities sum to {probs.sum()}")


# ---------------------------------------------------------------------------
# Closed forms for the uniform generation step


def rep_fully_partitioned(c: int, fp: PartitionedPreference, m: int) -> RankDistribution:
    """Uniform over the slots of c's bucket: 1/|bucket| on its rank window."""
    if not fp.is_fully_partitioned(m):
        raise ValidationError("preference is not fully partitioned")
    i = fp.bucket_of(c)
    if i is None:
        raise ValidationError(f"candidate {c} not in any bucket")
    k_left = sum(len(b) for b in fp.buckets[:i])
    k_c = len(fp.buckets[i])
    probs = np.zeros(m)
    probs[k_left:k_left + k_c] = 1.0 / k_c
    return probs


def rep_partial_chain(c: int, pc: PartialChain, m: int) -> RankDistribution:
    if c not in pc.chain:
        return np.full(m, 1.0 / m)
    k_l = pc.chain.index(c)
    k_r = len(pc.chain) - k_l - 1
    weights = [math.comb(j - 1, k_l) * math.comb(m - j, k_r) for j in range(1, m + 1)]
    total = sum(weights)
    return np.array([w / total for w in weights])


def rep_partially_partitioned(c: int, pp: PartitionedPreference, m: int) -> RankDistribution:
    i = pp.bucket_of(c)
    if i is None:  # in the missing set or absent: no information about c
        return np.full(m, 1.0 / m)
    k_l = sum(len(b) for b in pp.buckets[:i])
    k_r = sum(len(b) for b in pp.buckets[i + 1:])
    k_c = len(pp.buckets[i])
    weights = []
    for j in range(1, m + 1):
        w = 0
        for x in range(k_c):
            w += math.comb(j - 1, k_l + x) * math.comb(m - j, k_r + k_c - 1 - x)
        weights.append(w)
    total = sum(weights)
    return np.array([w / total for w in weights])


def rep_truncated(c: int, tr: TruncatedRanking, m: int) -> RankDistribution:
    return rep_fully_partitioned(c, tr.to_partitioned(m), m)


# ---------------------------------------------------------------------------
# Insertion-model DP (all ranks of one candidate in a single pass)


def rep_rim(c: int, model: RimModel) -> RankDistribution:
    """Track the target's position through the insertion process.

    Until the target is inserted the state carries no information (each
    insertion row sums to 1), so the DP starts at the target's insertion
    step.  Afterwards, inserting at a position <= k shifts the target from k
    to k + 1.
    """
    sigma, pi = model.sigma, model.pi
    m = len(sigma)
    i_c = sigma.index(c) + 1
    q = list(pi[i_c - 1])  # q[k-1] = Pr(target at position k) among i_c items
    for i in range(i_c + 1, m + 1):
        row = pi[i - 1]
        nq = [0.0] * i
        for k0, mass in enumerate(q):
            if mass == 0.0:
                continue
            for j0 in range(i):
                if j0 <= k0:
                    nq[k0 + 1] += mass * row[j0]
                else:
                    nq[k0] += mass * row[j0]
        q = nq
    return np.array(q)


# ---------------------------------------------------------------------------
# Selection-model DP


def rsm_rank_distribution(c: int, model: RsmRankingModel) -> RankDistribution:
    """All ranks of one candidate in a single forward pass over the steps.

    States are the number of remaining reference items before the target (the
    number after it follows from the step); the probability of rank ``i`` is
    the mass of selecting the target itself at step ``i``.
    """
    m = model.m
    alpha0 = model.sigma.index(c)
    probs = np.zeros(m)
    q = {alpha0: 1.0}
    for i in range(1, m + 1):
        row = model.pi[i - 1]
        probs[i - 1] = sum(mass * row[alpha] for alpha, mass in q.items())
        if i == m:
            break
        pref = [0.0]
        for p in row:
            pref.append(pref[-1] + p)
        nq: dict[int, float] = {}
        for alpha, mass in q.items():
            beta = m - i - alpha
            if alpha > 0:
                left = pref[alpha]
                if left:
                    nq[alpha - 1] = nq.get(alpha - 1, 0.0) + mass * left
            if beta > 0:
                right = pref[alpha + 1 + beta] - pref[alpha + 1]
                if right:
                    nq[alpha] = nq.get(alpha, 0.0) + mass * right
        q = nq
    return probs


def rep_rsm(c: int, k: int, model: RsmRankingModel) -> float:
    """Probability that the selection process places ``c`` at rank ``k``."""
    if not 1 <= k <= model.m:
        raise RankOutOfRange(f"rank {k} outside [1, {model.m}]")
    return float(rsm_rank_distribution(c, model)[k - 1])


# ---------------------------------------------------------------------------
# Insertion model conditioned on a poset (tracked-item DP)


def rep_rim_poset(c: int, model: RimModel, p: PartialOrder,
                  cw_cap: int = COVER_WIDTH_CAP) -> RankDistribution:
    """Posterior rank distribution of ``c`` under an insertion model given a poset.

    States map tracked items to positions.  An inserted item is tracked while
    some item it directly covers (or is covered by) is still pending; the
    target is tracked from its insertion to the end.  Insertion positions are
    restricted by the tracked items related to the incoming one, which is
    sufficient because relations through already-dropped items were enforced
    when those items were inserted.
    """
    sigma, pi = model.sigma, model.pi
    m = len(sigma)
    validate(p, m)
    cw = cover_width(sigma, p)
    if cw > cw_cap:
        raise CoverWidthExceeded(f"cover width {cw} exceeds cap {cw_cap}")

    closure = p.closure
    anc: dict[int, set[int]] = {}
    desc: dict[int, set[int]] = {}
    for a, b in closure:
        anc.setdefault(b, set()).add(a)
        desc.setdefault(a, set()).add(b)
    partners: dict[int, set[int]] = {}
    for a, b in p.cover_pairs:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)

    remaining = set(sigma)
    tracked_after: list[tuple[int, ...]] = []
    for i, u in enumerate(sigma, start=1):
        remaining.discard(u)
        tracked_after.append(tuple(
            x for x in sigma[:i]
            if x == c or (partners.get(x) and partners[x] & remaining)
        ))

    states: dict[tuple[int, ...], float] = {(): 1.0}
    for i, u in enumerate(sigma, start=1):
        prev_tracked = tracked_after[i - 2] if i >= 2 else ()
        new_tracked = tracked_after[i - 1]
        prev_idx = {x: t for t, x in enumerate(prev_tracked)}
        above = [prev_idx[x] for x in anc.get(u, ()) if x in prev_idx]
        below = [prev_idx[x] for x in desc.get(u, ()) if x in prev_idx]
        keep = [(t, prev_idx[x]) for t, x in enumerate(new_tracked) if x != u]
        u_slot = new_tracked.index(u) if u in new_tracked else -1
        row = pi[i - 1]
        nstates: dict[tuple[int, ...], float] = {}
        for pos, mass in states.items():
            lo, hi = 1, i
            for t in above:
                if pos[t] + 1 > lo:
                    lo = pos[t] + 1
            for t in below:
                if pos[t] < hi:
                    hi = pos[t]
            for j in range(lo, hi + 1):
                pr = row[j - 1]
                if pr == 0.0:
                    continue
                newpos = [0] * len(new_tracked)
                for t, src in keep:
                    q = pos[src]
                    newpos[t] = q + 1 if q >= j else q
                if u_slot >= 0:
                    newpos[u_slot] = j
                key = tuple(newpos)
                nstates[key] = nstates.get(key, 0.0) + mass * pr
        states = nstates

    total = sum(states.values())
    if total <= 0.0:
        raise ZeroPosterior("observation has zero probability under the model")
    probs = np.zeros(m)
    for (k,), mass in states.items():
        probs[k - 1] = mass / total
    return probs


# ---------------------------------------------------------------------------
# Insertion model conditioned on a truncated ranking

def rep_rim_truncated(c: int, model: RimModel, tr: TruncatedRanking) -> RankDistribution:
    """Insertion DP where top/bottom items have forced positions.

    The set of inserted items at each step is fixed by the reference order,
    so the positions of inserted top (bottom) items are determined: only the
    target, when it lies in the unordered middle, branches.
    """
    sigma, pi = model.sigma, model.pi
    m = len(sigma)
    validate(tr, m)
    top_rank = {u: t for t, u in enumerate(tr.top)}
    bot_rank = {u: t for t, u in enumerate(tr.bottom)}
    c_in_middle = c not in top_rank and c not in bot_rank

    scalar = 1.0
    q: dict[int, float] | None = None  # target position -> mass, once inserted
    inserted_tops: set[int] = set()
    inserted_bots: set[int] = set()
    for i, u in enumerate(sigma, start=1):
        row = pi[i - 1]
        if u in top_rank:
            j = 1 + sum(1 for v in inserted_tops if top_rank[v] < top_rank[u])
            f = row[j - 1]
            if q is None:
                scalar *= f
            else:  # a top item lands above any middle position
                q = {k + 1: mass * f for k, mass in q.items()}
            inserted_tops.add(u)
        elif u in bot_rank:
            j = i - sum(1 for v in inserted_bots if bot_rank[v] > bot_rank[u])
            f = row[j - 1]
            if q is None:
                scalar *= f
            else:  # a bottom item lands below any middle position
                q = {k: mass * f for k, mass in q.items()}
            inserted_bots.add(u)
        else:
            lo = len(inserted_tops) + 1
            hi = i - len(inserted_bots)
            if u == c:
                q = {}
                for j in range(lo, hi + 1):
                    if row[j - 1]:
                        q[j] = scalar * row[j - 1]
            elif q is None:
                s = 0.0
                for j in range(lo, hi + 1):
                    s += row[j - 1]
                scalar *= s
            else:
                nq: dict[int, float] = {}
                for k, mass in q.items():
                    shift = 0.0
                    for j in range(lo, min(k, hi) + 1):
                        shift += row[j - 1]
                    stay = 0.0
                    for j in range(max(lo, k + 1), hi + 1):
                        stay += row[j - 1]
                    if shift:
                        nq[k + 1] = nq.get(k + 1, 0.0) + mass * shift
                    if stay:
                        nq[k] = nq.get(k, 0.0) + mass * stay
                q = nq

    probs = np.zeros(m)
    if c_in_middle:
        assert q is not None
        total = sum(q.values())
        if total <= 0.0:
            raise ZeroPosterior("truncated ranking has zero probability under the model")
        for k, mass in q.items():
            probs[k - 1] = mass / total
    else:
        if scalar <= 0.0:
            raise ZeroPosterior("truncated ranking has zero probability under the model")
        if c in top_rank:
            probs[top_rank[c]] = 1.0
        else:
            probs[m - len(tr.bottom) + bot_rank[c]] = 1.0
    return probs


# ---------------------------------------------------------------------------
# Mallows conditioned on a fully partitioned preference


def rep_mallows_partitioned(c: int, model: MallowsModel, fp: PartitionedPreference,
                            m: int | None = None) -> RankDistribution:
    """Restrict the model to the target's bucket and solve locally.

    Cross-bucket pair disagreements are fixed by the bucket order and the
    arrangement of each bucket is independent, so the target's rank within
    its bucket follows a Mallows over the bucket with the same dispersion.
    """
    m = len(model.sigma) if m is None else m
    if not fp.is_fully_partitioned(m):
        raise ValidationError("preference is not fully partitioned")
    i = fp.bucket_of(c)
    if i is None:
        raise ValidationError(f"candidate {c} not in any bucket")
    k_left = sum(len(b) for b in fp.buckets[:i])
    bucket = fp.buckets[i]
    sub_sigma = tuple(x for x in model.sigma if x in bucket)
    local = rep_rim(c, mallows_to_rim(MallowsModel(sub_sigma, model.phi)))
    probs = np.zeros(m)
    probs[k_left:k_left + len(bucket)] = local
    return probs


# ---------------------------------------------------------------------------
# Uniform posets at small m: count prefix sets instead of tracking positions


@lru_cache(maxsize=4096)
def _uniform_poset_table(m: int, anc_masks: tuple[int, ...]) -> np.ndarray:
    """table[c][j-1] = fraction of linear extensions placing c at rank j.

    f[S] counts orderings of a valid prefix set S, g[S] orderings of its
    complement; placing c right after prefix S contributes f[S] * g[S + c]
    extensions with c at rank |S| + 1.  Counts stay exact in int64 for
    m <= 20.
    """
    n_masks = 1 << m
    masks = np.arange(n_masks, dtype=np.int64)
    anc = np.array(anc_masks, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(bool)
    anc_ok = (masks[:, None] & anc[None, :]) == anc[None, :]
    valid = np.all(~bits | anc_ok, axis=1)
    sizes = np.zeros(n_masks, dtype=np.int64)
    for x in range(m):
        sizes += (masks >> x) & 1
    by_size = [np.nonzero(valid & (sizes == s))[0] for s in range(m + 1)]

    f = np.zeros(n_masks, dtype=np.int64)
    f[0] = 1
    for s in range(m):
        base = by_size[s]
        if base.size == 0:
            continue
        for x in range(m):
            sel = base[~bits[base, x] & anc_ok[base, x]]
            if sel.size:
                f[sel + (1 << x)] += f[sel]

    g = np.zeros(n_masks, dtype=np.int64)
    g[n_masks - 1] = 1
    for s in range(m - 1, -1, -1):
        base = by_size[s]
        if base.size == 0:
            continue
        for x in range(m):
            sel = base[~bits[base, x] & anc_ok[base, x]]
            if sel.size:
                g[sel] += g[sel + (1 << x)]

    total = float(f[n_masks - 1])
    table = np.zeros((m, m))
    for x in range(m):
        idx = np.nonzero(valid & ~bits[:, x] & anc_ok[:, x])[0]
        contrib = (f[idx] * g[idx + (1 << x)]).astype(np.float64)
        table[x] = np.bincount(sizes[idx], weights=contrib, minlength=m)[:m]
    return table / total


def uniform_poset_distribution(c: int, p: PartialOrder, m: int) -> RankDistribution:
    anc_masks = [0] * m
    for a, b in p.closure:
        anc_masks[b] |= 1 << a
    return _uniform_poset_table(m, tuple(anc_masks))[c].copy()


# ---------------------------------------------------------------------------
# Dispatch


def rep_dispatch(c: int, voter: Voter, m: int) -> RankDistribution:
    """Route one (candidate, voter) query to the cheapest applicable solver."""
    model, obs = voter.model, voter.observation

    if isinstance(model, RsmRankingModel):
        if obs is not None:
            raise Unsupported("no exact solver for a selection model with an observation")
        return rsm_rank_distribution(c, model)

    if model is None:
        if obs is None:
            return np.full(m, 1.0 / m)
        if isinstance(obs, PartitionedPreference):
            if obs.is_fully_partitioned(m):
                return rep_fully_partitioned(c, obs, m)
            return rep_partially_partitioned(c, obs, m)
        if isinstance(obs, PartialChain):
            return rep_partial_chain(c, obs, m)
        if isinstance(obs, TruncatedRanking):
            return rep_truncated(c, obs, m)
        if isinstance(obs, PartialOrder):
            if m <= UNIFORM_POSET_DP_LIMIT:
                return uniform_poset_distribution(c, obs, m)
            return rep_rim_poset(c, uniform_rim(tuple(range(m))), obs)
        raise Unsupported(f"unknown observation type {type(obs).__name__}")

    if isinstance(model, MallowsModel):
        if obs is None:
            return rep_rim(c, mallows_to_rim(model))
        if isinstance(obs, PartitionedPreference) and obs.is_fully_partitioned(m):
            return rep_mallows_partitioned(c, model, obs, m)
        if isinstance(obs, TruncatedRanking):
            return rep_mallows_partitioned(c, model, obs.to_partitioned(m), m)
        return rep_rim_poset(c, mallows_to_rim(model), PartialOrder(observation_pairs(obs)))

    if isinstance(model, RimModel):
        if obs is None:
            return rep_rim(c, model)
        if isinstance(obs, TruncatedRanking):
            return rep_rim_truncated(c, model, obs)
        return rep_rim_poset(c, model, PartialOrder(observation_pairs(obs)))

    raise Unsupported(f"unknown model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Posterior support enumeration (used by the possible-winner DP)


def voter_support(voter: Voter, m: int, cap: int = 1_000_000) -> list[tuple[Ranking, float]]:
    """All rankings with nonzero posterior probability for one voter.

    Completions of the observation, weighted by the generation-step model and
    renormalized.  Guarded by ``cap`` on the number of completions.
    """
    obs = voter.observation
    if obs is None:
        count = math.factorial(m)
        if count > cap:
            raise TooLarge(f"{count} completions exceed cap {cap}")
        completions = itertools.permutations(range(m))
    else:
        if isinstance(obs, TruncatedRanking):
            pairs = obs.to_partitioned(m).to_pairs()
        else:
            pairs = observation_pairs(obs)
        if math.factorial(m) > 10_000_000:
            raise TooLarge(f"{m}! permutations to filter is beyond enumeration scale")

        def consistent_perms():
            for perm in itertools.permutations(range(m)):
                pos = {x: t for t, x in enumerate(perm)}
                if all(pos[a] < pos[b] for a, b in pairs):
                    yield perm

        completions = consistent_perms()

    model = voter.model
    support: list[tuple[Ranking, float]] = []
    for r in completions:
        if model is None:
            w = 1.0
        elif isinstance(model, MallowsModel):
            w = mallows_probability(r, model)
        elif isinstance(model, RimModel):
            w = rim_probability(r, model)
        elif isinstance(model, RsmRankingModel):
            w = rsm_probability(r, model)
        else:
            raise Unsupported(f"unknown model type {type(model).__name__}")
        if w > 0.0:
            support.append((r, w))
        if len(support) > cap:
            raise TooLarge(f"voter support exceeds cap {cap}")
    total = sum(w for _, w in support)
    if total <= 0.0:
        raise ZeroPosterior("observation has zero probability under the model")
    return [(r, w / total) for r, w in support]
