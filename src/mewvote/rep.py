"""Rank-estimation solvers: Pr(candidate -> rank) under one voter's posterior.

Every solver returns the full rank distribution of one candidate as a numpy
vector indexed by rank - 1.  ``rep_dispatch`` routes a voter (generation-step
model plus optional observation) through three branches, in this order:

  1. the closed form ``rep_uniform`` for the voters ``closed_form`` names, the
     uniform model with no observation or with ordered buckets over some of
     the candidates: one row, ``_uniform_row``, per bucket window of
     ``preferences.bucket_layout`` and m, shared by every voter and candidate;
  2. a row of ``shared_table(voter, m)``, the one place that decides whether
     a voter has a table.  A uniform poset's table is counted per connected
     component over the component's order ideals (at most ``IDEAL_BUDGET``)
     and spread over the m ranks by a hypergeometric interleave.  An insertion
     model given an observation that needs a poset solver (a poset, or
     buckets that leave some candidates out) has ``_insertion_table``, one
     forward and backward walk of the observation's lattice of order ideals,
     when that lattice has at most min(``IDEAL_BUDGET``, m ** (cw + 1))
     ideals, cw being the cover width;
  3. a DP for the one candidate: the selection DP for a selection model with
     no observation; the tracked-item DP ``rep_rim_poset``, exponential in cw
     and the only route the cover-width cap binds, for an insertion model
     whose observation needs a poset solver but has no table; otherwise, for
     no observation or one whose bucket layout places all m candidates,
     ``rep_mallows_partitioned`` for Mallows, which reads the row
     ``_mallows_rank_row`` shared per (phi, bucket size, index in the bucket),
     and the windowed insertion DP ``rep_rim`` for a ``RimModel``.
     A ``MallowsModel`` reads its insertion rows as ``pi``, so every
     insertion solver takes it as it is.  The selection, tracked-item and
     ``rep_rim`` rows go through ``_dp_row``, cached read-only per
     (candidate, model, observation, m).  A row does not depend on the rule,
     so a warm pass, or a second rule on the same profile, runs no DP.  The
     cache keeps 16,384 rows, evicting the least recently used: a profile
     with more distinct rows than that gets little or no reuse on a warm
     pass, which comes back to each row only after all the others.

Given a list of candidates, ``rep_dispatch`` returns their rows, equal to one
call's per candidate, and reads each route but the DPs once for the list: the
closed form's bucket layout (``uniform_rows``, which hands back the shared
read-only rows themselves), the shared table, or one pass over a Mallows
model's reference ranking (``mallows_partitioned_rows``, which
``rep_mallows_partitioned`` also reads, for a list of one; the pass,
``_bucket_places``, is held per (sigma, observation, m), not the rows).  Only
the DP routes solve candidate by candidate inside a list call.  A single
call's row is the caller's own; list rows are read-only on every route but
the DPs, and a caller writes none of them.

A candidate index that is not an integer in 0..m-1 raises UnknownCandidate in
``rep_dispatch`` (in ``rep_uniform`` on the closed form), and one the model
does not hold raises it in each model solver.  Conditioning on evidence with
zero probability raises ZeroPosterior: the posterior is undefined there, and
returning a default would poison expected scores silently; an observation of no
known type raises Unsupported when a ``Voter`` (from ``profiles``) is built on
it, or in ``rank_bounds``.
``clear_caches`` empties the process-wide caches, so a timed solve starts cold.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import models, preferences
from .errors import (
    CoverWidthExceeded,
    RankOutOfRange,
    TooLarge,
    UnknownCandidate,
    Unsupported,
    ValidationError,
    ZeroPosterior,
)
from .models import (
    MallowsModel,
    RimModel,
    RsmRankingModel,
    rim_probability,
    rsm_probability,
    validate_reference,
)
from .preferences import (
    Observation,
    PartialOrder,
    Ranking,
    _bits,
    ancestor_masks,
    bucket_layout,
    bucket_window,
    candidate_index,
    check_candidate,
    cover_width,
    ideal_levels,
    linear_extensions,
    tracked_items,
)
from .profiles import Voter

COVER_WIDTH_CAP = 6
STATE_FLOOR = 1e-100  # rep_rim_poset rescales its states when their total falls below it

RankDistribution = np.ndarray


# ---------------------------------------------------------------------------
# Closed form for the uniform generation step given ordered buckets


@lru_cache(maxsize=1024)
def _interleave(k: int, m: int) -> np.ndarray:
    """H[r-1, j-1] = Pr(rank j among m | rank r among k) for k items placed on
    a uniformly random k-subset of the m ranks: C(j-1, r-1) C(m-j, k-r) / C(m, k).

    Read-only: the cache hands the same array to every caller.
    """
    total = math.comb(m, k)
    table = np.array([[math.comb(j - 1, r - 1) * math.comb(m - j, k - r) / total
                       for j in range(1, m + 1)] for r in range(1, k + 1)])
    table.setflags(write=False)
    return table


@lru_cache(maxsize=4096)
def _uniform_row(window: tuple[int, int, int] | None, m: int) -> np.ndarray:
    """``rep_uniform``'s row for a bucket window ``(k, before, size)``; read-only,
    as the cache hands the same array to every voter and candidate."""
    if window is None:
        row = np.full(m, 1.0 / m)
    else:
        k, before, size = window
        row = _interleave(k, m)[before:before + size].sum(axis=0) / size  # the mean
    row.setflags(write=False)
    return row


def rep_uniform(c: int, obs: Observation | None, m: int) -> RankDistribution:
    """Uniform model given ordered buckets over k items (see ``bucket_window``).

    With no observation, or one that does not place ``c``, ``c`` is uniform
    over the m ranks.  Otherwise the k bucketed items land on a uniformly
    random k-subset of the ranks and ``c`` is equally likely at each slot of
    its bucket, so its distribution is the mean of the interleave rows of
    those slots.  With k = m the interleave is the identity, giving 1/size on
    the bucket's rank window.
    """
    return _uniform_row(bucket_window(c, obs, m), m).copy()


def uniform_rows(cands: list[int], obs: Observation | None, m: int) -> list[np.ndarray]:
    """``rep_uniform``'s rows of ``cands`` from one read of the bucket layout.
    They are the cached read-only ``_uniform_row`` arrays, not copies, so the
    candidates of one bucket, and every one ``obs`` does not place, share one
    row object."""
    for c in cands:
        check_candidate(c, m)
    if obs is None:
        return [_uniform_row(None, m)] * len(cands)
    layout = bucket_layout(obs, m)
    return [_uniform_row(layout[c], m) for c in cands]


def closed_form(voter: Voter) -> bool:
    """Whether ``rep_dispatch`` routes ``voter`` to ``rep_uniform``."""
    return voter.model is None and not isinstance(voter.observation, PartialOrder)


def _reference_index(c: int, sigma: Ranking) -> int:
    """``c``'s 0-based place in a model's reference ranking; UnknownCandidate
    when the model does not hold ``c``."""
    try:
        return sigma.index(candidate_index(c))
    except ValueError:
        raise UnknownCandidate(f"candidate {c!r} is not in the model's reference ranking") from None


# ---------------------------------------------------------------------------
# Insertion-model DP (all ranks of one candidate in a single pass)


def rep_rim(c: int, model: RimModel | MallowsModel,
            obs: Observation | None = None) -> RankDistribution:
    """Track the target's position through the insertion process, optionally
    given an observation whose ``bucket_layout`` places all m candidates (a
    fully partitioned preference, a truncated ranking or a complete chain).

    Inserting at a position <= k shifts the target from k to k + 1.  Under
    ``obs`` each bucket's placed items form one block, so an item of bucket b
    can land only in the window [1 + placed items of buckets above b,
    that + placed items of b].  The window depends on counts alone, so the
    evidence factors over the steps: dividing each step's window by its
    mass keeps the state the posterior with no product to underflow,
    and zero mass raises ZeroPosterior.  With no observation the window is the
    whole row and, until the target is inserted, the state carries no
    information (each row sums to 1), so the DP starts at the target's
    insertion step.
    """
    sigma, pi = model.sigma, model.pi
    m = len(sigma)
    i_c = _reference_index(c, sigma) + 1
    start = i_c
    if obs is not None:
        layout = bucket_layout(obs, m)
        if None in layout:
            raise ValidationError("preference is not fully partitioned")
        placed = [0] * m  # placed[before]: placed items of the bucket after ``before`` others
        start = 1
    q: list[float] = []  # q[k-1] = Pr(target at position k), once inserted
    for i in range(start, m + 1):
        row, lo = pi[i - 1], 0  # the incoming item's window: 0-based positions lo, lo + 1, ...
        if obs is not None:
            before = layout[sigma[i - 1]][1]
            lo = sum(placed[:before])
            row = row[lo:lo + placed[before] + 1]
            placed[before] += 1
            w = sum(row)
            if w == 0.0:
                raise ZeroPosterior("observation has zero probability under the model")
            row = [p / w for p in row]
        if i == i_c:
            q = [0.0] * i
            q[lo:lo + len(row)] = row
        elif q:
            nq = [0.0] * i
            for k0, mass in enumerate(q):
                if mass == 0.0:
                    continue
                for j0, p in enumerate(row, lo):
                    if j0 <= k0:
                        nq[k0 + 1] += mass * p
                    else:
                        nq[k0] += mass * p
            q = nq
    return np.array(q)


rep_rim_truncated = rep_rim  # a truncated ranking's layout places all m candidates


# ---------------------------------------------------------------------------
# Selection-model DP


def rsm_rank_distribution(c: int, model: RsmRankingModel) -> RankDistribution:
    """All ranks of one candidate in a single forward pass over the steps.

    States are the number of remaining reference items before the target (the
    number after it follows from the step); the probability of rank ``i`` is
    the mass of selecting the target itself at step ``i``.
    """
    m = model.m
    alpha0 = _reference_index(c, model.sigma)
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


def rep_rim_poset(c: int, model: RimModel | MallowsModel, obs: Observation,
                  cw_cap: int = COVER_WIDTH_CAP) -> RankDistribution:
    """Posterior rank distribution of ``c`` under an insertion model given any observation.

    States map tracked items to positions: the items ``tracked_items`` keeps
    while some item they directly cover (or are covered by) is still pending,
    plus the target from its insertion to the end.  Insertion positions are
    restricted by the tracked items related to the incoming one, which is
    sufficient because relations through already-dropped items were enforced
    when those items were inserted.  The states hold unnormalised evidence
    products; a step whose total falls below ``STATE_FLOOR`` rescales them by
    that total, so strong evidence does not underflow to a false ZeroPosterior.
    As the cap does not bound the states, a step past ``IDEAL_BUDGET`` raises too.
    """
    sigma, pi = model.sigma, model.pi
    m, budget = len(sigma), preferences.IDEAL_BUDGET
    _reference_index(c, sigma)
    anc_masks = ancestor_masks(obs, m)  # validates obs against m
    cw = cover_width(sigma, obs)
    if cw > cw_cap:
        raise CoverWidthExceeded(f"cover width {cw} exceeds cap {cw_cap}")
    tracked_after = [tuple(x for x in sigma[:i] if x == c or x in tracked)
                     for i, tracked in enumerate(tracked_items(sigma, obs), start=1)]

    states: dict[tuple[int, ...], float] = {(): 1.0}
    for i, u in enumerate(sigma, start=1):
        prev_tracked = tracked_after[i - 2] if i >= 2 else ()
        new_tracked = tracked_after[i - 1]
        prev_idx = {x: t for t, x in enumerate(prev_tracked)}
        above = [t for t, x in enumerate(prev_tracked) if anc_masks[u] >> x & 1]
        below = [t for t, x in enumerate(prev_tracked) if anc_masks[x] >> u & 1]
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
            if len(nstates) > budget:
                raise CoverWidthExceeded(f"cover width {cw}: step {i} of {m} holds more than "
                                         f"{budget} tracked-item states")
        scale = sum(nstates.values())
        if 0.0 < scale < STATE_FLOOR:
            nstates = {key: mass / scale for key, mass in nstates.items()}
        states = nstates

    total = sum(states.values())
    if total <= 0.0:
        raise ZeroPosterior("observation has zero probability under the model")
    probs = np.zeros(m)
    for (k,), mass in states.items():
        probs[k - 1] = mass / total
    return probs


# ---------------------------------------------------------------------------
# Mallows with no observation or ordered buckets over all m candidates


@lru_cache(maxsize=4096)
def _mallows_rank_row(phi: float, k: int, i: int) -> np.ndarray:
    """Rank distribution of the (i+1)-th reference item under a Mallows model
    over k items: ``rep_rim`` on the rows ``models._insertion_rows(phi, k)``.

    Read-only: the cache hands the same array to every voter and candidate.
    """
    row = rep_rim(i, MallowsModel(range(k), phi))
    row.setflags(write=False)
    return row


def rep_mallows_partitioned(c: int, model: MallowsModel, fp: Observation | None,
                            m: int | None = None) -> RankDistribution:
    """Read the target's rank within its bucket from the shared Mallows row;
    ``fp`` is None (one bucket of all m) or any observation whose
    ``bucket_layout`` places all m candidates.

    Cross-bucket pair disagreements are fixed by the bucket order and the
    arrangement of each bucket is independent, so the target's rank within
    its bucket follows a Mallows over the bucket with the same dispersion:
    it depends on phi, the bucket's size and the target's index among the
    bucket's items in reference order, not on their labels.
    """
    return mallows_partitioned_rows([c], model, fp, m)[0]


def mallows_partitioned_rows(cands: list[int], model: MallowsModel, fp: Observation | None,
                             m: int | None = None) -> np.ndarray:
    """``rep_mallows_partitioned``'s rows of ``cands``, one array row each, read
    from ``_bucket_places``."""
    m = len(model.sigma) if m is None else m
    for c in cands:
        check_candidate(c, m)
    layout, index = _bucket_places(model.sigma, fp, m)
    rows = np.zeros((len(cands), m))
    for k, c in enumerate(cands):
        _, before, size = layout[c]
        rows[k, before:before + size] = _mallows_rank_row(model.phi, size, index[c])
    return rows


@lru_cache(maxsize=4096)
def _bucket_places(sigma: Ranking, fp: Observation | None,
                   m: int) -> tuple[tuple, tuple[int, ...]]:
    """Every candidate's bucket window and its index among the bucket's items
    in sigma order, from one pass over sigma; ``fp`` None is one bucket of
    all m.  Built once per (sigma, observation, m), as a voter group's list
    call and each single call of ``expected_score`` and ``mpw`` read it."""
    layout = ((m, 0, m),) * m if fp is None else bucket_layout(fp, m)
    if None in layout:
        raise ValidationError("preference is not fully partitioned")
    index = [0] * m
    met = [0] * m  # met[before]: the items met so far of the bucket that starts there
    for x in sigma:
        before = layout[x][1]
        index[x] = met[before]
        met[before] += 1
    return layout, tuple(index)


# ---------------------------------------------------------------------------
# One pass over the order ideals: every candidate's rank row at once


def _ideal_table(anc_masks: list[int] | tuple[int, ...], edges=None) -> np.ndarray:
    """table[x][j-1] = Pr(item x at rank j) over the orderings of k items that
    ``anc_masks`` allows: all equally likely, or weighted by an insertion
    model's ``edges`` as in ``ideal_levels``.

    A ranking built top-down is a path through the order-ideal lattice, and
    placing x right after the ideal S puts x at rank |S| + 1.  So with f[S]
    from ``ideal_levels`` and g[S] the same sum over the orderings of S's
    complement, x's rank |S| + 1 collects f[S] * w(S, x) * g[S + x].  Unweighted,
    f and g count orderings in exact ints, so each rank's column sums to the
    extension count; weighted, each level of f and of g is divided by its own
    total, so every term of one column carries the same scale.  Either way a
    column divided by its sum is the rank's probabilities, and a level or
    column of no mass raises ZeroPosterior.
    """
    k = len(anc_masks)
    levels = ideal_levels(anc_masks, edges)  # levels[s][S] = f[S] over the ideals of size s
    steps = [(x, 1 << x, anc, edges and edges[x]) for x, anc in enumerate(anc_masks)]
    ranks = [[0] * k for _ in range(k)]  # ranks[s][x]: item x at rank s + 1
    g = {(1 << k) - 1: 1}
    for size in range(k - 1, -1, -1):
        rank = ranks[size]
        for ideal, f in levels[size].items():
            g_ideal = 0
            for x, bit, anc, edge in steps:
                if not ideal & bit and ideal & anc == anc:
                    rest = g[ideal | bit]
                    if edge:
                        rest *= edge[0][(ideal & edge[1]).bit_count()]
                    g_ideal += rest
                    rank[x] += f * rest
            g[ideal] = g_ideal
        if edges:
            total = sum(g[ideal] for ideal in levels[size])
            if not total:
                raise ZeroPosterior("observation has zero probability under the model")
            for ideal in levels[size]:
                g[ideal] /= total
    table = []
    for rank in ranks:
        total = sum(rank)
        if not total:
            raise ZeroPosterior("observation has zero probability under the model")
        table.append([n / total for n in rank])
    return np.array(table).T.copy()


def _components(anc_masks: tuple[int, ...]) -> list[list[int]]:
    """The items of each connected component of the poset ``anc_masks`` reads."""
    components: list[int] = []  # item bit masks
    for b, mask in enumerate(anc_masks):
        comp = mask | 1 << b
        for other in [x for x in components if x & comp]:
            components.remove(other)
            comp |= other
        components.append(comp)
    return [_bits(comp) for comp in components]


def _local_masks(items: list[int], anc_masks: tuple[int, ...]) -> list[int]:
    """The ancestor masks of a component's items, bit i standing for ``items[i]``."""
    return [sum(1 << i for i, a in enumerate(items) if anc_masks[x] >> a & 1) for x in items]


# ---------------------------------------------------------------------------
# Insertion models given an observation the bucket routes do not cover


@lru_cache(maxsize=4096)  # asked twice per query that has no table
def _conditioned(obs: Observation | None, m: int) -> bool:
    """Whether an insertion model given ``obs`` needs a poset solver: ``obs`` is
    a poset or leaves some candidate out of its bucket layout."""
    return obs is not None and (isinstance(obs, PartialOrder) or None in bucket_layout(obs, m))


@lru_cache(maxsize=4096)
def _ideal_route(sigma: Ranking, obs: Observation, m: int) -> bool:
    """Whether ``_insertion_table`` is cheaper than the tracked-item DP: the
    observation's lattice has at most min(``IDEAL_BUDGET``, m ** (cw + 1))
    order ideals, the second bound being about the tracked-item DP's states
    at cover width cw.  The lattice size is the product of the poset's
    components' counts, each walk stopped at what the bound leaves it."""
    limit = min(preferences.IDEAL_BUDGET, m ** (cover_width(sigma, obs) + 1))
    anc_masks = ancestor_masks(obs, m)
    components = _components(anc_masks)
    count = 2 ** sum(len(items) == 1 for items in components)
    for items in components:
        if len(items) > 1:
            try:
                levels = ideal_levels(_local_masks(items, anc_masks), budget=limit // count)
            except TooLarge:
                return False
            count *= sum(map(len, levels))
    return count <= limit


@lru_cache(maxsize=4096)
def _insertion_table(model: RimModel | MallowsModel, obs: Observation, m: int) -> np.ndarray:
    """table[c][j-1] = Pr(c at rank j) under an insertion model given ``obs``,
    by ``_ideal_table`` over the observation's order ideals.

    Placing x = sigma_i right after the ideal S inserts it at position
    1 + |S & {sigma_1..sigma_i-1}| among the first i items, so the edge weighs
    ``pi[i-1][|S & prefix|]`` and a ranking's path multiplies to its
    probability.  Read-only: the cache hands the same array to every caller.
    """
    sigma, pi = model.sigma, model.pi
    step = {x: i for i, x in enumerate(sigma)}
    edges = [(pi[step[x]], sum(1 << y for y in sigma[:step[x]])) for x in range(m)]
    table = _ideal_table(ancestor_masks(obs, m), edges)
    table.setflags(write=False)
    return table


# ---------------------------------------------------------------------------
# Uniform posets: one table per connected component, interleaved over the ranks


@lru_cache(maxsize=4096)
def _uniform_poset_table(m: int, anc_masks: tuple[int, ...]) -> np.ndarray:
    """table[c][j-1] = fraction of linear extensions placing c at rank j.

    ``anc_masks[b]`` has bit a set when a > b in the transitive closure.  The
    linear extensions are the shuffles of the components' extensions, and a
    component of k items lands on a uniformly random k-subset of the ranks.
    So each component's own k x k table, counted over its order ideals in
    exact ints by ``_ideal_table``, is spread over the m ranks by the
    hypergeometric interleave, and an isolated item is uniform.  A component
    with more than ``IDEAL_BUDGET`` ideals raises TooLarge.  Read-only: the
    cache hands the same array to every caller.
    """
    table = np.empty((m, m))
    for items in _components(anc_masks):
        if len(items) == 1:
            table[items] = 1.0 / m
        else:
            table[items] = _ideal_table(_local_masks(items, anc_masks)) @ _interleave(len(items), m)
    table.setflags(write=False)
    return table


def uniform_poset_distribution(c: int, p: PartialOrder, m: int) -> RankDistribution:
    check_candidate(c, m)
    return _uniform_poset_table(m, ancestor_masks(p, m))[c].copy()


# ---------------------------------------------------------------------------
# Dispatch


def shared_table(voter: Voter, m: int) -> np.ndarray | None:
    """The (m, m) table ``rep_dispatch`` reads every row of ``voter`` from, built
    and cached on the first call; None where its route solves each candidate
    on its own.  Checks a model's reference ranking against m."""
    model, obs = voter.model, voter.observation
    if model is None:
        return _uniform_poset_table(m, ancestor_masks(obs, m)) \
            if isinstance(obs, PartialOrder) else None
    validate_reference(model.sigma, m)
    if isinstance(model, RsmRankingModel) or not _conditioned(obs, m) \
            or not _ideal_route(model.sigma, obs, m):
        return None
    return _insertion_table(model, obs, m)


def rep_dispatch(c: int | list[int], voter: Voter, m: int) -> RankDistribution | list:
    """Route one (candidate, voter) query: the closed form, a row of the shared
    table, or a DP for this candidate alone (see the module docstring).  The
    row is the caller's own.

    Given a list of candidates, a list of their rows, each route but the DPs
    read once for all.  List rows must not be written, on every route: the
    closed form's are the cached rows themselves, shared by every caller, and
    a table's or a Mallows voter's are views of one read-only array per call."""
    model, obs = voter.model, voter.observation
    if isinstance(c, list):
        if closed_form(voter):
            return uniform_rows(c, obs, m)
        table = shared_table(voter, m)
        if table is not None:
            for x in c:
                check_candidate(x, m)
            rows = table[c]
        elif isinstance(model, MallowsModel) and not _conditioned(obs, m):
            rows = mallows_partitioned_rows(c, model, obs, m)
        else:
            return [rep_dispatch(x, voter, m) for x in c]
        rows.setflags(write=False)
        return list(rows)
    if closed_form(voter):
        return rep_uniform(c, obs, m)  # checks c
    check_candidate(c, m)
    table = shared_table(voter, m)
    if table is not None:
        return table[c].copy()

    if isinstance(model, RsmRankingModel) and obs is not None:
        raise Unsupported("no exact solver for a selection model with an observation")
    if isinstance(model, MallowsModel) and not _conditioned(obs, m):
        return rep_mallows_partitioned(c, model, obs, m)  # the shared row of the target's bucket
    return _dp_row(c, model, obs, m).copy()


@lru_cache(maxsize=16384)
def _dp_row(c: int, model: RimModel | MallowsModel | RsmRankingModel,
            obs: Observation | None, m: int) -> np.ndarray:
    """``c``'s row from a DP for that candidate alone: the selection DP, the
    tracked-item DP past the ideal table's bound, or ``rep_rim``.  Read-only:
    the cache hands the same array to every caller."""
    if isinstance(model, RsmRankingModel):
        row = rsm_rank_distribution(c, model)
    elif _conditioned(obs, m):
        row = rep_rim_poset(c, model, obs)
    else:
        row = rep_rim(c, model, obs)
    row.setflags(write=False)
    return row


# ---------------------------------------------------------------------------
# Posterior support: the observation's linear extensions, weighted by the model


def voter_support(voter: Voter, m: int) -> list[tuple[Ranking, float]]:
    """All rankings with nonzero posterior probability for one voter.

    The linear extensions of the observation (all rankings without one),
    weighted by the generation-step model and renormalized.  More than
    ``preferences.COMPLETION_CAP`` completions raise TooLarge before any
    ranking is built.
    """
    model = voter.model
    if model is not None:
        validate_reference(model.sigma, m)
    support: list[tuple[Ranking, float]] = []
    for r in linear_extensions(voter.observation, m):
        if model is None:
            w = 1.0
        elif isinstance(model, RsmRankingModel):
            w = rsm_probability(r, model)
        else:  # Mallows included: its pi holds its insertion rows
            w = rim_probability(r, model)
        if w > 0.0:
            support.append((r, w))
    total = sum(w for _, w in support)
    if total <= 0.0:
        raise ZeroPosterior("observation has zero probability under the model")
    return [(r, w / total) for r, w in support]


def clear_caches() -> None:
    """Empty every ``lru_cache`` in this module, ``preferences`` and ``models``; call
    it after changing ``preferences.IDEAL_BUDGET``, as cached routes were chosen under it."""
    for namespace in (vars(models), vars(preferences), globals()):
        for obj in namespace.values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
