import itertools
from dataclasses import dataclass

import numpy as np
import pytest
from conftest import (
    OBSERVATION_KINDS,
    SUPPORTED_COMBOS,
    pair_poset,
    random_model,
    random_observation,
    random_poset,
    random_ranking,
    random_supported_voter,
    random_truncated,
    solver_caches,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import mewvote.models as models
import mewvote.preferences as preferences
import mewvote.rep as rep
from mewvote import (
    CoverWidthExceeded,
    GenSpec,
    MallowsModel,
    MewError,
    PartialChain,
    PartialOrder,
    PartitionedPreference,
    Profile,
    RankOutOfRange,
    RimModel,
    RsmRankingModel,
    TooLarge,
    TruncatedRanking,
    UnknownCandidate,
    Unsupported,
    ValidationError,
    Voter,
    ZeroPosterior,
    candidate_set,
    cover_width,
    expected_score,
    generate,
    linear_extensions,
    make_rule,
    mallows_probability,
    mallows_to_rim,
    mallows_to_rsm,
    mew,
    rank_bounds,
    rep_dispatch,
    rep_mallows_partitioned,
    rep_rim,
    rep_rim_poset,
    rep_rim_truncated,
    rep_rsm,
    rep_uniform,
    rim_probability,
    rsm_probability,
    rsm_rank_distribution,
    sample,
    uniform_poset_distribution,
    validate,
    voter_support,
)
from mewvote.generators import cover_width_profile
from mewvote.models import uniform_rim
from mewvote.oracle import fcp_count, oracle_rank_distribution
from mewvote.preferences import ancestor_masks, bucket_layout, bucket_window


# --- closed form over ordered buckets ----------------------------------

def test_fully_partitioned_slots():
    fp = PartitionedPreference([[0, 1], [2]])
    assert np.allclose(rep_uniform(0, fp, 3), [0.5, 0.5, 0.0])
    assert np.allclose(rep_uniform(2, fp, 3), [0.0, 0.0, 1.0])
    singles = PartitionedPreference([[0], [1], [2]])
    assert np.allclose(rep_uniform(1, singles, 3), [0.0, 1.0, 0.0])


def test_partial_chain_degrees_of_freedom():
    pc = PartialChain((0, 1))
    assert np.allclose(rep_uniform(0, pc, 3), [2 / 3, 1 / 3, 0.0])
    assert np.allclose(rep_uniform(2, pc, 4), [0.25] * 4)
    full = PartialChain((2, 0, 1))
    assert np.allclose(rep_uniform(0, full, 3), [0.0, 1.0, 0.0])


def test_partially_partitioned_specializations():
    fp = PartitionedPreference([[0, 1], [2]])
    for c, slots in enumerate([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]):
        assert np.allclose(rep_uniform(c, fp, 3), slots, atol=1e-15)
    pp = PartitionedPreference([[0], [1]], [2])
    assert np.allclose(rep_uniform(0, pp, 3), [2 / 3, 1 / 3, 0.0])
    # single-item buckets reduce to the chain formula
    chain_like = PartitionedPreference([[0], [1]], [2, 3])
    pc = PartialChain((0, 1))
    for c in range(4):
        assert np.allclose(rep_uniform(c, chain_like, 4),
                           rep_uniform(c, pc, 4), atol=1e-12)


def test_truncated_delegates_to_partitions():
    tr = TruncatedRanking((0,), (3,))
    assert np.allclose(rep_uniform(1, tr, 4), [0.0, 0.5, 0.5, 0.0])
    assert np.allclose(rep_uniform(0, tr, 4), [1.0, 0.0, 0.0, 0.0])
    empty = TruncatedRanking((), ())
    assert np.allclose(rep_uniform(2, empty, 4), [0.25] * 4)


def test_uniform_rows_are_shared_and_equal_the_per_call_formula():
    def per_call(window, m):  # the formula rep_uniform evaluated on every call
        if window is None:
            return np.full(m, 1.0 / m)
        k, before, size = window
        rows = rep._interleave(k, m)[before:before + size]
        return rows[0].copy() if size == 1 else rows.sum(axis=0) / size

    for m in range(2, 25):
        cases = [(0, None, None)]
        for k in range(1, m + 1):
            for before in range(k):
                for size in range(1, k - before + 1):
                    # the items before c's bucket, c's bucket (c = before), the rest
                    buckets = [range(before), range(before, before + size),
                               range(before + size, k)]
                    obs = PartitionedPreference([b for b in buckets if b], range(k, m))
                    cases.append((before, obs, (k, before, size)))
        for c, obs, window in cases:
            assert bucket_window(c, obs, m) == window
            out = rep_uniform(c, obs, m)
            assert np.array_equal(out, per_call(window, m)), (m, window)
            shared = rep._uniform_row(window, m)
            assert out.flags.writeable and not np.shares_memory(out, shared)
            assert not shared.flags.writeable


# --- insertion model ------------------------------------------------------

def test_rim_two_items():
    rim = mallows_to_rim(MallowsModel((0, 1), 0.5))
    assert np.allclose(rep_rim(1, rim), [1 / 3, 2 / 3], atol=1e-15)


def test_rim_last_item_uniform_rows():
    rim = mallows_to_rim(MallowsModel((0, 1, 2, 3), 1.0))
    assert np.allclose(rep_rim(3, rim), [0.25] * 4, atol=1e-15)


def test_insertion_readers_take_a_mallows_model_as_it_is():
    rng = np.random.default_rng(8)
    for m in range(3, 8):
        for _ in range(3):
            mallows = random_model(rng, m, "mallows")
            rim = mallows_to_rim(mallows)
            p, tr = random_poset(rng, m), random_truncated(rng, m)
            for c in range(m):
                assert np.array_equal(rep_rim(c, mallows), rep_rim(c, rim))
                assert np.array_equal(rep_rim_poset(c, mallows, p), rep_rim_poset(c, rim, p))
                assert np.array_equal(rep_rim_truncated(c, mallows, tr),
                                      rep_rim_truncated(c, rim, tr))
            r = random_ranking(rng, m)
            assert rim_probability(r, mallows) == rim_probability(r, rim)
            assert sample(mallows, m) == sample(rim, m)


def test_mallows_rows_are_built_once_per_phi_and_m(monkeypatch):
    calls = []
    build = models._geometric_row
    monkeypatch.setattr(models, "_geometric_row", lambda *args: calls.append(args) or build(*args))
    models._insertion_rows.cache_clear()
    voter_support(Voter(MallowsModel(tuple(range(7)), 0.5)), 7)  # weighs 5,040 rankings
    assert len(calls) <= 7


def test_rim_matches_brute_force():
    rng = np.random.default_rng(3)
    rows = [list(w / w.sum()) for w in
            (rng.uniform(0.05, 1.0, size=i) for i in range(1, 5))]
    model = RimModel((2, 0, 3, 1), rows)
    for c in range(4):
        dist = rep_rim(c, model)
        for j in range(1, 5):
            brute = sum(rim_probability(r, model)
                        for r in itertools.permutations(range(4)) if r[j - 1] == c)
            assert dist[j - 1] == pytest.approx(brute, abs=1e-12)


# --- selection model ------------------------------------------------------

def test_rsm_rank_one_is_direct_selection():
    rng = np.random.default_rng(4)
    rows = [list(w / w.sum()) for w in
            (rng.uniform(0.05, 1.0, size=4 - i) for i in range(4))]
    model = RsmRankingModel((0, 1, 2, 3), rows)
    for c in range(4):
        alpha0 = model.sigma.index(c)
        assert rep_rsm(c, 1, model) == pytest.approx(rows[0][alpha0], abs=1e-15)


def test_rsm_matches_brute_force_everywhere():
    rng = np.random.default_rng(5)
    rows = [list(w / w.sum()) for w in
            (rng.uniform(0.05, 1.0, size=4 - i) for i in range(4))]
    model = RsmRankingModel((0, 1, 2, 3), rows)
    for c in range(4):
        dist = rsm_rank_distribution(c, model)
        for k in range(1, 5):
            brute = sum(rsm_probability(r, model)
                        for r in itertools.permutations(range(4)) if r[k - 1] == c)
            assert rep_rsm(c, k, model) == pytest.approx(brute, abs=1e-12)
            assert dist[k - 1] == pytest.approx(brute, abs=1e-12)


# --- conditioned insertion model ------------------------------------------

def test_poset_conditioning_with_empty_poset_matches_plain_rim():
    model = mallows_to_rim(MallowsModel((0, 1, 2, 3), 0.55))
    empty = PartialOrder([])
    for c in range(4):
        assert np.allclose(rep_rim_poset(c, model, empty), rep_rim(c, model), atol=1e-12)


def test_uniform_poset_matches_extension_frequencies():
    rng = np.random.default_rng(6)
    for _ in range(20):
        m = int(rng.integers(3, 8))
        p = random_poset(rng, m)
        exts = linear_extensions(p, m)
        rim = uniform_rim(tuple(range(m)))
        for c in range(m):
            freq = np.zeros(m)
            for r in exts:
                freq[r.index(c)] += 1 / len(exts)
            assert np.allclose(rep_rim_poset(c, rim, p), freq, atol=1e-12)
            assert np.allclose(uniform_poset_distribution(c, p, m), freq, atol=1e-12)


def _disconnected_poset(rng, m, shape):
    """A poset of the given shape over a random relabelling of 0..m-1."""
    perm = [int(x) for x in rng.permutation(m)]
    if shape == "empty":
        return PartialOrder([])
    if shape == "chain":  # one chain, the other items isolated
        return PartialOrder(PartialChain(perm[:int(rng.integers(2, m + 1))]).to_pairs())
    if shape == "connected":  # a spanning tree ordered by perm, plus random pairs
        pairs = [(perm[int(rng.integers(i))], perm[i]) for i in range(1, m)]
        pairs += [(perm[i], perm[j]) for i in range(m) for j in range(i + 1, m)
                  if rng.random() < 0.2]
        return PartialOrder(pairs)
    # isolated items plus several components, each a random poset of its own
    cuts = sorted(int(x) for x in rng.choice(np.arange(1, m), size=2, replace=False))
    pairs = []
    for block in (perm[:cuts[0]], perm[cuts[0]:cuts[1]], perm[cuts[1]:]):
        sub = random_poset(rng, len(block), density=0.5)
        pairs += [(block[a], block[b]) for a, b in sub.pairs]
    return PartialOrder(pairs)


def test_uniform_poset_components_match_extension_frequencies():
    rng = np.random.default_rng(13)
    for shape in ("empty", "chain", "connected", "blocks"):
        for _ in range(6):
            m = int(rng.integers(3, 9))
            p = _disconnected_poset(rng, m, shape)
            exts = linear_extensions(p, m)
            for c in range(m):
                freq = np.zeros(m)
                for r in exts:
                    freq[r.index(c)] += 1 / len(exts)
                assert np.allclose(uniform_poset_distribution(c, p, m), freq,
                                   atol=1e-12), (shape, p.pairs)


# An independent reference for the order-ideal DP: a numpy DP over all 2^m masks.
def _prefix_set_table(m: int, anc_masks: tuple[int, ...]) -> np.ndarray:
    """table[c][j-1] = fraction of linear extensions placing c at rank j.

    f[S] counts orderings of a valid prefix set S, g[S] orderings of its
    complement; placing c right after prefix S contributes f[S] * g[S + c]
    extensions with c at rank |S| + 1.  Runs over all 2^m masks, so the table
    build calls it on one connected component at a time, with m the
    component's size; counts stay exact in int64 for components of <= 20 items.
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


def test_uniform_poset_components_match_whole_poset_dp():
    rng = np.random.default_rng(14)
    for _ in range(60):
        m = int(rng.integers(2, 13))
        p = random_poset(rng, m, density=float(rng.uniform(0.0, 0.4)))
        anc_masks = [0] * m
        for a, b in p.closure:
            anc_masks[b] |= 1 << a
        whole = _prefix_set_table(m, tuple(anc_masks))
        for c in range(m):
            assert np.allclose(uniform_poset_distribution(c, p, m), whole[c],
                               rtol=0, atol=1e-12), p.pairs


def _unreachable(*args, **kwargs):
    raise AssertionError("rep_rim_poset reached")


def test_full_layouts_under_insertion_models_never_reach_the_tracked_item_dp(monkeypatch):
    # a full partition, a truncation or a complete chain places all m candidates,
    # so the windowed DP solves it; a complete chain is a point mass on both routes
    rng = np.random.default_rng(61)
    cases = []
    for m in (3, 5, 6):
        for obs_kind in ("fp", "truncated", "ranking"):
            for model_kind in ("mallows", "rim"):
                obs = random_observation(rng, m, obs_kind)
                model = random_model(rng, m, model_kind)
                want = [rep_rim_poset(c, model, pair_poset(obs, m)) for c in range(m)]
                cases.append((m, Voter(model, obs), want))
    monkeypatch.setattr(rep, "rep_rim_poset", _unreachable)
    for m, voter, want in cases:
        for c in range(m):
            got = rep_dispatch(c, voter, m)
            if isinstance(voter.observation, PartialChain):
                assert np.array_equal(got, want[c]), voter
            else:
                assert np.allclose(got, want[c], rtol=0, atol=1e-12), voter


def test_uniform_posets_past_the_limit_solve_without_the_tracked_item_dp(monkeypatch):
    rep._uniform_poset_table.cache_clear()
    monkeypatch.setattr(rep, "rep_rim_poset", _unreachable)
    prof = generate(GenSpec(kind="poset", m=17, n=20, p_max=0.1, seed=17))
    result = mew(prof, make_rule("plurality", 17), pruning=False)
    assert sum(result.expected_scores.values()) == pytest.approx(20.0, abs=1e-9)


def test_uniform_poset_components_of_any_size_use_the_ideal_dp(monkeypatch):
    rep._uniform_poset_table.cache_clear()
    monkeypatch.setattr(rep, "rep_rim_poset", _unreachable)
    m, k = 19, 17
    chain = PartialChain(range(1, k + 1))  # one component of k items, two isolated
    voter = Voter(None, PartialOrder(chain.to_pairs()))
    for c in range(m):
        assert np.allclose(rep_dispatch(c, voter, m), rep_uniform(c, chain, m),
                           rtol=0, atol=1e-12)
    # 18 items above one: 2^18 + 1 order ideals, one past the budget
    wide = PartialOrder([(i, m - 1) for i in range(k + 1)])
    with pytest.raises(TooLarge, match=r"poset over 19 items has at least 262145 order ideals"):
        rep_dispatch(0, Voter(None, wide), m)


def _components(p, m):
    """Item lists of the connected components of a poset's comparability graph."""
    linked = {x: {x} for x in range(m)}
    for a, b in p.closure:
        linked[a].add(b)
        linked[b].add(a)
    seen, out = set(), []
    for x in range(m):
        if x not in seen:
            comp, todo = set(), [x]
            while todo:
                y = todo.pop()
                if y not in comp:
                    comp.add(y)
                    todo.extend(linked[y])
            seen |= comp
            out.append(sorted(comp))
    return out


def test_uniform_poset_m20_solves_every_component_without_the_tracked_item_dp(monkeypatch):
    prof = generate(GenSpec(kind="poset", m=20, n=40, p_max=0.1, seed=0))
    m = prof.m
    posets = {v.observation for v in prof.voters if isinstance(v.observation, PartialOrder)}
    large = [(p, items) for p in posets for items in _components(p, m) if len(items) >= 13]
    assert max(len(items) for _, items in large) == 19
    checked = 0
    for p, items in large:
        k = len(items)
        local = {x: i for i, x in enumerate(items)}
        sub = PartialOrder((local[a], local[b]) for a, b in p.closure if a in local)
        if cover_width(tuple(range(k)), sub) > 4:
            continue
        table = rep._ideal_table(rep._local_masks(items, ancestor_masks(p, m)))
        for x in range(k):
            assert np.allclose(table[x], rep_rim_poset(x, uniform_rim(tuple(range(k))), sub),
                               rtol=0, atol=1e-12)
        checked += 1
    assert checked

    rep._uniform_poset_table.cache_clear()
    monkeypatch.setattr(rep, "rep_rim_poset", _unreachable)
    result = mew(prof, make_rule("plurality", m), pruning=False)
    assert sum(result.expected_scores.values()) == pytest.approx(prof.n, abs=1e-9)


def test_dispatch_rejects_out_of_range_candidates():
    with pytest.raises(UnknownCandidate):
        rep_dispatch(0, Voter(None, PartialOrder([(0, 12)])), 10)
    with pytest.raises(UnknownCandidate):
        rep_dispatch(0, Voter(None, PartialOrder([(12, 0)])), 10)
    with pytest.raises(UnknownCandidate):
        rep_dispatch(11, Voter(None, PartialChain((0, 1))), 10)
    with pytest.raises(UnknownCandidate):
        rep_dispatch(-1, Voter(None, PartialChain((0, 1))), 10)
    # observation items past m - 1 or negative, whether or not they place c
    mallows = MallowsModel(tuple(range(10)), 0.5)
    for obs in (PartialChain((0, 12)), PartitionedPreference([[0], [12]]),
                PartialOrder([(0, -1)]), TruncatedRanking((12,), ()),
                PartitionedPreference([range(9), [12]])):  # ten items, one past m - 1
        for model in (None, mallows, mallows_to_rim(mallows)):
            for c in (0, 5):
                with pytest.raises(UnknownCandidate):
                    rep_dispatch(c, Voter(model, obs), 10)


_MALLOWS4 = MallowsModel((2, 0, 3, 1), 0.5)
_CANDIDATE_SOLVERS = {  # every public per-candidate solver, on a voter over candidates 0..3
    "rep_dispatch": lambda c: rep_dispatch(c, Voter(_MALLOWS4, PartialOrder([(0, 1)])), 4),
    "rep_dispatch-rows-table":
        lambda c: rep_dispatch([0, c], Voter(None, PartialOrder([(0, 1)])), 4),
    "rep_dispatch-rows": lambda c: rep_dispatch([c, 0], Voter(None, PartialChain((0, 1))), 4),
    "expected_score": lambda c: expected_score(c, Voter(), make_rule("borda", 4)),
    "rep_uniform": lambda c: rep_uniform(c, PartialChain((0, 1)), 4),
    "uniform_poset_distribution":
        lambda c: uniform_poset_distribution(c, PartialOrder([(0, 1)]), 4),
    "rep_rim": lambda c: rep_rim(c, mallows_to_rim(_MALLOWS4)),
    "rep_rim_truncated":
        lambda c: rep_rim_truncated(c, _MALLOWS4, TruncatedRanking((2,), (1,))),
    "rep_rim_poset": lambda c: rep_rim_poset(c, _MALLOWS4, PartialOrder([(0, 1)])),
    "rep_mallows_partitioned":
        lambda c: rep_mallows_partitioned(c, _MALLOWS4, PartitionedPreference([[0, 1], [2, 3]])),
    "rsm_rank_distribution": lambda c: rsm_rank_distribution(c, mallows_to_rsm(_MALLOWS4)),
    "rep_rsm": lambda c: rep_rsm(c, 1, mallows_to_rsm(_MALLOWS4)),
    "rank_bounds": lambda c: rank_bounds(c, PartialOrder([(0, 1)]), 4),
}


@pytest.mark.parametrize("solver", list(_CANDIDATE_SOLVERS))
def test_every_solver_rejects_a_candidate_it_does_not_hold(solver):
    solve = _CANDIDATE_SOLVERS[solver]
    for c in (-1, 4, 7, True, 1.0):  # a bool or a float is no index, even of a held candidate
        with pytest.raises(UnknownCandidate):
            solve(c)
    for c in range(4):
        solve(c)


def test_dispatch_lists_the_rows_of_a_candidate_list():
    # one voter per route: closed form, uniform-poset table, insertion table,
    # Mallows bucket row, selection DP
    for voter in (Voter(None, PartialChain((0, 1))), Voter(None, PartialOrder([(0, 1), (2, 1)])),
                  Voter(_MALLOWS4, PartialOrder([(0, 1)])), Voter(_MALLOWS4),
                  Voter(mallows_to_rsm(_MALLOWS4))):
        for cands in ([2], [3, 0, 2], [1, 1]):
            rows = rep_dispatch(cands, voter, 4)
            assert len(rows) == len(cands), voter
            for row, c in zip(rows, cands):
                assert np.array_equal(row, rep_dispatch(c, voter, 4)), voter


def test_list_rows_refuse_writes_on_every_route_but_the_dps():
    # closed form, uniform-poset table, insertion table, Mallows bucket rows:
    # a list call's rows are shared and read-only, a single call's row is a copy
    for voter in (Voter(None, PartialChain((0, 1))), Voter(None, PartialOrder([(0, 1), (2, 1)])),
                  Voter(_MALLOWS4, PartialOrder([(0, 1)])), Voter(_MALLOWS4),
                  Voter(_MALLOWS4, PartitionedPreference([[3, 0], [1, 2]]))):
        for row, c in zip(rep_dispatch([3, 0, 2, 0], voter, 4), [3, 0, 2, 0]):
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 0.0
            single = rep_dispatch(c, voter, 4)
            assert single.flags.writeable and not np.shares_memory(single, row), voter
            assert np.array_equal(single, row), voter


_LIST_CANDIDATES = [7, 0, 3, 3, 5, 1, 2, 4, 6]  # every candidate of m = 8, one twice
_CLOSED_FORM_WINDOWS = {  # one uniform voter per kind of bucket window, at m = 8
    "none": None,
    "chain": PartialChain((5, 0, 3)),
    "partial partition": PartitionedPreference([[6, 1], [2], [7, 0, 4]], missing=[3]),
    "truncated with a middle": TruncatedRanking((2, 5), (1,)),
    "truncated without a middle": TruncatedRanking((2, 5, 0, 7), (1, 3, 6, 4)),
}


@pytest.mark.parametrize("kind", list(_CLOSED_FORM_WINDOWS))
def test_closed_form_list_rows_are_the_shared_read_only_rows(kind, monkeypatch):
    obs = _CLOSED_FORM_WINDOWS[kind]
    voter = Voter(None, obs)
    calls = _count_calls(monkeypatch, "rep_uniform")
    rows = rep_dispatch(_LIST_CANDIDATES, voter, 8)
    assert calls == {"rep_uniform": 0}  # one read of the layout, no per-candidate call
    assert len(rows) == len(_LIST_CANDIDATES)
    for row, c in zip(rows, _LIST_CANDIDATES):
        assert np.array_equal(row, rep_dispatch(c, voter, 8)), c
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0
    # a bucket's candidates, and every unplaced one, share one row object
    windows = [bucket_window(c, obs, 8) for c in _LIST_CANDIDATES]
    for i, j in itertools.combinations(range(len(rows)), 2):
        assert (rows[i] is rows[j]) == (windows[i] == windows[j]), (i, j)


_MALLOWS8 = MallowsModel((3, 0, 6, 1, 7, 2, 5, 4), 0.6)
_FULL_LAYOUTS = {  # every observation a Mallows voter reads one bucket row per candidate from
    "none": None,
    "full partition": PartitionedPreference([[6, 1, 2], [0], [4, 7, 3, 5]]),
    "truncation": TruncatedRanking((2, 5), (1,)),
    "complete chain": PartialChain((4, 1, 7, 0, 2, 6, 3, 5)),
}


@pytest.mark.parametrize("kind", list(_FULL_LAYOUTS))
def test_mallows_list_rows_take_one_pass_and_equal_the_single_rows(kind, monkeypatch):
    obs = _FULL_LAYOUTS[kind]
    voter = Voter(_MALLOWS8, obs)
    assert rep.shared_table(voter, 8) is None
    calls = _count_calls(monkeypatch, "rep_mallows_partitioned")
    rep._bucket_places.cache_clear()
    rows = rep_dispatch(_LIST_CANDIDATES, voter, 8)
    assert calls == {"rep_mallows_partitioned": 0}
    assert len(rows) == len(_LIST_CANDIDATES)
    for row, c in zip(rows, _LIST_CANDIDATES):
        assert np.array_equal(row, rep_dispatch(c, voter, 8)), c
        assert np.array_equal(row, rep_mallows_partitioned(c, _MALLOWS8, obs, 8)), c
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 0.0
    assert rows[2] is not rows[3]  # rows of a repeated candidate are separate arrays
    # one pass over sigma served the list call and every single row after it
    assert rep._bucket_places.cache_info().misses == 1


def test_list_rows_raise_as_the_single_path():
    voters = [Voter(None, obs) for obs in _CLOSED_FORM_WINDOWS.values()] \
        + [Voter(_MALLOWS8, obs) for obs in _FULL_LAYOUTS.values()]
    for voter in voters:
        for bad in (-1, 8, True, 1.0):
            with pytest.raises(UnknownCandidate):
                rep_dispatch(bad, voter, 8)
            with pytest.raises(UnknownCandidate):
                rep_dispatch([0, bad], voter, 8)
    for solve in (lambda: rep_mallows_partitioned(0, _MALLOWS4, _LEAVES_ONE_OUT),
                  lambda: rep.mallows_partitioned_rows([0, 2], _MALLOWS4, _LEAVES_ONE_OUT)):
        with pytest.raises(ValidationError, match="not fully partitioned") as info:
            solve()
        assert type(info.value) is ValidationError
    for solve in (lambda: rep_mallows_partitioned(4, _MALLOWS4, None),
                  lambda: rep.mallows_partitioned_rows([0, 4], _MALLOWS4, None)):
        with pytest.raises(UnknownCandidate):
            solve()


_LEAVES_ONE_OUT = PartitionedPreference([[2], [0]], missing=[1, 3])  # places 2 of 4


@pytest.mark.parametrize("solve,error,message", [
    (lambda: rep_rim(0, _MALLOWS4, _LEAVES_ONE_OUT), ValidationError, "not fully partitioned"),
    (lambda: rep_rim_truncated(0, mallows_to_rim(_MALLOWS4), _LEAVES_ONE_OUT),
     ValidationError, "not fully partitioned"),
    (lambda: rep_mallows_partitioned(0, _MALLOWS4, _LEAVES_ONE_OUT), ValidationError,
     "not fully partitioned"),
    (lambda: rep_rsm(0, 0, mallows_to_rsm(_MALLOWS4)), RankOutOfRange, r"rank 0 outside \[1, 4\]"),
    (lambda: rep_rsm(0, 5, mallows_to_rsm(_MALLOWS4)), RankOutOfRange, r"rank 5 outside \[1, 4\]"),
])
def test_solvers_reject_inputs_outside_their_domain(solve, error, message):
    with pytest.raises(error, match=message) as info:
        solve()
    assert type(info.value) is error


def test_shared_tables_are_read_only_and_dispatch_rows_are_copies():
    poset = PartialOrder([(0, 1)])
    for voter in (Voter(None, poset), Voter(_MALLOWS4, poset)):  # both table routes
        table = rep.shared_table(voter, 4)
        assert table is not None and not table.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 0.0
        row = rep_dispatch(0, voter, 4)
        assert row.flags.writeable and not np.shares_memory(row, table)
        row[:] = 0.0
        assert rep_dispatch(0, voter, 4).sum() == pytest.approx(1.0)


def _count_calls(monkeypatch, *names):
    """Replace each named ``rep`` function with one that counts its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(rep, name)

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(rep, name, counted)
    return calls


_DP_SOLVERS = ("rep_rim_poset", "rep_rim", "rsm_rank_distribution")


def _dp_profile():
    """One voter per per-candidate DP: the tracked-item DP (a Mallows voter
    past the ideal table's bound), ``rep_rim`` and the selection DP."""
    m = 10
    sigma = tuple(range(m))
    voters = [Voter(MallowsModel(sigma, 0.5), PartialOrder([(3, 7)])),
              Voter(mallows_to_rim(MallowsModel(sigma[::-1], 0.6))),
              Voter(mallows_to_rsm(MallowsModel(sigma, 0.7)))]
    return Profile(candidate_set(*(f"c{i}" for i in range(m))), voters)


def test_a_second_rule_on_the_same_profile_runs_no_dp_until_the_caches_clear(monkeypatch):
    prof = _dp_profile()
    rep.clear_caches()
    calls = _count_calls(monkeypatch, *_DP_SOLVERS)
    plurality = mew(prof, make_rule("plurality", prof.m), pruning=False)
    assert calls == dict.fromkeys(_DP_SOLVERS, prof.m)
    calls.update(dict.fromkeys(calls, 0))
    mew(prof, make_rule("borda", prof.m))
    assert calls == dict.fromkeys(_DP_SOLVERS, 0)
    rep.clear_caches()
    again = mew(prof, make_rule("plurality", prof.m), pruning=False)
    assert again.expected_scores == plurality.expected_scores
    assert calls == dict.fromkeys(_DP_SOLVERS, prof.m)


def test_dp_rows_are_cached_read_only_and_dispatch_rows_are_copies():
    prof = _dp_profile()
    for voter in prof.voters:
        assert rep.shared_table(voter, prof.m) is None
        row = rep_dispatch(0, voter, prof.m)
        assert not rep._dp_row(0, voter.model, voter.observation, prof.m).flags.writeable
        assert row.flags.writeable
        want = row.copy()
        row[:] = 0.0
        assert np.array_equal(rep_dispatch(0, voter, prof.m), want)


def test_voter_support_rejects_out_of_range_observations():
    for obs, m in ((PartialOrder([(0, 12)]), 10), (PartialOrder([(0, -1)]), 10),
                   (PartialChain((0, 12)), 10), (TruncatedRanking((12,), ()), 5),
                   (PartitionedPreference([[0], [1]], missing=[12]), 10)):  # in no pair
        with pytest.raises(UnknownCandidate):
            voter_support(Voter(None, obs), m)


# The m! permutation filter voter_support ran before it walked the order-ideal
# lattice, kept as an independent reference for its rankings, order and weights.
def _filtered_support(voter, m):
    obs, model = voter.observation, voter.model
    pairs = frozenset() if obs is None else pair_poset(obs, m).pairs
    support = []
    for perm in itertools.permutations(range(m)):
        pos = {x: t for t, x in enumerate(perm)}
        if all(pos[a] < pos[b] for a, b in pairs):
            if model is None:
                w = 1.0
            elif isinstance(model, MallowsModel):
                w = mallows_probability(perm, model)
            else:
                w = rim_probability(perm, model)
            if w > 0.0:
                support.append((perm, w))
    total = sum(w for _, w in support)
    return [(r, w / total) for r, w in support]


def test_voter_support_matches_the_permutation_filter():
    rng = np.random.default_rng(41)
    for m in range(3, 7):
        for model_kind in ("uniform", "mallows", "rim"):
            for obs_kind in (None, *OBSERVATION_KINDS):
                for _ in range(2):
                    obs = random_observation(rng, m, obs_kind) if obs_kind else None
                    voter = Voter(random_model(rng, m, model_kind), obs)
                    got, want = voter_support(voter, m), _filtered_support(voter, m)
                    assert [r for r, _ in got] == [r for r, _ in want], (voter, m)
                    assert np.allclose([w for _, w in got], [w for _, w in want],
                                       rtol=0, atol=1e-12), (voter, m)
    model = RimModel((0, 1, 2), [[1.0], [0.0, 1.0], [0.5, 0.0, 0.5]])  # 0 above 1 always
    with pytest.raises(ZeroPosterior):
        voter_support(Voter(model, PartialChain((1, 0))), 3)


def test_voter_support_counts_completions_before_weighting_any(monkeypatch):
    def refuse(*args):
        raise AssertionError("a ranking was weighted")

    monkeypatch.setattr(rep, "rim_probability", refuse)
    with pytest.raises(TooLarge):  # 10! completions, past the cap
        voter_support(Voter(MallowsModel(tuple(range(10)), 0.5), None), 10)


def test_weighted_poset_posterior_matches_oracle():
    rng = np.random.default_rng(7)
    for _ in range(25):
        m = 5
        p = random_poset(rng, m)
        phi = float(rng.uniform(0.2, 0.9))
        sigma = tuple(int(x) for x in rng.permutation(m))
        voter = Voter(MallowsModel(sigma, phi), p)
        model = mallows_to_rim(MallowsModel(sigma, phi))
        for c in range(m):
            assert np.allclose(rep_rim_poset(c, model, p),
                               oracle_rank_distribution(voter, c, m), atol=1e-9)


def test_zero_posterior_raises():
    model = RimModel((0, 1), [[1.0], [0.0, 1.0]])  # only <0,1> has mass
    with pytest.raises(ZeroPosterior):
        rep_rim_poset(1, model, PartialOrder([(1, 0)]))
    with pytest.raises(ZeroPosterior):
        rep_rim_truncated(1, model, TruncatedRanking((1,), ()))


def test_cover_width_cap():
    m = 9
    wide = PartialOrder([(i, m - 1) for i in range(7)])
    model = uniform_rim(tuple(range(m)))
    with pytest.raises(CoverWidthExceeded):
        rep_rim_poset(0, model, wide)
    # raising the cap lets it run
    rep_rim_poset(0, model, wide, cw_cap=8)


def test_tracked_item_dp_bounds_its_states_per_step(monkeypatch):
    # the cover-width cap alone does not bound the work: width 6 at m=10 peaks
    # past 10,000 states in one step, under the default bound of 2^18
    voter = cover_width_profile(m=10, n=1, width=6, phi=0.5).voters[0]
    model, obs = voter.model, voter.observation
    assert np.allclose(rep_rim_poset(0, model, obs), rep._insertion_table(model, obs, 10)[0],
                       rtol=0, atol=1e-12)
    monkeypatch.setattr(preferences, "IDEAL_BUDGET", 10_000)
    with pytest.raises(CoverWidthExceeded,
                       match=r"^cover width 6: step \d+ of 10 holds more than 10000 "):
        rep_rim_poset(0, model, obs)


def test_the_ideal_budget_is_read_where_it_is_checked(monkeypatch):
    # item 0 above the other five: 33 order ideals, so a budget of 16 refuses both
    # tables, and one restored (then the caches emptied) takes them again
    star = PartialOrder([(0, x) for x in range(1, 6)])
    uniform, mallows = Voter(None, star), Voter(MallowsModel(tuple(range(6)), 0.5), star)
    rep.clear_caches()
    monkeypatch.setattr(preferences, "IDEAL_BUDGET", 16)
    with pytest.raises(TooLarge, match="past the budget of 16$"):
        rep_dispatch(0, uniform, 6)
    assert rep.shared_table(mallows, 6) is None  # the tracked-item DP solves it instead
    monkeypatch.undo()
    rep.clear_caches()
    assert rep_dispatch(0, uniform, 6)[0] == 1.0
    assert rep.shared_table(mallows, 6) is not None


# --- insertion models given a poset: one table over the order ideals -------

def _random_conditioned_voter(rng, m, trial):
    """A Mallows (phi 0.2, 0.5 or 1) or RIM voter with zeros in its rows, given a
    poset, a partial chain or a partial partition with missing items."""
    sigma = random_ranking(rng, m)
    if trial % 2:
        model = MallowsModel(sigma, (0.2, 0.5, 1.0)[trial // 2 % 3])
    else:
        model = RimModel(sigma, _rows_with_zeros(rng, m))
    kind = trial % 3
    if kind == 0:
        obs = random_poset(rng, m, density=0.4)
    elif kind == 1:
        obs = PartialChain(random_ranking(rng, m)[:int(rng.integers(1, m))])
    else:
        obs = random_observation(rng, m, "pp")
    return model, obs


def _rows_or_error(solve, m):
    try:
        return np.array([solve(c) for c in range(m)])
    except ZeroPosterior:
        return ZeroPosterior


def test_ideal_table_rows_match_the_tracked_item_dp():
    rng = np.random.default_rng(31)
    solved = zero = 0
    for trial in range(360):
        m = int(rng.integers(3, 9))
        model, obs = _random_conditioned_voter(rng, m, trial)
        want = _rows_or_error(lambda c: rep_rim_poset(c, model, obs, cw_cap=m), m)
        got = _rows_or_error(lambda c: rep._insertion_table(model, obs, m)[c], m)
        if want is ZeroPosterior:
            assert got is ZeroPosterior, (model, obs)
            zero += 1
        else:
            assert np.allclose(got, want, rtol=0, atol=1e-12), (model, obs)
            solved += 1
    assert solved >= 300 and zero


def test_both_insertion_poset_routes_match_the_oracle():
    rng = np.random.default_rng(32)
    zero = 0
    for trial in range(150):
        m = int(rng.integers(3, 8))
        model, obs = _random_conditioned_voter(rng, m, trial)
        voter = Voter(model, obs)
        want = _rows_or_error(lambda c: oracle_rank_distribution(voter, c, m), m)
        for solve in (lambda c: rep_rim_poset(c, model, obs, cw_cap=m),
                      lambda c: rep._insertion_table(model, obs, m)[c]):
            got = _rows_or_error(solve, m)
            if want is ZeroPosterior:
                assert got is ZeroPosterior, (model, obs)
            else:
                assert np.allclose(got, want, rtol=0, atol=1e-12), (model, obs)
        zero += want is ZeroPosterior
    assert zero


def test_insertion_posets_take_the_cheaper_route(monkeypatch):
    rep.clear_caches()  # a cached row would skip the solver it counts
    calls = _count_calls(monkeypatch, "rep_rim_poset", "_insertion_table")
    # one pair among ten items: cover width 1, 3 * 2^8 = 768 ideals > 10^2
    m = 10
    sparse = Voter(MallowsModel(tuple(range(m)), 0.5), PartialOrder([(3, 7)]))
    for c in range(m):
        rep_dispatch(c, sparse, m)
    assert calls == {"rep_rim_poset": m, "_insertion_table": 0}
    # c1..c7 above c9: cover width 7, past the tracked-item DP's cap, and 258 ideals
    m = 9
    wide = Voter(MallowsModel(tuple(range(m)), 0.5), PartialOrder([(i, m - 1) for i in range(7)]))
    calls.update(dict.fromkeys(calls, 0))
    for c in range(m):
        rep_dispatch(c, wide, m)
    assert calls == {"rep_rim_poset": 0, "_insertion_table": m}


def test_a_voter_past_the_cover_width_cap_solves_by_its_order_ideals():
    m = 9
    model = MallowsModel(tuple(range(m)), 0.5)
    wide = PartialOrder([(i, m - 1) for i in range(7)])
    for c in range(m):
        assert np.allclose(rep_dispatch(c, Voter(model, wide), m),
                           rep_rim_poset(c, model, wide, cw_cap=7), rtol=0, atol=1e-12)


# --- conditioned on truncated rankings -------------------------------------

def test_truncated_conditioning_fixed_positions():
    model = mallows_to_rim(MallowsModel((0, 1, 2, 3), 0.6))
    tr = TruncatedRanking((2,), (0,))
    assert np.allclose(rep_rim_truncated(2, model, tr), [1, 0, 0, 0], atol=1e-15)
    assert np.allclose(rep_rim_truncated(0, model, tr), [0, 0, 0, 1], atol=1e-15)


def test_truncated_no_constraint_matches_plain_rim():
    model = mallows_to_rim(MallowsModel((1, 3, 0, 2), 0.8))
    tr = TruncatedRanking((), ())
    for c in range(4):
        assert np.allclose(rep_rim_truncated(c, model, tr), rep_rim(c, model), atol=1e-12)


def test_truncated_route_validates_each_observation_once():
    model, tr = MallowsModel((0, 1, 2, 3, 4), 0.5), TruncatedRanking((3,), (1,))
    bucket_layout.cache_clear()
    for c in range(5):
        rep_rim_truncated(c, model, tr)
    assert bucket_layout.cache_info().misses == 1


def test_truncated_posterior_matches_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        m = 5
        t = int(rng.integers(0, 3))
        b = int(rng.integers(0, 3))
        perm = [int(x) for x in rng.permutation(m)]
        tr = TruncatedRanking(perm[:t], perm[m - b:] if b else [])
        sigma = tuple(int(x) for x in rng.permutation(m))
        model = mallows_to_rim(MallowsModel(sigma, float(rng.uniform(0.2, 1.0))))
        voter = Voter(model, tr)
        for c in range(m):
            assert np.allclose(rep_rim_truncated(c, model, tr),
                               oracle_rank_distribution(voter, c, m), atol=1e-9)


def test_truncated_evidence_too_small_for_a_float_still_solves():
    # 30 forced top positions at phi = 0.05 multiply to about 1e-630, which
    # underflowed an evidence product to a false ZeroPosterior
    m = 60
    mallows = MallowsModel(range(m), 0.05)
    voter = Voter(mallows_to_rim(mallows), TruncatedRanking(range(30, 0, -1), ()))
    got = rep_dispatch(0, voter, m)
    assert got[30] == pytest.approx(0.95, abs=1e-12)
    assert np.allclose(got, rep_dispatch(0, Voter(mallows, voter.observation), m),
                       rtol=0, atol=1e-12)


def test_poset_evidence_too_small_for_a_float_still_solves():
    # the tracked-item DP's state products underflowed to a false ZeroPosterior
    m = 60
    mallows = MallowsModel(range(m), 0.05)
    tr = TruncatedRanking(range(30, 0, -1), ())
    poset = PartialOrder(tr.to_partitioned(m).to_pairs())
    for model in (mallows, mallows_to_rim(mallows)):
        for c in (0, 15, 45):
            assert np.allclose(rep_rim_poset(c, model, poset), rep_rim_truncated(c, model, tr),
                               rtol=0, atol=1e-12)
        got = rep_dispatch(0, Voter(model, PartialChain(range(30, 0, -1))), m)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)


# --- insertion models given a fully partitioned preference ------------------

def _rows_with_zeros(rng, m):
    rows = []
    for i in range(1, m + 1):
        row = rng.uniform(0.05, 1.0, size=i) * (rng.random(i) > 0.25)
        if not row.any():
            row[int(rng.integers(i))] = 1.0
        rows.append(row / row.sum())
    return rows


def test_rim_given_a_fully_partitioned_preference_matches_oracle():
    rng = np.random.default_rng(21)
    solved = zero = 0
    for _ in range(120):
        m = int(rng.integers(2, 7))
        model = RimModel(random_ranking(rng, m), _rows_with_zeros(rng, m))
        voter = Voter(model, random_observation(rng, m, "fp"))
        for c in range(m):
            try:
                want = oracle_rank_distribution(voter, c, m)
            except ZeroPosterior:
                with pytest.raises(ZeroPosterior):
                    rep_dispatch(c, voter, m)
                zero += 1
                continue
            assert np.allclose(rep_dispatch(c, voter, m), want, rtol=0, atol=1e-12)
            solved += 1
    assert solved and zero


def test_rim_partitioned_route_matches_the_tracked_item_dp():
    rng = np.random.default_rng(22)
    m, checked = 9, 0
    while checked < 5:
        model = mallows_to_rim(MallowsModel(random_ranking(rng, m), float(rng.uniform(0.2, 1.0))))
        perm = random_ranking(rng, m)
        split = int(rng.integers(1, m))
        fp = PartitionedPreference([perm[:split], perm[split:]])
        poset = PartialOrder(fp.to_pairs())
        if cover_width(model.sigma, poset) > 6:
            continue
        for c in range(m):
            assert np.allclose(rep_dispatch(c, Voter(model, fp), m),
                               rep_rim_poset(c, model, poset), rtol=0, atol=1e-12)
        checked += 1


def test_rim_with_three_buckets_at_m20_matches_the_bucket_restriction():
    # cover width 13: past the tracked-item DP's cap
    m = 20
    perm = random_ranking(np.random.default_rng(23), m)
    fp = PartitionedPreference([perm[:6], perm[6:13], perm[13:]])
    mallows = MallowsModel(range(m), 0.6)
    voter = Voter(mallows_to_rim(mallows), fp)
    with pytest.raises(CoverWidthExceeded):
        rep_rim_poset(0, voter.model, PartialOrder(fp.to_pairs()))
    for c in range(m):
        assert np.allclose(rep_dispatch(c, voter, m), rep_mallows_partitioned(c, mallows, fp),
                           rtol=0, atol=1e-12)


# --- Mallows restricted to a bucket ----------------------------------------

def test_mallows_partition_point_mass_for_singleton():
    fp = PartitionedPreference([[1], [0, 2]])
    model = MallowsModel((0, 1, 2), 0.5)
    assert np.allclose(rep_mallows_partitioned(1, model, fp), [1, 0, 0], atol=1e-15)


def test_mallows_partition_phi_one_is_uniform_in_bucket():
    fp = PartitionedPreference([[0, 2], [1, 3]])
    model = MallowsModel((0, 1, 2, 3), 1.0)
    for c in range(4):
        assert np.allclose(rep_mallows_partitioned(c, model, fp),
                           rep_uniform(c, fp, 4), atol=1e-12)


def test_mallows_partition_matches_oracle():
    fp = PartitionedPreference([[0, 2, 4], [1, 3]])
    model = MallowsModel((0, 1, 2, 3, 4), 0.5)
    voter = Voter(model, fp)
    for c in range(5):
        assert np.allclose(rep_mallows_partitioned(c, model, fp),
                           oracle_rank_distribution(voter, c, 5), atol=1e-9)


def _per_call_mallows_row(c, model, obs, m):
    """A fresh Mallows over the target's bucket (all m without an observation),
    solved by ``rep_rim`` and placed in the bucket's window."""
    if obs is None:
        return rep_rim(c, model)
    layout = bucket_layout(obs, m)
    _, before, size = layout[c]
    sub_sigma = tuple(x for x in model.sigma if layout[x] == layout[c])
    probs = np.zeros(m)
    probs[before:before + size] = rep_rim(c, MallowsModel(sub_sigma, model.phi))
    return probs


def _mallows_full_layout_voters(rng, ms):
    for m in ms:
        for phi in (0.3, 0.7, 1.0):
            for obs_kind in (None, "fp", "truncated", "ranking"):
                for _ in range(2):
                    obs = obs_kind and random_observation(rng, m, obs_kind)
                    yield m, Voter(MallowsModel(random_ranking(rng, m), phi), obs)


def test_mallows_shared_rows_equal_the_per_call_bucket_dp():
    rep.clear_caches()
    for m, voter in _mallows_full_layout_voters(np.random.default_rng(71), range(2, 9)):
        for c in range(m):
            want = _per_call_mallows_row(c, voter.model, voter.observation, m)
            assert np.array_equal(rep_dispatch(c, voter, m), want), (voter, c)
    assert rep._mallows_rank_row.cache_info().hits > 0


def test_mallows_shared_rows_match_oracle():
    for m, voter in _mallows_full_layout_voters(np.random.default_rng(72), range(2, 7)):
        for c in range(m):
            assert np.allclose(rep_dispatch(c, voter, m), oracle_rank_distribution(voter, c, m),
                               rtol=0, atol=1e-12), (voter, c)


def test_mallows_rows_are_shared_across_voters_and_candidates():
    # one row per (phi, bucket size, index in the bucket), whatever the labels
    m = 20
    prof = generate(GenSpec(kind="mallows_tr", m=m, n=100, t=3, b=2, seed=5))
    keys = set()
    for voter in prof.voters:
        layout = bucket_layout(voter.observation, m)
        for c in range(m):
            before_c = voter.model.sigma[:voter.model.sigma.index(c)]
            index = sum(1 for x in before_c if layout[x] == layout[c])
            keys.add((voter.model.phi, layout[c][2], index))
    rep.clear_caches()
    mew(prof, make_rule("borda", m))
    info = rep._mallows_rank_row.cache_info()
    assert info.misses == info.currsize == len(keys) == 16
    assert info.hits > 0
    with pytest.raises(ValueError, match="read-only"):
        rep._mallows_rank_row(0.5, m - 5, 0)[0] = 1.0  # one array serves every reader


def test_clear_caches_leaves_no_mallows_rows_on_the_model():
    model = MallowsModel((2, 0, 1, 3), 0.4)
    for obs in (None, PartialOrder([(2, 3)])):  # the shared row; the tracked-item DP
        voter = Voter(model, obs)
        rep_dispatch(0, voter, 4)
        rep.clear_caches()
        assert "pi" not in vars(model)
        rep_dispatch(0, voter, 4)
        assert models._insertion_rows.cache_info().misses == 1


# --- dispatch ---------------------------------------------------------------

def test_dispatch_routes_to_closed_forms():
    pc = PartialChain((0, 1))
    v = Voter(None, pc)
    assert np.allclose(rep_dispatch(0, v, 3), rep_uniform(0, pc, 3), atol=1e-15)
    mal = MallowsModel((0, 1, 2), 0.5)
    assert np.allclose(rep_dispatch(1, Voter(mal, None), 3),
                       rep_rim(1, mallows_to_rim(mal)), atol=1e-15)


def test_model_reference_ranking_must_order_the_candidates():
    for sigma in ((0, 1, 2), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 7)):
        mallows = MallowsModel(sigma, 0.5)
        for model in (mallows, mallows_to_rim(mallows), mallows_to_rsm(mallows)):
            for obs in (None, PartialChain((0, 1))):
                for c in (0, 4):
                    with pytest.raises(ValidationError, match="model reference ranking"):
                        rep_dispatch(c, Voter(model, obs), 5)
                with pytest.raises(ValidationError, match="model reference ranking"):
                    voter_support(Voter(model, obs), 5)


def test_dispatch_rejects_selection_model_with_observation():
    rsm = mallows_to_rsm(MallowsModel((0, 1, 2), 0.5))
    with pytest.raises(Unsupported):
        rep_dispatch(0, Voter(rsm, PartialOrder([(0, 1)])), 3)


def test_dispatch_uniform_voter():
    assert np.allclose(rep_dispatch(1, Voter(), 4), [0.25] * 4)


@dataclass(frozen=True)
class _Ratings:  # an observation type no solver knows: hashable, not a tuple
    scores: tuple[float, ...] = (0.5, 0.2, 0.3)


_UNKNOWN_OBSERVATIONS = (_Ratings(), [0, 1])  # a list cannot even key a cache


_MALLOWS3 = MallowsModel((0, 1, 2), 0.5)
_UNKNOWN_OBSERVATION_PATHS = {
    "rep_dispatch-uniform": lambda obs: rep_dispatch(0, Voter(None, obs), 3),
    "rep_dispatch-mallows": lambda obs: rep_dispatch(0, Voter(_MALLOWS3, obs), 3),
    "rep_dispatch-rim": lambda obs: rep_dispatch(0, Voter(mallows_to_rim(_MALLOWS3), obs), 3),
    "rank_bounds": lambda obs: rank_bounds(0, obs, 3),
    "validate": lambda obs: validate(obs, 3),
    "voter_support-uniform": lambda obs: voter_support(Voter(None, obs), 3),
    "voter_support-mallows": lambda obs: voter_support(Voter(_MALLOWS3, obs), 3),
    "Profile": lambda obs: Profile(candidate_set("a", "b", "c"), [Voter(None, obs)]),
}


@pytest.mark.parametrize("path", list(_UNKNOWN_OBSERVATION_PATHS))
def test_unknown_observation_type_is_unsupported_on_every_path(path):
    for obs in _UNKNOWN_OBSERVATIONS:
        with pytest.raises(Unsupported, match=f"unknown observation type {type(obs).__name__}"):
            _UNKNOWN_OBSERVATION_PATHS[path](obs)


def test_unknown_model_type_is_unsupported_when_a_voter_is_built():
    for model in (object(), "mallows", MallowsModel):
        with pytest.raises(Unsupported, match=f"unknown model type {type(model).__name__}"):
            Profile(candidate_set("a", "b", "c"), [Voter(model=model)])


def test_clear_caches_empties_every_solver_preference_and_model_cache():
    rule = make_rule("borda", 6)
    for kind in ("poset", "mallows_po", "mallows_tr", "rsm", "chain"):
        prof = generate(GenSpec(kind=kind, m=6, n=8, k=3, t=2, b=1, seed=4))
        mew(prof, rule)
        voter_support(prof.voters[0], 6)
    caches = solver_caches()
    assert len(caches) >= 9  # rep's tables, the observation views, the model rows
    assert all(cache.cache_info().currsize > 0 for cache in caches)
    rep.clear_caches()
    assert [cache.cache_info().currsize for cache in caches] == [0] * len(caches)


# --- module-level invariants -------------------------------------------------

def test_oracle_equivalence_over_supported_voters():
    rng = np.random.default_rng(9)
    worst = 0.0
    for trial in range(200):
        m = int(rng.integers(3, 7))
        voter = random_supported_voter(rng, m)
        dists = np.array([rep_dispatch(c, voter, m) for c in range(m)])
        for c in range(m):
            oracle = oracle_rank_distribution(voter, c, m)
            worst = max(worst, float(np.max(np.abs(dists[c] - oracle))))
        # rows and columns are stochastic for any single voter
        assert np.allclose(dists.sum(axis=1), 1.0, atol=1e-9)
        assert np.allclose(dists.sum(axis=0), 1.0, atol=1e-9)
    assert worst <= 1e-9


def test_all_supported_combos_are_exercised_and_exact():
    rng = np.random.default_rng(10)
    for combo in SUPPORTED_COMBOS:
        for _ in range(3):
            m = int(rng.integers(3, 6))
            voter = random_supported_voter(rng, m, combo)
            for c in range(m):
                assert np.allclose(rep_dispatch(c, voter, m),
                                   oracle_rank_distribution(voter, c, m),
                                   atol=1e-9), combo


@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 6),
       st.sampled_from(("uniform", "mallows", "rim", "rsm")),
       st.sampled_from((None, *OBSERVATION_KINDS)))
@settings(max_examples=1000, deadline=None)
def test_dispatch_matches_the_oracle_on_every_model_and_observation(seed, m, model_kind, obs_kind):
    rng = np.random.default_rng(seed)
    if model_kind == "rim":  # zero entries make some observations impossible
        model = RimModel(random_ranking(rng, m), _rows_with_zeros(rng, m))
    else:
        model = random_model(rng, m, model_kind)
    voter = Voter(model, obs_kind and random_observation(rng, m, obs_kind))
    if model_kind == "rsm" and voter.observation is not None:
        want = Unsupported
    else:
        try:
            want = np.array([oracle_rank_distribution(voter, c, m) for c in range(m)])
        except ZeroPosterior:
            want = ZeroPosterior
    for c in range(m):
        if isinstance(want, type):
            with pytest.raises(MewError) as info:
                rep_dispatch(c, voter, m)
            assert info.type is want, (voter, c)
        else:
            assert np.allclose(rep_dispatch(c, voter, m), want[c], rtol=0, atol=1e-9), (voter, c)


def test_rank_probability_equals_approval_score_difference():
    rng = np.random.default_rng(11)
    for _ in range(60):
        m = int(rng.integers(3, 6))
        voter = random_supported_voter(rng, m)
        for c in range(m):
            dist = rep_dispatch(c, voter, m)
            prev = 0.0
            for k in range(1, m):
                rule = make_rule("k_approval", m, k)
                e_k = float(np.dot(dist, rule.scores))
                assert dist[k - 1] == pytest.approx(e_k - prev, abs=1e-9)
                prev = e_k
            assert dist[m - 1] == pytest.approx(1.0 - prev, abs=1e-9)


def test_uniform_poset_probabilities_are_extension_counts():
    rng = np.random.default_rng(12)
    for _ in range(40):
        m = int(rng.integers(3, 7))
        p = random_poset(rng, m)
        n_ext = len(linear_extensions(p, m))
        for c in range(m):
            dist = rep_dispatch(c, Voter(None, p), m)
            for j in range(1, m + 1):
                count = dist[j - 1] * n_ext
                assert count == pytest.approx(round(count), abs=1e-6)
                assert round(count) == fcp_count(c, j, p, m)
