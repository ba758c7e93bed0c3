import itertools
import json

import numpy as np
import pytest
from conftest import OBSERVATION_KINDS, pair_poset, random_observation, random_poset
from hypothesis import given, settings
from hypothesis import strategies as st

from mewvote import (
    CycleDetected,
    InvalidRule,
    MallowsModel,
    OverlapViolation,
    ParseError,
    PartialChain,
    PartialOrder,
    PartitionedPreference,
    Profile,
    TooLarge,
    TruncatedRanking,
    UnknownCandidate,
    ValidationError,
    Voter,
    candidate_set,
    cover_width,
    linear_extensions,
    make_rule,
    mallows_to_rim,
    mew_parallel,
    mpw,
    parse_profile,
    rank_bounds,
    rep_dispatch,
    validate,
    voter_support,
)
from mewvote.bench import parse_bench_spec, run_bench
from mewvote.generators import GenSpec, cover_width_profile
from mewvote.preferences import ancestor_masks, bucket_layout, bucket_window, tracked_items
from mewvote.rep import closed_form, shared_table

ABC = candidate_set("a", "b", "c")


def test_validate_rejects_two_cycle():
    with pytest.raises(CycleDetected):
        validate(PartialOrder([(0, 1), (1, 0)]), ABC)


def test_validate_accepts_transitive_dag():
    validate(PartialOrder([(0, 1), (1, 2), (0, 2)]), ABC)


def test_validate_rejects_repeated_chain_item():
    with pytest.raises(OverlapViolation):
        validate(PartialChain((0, 0)), ABC)


def test_validate_rejects_unknown_candidate():
    with pytest.raises(UnknownCandidate):
        validate(PartialOrder([(0, 5)]), ABC)


def test_validate_rejects_bucket_overlap():
    with pytest.raises(OverlapViolation):
        validate(PartitionedPreference([[0, 1], [1, 2]]), ABC)
    with pytest.raises(OverlapViolation):
        validate(TruncatedRanking((0,), (0,)), ABC)


def test_validate_rejects_empty_bucket():
    with pytest.raises(ValidationError):
        validate(PartitionedPreference([[0], []]), ABC)


def test_extensions_of_one_top_item():
    p = PartialOrder([(0, 1), (0, 2)])
    assert linear_extensions(p, ABC) == [(0, 1, 2), (0, 2, 1)]


def test_extensions_of_empty_poset_are_all_permutations():
    assert len(linear_extensions(PartialOrder([]), ABC)) == 6


def test_extensions_single_pair():
    assert len(linear_extensions(PartialOrder([(0, 1)]), ABC)) == 3


def test_extensions_cap():
    cands = candidate_set(*(f"c{i}" for i in range(12)))
    with pytest.raises(TooLarge):
        linear_extensions(PartialOrder([]), cands)


def test_extensions_are_lexicographic():
    exts = linear_extensions(PartialOrder([(0, 1)]), ABC)
    assert exts == sorted(exts)


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_extension_count_matches_filter(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    perm = rng.permutation(m)
    pairs = [
        (int(perm[i]), int(perm[j]))
        for i in range(m) for j in range(i + 1, m) if rng.random() < 0.4
    ]
    p = PartialOrder(pairs)
    exts = linear_extensions(p, m)
    brute = [
        perm2 for perm2 in itertools.permutations(range(m))
        if all(perm2.index(a) < perm2.index(b) for a, b in pairs)
    ]
    assert exts == brute


def test_adding_transitive_pair_keeps_extensions():
    base = PartialOrder([(0, 1), (1, 2)])
    closed = PartialOrder([(0, 1), (1, 2), (0, 2)])
    assert linear_extensions(base, ABC) == linear_extensions(closed, ABC)


def test_cover_width_of_spread_chain():
    sigma = tuple(range(9))
    p = PartialOrder([(2, 4), (4, 7)])  # third item over fifth, fifth over eighth
    assert cover_width(sigma, p) == 1


def test_cover_width_empty():
    assert cover_width(tuple(range(5)), PartialOrder([])) == 0


def test_cover_width_fan_in():
    sigma = (0, 1, 2, 3)
    p = PartialOrder([(0, 3), (1, 3), (2, 3)])
    assert cover_width(sigma, p) == 3


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_cover_width_relabel_invariance(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 7))
    sigma = tuple(int(x) for x in rng.permutation(m))
    pairs = [
        (int(a), int(b))
        for a in range(m) for b in range(m)
        if a != b and rng.random() < 0.25
    ]
    try:
        p = PartialOrder(pairs)
        w = cover_width(sigma, p)
    except CycleDetected:
        return
    relabel = {i: int(x) for i, x in enumerate(rng.permutation(m))}
    sigma2 = tuple(relabel[c] for c in sigma)
    p2 = PartialOrder([(relabel[a], relabel[b]) for a, b in pairs])
    assert cover_width(sigma2, p2) == w


def test_rank_bounds_poset():
    p = PartialOrder([(2, 4), (2, 7)])
    assert rank_bounds(4, p, 10) == (2, 10)


def test_rank_bounds_unconstrained():
    assert rank_bounds(0, PartialOrder([]), 7) == (1, 7)
    assert rank_bounds(3, None, 7) == (1, 7)


def test_rank_bounds_singleton_last_bucket():
    fp = PartitionedPreference([[0, 1], [2]])
    assert rank_bounds(2, fp, 3) == (3, 3)


def test_rank_bounds_chain_and_truncated():
    assert rank_bounds(0, PartialChain((0, 1)), 4) == (1, 3)
    assert rank_bounds(2, PartialChain((0, 1)), 4) == (1, 4)
    tr = TruncatedRanking((3,), (0,))
    assert rank_bounds(3, tr, 4) == (1, 1)
    assert rank_bounds(0, tr, 4) == (4, 4)
    assert rank_bounds(1, tr, 4) == (2, 3)


def test_rank_bounds_are_the_support_of_the_uniform_posterior():
    rng = np.random.default_rng(15)
    for kind in (None, *OBSERVATION_KINDS):
        for _ in range(30):
            m = int(rng.integers(2, 9))
            voter = Voter(None, random_observation(rng, m, kind) if kind else None)
            for c in range(m):
                ranks = np.nonzero(rep_dispatch(c, voter, m))[0] + 1
                support = (int(ranks[0]), int(ranks[-1]))
                assert rank_bounds(c, voter.observation, m) == support, (kind, voter.observation)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_extensions_respect_rank_bounds(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 6))
    perm = rng.permutation(m)
    pairs = [
        (int(perm[i]), int(perm[j]))
        for i in range(m) for j in range(i + 1, m) if rng.random() < 0.4
    ]
    p = PartialOrder(pairs)
    for ranking in linear_extensions(p, m):
        for c in range(m):
            best, worst = rank_bounds(c, p, m)
            assert best <= ranking.index(c) + 1 <= worst


def test_rank_bounds_rejects_candidates_outside_the_set():
    for structure in (None, PartialOrder([(0, 1)]), PartialChain((0, 1)),
                      PartitionedPreference([[0], [1, 2]]), TruncatedRanking((0,), (1,))):
        for c in (-1, 10):
            with pytest.raises(UnknownCandidate):
                rank_bounds(c, structure, 10)


def test_rank_bounds_rejects_invalid_bucket_observations():
    # and so do validate and every solver route, with the same class
    mallows = MallowsModel(range(10), 0.5)
    cases = [
        (PartialChain((0, 12)), UnknownCandidate),
        (TruncatedRanking((12,), ()), UnknownCandidate),
        (PartitionedPreference([[0, 1], [1]]), OverlapViolation),
        (TruncatedRanking((0,), (0,)), OverlapViolation),
        (PartitionedPreference([[0], []]), ValidationError),
        (PartialChain((0, 0)), OverlapViolation),
        (PartitionedPreference([[0], [1]], missing=[1]), OverlapViolation),  # bucketed and missing
        (PartitionedPreference([[0], [1]], missing=[12]), UnknownCandidate),
        (PartitionedPreference([[0], [1]], missing=[-1]), UnknownCandidate),
        (TruncatedRanking((), (12,)), UnknownCandidate),
    ]
    for obs, error in cases:
        with pytest.raises(error):
            rank_bounds(0, obs, 10)
        with pytest.raises(error):
            validate(obs, 10)
        for model in (None, mallows, mallows_to_rim(mallows)):
            with pytest.raises(error):
                rep_dispatch(0, Voter(model, obs), 10)
            with pytest.raises(error):
                voter_support(Voter(model, obs), 10)


def test_validate_fills_no_cache():
    bucket_layout.cache_clear()
    ancestor_masks.cache_clear()
    for obs in (PartitionedPreference([[0, 1], [2]], [3]), PartialChain((2, 0)),
                TruncatedRanking((1,), (0,)), PartialOrder([(0, 1), (1, 2)])):
        validate(obs, 5)
        assert bucket_layout.cache_info().currsize == 0
        assert ancestor_masks.cache_info().currsize == 0


@given(st.integers(0, 10_000), st.sampled_from(("chain", "ranking", "pp", "fp", "truncated")))
@settings(max_examples=150, deadline=None)
def test_bucket_observations_read_as_their_pair_posets(seed, kind):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 13))
    obs = random_observation(rng, m, kind)
    poset = pair_poset(obs, m)
    assert ancestor_masks(obs, m) == ancestor_masks(poset, m), obs
    sigma = tuple(int(x) for x in rng.permutation(m))
    assert tracked_items(sigma, obs) == tracked_items(sigma, poset), (sigma, obs)
    if m <= 7:
        assert linear_extensions(obs, m) == linear_extensions(poset, m), obs


# The per-shape window computations bucket_window made on every call before it
# read the cached bucket layout, kept as an independent reference.
def _reference_window(c, obs, m):
    if isinstance(obs, PartitionedPreference):
        i = next((i for i, b in enumerate(obs.buckets) if c in b), None)
        if i is None:
            return None
        sizes = [len(b) for b in obs.buckets]
        return sum(sizes), sum(sizes[:i]), sizes[i]
    if isinstance(obs, PartialChain):
        if c not in obs.chain:
            return None
        return len(obs.chain), obs.chain.index(c), 1
    if c in obs.top:
        return m, obs.top.index(c), 1
    if c in obs.bottom:
        return m, m - len(obs.bottom) + obs.bottom.index(c), 1
    return m, len(obs.top), m - len(obs.top) - len(obs.bottom)


@given(st.integers(0, 10_000), st.sampled_from(("fp", "pp", "chain", "truncated", "ranking")))
@settings(max_examples=150, deadline=None)
def test_bucket_window_matches_the_per_shape_reference(seed, kind):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 10))
    obs = random_observation(rng, m, kind)
    for c in range(m):
        assert bucket_window(c, obs, m) == _reference_window(c, obs, m), (obs, c)


# The closure scan tracked_items read its cover pairs from before it read the
# ancestor masks, kept as an independent reference.
def _reference_tracked_items(sigma, p):
    closed = p.closure
    items = {x for pair in p.pairs for x in pair}
    partners: dict[int, set[int]] = {}
    for a, b in closed:
        if not any((a, z) in closed and (z, b) in closed for z in items):
            partners.setdefault(a, set()).add(b)
            partners.setdefault(b, set()).add(a)
    remaining = set(sigma)
    tracked = []
    for i, u in enumerate(sigma, start=1):
        remaining.discard(u)
        tracked.append(tuple(x for x in sigma[:i] if partners.get(x) and partners[x] & remaining))
    return tuple(tracked)


def test_tracked_items_match_the_cover_pair_scan():
    rng = np.random.default_rng(10)
    for _ in range(300):
        m = int(rng.integers(1, 11))
        p = random_poset(rng, m, density=float(rng.uniform(0.05, 0.7)))
        sigma = tuple(int(x) for x in rng.permutation(m))
        assert tracked_items(sigma, p) == _reference_tracked_items(sigma, p), (sigma, p)


@pytest.mark.parametrize("call,error,message", [
    (lambda: candidate_set("a", "b", "a"), ValidationError,
     "candidate identifiers must be unique"),
    (lambda: candidate_set("a"), ValidationError, "need at least 2 candidates"),
    (lambda: validate(PartialOrder([(1, 1)]), ABC), CycleDetected,
     "candidate 1 preferred to itself"),
])
def test_candidate_sets_and_self_preference_are_rejected(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error


# --- one integer rule for every count and candidate index ------------------

def _count_rule(name, low=1):
    """The message ``check_count`` gives for ``value``, or None when it takes it."""
    def message(value):
        if isinstance(value, bool) or not isinstance(value, int):
            return f"{name} must be an integer, got {value!r}"
        return f"{name} must be >= {low}, got {value}" if value < low else None
    return message


def _spec_workers(value):
    # the spec's field types are checked first, so a non-int never reaches the count rule
    if isinstance(value, bool) or not isinstance(value, int):
        return f"run 0: field 'workers' must be int, got {value!r}"
    return _count_rule("run 0: field 'workers'", low=0)(value)


def _document(weight):
    return json.dumps({"format": 1, "candidates": ["a", "b"],
                       "voters": [{"type": "poset", "pairs": [], "weight": weight}]})


COUNTS = {  # argument: (call, error class, expected message)
    "voter-weight": (lambda v: Voter(None, None, v), ValidationError,
                     _count_rule("voter weight")),
    "document-weight": (lambda v: parse_profile(_document(v)), ValidationError,
                        _count_rule("voter 0: voter weight")),
    "parallel-workers": (lambda v: mew_parallel(Profile(ABC, [Voter()]), make_rule("borda", 3),
                                                workers=v),
                         InvalidRule, _count_rule("workers")),
    "mpw-state-cap": (lambda v: mpw(Profile(ABC, [Voter()]), make_rule("borda", 3), state_cap=v),
                      ValidationError, _count_rule("state_cap")),
    "bench-repeat": (lambda v: run_bench([], repeat=v), ValidationError, _count_rule("repeat")),
    "spec-workers": (lambda v: parse_bench_spec(json.dumps([{"kind": "poset", "workers": v}])),
                     ParseError, _spec_workers),
    "cover-width": (lambda v: cover_width_profile(6, 1, v, 0.5), ValidationError,
                    _count_rule("cover width")),
    "gen-seed": (lambda v: GenSpec(kind="poset", m=5, n=3, seed=v), ValidationError,
                 _count_rule("seed", low=0)),
}


@pytest.mark.parametrize("value", [True, 2.5, "2", 0, -1], ids=repr)
@pytest.mark.parametrize("argument", COUNTS)
def test_every_count_is_an_integer_of_at_least_its_floor(argument, value):
    call, error, message = COUNTS[argument]
    if message(value) is None:  # 0 workers in a bench spec is the serial solver
        call(value)
        return
    with pytest.raises(error) as info:
        call(value)
    assert type(info.value) is error and str(info.value) == message(value)


OBSERVATION_ITEMS = {  # an observation built around one candidate index
    "poset-upper": lambda c: PartialOrder([(c, 1)]),
    "poset-lower": lambda c: PartialOrder([(1, c)]),
    "chain": lambda c: PartialChain((c, 0)),
    "truncated-top": lambda c: TruncatedRanking((c,), ()),
    "truncated-bottom": lambda c: TruncatedRanking((), (c,)),
}


@pytest.mark.parametrize("build", OBSERVATION_ITEMS.values(), ids=list(OBSERVATION_ITEMS))
def test_observations_take_candidate_indices_by_the_integer_rule(build):
    for c in (0.9, 1.7, True, "2"):
        with pytest.raises(UnknownCandidate, match="^candidate index must be an integer, got "):
            build(c)
    # an integer is stored as a plain int (numpy's repr differs), and its range waits for m
    assert repr(build(np.int64(2))) == repr(build(2))
    with pytest.raises(UnknownCandidate, match="outside 0..3"):
        validate(build(-1), 4)


def _route_voters(m):
    mallows = MallowsModel(tuple(range(m)), 0.5)
    return {
        "closed-form": Voter(None, PartialChain((2, 0))),
        "uniform-poset-table": Voter(None, PartialOrder([(0, 1)])),
        "insertion-table": Voter(mallows, PartialOrder([(0, 1), (1, 2)])),
        "mallows-bucket-rows": Voter(mallows, PartitionedPreference([[0, 1], [2, 3]])),
        "dp-row": Voter(mallows_to_rim(mallows), None),
    }


@pytest.mark.parametrize("c", [True, 1.0, -1, 4], ids=repr)
@pytest.mark.parametrize("route", _route_voters(4))
def test_dispatch_rejects_a_candidate_that_is_not_an_index_on_every_route(route, c):
    m = 4
    voter = _route_voters(m)[route]
    assert closed_form(voter) == (route == "closed-form")
    assert (shared_table(voter, m) is not None) == route.endswith("table")
    with pytest.raises(UnknownCandidate):
        rep_dispatch(c, voter, m)
    assert np.array_equal(rep_dispatch(np.int64(1), voter, m), rep_dispatch(1, voter, m))
