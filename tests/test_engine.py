import importlib
import multiprocessing
import os
from collections import defaultdict

import numpy as np
import pytest
from conftest import random_supported_profile, wide_second_group_profile

from mewvote import (
    CoverWidthExceeded,
    GenSpec,
    MallowsModel,
    MewError,
    PartialChain,
    PartialOrder,
    Profile,
    RimModel,
    Voter,
    candidate_set,
    expected_regret,
    expected_score,
    generate,
    load_profile,
    make_rule,
    mew,
    mew_parallel,
)
from mewvote.oracle import meta_profile, meta_scores, oracle_expected_scores


@pytest.fixture
def fig1(data_dir):
    return load_profile(data_dir / "fig1.profile")


@pytest.fixture
def election4(data_dir):
    return load_profile(data_dir / "election4.profile")


def test_expected_score_of_explicit_distribution_voter(fig1):
    voter_x = fig1.voters[0]
    assert expected_score(1, voter_x, make_rule("plurality", 3)) == pytest.approx(0.3, abs=1e-12)


def test_expected_score_point_mass_and_uniform():
    borda = make_rule("borda", 4)
    point = Voter(None, PartialChain((3, 0, 1, 2)))
    assert expected_score(0, point, borda) == pytest.approx(2.0, abs=1e-12)
    assert expected_score(2, Voter(), borda) == pytest.approx(6.0 / 4.0, abs=1e-12)


def test_mew_on_two_voter_distribution_profile(fig1):
    res = mew(fig1, make_rule("plurality", 3))
    assert res.winners == ("b",)
    assert res.expected_scores["b"] == pytest.approx(0.8, abs=1e-12)
    res_b = mew(fig1, make_rule("borda", 3))
    assert res_b.winners == ("b",)
    assert res_b.expected_scores["b"] == pytest.approx(2.8, abs=1e-12)


def test_mew_single_point_mass_voter():
    cands = candidate_set("a", "b", "c", "d")
    prof = Profile(cands, [Voter(None, PartialChain((2, 0, 1, 3)))])
    res = mew(prof, make_rule("borda", 4))
    assert res.winners == ("c",)
    assert res.expected_scores["c"] == pytest.approx(3.0, abs=1e-12)


def test_mew_poset_plus_rankings_profile(election4):
    res = mew(election4, make_rule("plurality", 4), pruning=False)
    expected = {"Biden": 1.5, "Sanders": 0.5, "Trump": 1.0, "Weld": 0.0}
    for name, value in expected.items():
        assert res.expected_scores[name] == pytest.approx(value, abs=1e-12)
    assert res.winners == ("Biden",)


def test_pruning_and_grouping_do_not_change_winners():
    rng = np.random.default_rng(21)
    for _ in range(25):
        prof = random_supported_profile(rng, world_budget=500)
        rule = make_rule("borda", prof.m)
        reference = mew(prof, rule, pruning=False, grouping=False)
        for pruning in (False, True):
            for grouping in (False, True):
                res = mew(prof, rule, pruning=pruning, grouping=grouping)
                assert res.winners == reference.winners


def test_grouping_leaves_scores_unchanged():
    rng = np.random.default_rng(22)
    cands = candidate_set("a", "b", "c", "d")
    base = [
        Voter(MallowsModel((0, 1, 2, 3), 0.5), None),
        Voter(None, PartialOrder([(0, 1)])),
        Voter(None, PartialChain((2, 3))),
    ]
    voters = [base[int(rng.integers(3))] for _ in range(30)]
    prof = Profile(cands, voters)
    rule = make_rule("borda", 4)
    with_g = mew(prof, rule, pruning=False, grouping=True)
    without_g = mew(prof, rule, pruning=False, grouping=False)
    for name in with_g.expected_scores:
        assert with_g.expected_scores[name] == pytest.approx(
            without_g.expected_scores[name], rel=1e-12, abs=1e-12)
    assert with_g.stats.groups == 3
    assert without_g.stats.groups == 30


def test_groups_are_heaviest_first_with_ties_in_order_of_first_appearance():
    from mewvote.engine import _grouped

    a, c = Voter(None, PartialChain((0, 1))), Voter(None, PartialChain((2, 0)))
    b2 = Voter(None, PartialChain((1, 2)), weight=2)
    heavy = Voter(MallowsModel((0, 1, 2), 0.5), None, weight=3)
    prof = Profile(candidate_set("a", "b", "c"), [a, b2, c, a, heavy, c])
    grouped = _grouped(prof, True)
    # b2 alone weighs 2, as much as the two a's and the two c's: ties keep first appearance
    assert grouped == [(heavy, 3), (a, 2), (b2, 2), (c, 2)]
    assert [v for v, _ in grouped] == [prof.voters[i] for i in (4, 0, 1, 2)]
    assert all(v is prof.voters[i] for (v, _), i in zip(grouped, (4, 0, 1, 2)))  # no copies
    ungrouped = _grouped(prof, False)
    assert ungrouped == [(v, v.weight) for v in prof.voters]
    assert all(v is u for (v, _), u in zip(ungrouped, prof.voters))


def test_duplicating_voters_doubles_scores():
    rng = np.random.default_rng(23)
    prof = random_supported_profile(rng, world_budget=300)
    doubled = Profile(prof.candidates, prof.voters + prof.voters)
    rule = make_rule("plurality", prof.m)
    one = mew(prof, rule, pruning=False)
    two = mew(doubled, rule, pruning=False)
    for name in one.expected_scores:
        assert two.expected_scores[name] == pytest.approx(
            2 * one.expected_scores[name], rel=1e-12, abs=1e-12)


def test_weighted_voter_equals_repeated_voter():
    cands = candidate_set("a", "b", "c")
    heavy = Profile(cands, [Voter(None, PartialOrder([(0, 1)]), weight=3)])
    repeated = Profile(cands, [Voter(None, PartialOrder([(0, 1)]))] * 3)
    rule = make_rule("borda", 3)
    a = mew(heavy, rule, pruning=False)
    b = mew(repeated, rule, pruning=False)
    for name in a.expected_scores:
        assert a.expected_scores[name] == pytest.approx(b.expected_scores[name], abs=1e-12)


def test_mew_matches_meta_election_scores():
    rng = np.random.default_rng(24)
    for _ in range(20):
        prof = random_supported_profile(rng, world_budget=400)
        rule = make_rule("borda", prof.m)
        res = mew(prof, rule, pruning=False)
        meta = meta_scores(meta_profile(prof), rule, prof.m)
        for c, name in enumerate(prof.candidates.ids):
            assert res.expected_scores[name] == pytest.approx(meta[c], abs=1e-9)


def test_least_regret_candidates_are_the_winners():
    rng = np.random.default_rng(25)
    for _ in range(50):
        prof = random_supported_profile(rng, world_budget=300)
        rule = make_rule("plurality", prof.m)
        res = mew(prof, rule, pruning=False)
        regrets = {c: expected_regret(c, prof, rule) for c in range(prof.m)}
        lo = min(regrets.values())
        tol = 1e-9 * max(1.0, abs(lo))
        least = tuple(prof.candidates.ids[c] for c in sorted(regrets)
                      if regrets[c] <= lo + tol)
        assert least == res.winners


def test_regret_of_certain_winner_is_zero():
    cands = candidate_set("a", "b", "c")
    prof = Profile(cands, [Voter(None, PartialChain((0, 1, 2)))])
    assert expected_regret(0, prof, make_rule("borda", 3)) == pytest.approx(0.0, abs=1e-12)


def test_regret_decomposes_as_best_minus_score(fig1):
    rule = make_rule("plurality", 3)
    res = mew(fig1, rule, pruning=False)
    # E[best world score] is a profile constant: regret(c) + E[score(c)] is equal for all c
    totals = {
        name: expected_regret(c, fig1, rule) + res.expected_scores[name]
        for c, name in enumerate(fig1.candidates.ids)
    }
    values = list(totals.values())
    assert all(v == pytest.approx(values[0], abs=1e-12) for v in values)
    assert expected_regret(1, fig1, rule) == pytest.approx(values[0] - 0.8, abs=1e-12)


def test_bounds_shrink_monotonically():
    # replaying the engine state by hand: after k groups a candidate lies in
    # [exact + lo[k], exact + hi[k]], where hi[k] and lo[k] sum the unsolved
    # groups' weighted best-rank and worst-rank scores; ub never increases and
    # lb never decreases
    rng = np.random.default_rng(26)
    prof = random_supported_profile(rng, m_range=(4, 5), n_range=(3, 5), world_budget=400)
    rule = make_rule("borda", prof.m)
    from mewvote.engine import _grouped
    from mewvote.preferences import rank_bounds

    groups = _grouped(prof, True)
    m = prof.m
    hi, lo = [np.zeros(m)], [np.zeros(m)]
    for voter, weight in reversed(groups):
        ranks = [rank_bounds(c, voter.observation, m) for c in range(m)]
        hi.insert(0, hi[0] + weight * np.array([rule.scores[b - 1] for b, _ in ranks]))
        lo.insert(0, lo[0] + weight * np.array([rule.scores[w - 1] for _, w in ranks]))
    exact = np.zeros(m)
    ub, lb = exact + hi[0], exact + lo[0]
    assert np.all(lb <= ub + 1e-12)
    for k, (voter, weight) in enumerate(groups, 1):
        exact += weight * np.array([expected_score(c, voter, rule) for c in range(m)])
        prev_ub, prev_lb = ub, lb
        ub, lb = exact + hi[k], exact + lo[k]
        assert np.all(ub <= prev_ub + 1e-12)
        assert np.all(lb >= prev_lb - 1e-12)
        assert np.all(lb <= ub + 1e-12)
    assert np.allclose(ub, lb, atol=1e-9)


def test_pruned_candidates_cannot_win():
    rng = np.random.default_rng(27)
    for _ in range(15):
        prof = random_supported_profile(rng, world_budget=300)
        rule = make_rule("plurality", prof.m)
        res = mew(prof, rule, pruning=True)
        full = oracle_expected_scores(prof, rule)
        top = full.max()
        for name in res.pruned:
            c = prof.candidates.ids.index(name)
            assert full[c] < top - 1e-12 or name not in res.winners


def test_pruned_result_splits_candidates_into_scores_and_bounds():
    rng = np.random.default_rng(29)
    for _ in range(40):
        prof = random_supported_profile(rng, world_budget=300)
        rule = make_rule(str(rng.choice(["plurality", "borda", "veto"])), prof.m)
        res = mew(prof, rule, pruning=True)
        full = oracle_expected_scores(prof, rule)
        ids = prof.candidates.ids
        assert set(res.expected_scores).isdisjoint(res.bounds)
        assert set(res.expected_scores) | set(res.bounds) == set(ids)
        for name, score in res.expected_scores.items():
            assert score == pytest.approx(full[ids.index(name)], abs=1e-9)
        for name, (lo, hi) in res.bounds.items():
            assert lo - 1e-9 <= full[ids.index(name)] <= hi + 1e-9
            assert lo < hi  # a zero-width interval is reported as a score
        assert len(res.pruned) == res.stats.prunings
        values = [*res.expected_scores.values(), *(v for b in res.bounds.values() for v in b)]
        assert all(type(v) is float for v in values)


@pytest.mark.parametrize("spec, as_scores", [
    (GenSpec(kind="poset", m=5, n=6, p_max=0.3, seed=2), {"c3"}),
    (GenSpec(kind="mallows_fp", m=8, n=6, k=3, seed=0), {"c4", "c6", "c7"}),
])
def test_an_interval_is_never_inverted_and_a_closed_one_is_a_score(spec, as_scores):
    # these candidates' pending best and worst scores meet, where adding and
    # subtracting per group gave intervals like (0.8, 0.7999999999999998)
    prof = generate(spec)
    rule = make_rule("plurality", prof.m)
    res = mew(prof, rule)
    ref = mew(prof, rule, pruning=False)
    assert res.winners == ref.winners
    assert all(lo < hi for lo, hi in res.bounds.values())
    assert as_scores <= res.expected_scores.keys()
    for name in as_scores:
        assert res.expected_scores[name] == pytest.approx(ref.expected_scores[name], abs=1e-12)


def test_closed_form_groups_are_all_in_before_pruning_starts():
    # seeded alone, the poset voter's bounds would prune c, which the
    # closed-form voters then make the winner
    prof = Profile(candidate_set("a", "b", "c"),
                   [Voter(None, PartialOrder([(0, 1), (0, 2)]), weight=2),
                    Voter(None, PartialChain((2, 0, 1)), weight=3)])
    rule = make_rule("plurality", prof.m)
    for pruning in (True, False):
        for grouping in (True, False):
            res = mew(prof, rule, pruning=pruning, grouping=grouping)
            assert res.winners == ("c",)
            assert res.expected_scores["c"] == pytest.approx(3.0, abs=1e-12)


def test_closed_form_groups_are_solved_exactly_with_no_bound(monkeypatch):
    from mewvote import engine, rep
    from mewvote.preferences import bucket_window

    calls = []
    real_rank_bounds = engine.rank_bounds
    monkeypatch.setattr(engine, "rank_bounds",
                        lambda *args: calls.append(args) or real_rank_bounds(*args))
    m = 8
    closed = [generate(GenSpec(kind="partitioned_partial", m=m, n=12, k=4, seed=1)),
              generate(GenSpec(kind="chain", m=m, n=12, k=3, seed=2)),
              generate(GenSpec(kind="truncated", m=m, n=12, t=2, b=1, seed=3))]
    bounded = [generate(GenSpec(kind="poset", m=m, n=4, p_max=0.2, seed=4)),
               generate(GenSpec(kind="mallows_tr", m=m, n=4, t=2, b=2, seed=5))]
    uniform = Profile(closed[0].candidates, [v for p in closed for v in p.voters])
    rule = make_rule("borda", m)
    rep.clear_caches()
    mew(uniform, rule)
    assert calls == []

    mixed = Profile(uniform.candidates,
                    [v for p in bounded for v in p.voters] + list(uniform.voters))
    # a poset voter may have drawn no pair, which makes it a closed-form voter
    closed_voters = [v for v in mixed.voters
                     if v.model is None and not isinstance(v.observation, PartialOrder)]
    keys = {(bucket_window(c, v.observation, m), m) for v in closed_voters for c in range(m)}
    # at m = 8 a uniform poset's table fits the ideal budget, so it is solved
    # before any bound too: only the model voters' groups are bounded
    bounded_groups = {v.group_key() for v in mixed.voters if v.model is not None}
    assert any(isinstance(v.observation, PartialOrder) for v in mixed.voters)
    rep.clear_caches()
    res = mew(mixed, rule)
    assert len(calls) == len(bounded_groups) * m
    assert {structure for _, structure, _ in calls} == {obs for _, obs in bounded_groups}
    info = rep._uniform_row.cache_info()
    assert info.misses == info.currsize == len(keys)
    assert info.hits > 0
    ref = mew(mixed, rule, pruning=False)
    assert res.winners == ref.winners
    for name, score in res.expected_scores.items():
        assert score == pytest.approx(ref.expected_scores[name], abs=1e-9)


def test_uniform_posets_are_solved_before_any_bound_while_their_table_fits(monkeypatch):
    from mewvote import TruncatedRanking, engine, preferences, rep

    calls = []
    real_rank_bounds = engine.rank_bounds
    monkeypatch.setattr(engine, "rank_bounds",
                        lambda *args: calls.append(args) or real_rank_bounds(*args))
    m = 8  # every component here has at most 4 ideals, within either budget below
    posets = [PartialOrder([(0, 1), (1, 2)]), PartialOrder([(3, 4)]),
              PartialOrder([(5, 6), (6, 7)]), PartialOrder([(7, 0), (2, 5)])]
    mallows = [Voter(MallowsModel(tuple(range(m)), 0.5), TruncatedRanking((c,), ()))
               for c in (1, 4)]
    prof = Profile(candidate_set(*(f"c{i}" for i in range(1, m + 1))),
                   [Voter(None, p, weight=w) for w, p in enumerate(posets, start=2)]
                   + mallows + [Voter(None, PartialChain((6, 3)))])
    rule = make_rule("plurality", m)
    rep.clear_caches()
    res = mew(prof, rule)
    assert calls and not any(isinstance(s, PartialOrder) for _, s, _ in calls)
    with monkeypatch.context() as patched:  # read at each call: 2^8 is past it
        patched.setattr(preferences, "IDEAL_BUDGET", 1 << 7)
        calls.clear()
        rep.clear_caches()
        small = mew(prof, rule)
        assert {s for _, s, _ in calls if isinstance(s, PartialOrder)} == set(posets)
    rep.clear_caches()
    assert small.winners == res.winners == mew(prof, rule, pruning=False).winners


def test_a_uniform_poset_past_the_budget_keeps_its_bound():
    from mewvote import TooLarge, rep

    m = 19  # c1 above the 18 others: 2^18 + 1 ideals, past the default budget
    star = Profile(candidate_set(*(f"c{i}" for i in range(1, m + 1))),
                   [Voter(None, PartialOrder([(0, i) for i in range(1, m)]))])
    rule = make_rule("plurality", m)
    rep.clear_caches()
    assert mew(star, rule).winners == ("c1",)
    assert rep._uniform_poset_table.cache_info().misses == 0
    with pytest.raises(TooLarge):
        mew(star, rule, pruning=False)


def test_a_uniform_poset_past_the_solve_first_size_keeps_its_bound(monkeypatch):
    from mewvote import engine, rep

    calls = []
    real_rank_bounds = engine.rank_bounds
    monkeypatch.setattr(engine, "rank_bounds",
                        lambda *args: calls.append(args) or real_rank_bounds(*args))
    for m in (11, 18):  # c1 above the others: 2^(m-1) + 1 ideals, one component
        star = PartialOrder([(0, i) for i in range(1, m)])
        prof = Profile(candidate_set(*(f"c{i}" for i in range(1, m + 1))), [Voter(None, star)])
        rule = make_rule("plurality", m)
        calls.clear()
        rep.clear_caches()
        assert mew(prof, rule).winners == ("c1",)
        assert rep._uniform_poset_table.cache_info().misses == 0, m
        assert {s for _, s, _ in calls} == {star}, m
    # read at each call: at m = 11 the star is solved first once 2^11 is within it
    monkeypatch.setattr(engine, "SOLVE_FIRST_IDEALS", 1 << 11)
    prof = Profile(candidate_set(*(f"c{i}" for i in range(1, 12))),
                   [Voter(None, PartialOrder([(0, i) for i in range(1, 11)]))])
    calls.clear()
    rep.clear_caches()
    assert mew(prof, make_rule("plurality", 11)).winners == ("c1",)
    assert rep._uniform_poset_table.cache_info().misses == 1
    assert calls == []


def test_each_route_scores_as_expected_score_sums_and_as_the_parallel_mode(monkeypatch):
    from mewvote import TruncatedRanking, rep

    m, sigma = 6, tuple(range(6))
    uniform_poset = Voter(None, PartialOrder([(0, 1), (2, 4)]))
    insertion_table = Voter(MallowsModel(sigma, 0.5), PartialOrder([(0, 1), (2, 3)]))
    closed = Voter(None, TruncatedRanking((5,), (0,)))
    tracked_dp = Voter(MallowsModel(sigma, 0.7), PartialOrder([(0, 1)]))
    voters = [uniform_poset, insertion_table, closed, tracked_dp]
    assert [rep.closed_form(v) for v in voters] == [False, False, True, False]
    assert [rep.shared_table(v, m) is not None for v in voters] == [True, True, False, False]
    prof = Profile(candidate_set(*"abcdef"), voters)
    _fork_at_once(monkeypatch)
    for rule_name in ("plurality", "borda"):
        rule = make_rule(rule_name, m)
        res = mew(prof, rule, pruning=False)
        # one group per voter, added in profile order
        assert res.expected_scores == {
            name: sum(v.weight * expected_score(c, v, rule) for v in voters)
            for c, name in enumerate(prof.candidates.ids)}, rule_name
        for workers in (2, 4):
            par = mew_parallel(prof, rule, workers=workers)
            assert par.expected_scores == res.expected_scores, (rule_name, workers)
            assert par.winners == res.winners


def _fork_at_once(monkeypatch):
    """Make ``mew_parallel`` deal the whole profile to its workers, as a large one would be."""
    monkeypatch.setattr(importlib.import_module("mewvote.engine"), "FORK_AFTER_S", 0)


def test_parallel_is_bit_identical_across_worker_counts(monkeypatch):
    _fork_at_once(monkeypatch)
    rng = np.random.default_rng(28)
    prof = random_supported_profile(rng, m_range=(4, 6), n_range=(5, 5), world_budget=2000)
    # identical voters form one group, whose candidates are split across the workers
    single_group = Profile(candidate_set("a", "b", "c", "d", "e"),
                           [Voter(MallowsModel((2, 0, 4, 1, 3), 0.4), None)] * 3)
    for profile in (prof, single_group):
        rule = make_rule("borda", profile.m)
        seq = mew(profile, rule, pruning=False)
        results = [mew_parallel(profile, rule, workers=w) for w in (1, 2, 4, 8)]
        for res in results:
            assert res.winners == seq.winners
            assert res.bounds == {} and res.pruned == ()
            for name in seq.expected_scores:
                assert res.expected_scores[name] == seq.expected_scores[name]


def _three_groups():
    return Profile(candidate_set("a", "b", "c", "d"),
                   [Voter(None, PartialChain((0, 1))), Voter(None, PartialOrder([(2, 3)])),
                    Voter(MallowsModel((3, 1, 0, 2), 0.6), PartialChain((1, 2)))])


def test_parallel_reraises_a_child_error_and_leaves_no_process(monkeypatch):
    _fork_at_once(monkeypatch)
    prof = wide_second_group_profile()
    with pytest.raises(CoverWidthExceeded) as raised:
        mew_parallel(prof, make_rule("borda", prof.m), workers=2)
    assert raised.traceback[-1].name == "_run_shares"  # sent back by the child, not solved here
    assert multiprocessing.active_children() == []
    prof = _three_groups()
    rule = make_rule("borda", prof.m)
    assert mew_parallel(prof, rule, workers=8).expected_scores \
        == mew(prof, rule, pruning=False).expected_scores
    assert multiprocessing.active_children() == []


def test_parallel_names_the_exit_code_of_a_child_that_dies(monkeypatch):
    engine = importlib.import_module("mewvote.engine")
    caller, solve = os.getpid(), engine.expected_score

    def die_in_a_child(c, voter, rule):
        if os.getpid() != caller:
            os._exit(3)
        return solve(c, voter, rule)

    monkeypatch.setattr(engine, "expected_score", die_in_a_child)
    _fork_at_once(monkeypatch)
    prof = _three_groups()
    with pytest.raises(MewError, match="code 3"):
        mew_parallel(prof, make_rule("plurality", prof.m), workers=2)
    assert multiprocessing.active_children() == []


def test_parallel_splits_a_single_group_across_both_shares(monkeypatch, tmp_path):
    engine = importlib.import_module("mewvote.engine")
    prof = Profile(candidate_set("a", "b", "c", "d", "e"),
                   [Voter(MallowsModel((2, 0, 4, 1, 3), 0.4), PartialOrder([(1, 3)]))] * 4)
    rule = make_rule("borda", prof.m)
    seq = mew(prof, rule, pruning=False)
    log, solve = tmp_path / "calls", engine.expected_score

    def logged(c, voter, rule):
        with open(log, "a") as fh:  # one short appended line per call, from either process
            fh.write(f"{os.getpid()} {c}\n")
        return solve(c, voter, rule)

    monkeypatch.setattr(engine, "expected_score", logged)
    _fork_at_once(monkeypatch)
    res = mew_parallel(prof, rule, workers=2)
    by_process = defaultdict(list)
    for line in log.read_text().splitlines():
        pid, c = line.split()
        by_process[int(pid)].append(int(c))
    assert len(by_process) == 2 and os.getpid() in by_process
    assert sorted(c for cands in by_process.values() for c in cands) == list(range(prof.m))
    assert res.winners == seq.winners and res.expected_scores == seq.expected_scores
    assert res.bounds == {} and res.pruned == ()


def test_parallel_builds_a_split_groups_table_once_before_forking(monkeypatch, tmp_path):
    rep = importlib.import_module("mewvote.rep")
    log, build = tmp_path / "builds", rep._ideal_table

    def logged(*args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return build(*args, **kwargs)

    monkeypatch.setattr(rep, "_ideal_table", logged)
    _fork_at_once(monkeypatch)
    m = 7
    # one component, so one table build; cover width 6, so the Mallows voter's too
    wide = PartialOrder([(i, m - 1) for i in range(m - 1)])
    for voter in (Voter(None, wide), Voter(MallowsModel(tuple(range(m)), 0.5), wide)):
        prof = Profile(candidate_set(*"abcdefg"), [voter])
        rule = make_rule("borda", m)
        seq = mew(prof, rule, pruning=False)
        log.unlink()
        rep.clear_caches()
        assert mew_parallel(prof, rule, workers=4).expected_scores == seq.expected_scores
        assert log.read_text().split() == [str(os.getpid())], voter


def _single_group():
    return Profile(candidate_set("a", "b", "c", "d", "e"),
                   [Voter(MallowsModel((2, 0, 4, 1, 3), 0.4), PartialOrder([(1, 3)]))] * 3)


def test_parallel_solves_a_small_profile_in_the_caller(monkeypatch):
    engine = importlib.import_module("mewvote.engine")
    calls, solve = [], engine.expected_score

    def logged(c, voter, rule):
        calls.append(c)  # a forked child appends to its own copy
        return solve(c, voter, rule)

    monkeypatch.setattr(engine, "expected_score", logged)
    # each call solves in well under a second, but a busy machine can stall one
    # past the default's few milliseconds
    monkeypatch.setattr(engine, "FORK_AFTER_S", 1.0)
    for prof in (_three_groups(), _single_group()):
        rule = make_rule("borda", prof.m)
        seq = mew(prof, rule, pruning=False)
        for workers in (2, 4, 8):
            calls.clear()
            res = mew_parallel(prof, rule, workers=workers)
            assert len(calls) == res.stats.groups * prof.m
            assert res.winners == seq.winners and res.expected_scores == seq.expected_scores
            assert res.bounds == {} and res.pruned == ()
            assert multiprocessing.active_children() == []


def test_parallel_is_bit_identical_for_every_fork_point(monkeypatch):
    engine = importlib.import_module("mewvote.engine")
    _fork_at_once(monkeypatch)  # so the fork is asked about before every unit
    for prof in (_three_groups(), _single_group()):
        rule = make_rule("borda", prof.m)
        seq = mew(prof, rule, pruning=False)
        for workers in (2, 4):
            # fork before unit j: inside a group unless j is a multiple of m
            for j in range(seq.stats.groups * prof.m):
                asked = []
                monkeypatch.setattr(engine, "_fork_pays",
                                    lambda spent, solved, left: asked.append(solved) or solved == j)
                res = mew_parallel(prof, rule, workers=workers)
                assert asked == list(range(j + 1)), (workers, j)
                assert res.winners == seq.winners, (workers, j)
                assert res.expected_scores == seq.expected_scores, (workers, j)
                assert res.bounds == {} and res.pruned == ()


def test_parallel_winners_match_pruned_sequential():
    from mewvote import GenSpec, generate

    prof = generate(GenSpec(kind="poset", m=8, n=300, phi=0.5, p_max=0.1, seed=99))
    rule = make_rule("plurality", 8)
    assert mew_parallel(prof, rule, workers=4).winners == mew(prof, rule).winners


def test_solvers_are_called_through_the_module_level_names(monkeypatch):
    # the benchmark's per-layer counters wrap exactly these names; a solver
    # route that bypassed them would read zero there and still pass
    import importlib
    from collections import Counter

    from mewvote import PartitionedPreference, TruncatedRanking, mpw

    counts: Counter = Counter()
    solved = []  # the voters whose rows went through ``engine.rep_dispatch``

    def count_calls(module_name, name):
        module = importlib.import_module(module_name)  # ``mewvote.mpw`` is also a function
        original = getattr(module, name)

        def counting(*args, **kwargs):
            counts[f"{module_name}.{name}"] += 1
            if f"{module_name}.{name}" == "mewvote.engine.rep_dispatch":
                solved.append(args[1])
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count_calls("mewvote.engine", "rep_dispatch")
    count_calls("mewvote.engine", "rank_bounds")
    count_calls("mewvote.mpw", "rep_dispatch")
    count_calls("mewvote.mpw", "voter_support")
    # the Mallows voter is the one whose bounds are seeded: uniform voters, the
    # poset one included at this m, are solved exactly before pruning starts
    prof = Profile(candidate_set("a", "b", "c", "d"),
                   [Voter(None, PartialChain((0, 1))),
                    Voter(None, PartitionedPreference([[2], [3]], [0])), Voter(),
                    Voter(None, PartialOrder([(2, 3)])),
                    Voter(MallowsModel((3, 2, 1, 0), 0.5), TruncatedRanking((3,), (0,)))])
    for rule_name, mpw_route in (("plurality", "mewvote.mpw.rep_dispatch"),
                                 ("borda", "mewvote.mpw.voter_support")):
        counts.clear()
        solved.clear()
        rule = make_rule(rule_name, prof.m)
        mew(prof, rule)
        mpw(prof, rule)
        assert counts["mewvote.engine.rep_dispatch"] > 0, rule_name
        # the uniform voters, solved before any bound, the poset one's table read included
        assert set(prof.voters[:4]) <= set(solved), rule_name
        assert counts["mewvote.engine.rank_bounds"] > 0, rule_name
        assert counts[mpw_route] > 0, rule_name
