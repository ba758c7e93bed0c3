import importlib
import multiprocessing
import os
from collections import defaultdict

import numpy as np
import pytest
from conftest import random_supported_profile, wide_second_group_profile

from mewvote import (
    CoverWidthExceeded,
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
    # replaying the refinement by hand: ub never increases, lb never decreases
    rng = np.random.default_rng(26)
    prof = random_supported_profile(rng, m_range=(4, 5), n_range=(3, 5), world_budget=400)
    rule = make_rule("borda", prof.m)
    from mewvote.engine import _grouped
    from mewvote.preferences import rank_bounds

    groups = _grouped(prof, True)
    ub = np.zeros(prof.m)
    lb = np.zeros(prof.m)
    seed_best = {}
    seed_worst = {}
    for gi, (voter, weight) in enumerate(groups):
        for c in range(prof.m):
            b, w = rank_bounds(c, voter.observation, prof.m)
            seed_best[gi, c] = rule.scores[b - 1]
            seed_worst[gi, c] = rule.scores[w - 1]
            ub[c] += weight * seed_best[gi, c]
            lb[c] += weight * seed_worst[gi, c]
    assert np.all(lb <= ub + 1e-12)
    for gi, (voter, weight) in enumerate(groups):
        prev_ub, prev_lb = ub.copy(), lb.copy()
        for c in range(prof.m):
            e = expected_score(c, voter, rule)
            ub[c] += weight * (e - seed_best[gi, c])
            lb[c] += weight * (e - seed_worst[gi, c])
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
        assert len(res.pruned) == res.stats.prunings


def test_parallel_is_bit_identical_across_worker_counts():
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


def test_parallel_reraises_a_child_error_and_leaves_no_process():
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
    res = mew_parallel(prof, rule, workers=2)
    by_process = defaultdict(list)
    for line in log.read_text().splitlines():
        pid, c = line.split()
        by_process[int(pid)].append(int(c))
    assert len(by_process) == 2 and os.getpid() in by_process
    assert sorted(c for cands in by_process.values() for c in cands) == list(range(prof.m))
    assert res.winners == seq.winners and res.expected_scores == seq.expected_scores
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

    from mewvote import PartitionedPreference, mpw

    counts: Counter = Counter()

    def count_calls(module_name, name):
        module = importlib.import_module(module_name)  # ``mewvote.mpw`` is also a function
        original = getattr(module, name)

        def counting(*args, **kwargs):
            counts[f"{module_name}.{name}"] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    count_calls("mewvote.engine", "rep_dispatch")
    count_calls("mewvote.engine", "rank_bounds")
    count_calls("mewvote.mpw", "rep_dispatch")
    count_calls("mewvote.mpw", "voter_support")
    prof = Profile(candidate_set("a", "b", "c", "d"),
                   [Voter(None, PartialChain((0, 1))),
                    Voter(None, PartitionedPreference([[2], [3]], [0])), Voter()])
    for rule_name, mpw_route in (("plurality", "mewvote.mpw.rep_dispatch"),
                                 ("borda", "mewvote.mpw.voter_support")):
        counts.clear()
        rule = make_rule(rule_name, prof.m)
        mew(prof, rule)
        mpw(prof, rule)
        assert counts["mewvote.engine.rep_dispatch"] > 0, rule_name
        assert counts["mewvote.engine.rank_bounds"] > 0, rule_name
        assert counts[mpw_route] > 0, rule_name
