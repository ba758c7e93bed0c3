import importlib

import numpy as np
import pytest
from conftest import random_supported_profile

from mewvote import (
    PartialChain,
    PartialOrder,
    Profile,
    TooLarge,
    Voter,
    candidate_set,
    linear_extensions,
    load_profile,
    make_rule,
    mew,
    mpw,
    parse_rule,
)
from mewvote.oracle import oracle_mpw

mpw_module = importlib.import_module("mewvote.mpw")  # ``mewvote.mpw`` is also the function


def test_mpw_two_voter_profile(data_dir):
    prof = load_profile(data_dir / "fig1.profile")
    res = mpw(prof, make_rule("plurality", 3))
    assert res.winners == ("a",)
    assert res.win_probs["a"] == pytest.approx(0.7, abs=1e-12)
    assert res.win_probs["b"] == pytest.approx(0.65, abs=1e-12)
    assert res.win_probs["c"] == pytest.approx(0.5, abs=1e-12)


def test_mpw_poset_plus_rankings(data_dir):
    prof = load_profile(data_dir / "election4.profile")
    res = mpw(prof, make_rule("plurality", 4))
    assert res.win_probs["Biden"] == pytest.approx(1.0, abs=1e-12)
    assert res.win_probs["Sanders"] == pytest.approx(0.5, abs=1e-12)
    assert res.win_probs["Trump"] == pytest.approx(0.5, abs=1e-12)
    assert res.winners == ("Biden",)


def test_divergence_single_voter(data_dir):
    prof = load_profile(data_dir / "divergence_single.profile")
    borda = make_rule("borda", 4)
    res = mpw(prof, borda)
    assert set(res.winners) == {"b", "c", "d"}
    for name in ("b", "c", "d"):
        assert res.win_probs[name] == pytest.approx(1 / 3, abs=1e-12)
    assert res.win_probs["a"] == pytest.approx(0.0, abs=1e-12)
    expected = mew(prof, borda, pruning=False)
    assert expected.winners == ("a",)
    assert expected.expected_scores["a"] == pytest.approx(2.0, abs=1e-12)


def test_divergence_poset_voter(data_dir):
    prof = load_profile(data_dir / "divergence_poset.profile")
    borda = make_rule("borda", 4)
    res = mpw(prof, borda)
    assert res.winners == ("a",)
    for name in ("b", "c", "d"):
        assert res.win_probs[name] == pytest.approx(0.0, abs=1e-12)
    scores = mew(prof, borda, pruning=False).expected_scores
    assert scores["b"] > scores["c"]
    assert scores["c"] == pytest.approx(scores["d"], abs=1e-12)


def test_mpw_matches_oracle_on_random_profiles():
    rng = np.random.default_rng(31)
    for trial in range(30):
        prof = random_supported_profile(rng, world_budget=400)
        rule = (make_rule("borda", prof.m) if trial % 3 == 0
                else make_rule("k_approval", prof.m, 2) if trial % 3 == 1
                else make_rule("plurality", prof.m))
        res = mpw(prof, rule)
        expected = oracle_mpw(prof, rule)
        for c, name in enumerate(prof.candidates.ids):
            assert res.win_probs[name] == pytest.approx(expected[c], abs=1e-12)


def test_mpw_custom_fractional_rule_matches_oracle():
    rng = np.random.default_rng(32)
    prof = random_supported_profile(rng, m_range=(3, 4), world_budget=200)
    rule = parse_rule("custom:" + ",".join(["2.5", "1"] + ["0"] * (prof.m - 2)), prof.m)
    res = mpw(prof, rule)
    expected = oracle_mpw(prof, rule)
    for c, name in enumerate(prof.candidates.ids):
        assert res.win_probs[name] == pytest.approx(expected[c], abs=1e-12)


@pytest.mark.parametrize("rule_name", ["plurality", "borda"])  # rank marginals; completions
def test_weighted_voter_counts_as_independent_copies(monkeypatch, rule_name):
    cands = candidate_set("a", "b", "c")
    weighted = Profile(cands, [Voter(None, PartialOrder([(0, 1)]), weight=3),
                               Voter(None, PartialChain((2, 1, 0)))])
    expanded = Profile(cands, [Voter(None, PartialOrder([(0, 1)])) for _ in range(3)]
                       + [Voter(None, PartialChain((2, 1, 0)))])
    rule = make_rule(rule_name, 3)
    a = mpw(weighted, rule)
    # identical voters share one list of deltas: the solvers see two voters
    solved = []
    for name in ("rep_dispatch", "voter_support"):
        original = getattr(mpw_module, name)

        def logged(*args, original=original):
            solved.append(id(next(x for x in args if isinstance(x, Voter))))
            return original(*args)
        monkeypatch.setattr(mpw_module, name, logged)
    b = mpw(expanded, rule)
    assert a.win_probs == b.win_probs
    assert len(set(solved)) == 2


def test_a_voter_step_past_the_work_budget_raises_before_it_starts():
    # two uniform voters over 4 candidates under Borda: 24 deltas each, so
    # voter 1 would merge 24 x 24 pairs, past 10 x a state cap of 50
    prof = Profile(candidate_set("a", "b", "c", "d"), [Voter(), Voter()])
    with pytest.raises(TooLarge, match=r"^voter 1 would merge 576 \(state, delta\) pairs, "
                                       r"past 10 x state cap 50$"):
        mpw(prof, make_rule("borda", 4), state_cap=50)


def test_win_probs_form_a_superdistribution():
    rng = np.random.default_rng(33)
    for _ in range(10):
        prof = random_supported_profile(rng, world_budget=300)
        res = mpw(prof, make_rule("borda", prof.m))
        values = list(res.win_probs.values())
        assert max(values) > 0.0
        assert all(-1e-12 <= v <= 1 + 1e-12 for v in values)


def test_state_cap_is_enforced():
    rng = np.random.default_rng(34)
    prof = random_supported_profile(rng, m_range=(5, 6), n_range=(4, 5), world_budget=2000)
    with pytest.raises(TooLarge):
        mpw(prof, make_rule("borda", prof.m), state_cap=2)


def _insert_free_items(chain, free):
    """Every ranking of ``chain`` plus ``free`` that keeps the chain's order:
    each free item inserted at every position in turn, sorted."""
    rankings = [tuple(chain)]
    for x in free:
        rankings = [r[:i] + (x,) + r[i:] for r in rankings for i in range(len(r) + 1)]
    return sorted(rankings)


def test_borda_mpw_solves_near_chain_posets_past_ten_candidates():
    for m in (11, 12):
        voters, supports = [], []
        for shift in (0, 5):  # one near-chain shape under two relabellings
            order = [(x + shift) % m for x in range(m)]
            chain, free = order[:-2], order[-2:]
            p = PartialOrder(PartialChain(chain).to_pairs())
            exts = _insert_free_items(chain, free)
            assert len(exts) == (m - 1) * m
            assert linear_extensions(p, m) == exts
            voters.append(Voter(None, p))
            supports.append(exts)
        prof = Profile(candidate_set(*(f"c{i}" for i in range(m))), voters)
        res = mpw(prof, make_rule("borda", m))

        def borda(r):
            vec = np.zeros(m, dtype=np.int64)
            vec[list(r)] = np.arange(m - 1, -1, -1)
            return vec

        first, second = (np.array([borda(r) for r in s]) for s in supports)
        wins = np.zeros(m, dtype=np.int64)
        for vec in first:
            total = vec + second
            wins += (total == total.max(axis=1, keepdims=True)).sum(axis=0)
        expected = wins / (len(first) * len(second))
        for c, name in enumerate(prof.candidates.ids):
            assert res.win_probs[name] == pytest.approx(expected[c], abs=1e-12)
