"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest
from conftest import DATA, random_poset, random_supported_profile, random_supported_voter

import mewvote as mv
from mewvote.bench import cover_width_profile
from mewvote.oracle import (
    fcp_count,
    meta_profile,
    meta_scores,
    oracle_expected_scores,
    oracle_rank_distribution,
)
from mewvote.rep import _uniform_poset_table, clear_caches, rep_rim_poset


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL  {desc}")
        raise
    print(f"[criterion {num}] PASS  {desc}")


def test_criterion_1_two_voter_regression():
    with criterion(1, "two-voter distribution profile: scores and winners"):
        start = time.perf_counter()
        prof = mv.load_profile(DATA / "fig1.profile")
        plur = mv.make_rule("plurality", 3)
        res = mv.mew(prof, plur)
        assert res.winners == ("b",)
        assert res.expected_scores["b"] == pytest.approx(0.8, abs=1e-12)
        probs = mv.mpw(prof, plur)
        assert probs.winners == ("a",)
        assert probs.win_probs["a"] == pytest.approx(0.7, abs=1e-12)
        res_borda = mv.mew(prof, mv.make_rule("borda", 3))
        assert res_borda.winners == ("b",)
        assert res_borda.expected_scores["b"] == pytest.approx(2.8, abs=1e-12)
        assert time.perf_counter() - start < 1.0


def test_criterion_2_selection_model_regression():
    with criterion(2, "selection-model rank solver: fixed probe value"):
        # The 0.168 fixture is attainable only with second row (0.1, 0.5, 0.3),
        # whose mass is 0.9; the row-stochastic variant (0.2, 0.5, 0.3) gives
        # 0.186.  Both are asserted against direct enumeration.
        sigma = (0, 1, 2, 3)
        rows_fixture = [[0.1, 0.3, 0.4, 0.2], [0.1, 0.5, 0.3], [0.3, 0.7], [1.0]]
        model = mv.RsmRankingModel(sigma, rows_fixture, check=False)
        value = mv.rep_rsm(1, 3, model)
        assert value == pytest.approx(0.168, abs=1e-12)
        brute = sum(mv.rsm_probability(r, model)
                    for r in itertools.permutations(range(4)) if r[2] == 1)
        assert value == pytest.approx(brute, abs=1e-12)

        rows_stochastic = [[0.1, 0.3, 0.4, 0.2], [0.2, 0.5, 0.3], [0.3, 0.7], [1.0]]
        model2 = mv.RsmRankingModel(sigma, rows_stochastic)
        brute2 = sum(mv.rsm_probability(r, model2)
                     for r in itertools.permutations(range(4)) if r[2] == 1)
        assert mv.rep_rsm(1, 3, model2) == pytest.approx(0.186, abs=1e-12)
        assert mv.rep_rsm(1, 3, model2) == pytest.approx(brute2, abs=1e-12)

        best = min(_timed(lambda: mv.rep_rsm(1, 3, model)) for _ in range(10))
        assert best < 1e-3


def _timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def test_criterion_3_poset_plus_rankings_regression():
    with criterion(3, "poset + two rankings: win probabilities and scores"):
        prof = mv.load_profile(DATA / "election4.profile")
        plur = mv.make_rule("plurality", 4)
        probs = mv.mpw(prof, plur)
        assert probs.win_probs["Biden"] == pytest.approx(1.0, abs=1e-12)
        assert probs.win_probs["Sanders"] == pytest.approx(0.5, abs=1e-12)
        assert probs.win_probs["Trump"] == pytest.approx(0.5, abs=1e-12)
        scores = mv.mew(prof, plur, pruning=False).expected_scores
        assert scores["Biden"] == pytest.approx(1.5, abs=1e-12)
        assert scores["Sanders"] == pytest.approx(0.5, abs=1e-12)
        assert scores["Trump"] == pytest.approx(1.0, abs=1e-12)
        assert scores["Weld"] == pytest.approx(0.0, abs=1e-12)


def test_criterion_4_divergence_examples():
    with criterion(4, "expected-score and winning-probability semantics diverge"):
        borda = mv.make_rule("borda", 4)
        single = mv.load_profile(DATA / "divergence_single.profile")
        assert mv.mew(single, borda).winners == ("a",)
        assert set(mv.mpw(single, borda).winners) == {"b", "c", "d"}

        poset = mv.load_profile(DATA / "divergence_poset.profile")
        probs = mv.mpw(poset, borda).win_probs
        for name in ("b", "c", "d"):
            assert probs[name] == pytest.approx(0.0, abs=1e-12)
        scores = mv.mew(poset, borda, pruning=False).expected_scores
        assert scores["b"] > scores["c"] + 1e-9
        assert scores["c"] == pytest.approx(scores["d"], abs=1e-12)


def test_criterion_5_oracle_equivalence_suite():
    with criterion(5, "500 random mixed profiles match the possible-worlds oracle"):
        start = time.perf_counter()
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(500):
            prof = random_supported_profile(rng, world_budget=2000)
            rules = [mv.make_rule("plurality", prof.m), mv.make_rule("veto", prof.m),
                     mv.make_rule("k_approval", prof.m, 2), mv.make_rule("borda", prof.m)]
            for rule in rules:
                solver = mv.mew(prof, rule, pruning=False).expected_scores
                exact = oracle_expected_scores(prof, rule)
                for c, name in enumerate(prof.candidates.ids):
                    worst = max(worst, abs(solver[name] - exact[c]))
        elapsed = time.perf_counter() - start
        assert worst <= 1e-9, f"max deviation {worst}"
        assert elapsed < 300.0, f"suite took {elapsed:.1f}s"


def test_criterion_6_equivalence_theorem_suites():
    rng = np.random.default_rng(77)
    with criterion(6, "regret, meta-election, rank-difference, and extension-count identities"):
        # least expected regret picks exactly the expected-score winners
        for _ in range(100):
            prof = random_supported_profile(rng, world_budget=300)
            rule = mv.make_rule("plurality", prof.m)
            winners = mv.mew(prof, rule, pruning=False).winners
            regrets = {c: mv.expected_regret(c, prof, rule) for c in range(prof.m)}
            lo = min(regrets.values())
            tol = 1e-9 * max(1.0, abs(lo))
            least = tuple(prof.candidates.ids[c] for c in sorted(regrets)
                          if regrets[c] <= lo + tol)
            assert least == winners

        # scores over the profile equal scores in the probability-weighted meta profile
        for _ in range(100):
            prof = random_supported_profile(rng, world_budget=300)
            rule = mv.make_rule("borda", prof.m)
            scores = mv.mew(prof, rule, pruning=False).expected_scores
            meta = meta_scores(meta_profile(prof), rule, prof.m)
            for c, name in enumerate(prof.candidates.ids):
                assert scores[name] == pytest.approx(meta[c], abs=1e-9)

        # rank probability at k = difference of consecutive approval scores
        for _ in range(100):
            m = int(rng.integers(3, 6))
            voter = random_supported_voter(rng, m)
            c = int(rng.integers(m))
            dist = mv.rep_dispatch(c, voter, m)
            prev = 0.0
            for k in range(1, m):
                e_k = float(np.dot(dist, mv.make_rule("k_approval", m, k).scores))
                assert dist[k - 1] == pytest.approx(e_k - prev, abs=1e-9)
                prev = e_k

        # rank counts over a poset's extensions sum to the extension count
        for _ in range(100):
            m = int(rng.integers(3, 7))
            p = random_poset(rng, m)
            n_ext = len(mv.linear_extensions(p, m))
            c = int(rng.integers(m))
            assert sum(fcp_count(c, j, p, m) for j in range(1, m + 1)) == n_ext
            dist = mv.rep_dispatch(c, mv.Voter(None, p), m)
            for j in range(1, m + 1):
                assert dist[j - 1] * n_ext == pytest.approx(fcp_count(c, j, p, m), abs=1e-6)


def test_criterion_7_optimization_invariance(monkeypatch):
    # mew_parallel deals each profile to its workers at once, as it would a larger one
    monkeypatch.setattr(mv.engine, "FORK_AFTER_S", 0)
    with criterion(7, "pruning/grouping/parallel leave winner sets unchanged (100 profiles)"):
        rule = mv.make_rule("plurality", 10)
        for seed in range(100):
            prof = mv.generate(mv.GenSpec(kind="poset", m=10, n=1000,
                                          phi=0.5, p_max=0.1, seed=seed))
            reference = mv.mew(prof, rule, pruning=False, grouping=False).winners
            for pruning, grouping in ((False, True), (True, False), (True, True)):
                assert mv.mew(prof, rule, pruning=pruning, grouping=grouping).winners \
                    == reference, (seed, pruning, grouping)
            for workers in (1, 2, 4, 8):
                assert mv.mew_parallel(prof, rule, workers=workers).winners \
                    == reference, (seed, workers)


def test_criterion_8_scaling_trends():
    with criterion(8, "runtime trends: linear in voters, quartic-ish in candidates, "
                      "multiplicative in cover width"):
        # voters: doubling n doubles sequential runtime within +-30%; the sizes
        # are timed round-robin, best of 5, so a burst of outside load hits each
        rule10 = mv.make_rule("plurality", 10)
        profs = {n: mv.generate(mv.GenSpec(kind="poset", m=10, n=n,
                                           phi=0.5, p_max=0.1, seed=9000 + n))
                 for n in (100, 200, 400)}
        t_n = dict.fromkeys(profs, float("inf"))
        for _ in range(5):
            for n, prof in profs.items():
                _uniform_poset_table.cache_clear()
                t_n[n] = min(t_n[n], _timed(
                    lambda p=prof: mv.mew(p, rule10, pruning=False, grouping=False)))
        for n in (100, 200):
            ratio = t_n[2 * n] / t_n[n]
            assert 1.4 <= ratio <= 2.6, f"doubling ratio {ratio:.2f} at n={n}"

        # candidates: insertion-model profiles scale like m**4 on a log-log fit
        t_m = {}
        for m in (10, 20, 40, 80):
            prof = mv.generate(mv.GenSpec(kind="rim", m=m, n=2, phi=0.5, seed=m))
            rule = mv.make_rule("plurality", m)
            t_m[m] = float("inf")
            for _ in range(2):
                clear_caches()  # cold: rep_dispatch caches each rim row
                t_m[m] = min(t_m[m], _timed(lambda p=prof, r=rule: mv.mew(p, r, pruning=False)))
        ms = sorted(t_m)
        slope = np.polyfit(np.log([float(m) for m in ms]),
                           np.log([t_m[m] for m in ms]), 1)[0]
        assert 3.0 <= slope <= 5.0, f"log-log slope {slope:.2f}"
        last_doubling = t_m[80] / t_m[40]
        assert 8.0 <= last_doubling <= 32.0, f"40->80 ratio {last_doubling:.1f}"

        # cover width: each +1 multiplies the conditioned-solver runtime, the
        # tracked-item DP's over all m candidates (rep_dispatch sends these
        # small lattices to the order-ideal table, whose time is flat in width)
        t_w = {}
        for width in range(1, 6):
            voter = cover_width_profile(m=10, n=1, width=width, phi=0.5).voters[0]
            t_w[width] = _timed(lambda v=voter: [rep_rim_poset(c, v.model, v.observation)
                                                 for c in range(10)])
        for width in range(2, 5):
            assert t_w[width + 1] / t_w[width] >= 1.8, t_w
        assert t_w[5] / t_w[1] >= 30.0, t_w


def test_criterion_9_winner_semantics_scalability():
    with criterion(9, "winning-probability solver grows super-linearly in voters; "
                      "expected-score solver stays linear"):
        rule = mv.make_rule("plurality", 9)
        t_mew, t_mpw = {}, {}
        for n in range(1, 11):
            prof = mv.generate(mv.GenSpec(kind="poset", m=9, n=n,
                                          phi=0.5, p_max=0.1, seed=4000 + n))
            _uniform_poset_table.cache_clear()
            t_mew[n] = _timed(lambda p=prof: mv.mew(p, rule, pruning=False, grouping=False))
            _uniform_poset_table.cache_clear()
            t_mpw[n] = _timed(lambda p=prof: mv.mpw(p, rule))
        r_mew = t_mew[10] / t_mew[5]
        r_mpw = t_mpw[10] / t_mpw[5]
        assert r_mew <= 3.5, f"expected-score solver ratio {r_mew:.2f}"
        assert r_mpw >= 8.0, f"winning-probability solver ratio {r_mpw:.2f}"
        assert r_mpw > 2 * r_mew
