import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from mewvote import InvalidK, InvalidRule, RankOutOfRange, ScoringRule, make_rule, parse_rule, score_of_rank
from mewvote.rules import check_rule_size, integer_scores


def test_builtin_vectors():
    assert make_rule("borda", 4).scores == (3.0, 2.0, 1.0, 0.0)
    assert make_rule("plurality", 3).scores == (1.0, 0.0, 0.0)
    assert make_rule("veto", 4).scores == (1.0, 1.0, 1.0, 0.0)
    assert make_rule("k_approval", 5, 2).scores == (1.0, 1.0, 0.0, 0.0, 0.0)


def test_k_approval_edges():
    assert make_rule("k_approval", 4, 1).scores == make_rule("plurality", 4).scores
    assert make_rule("k_approval", 4, 3).scores == make_rule("veto", 4).scores
    with pytest.raises(InvalidK):
        make_rule("k_approval", 4, 4)
    with pytest.raises(InvalidK):
        make_rule("k_approval", 4, 0)


def test_invariants_enforced():
    with pytest.raises(InvalidRule):
        ScoringRule("bad", [0, 1])  # increasing
    with pytest.raises(InvalidRule):
        ScoringRule("bad", [1, 1])  # top == bottom
    with pytest.raises(InvalidRule):
        ScoringRule("bad", [1, -1])  # negative


def test_score_of_rank():
    borda = make_rule("borda", 4)
    assert score_of_rank(borda, 1) == 3
    assert score_of_rank(make_rule("veto", 4), 4) == 0
    assert score_of_rank(make_rule("plurality", 3), 2) == 0
    with pytest.raises(RankOutOfRange):
        score_of_rank(borda, 5)


def test_parse_rule_syntax():
    assert parse_rule("plurality", 3).scores == (1.0, 0.0, 0.0)
    assert parse_rule("k-approval:2", 4).scores == (1.0, 1.0, 0.0, 0.0)
    custom = parse_rule("custom:2.5,1,0", 3)
    assert custom.scores == (2.5, 1.0, 0.0)
    assert custom.exact == (Fraction(5, 2), Fraction(1), Fraction(0))
    with pytest.raises(InvalidRule):
        parse_rule("copeland", 3)
    with pytest.raises(InvalidRule):
        parse_rule("custom:1,0", 3)  # wrong length


def test_integer_scaling():
    rule = parse_rule("custom:2.5,1,0", 3)
    assert integer_scores(rule) == (5, 2, 0)
    assert integer_scores(make_rule("borda", 3)) == (2, 1, 0)


def test_score_array_is_a_read_only_copy_of_the_scores():
    rule = ScoringRule("custom", [Fraction(7, 3), 1, 0])
    for r in (rule, pickle.loads(pickle.dumps(rule)), copy.deepcopy(rule)):
        assert r == rule and hash(r) == hash(rule) and repr(r) == repr(rule)
        assert r.score_array.dtype == np.float64
        assert tuple(r.score_array) == rule.scores
        with pytest.raises(ValueError):
            r.score_array[0] = 0.0


@pytest.mark.parametrize("build,error,message", [
    (lambda: ScoringRule("one", [1]), InvalidRule, "at least 2 ranks"),
    (lambda: check_rule_size(make_rule("borda", 3), 4), InvalidRule,
     "rule has 3 ranks, profile has 4 candidates"),
    (lambda: make_rule("borda", 1), InvalidRule, "need at least 2 candidates"),
    (lambda: make_rule("copeland", 3), InvalidRule, "unknown rule kind 'copeland'"),
    (lambda: parse_rule("k-approval:x", 3), InvalidK, "bad k-approval spec 'k-approval:x'"),
    (lambda: make_rule("k_approval", 4, 1.5), InvalidK, "^k must be an integer, got 1.5$"),
    (lambda: make_rule("k_approval", 4, True), InvalidK, "^k must be an integer, got True$"),
    (lambda: parse_rule("custom:1,a,0", 3), InvalidRule, "bad custom score vector 'custom:1,a,0'"),
    (lambda: parse_rule("custom:1,1/0,0", 3), InvalidRule,
     "bad custom score vector 'custom:1,1/0,0'"),
])
def test_rule_inputs_are_rejected_with_their_class(build, error, message):
    with pytest.raises(error, match=message) as info:
        build()
    assert type(info.value) is error
