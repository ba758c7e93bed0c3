import json

import numpy as np
import pytest
from conftest import random_supported_profile

from mewvote import (
    EmptyInput,
    MallowsModel,
    ParseError,
    PartialChain,
    PartialOrder,
    PartitionedPreference,
    Profile,
    TruncatedRanking,
    UnknownCandidate,
    ValidationError,
    Voter,
    candidate_set,
    mallows_to_rim,
    mallows_to_rsm,
    parse_profile,
    ratings_to_partitions,
    serialize_profile,
)


def mixed_profile() -> Profile:
    cands = candidate_set(*"abcde")
    mal = MallowsModel((0, 1, 2, 3, 4), 0.5)
    return Profile(cands, [
        Voter(None, PartialChain((0, 1, 2, 3, 4))),
        Voter(None, PartialOrder([(0, 1), (1, 2)])),
        Voter(None, PartitionedPreference([[0, 1], [2], [3, 4]])),
        Voter(None, PartitionedPreference([[0], [2]], [1, 3]), weight=2),
        Voter(None, TruncatedRanking((2,), (4,))),
        Voter(mal, None),
        Voter(mallows_to_rim(MallowsModel((4, 3, 2, 1, 0), 0.7)), None),
        Voter(mallows_to_rsm(MallowsModel((0, 2, 4, 1, 3), 0.9)), None, weight=3),
        Voter(mal, TruncatedRanking((1,), (0,))),
    ])


def test_roundtrip_identity_on_mixed_profile():
    prof = mixed_profile()
    text = serialize_profile(prof)
    again = parse_profile(text)
    assert again == prof
    assert serialize_profile(again) == text


def test_roundtrip_identity_on_random_profiles():
    rng = np.random.default_rng(51)
    for _ in range(20):
        prof = random_supported_profile(rng, world_budget=10_000)
        assert parse_profile(serialize_profile(prof)) == prof


def test_two_voter_distribution_document(data_dir):
    prof = parse_profile((data_dir / "fig1.profile").read_text())
    assert prof.n == 2
    assert prof.m == 3


def test_document_shape_is_stable():
    doc = json.loads(serialize_profile(mixed_profile()))
    assert list(doc) == ["format", "candidates", "voters"]
    assert doc["format"] == 1
    types = [v["type"] for v in doc["voters"]]
    assert types == ["ranking", "poset", "partitioned", "partial_partitioned",
                     "truncated", "mallows", "rim", "rsm", "combined"]
    assert doc["voters"][3]["weight"] == 2


def test_empty_voters_rejected():
    doc = {"format": 1, "candidates": ["a", "b"], "voters": []}
    with pytest.raises(ValidationError):
        parse_profile(json.dumps(doc))


def test_parse_errors_name_the_voter():
    doc = {"format": 1, "candidates": ["a", "b"],
           "voters": [{"type": "poset", "pairs": [["a", "b"]]},
                      {"type": "chain", "chain": ["a", "z"]}]}
    with pytest.raises(UnknownCandidate) as err:
        parse_profile(json.dumps(doc))
    assert "voter 1" in str(err.value)


def test_malformed_documents():
    with pytest.raises(ParseError):
        parse_profile("not json")
    for fmt in (99, True, "1"):  # True == 1 in Python
        with pytest.raises(ParseError, match="unsupported format"):
            parse_profile(json.dumps({"format": fmt, "candidates": ["a", "b"],
                                      "voters": [{"type": "poset", "pairs": []}]}))
    with pytest.raises(ParseError):
        parse_profile(json.dumps({"format": 1, "candidates": ["a", "b"],
                                  "voters": [{"type": "hologram"}]}))
    with pytest.raises(ValidationError):
        parse_profile(json.dumps({"format": 1, "candidates": ["a", "b"],
                                  "voters": [{"type": "poset", "pairs": [], "weight": 0}]}))
    for voters in (5, ["a voter"], [{"type": "combined", "model": "mallows", "observation": {}}]):
        with pytest.raises(ParseError):
            parse_profile(json.dumps({"format": 1, "candidates": ["a", "b"], "voters": voters}))


def _document(voter, candidates=("a", "b", "c")):
    return json.dumps({"format": 1, "candidates": candidates, "voters": [voter]})


def _mallows(phi=0.5):
    return {"type": "mallows", "sigma": ["a", "b", "c"], "phi": phi}


def test_non_numeric_phi_is_a_parse_error_naming_the_voter():
    for phi in ("abc", "0.5", True):  # float() reads "0.5" and True
        with pytest.raises(ParseError, match="voter 0: 'phi' must be a JSON number"):
            parse_profile(_document(_mallows(phi=phi)))


def test_non_numeric_pi_entry_is_a_parse_error_naming_the_voter():
    rows = [[1.0], [0.5, 0.5], [0.2, 0.3, 0.5]]
    for bad in ("x", "0.5", True):  # float() reads "0.5" and True
        for kind, pi in (("rim", rows), ("rsm", rows[::-1])):
            pi = [list(row) for row in pi]
            pi[1][0] = bad
            model = {"type": kind, "sigma": ["a", "b", "c"], "pi": pi}
            combined = {"type": "combined", "model": model,
                        "observation": {"type": "chain", "chain": ["a"]}}
            for voter in (model, combined):
                with pytest.raises(ParseError, match="voter 0: a 'pi' entry must be a JSON number"):
                    parse_profile(_document(voter))
    row_as_string = {"type": "rim", "sigma": ["a", "b", "c"], "pi": [[1.0], "11", rows[2]]}
    with pytest.raises(ParseError, match="voter 0: a 'pi' entry"):
        parse_profile(_document(row_as_string))


def test_candidates_must_be_an_array():
    with pytest.raises(ParseError, match="candidates"):
        parse_profile(_document({"type": "poset", "pairs": []}, candidates=5))


def test_candidates_given_as_a_string_are_rejected():
    with pytest.raises(ParseError, match="candidates"):
        parse_profile(_document({"type": "chain", "chain": ["a"]}, candidates="ab"))


def test_names_given_as_a_string_are_rejected():
    for voter in ({"type": "chain", "chain": "ab"},
                  {"type": "poset", "pairs": ["ab"]},
                  {"type": "truncated", "top": "a", "bottom": []},
                  {"type": "partitioned", "buckets": ["ab", ["c"]]},
                  {"type": "mallows", "sigma": "abc", "phi": 0.5}):
        with pytest.raises(ParseError, match="voter 0"):
            parse_profile(_document(voter))


def test_a_numpy_integer_weight_is_stored_as_an_int_and_round_trips():
    voter = Voter(None, PartialChain((0, 1)), np.int64(3))
    assert type(voter.weight) is int and voter.weight == 3
    prof = Profile(candidate_set("a", "b", "c"), [voter])
    assert parse_profile(serialize_profile(prof)) == prof


def test_boolean_weight_is_rejected():
    with pytest.raises(ValidationError, match="voter 0"):
        parse_profile(_document({"type": "chain", "chain": ["a"], "weight": True}))


def test_numbers_given_as_strings_or_booleans_are_rejected():
    # float() reads "0.5" and True == 1, so each of these used to parse
    doc = {"format": True, "candidates": ["a", "b"],
           "voters": [{"type": "mallows", "sigma": ["a", "b"], "phi": "0.5"},
                      {"type": "rim", "sigma": ["a", "b"], "pi": [["1"], ["0.5", "0.5"]]}]}
    with pytest.raises(ParseError, match="format"):
        parse_profile(json.dumps(doc))
    doc["format"] = 1
    with pytest.raises(ParseError, match="voter 0: 'phi' must be a JSON number"):
        parse_profile(json.dumps(doc))
    doc["voters"][0]["phi"] = 0.5
    with pytest.raises(ParseError, match="voter 1: a 'pi' entry must be a JSON number"):
        parse_profile(json.dumps(doc))
    doc["voters"][1]["pi"] = [[1], [0.5, 0.5]]  # JSON integers are numbers
    assert parse_profile(json.dumps(doc)).voters[1].model.pi == ((1.0,), (0.5, 0.5))


def test_ranking_tag_requires_full_coverage():
    doc = {"format": 1, "candidates": ["a", "b", "c"],
           "voters": [{"type": "ranking", "ranking": ["a", "b"]}]}
    with pytest.raises(ValidationError):
        parse_profile(json.dumps(doc))


def test_ratings_group_equal_scores():
    rows = [("u1", "a", 5), ("u1", "b", 5), ("u1", "c", 3)]
    prof = ratings_to_partitions(rows, top_m=3)
    v = prof.voters[0]
    names = [sorted(prof.candidates.ids[c] for c in b) for b in v.observation.buckets]
    assert names == [["a", "b"], ["c"]]


def test_ratings_all_distinct_is_a_full_ranking():
    rows = [("u1", "a", 3), ("u1", "b", 2), ("u1", "c", 1)]
    prof = ratings_to_partitions(rows, top_m=3, mode="full")
    v = prof.voters[0]
    assert all(len(b) == 1 for b in v.observation.buckets)
    assert v.observation.is_fully_partitioned(3)


def test_ratings_partial_mode_fills_missing():
    rows = [("u1", "a", 5), ("u1", "b", 4),
            ("u2", "a", 2), ("u2", "c", 2)]
    prof = ratings_to_partitions(rows, top_m=3, mode="partial")
    u1, u2 = prof.voters
    assert len(u1.observation.missing) == 1
    assert len(u2.observation.buckets) == 1  # equal ratings share one bucket


def test_ratings_movie_shaped_sample():
    rng = np.random.default_rng(52)
    movies = [f"m{i}" for i in range(8)]
    rows = []
    for u in range(10):
        seen = rng.choice(8, size=int(rng.integers(3, 8)), replace=False)
        for s in seen:
            rows.append((f"user{u}", movies[int(s)], int(rng.integers(1, 6))))
    prof = ratings_to_partitions(rows, top_m=8, mode="partial")
    assert prof.m == 8
    assert 1 <= prof.n <= 10
    for v in prof.voters:
        from mewvote import validate

        validate(v.observation, prof.candidates)


def test_ratings_full_mode_requires_complete_coverage():
    rows = [("u1", "a", 5), ("u1", "b", 4), ("u2", "a", 2)]
    with pytest.raises(ValidationError):
        ratings_to_partitions(rows, top_m=2, mode="full")


def test_ratings_empty_input():
    with pytest.raises(EmptyInput):
        ratings_to_partitions([], top_m=5)


def _combined(model, observation):
    return {"format": 1, "candidates": ["a", "b"],
            "voters": [{"type": "combined", "model": model, "observation": observation}]}


@pytest.mark.parametrize("call,error,message", [
    (lambda: parse_profile("[1, 2]"), ParseError, "profile document must be a JSON object"),
    (lambda: parse_profile(json.dumps({"format": 1, "candidates": [["a"], "b"],
                                       "voters": [{"type": "poset", "pairs": []}]})),
     ParseError, r"malformed 'candidates' \(unhashable type: 'list'\)"),
    (lambda: parse_profile(json.dumps(_combined({"type": "plackett", "sigma": ["a", "b"]},
                                                {"type": "poset", "pairs": []}))),
     ParseError, "voter 0: unknown model type 'plackett'"),
    (lambda: parse_profile(json.dumps(_combined(
        {"type": "mallows", "sigma": ["a", "b"], "phi": 0.5}, {"type": "cloud"}))),
     ParseError, "voter 0: unknown observation type 'cloud'"),
    (lambda: ratings_to_partitions([("u", "a", 1), ("u", "b", 2)], 2, mode="x"),
     ValidationError, "mode must be 'partial' or 'full', got 'x'"),
])
def test_document_and_ratings_inputs_are_rejected_with_their_class(call, error, message):
    with pytest.raises(error, match=message) as info:
        call()
    assert type(info.value) is error
