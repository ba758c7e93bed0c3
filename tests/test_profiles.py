import json

import pytest

from mewvote import (
    CycleDetected,
    OverlapViolation,
    PartialOrder,
    PartitionedPreference,
    Profile,
    UnknownCandidate,
    ValidationError,
    Voter,
    candidate_set,
    parse_profile,
)
from mewvote.cli import main

ABC = candidate_set("a", "b", "c")


@pytest.mark.parametrize("call,message", [
    (lambda: Voter(None, None, 0), "voter weight must be >= 1, got 0"),
    (lambda: Profile(ABC, []), "profile has no voters"),
])
def test_voter_weight_and_an_empty_profile_are_rejected(call, message):
    with pytest.raises(ValidationError, match=message) as info:
        call()
    assert type(info.value) is ValidationError


# each invalid observation once as built in Python and once as a document record
_INVALID = [
    (PartialOrder([(0, 1), (1, 0)]), {"type": "poset", "pairs": [["a", "b"], ["b", "a"]]},
     CycleDetected),
    (PartialOrder([(0, 5)]), {"type": "poset", "pairs": [["a", "z"]]}, UnknownCandidate),
    (PartitionedPreference([[0], [0, 1]]), {"type": "partitioned", "buckets": [["a"], ["a", "b"]]},
     OverlapViolation),
]


@pytest.mark.parametrize("obs,record,error", _INVALID)
def test_profile_names_the_voter_and_keeps_the_error_class(obs, record, error, tmp_path, capsys):
    with pytest.raises(error, match="^voter 1: ") as built:
        Profile(ABC, [Voter(), Voter(None, obs)])
    doc = json.dumps({"format": 1, "candidates": list(ABC.ids),
                      "voters": [{"type": "poset", "pairs": []}, record]})
    with pytest.raises(error, match="^voter 1: ") as parsed:
        parse_profile(doc)
    assert type(built.value) is type(parsed.value) is error
    path = tmp_path / "invalid.profile"
    path.write_text(doc)
    assert main(["mew", "--profile", str(path), "--rule", "plurality"]) == 1
    assert capsys.readouterr().err.startswith("error: voter 1: ")
