"""Profile document format (tagged JSON, ``format: 1``) and dataset ingestion.

Voter records carry a type tag plus a type-specific payload; identifiers are
candidate names, resolved to indices on parse.  ``parse(serialize(p))``
round-trips losslessly for any parsed profile; the one normalization applied
on parse is that an empty poset becomes "no observation".
"""

from __future__ import annotations

import json
from collections import Counter, OrderedDict

from .errors import EmptyInput, ParseError, ValidationError
from .models import MallowsModel, RimModel, RsmRankingModel
from .preferences import (
    CandidateSet,
    PartialChain,
    PartialOrder,
    PartitionedPreference,
    TruncatedRanking,
)
from .profiles import Profile, Voter

FORMAT_VERSION = 1


def _names(indices, ids):
    return [ids[i] for i in indices]


def _model_to_dict(model, ids) -> dict:
    if isinstance(model, MallowsModel):
        return {"type": "mallows", "sigma": _names(model.sigma, ids), "phi": model.phi}
    if isinstance(model, RimModel):
        return {"type": "rim", "sigma": _names(model.sigma, ids),
                "pi": [list(row) for row in model.pi]}
    if isinstance(model, RsmRankingModel):
        return {"type": "rsm", "sigma": _names(model.sigma, ids),
                "pi": [list(row) for row in model.pi]}
    raise ValidationError(f"cannot serialize model {type(model).__name__}")


def _observation_to_dict(obs, ids, m) -> dict:
    if isinstance(obs, PartialOrder):
        pairs = sorted(obs.pairs)
        return {"type": "poset", "pairs": [[ids[a], ids[b]] for a, b in pairs]}
    if isinstance(obs, PartialChain):
        tag = "ranking" if len(obs.chain) == m else "chain"
        return {"type": tag, tag: _names(obs.chain, ids)}
    if isinstance(obs, PartitionedPreference):
        buckets = [_names(sorted(b), ids) for b in obs.buckets]
        if obs.is_fully_partitioned(m):
            return {"type": "partitioned", "buckets": buckets}
        return {"type": "partial_partitioned", "buckets": buckets,
                "missing": _names(sorted(obs.missing), ids)}
    if isinstance(obs, TruncatedRanking):
        return {"type": "truncated", "top": _names(obs.top, ids),
                "bottom": _names(obs.bottom, ids)}
    raise ValidationError(f"cannot serialize observation {type(obs).__name__}")


def _voter_to_dict(v: Voter, ids, m) -> dict:
    if v.model is None and v.observation is None:
        doc: dict = {"type": "poset", "pairs": []}
    elif v.model is None:
        doc = _observation_to_dict(v.observation, ids, m)
    elif v.observation is None:
        doc = _model_to_dict(v.model, ids)
    else:
        doc = {"type": "combined",
               "model": _model_to_dict(v.model, ids),
               "observation": _observation_to_dict(v.observation, ids, m)}
    if v.weight != 1:
        doc["weight"] = v.weight
    return doc


def profile_to_dict(profile: Profile) -> dict:
    ids = profile.candidates.ids
    return OrderedDict(
        format=FORMAT_VERSION,
        candidates=list(ids),
        voters=[_voter_to_dict(v, ids, profile.m) for v in profile.voters],
    )


def serialize_profile(profile: Profile) -> str:
    return json.dumps(profile_to_dict(profile), indent=2) + "\n"


def _indices(names, cand: CandidateSet) -> list[int]:
    """Resolve a JSON array of candidate names; a string or any other value is rejected."""
    if not isinstance(names, list):
        raise ParseError(f"expected a JSON array of candidate names, got {names!r}")
    return [cand.index_of(x) for x in names]


def _number(value, field: str):
    """A JSON number; a string or a boolean, which ``float`` would take, raises."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ParseError(f"{field} must be a JSON number, got {value!r}")
    return value


def _parse_model(doc, cand: CandidateSet):
    kind = doc.get("type")
    sigma = tuple(_indices(doc.get("sigma", []), cand))
    if kind == "mallows":
        return MallowsModel(sigma, _number(doc["phi"], "'phi'"))
    if kind in ("rim", "rsm"):  # a non-array row or pi iterates to strings or raises
        pi = [[_number(p, "a 'pi' entry") for p in row] for row in doc["pi"]]
        return (RimModel if kind == "rim" else RsmRankingModel)(sigma, pi)
    raise ParseError(f"unknown model type {kind!r}")


def _parse_observation(doc, cand: CandidateSet):
    kind = doc.get("type")
    if kind == "poset":
        return PartialOrder([_indices(pair, cand) for pair in doc.get("pairs", [])])
    if kind in ("ranking", "chain"):
        items = doc["ranking"] if kind == "ranking" else doc["chain"]
        chain = PartialChain(_indices(items, cand))
        if kind == "ranking" and len(chain.chain) != cand.m:
            raise ValidationError("ranking must cover all candidates")
        return chain
    if kind == "partitioned":
        return PartitionedPreference([_indices(bucket, cand) for bucket in doc["buckets"]])
    if kind == "partial_partitioned":
        return PartitionedPreference([_indices(bucket, cand) for bucket in doc["buckets"]],
                                     _indices(doc.get("missing", []), cand))
    if kind == "truncated":
        return TruncatedRanking(_indices(doc["top"], cand), _indices(doc["bottom"], cand))
    raise ParseError(f"unknown observation type {kind!r}")


_MODEL_TAGS = ("mallows", "rim", "rsm")
_OBSERVATION_TAGS = ("ranking", "poset", "partitioned", "partial_partitioned",
                     "chain", "truncated")


def _parse_voter(doc, cand: CandidateSet) -> Voter:
    weight = doc.get("weight", 1)  # checked by Voter
    kind = doc.get("type")
    if kind == "combined":
        model = _parse_model(doc["model"], cand)
        obs = _parse_observation(doc["observation"], cand)
        return Voter(model, obs, weight)
    if kind in _MODEL_TAGS:
        return Voter(_parse_model(doc, cand), None, weight)
    if kind in _OBSERVATION_TAGS:
        return Voter(None, _parse_observation(doc, cand), weight)
    raise ParseError(f"unknown voter type {kind!r}")


def parse_profile(text: str) -> Profile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("profile document must be a JSON object")
    if isinstance(doc.get("format"), bool) or doc.get("format") != FORMAT_VERSION:
        raise ParseError(f"unsupported format {doc.get('format')!r}, expected {FORMAT_VERSION}")
    names = doc.get("candidates")
    if not isinstance(names, list):
        raise ParseError(f"'candidates' must be a JSON array of names, got {names!r}")
    try:
        cand = CandidateSet(tuple(names))
    except TypeError as exc:  # a name that is not hashable, such as an array
        raise ParseError(f"malformed 'candidates' ({exc})") from exc
    raw_voters = doc.get("voters")
    if not raw_voters:
        raise ValidationError("profile has no voters")
    if not isinstance(raw_voters, list):
        raise ParseError("'voters' must be a JSON array")
    voters = []
    for i, vdoc in enumerate(raw_voters):
        try:
            voters.append(_parse_voter(vdoc, cand))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:  # wrong shape or value
            raise ParseError(f"voter {i}: malformed record ({exc})") from exc
        except (ValidationError, ParseError) as exc:
            exc.args = (f"voter {i}: {exc}",)
            raise
    return Profile(cand, voters)


def load_profile(path) -> Profile:
    with open(path, encoding="utf-8") as fh:
        return parse_profile(fh.read())


def save_profile(profile: Profile, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_profile(profile))


def ratings_to_partitions(rows, top_m: int, mode: str = "partial") -> Profile:
    """Convert (voter, item, rating) records into a partitioned-preference profile.

    Keeps the ``top_m`` most frequently rated items; per voter, kept items
    with equal ratings share a bucket and buckets are ordered by descending
    rating.  In ``partial`` mode a voter's unrated kept items go to the
    missing set; ``full`` mode requires every voter to have rated all kept
    items.
    """
    if mode not in ("partial", "full"):
        raise ValidationError(f"mode must be 'partial' or 'full', got {mode!r}")
    rows = list(rows)
    if not rows:
        raise EmptyInput("no rating records")
    counts: Counter = Counter(item for _, item, _ in rows)
    kept = sorted(counts, key=lambda item: (-counts[item], item))[:top_m]
    cand = CandidateSet(tuple(kept))
    keep = set(kept)

    by_voter: OrderedDict[str, dict[str, float]] = OrderedDict()
    for voter_id, item, rating in rows:
        if item in keep:
            by_voter.setdefault(voter_id, {})[item] = float(rating)

    voters = []
    for voter_id, ratings in by_voter.items():
        if mode == "full" and len(ratings) != len(kept):
            raise ValidationError(
                f"voter {voter_id!r} rated {len(ratings)}/{len(kept)} kept items; "
                "full mode needs a fully rated universe")
        by_rating: dict[float, list[int]] = {}
        for item, rating in ratings.items():
            by_rating.setdefault(rating, []).append(cand.index_of(item))
        buckets = [sorted(by_rating[r]) for r in sorted(by_rating, reverse=True)]
        missing = [cand.index_of(item) for item in kept if item not in ratings]
        voters.append(Voter(None, PartitionedPreference(buckets, missing)))
    return Profile(cand, voters)
