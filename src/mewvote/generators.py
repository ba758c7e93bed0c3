"""Seeded synthetic profile generators for benchmarks and randomized tests.

Per-voter randomness comes from child streams spawned off one master seed
(numpy SeedSequence), so generation is reproducible across platforms and
adding voters never perturbs earlier ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidK, ValidationError
from .models import MallowsModel, _selection_rows, mallows_to_rim, mallows_to_rsm
from .preferences import (
    CandidateSet,
    PartialChain,
    PartialOrder,
    PartitionedPreference,
    TruncatedRanking,
    check_count,
)
from .profiles import Profile, Voter

KINDS = (
    "poset", "partitioned_full", "partitioned_partial", "chain", "truncated",
    "mallows", "rim", "rsm", "mallows_po", "mallows_fp", "mallows_tr",
)


@dataclass(frozen=True)
class GenSpec:
    kind: str
    m: int
    n: int
    phi: float = 0.5
    p_max: float = 0.1
    k: int | None = None
    t: int = 0
    b: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        if self.m < 2 or self.n < 1:
            raise ValidationError("need m >= 2 and n >= 1")
        if not 0.0 < self.phi <= 1.0:
            raise ValidationError(f"phi must be in (0, 1], got {self.phi}")
        if not 0.0 <= self.p_max <= 1.0:
            raise ValidationError(f"p_max must be in [0, 1], got {self.p_max}")
        if self.kind in ("partitioned_full", "partitioned_partial", "chain", "mallows_fp"):
            if self.k is None or not 1 <= self.k <= self.m:
                raise InvalidK(f"k must be in [1, m], got {self.k}")
        if self.kind in ("truncated", "mallows_tr"):
            if self.t < 0 or self.b < 0 or self.t + self.b > self.m:
                raise ValidationError(f"need t + b <= m, got t={self.t} b={self.b}")


def _candidates(m: int) -> CandidateSet:
    return CandidateSet(tuple(f"c{i + 1}" for i in range(m)))


def cover_width_profile(m: int, n: int, width: int, phi: float, seed: int) -> Profile:
    """Profiles whose posets pin the insertion DP's tracked-item count to ``width``.

    The first ``width`` reference items are each preferred to the last one, so
    all of them stay tracked until the final insertion.
    """
    if check_count("cover width", width) > m - 1:
        raise ValidationError(f"cover width must be <= {m - 1}, got {width}")
    pairs = [(i, m - 1) for i in range(width)]
    model = MallowsModel(tuple(range(m)), phi)
    voters = [Voter(model, PartialOrder(pairs)) for _ in range(n)]
    return Profile(_candidates(m), voters)


def _voter_rngs(spec: GenSpec) -> list[np.random.Generator]:
    return [np.random.default_rng(s) for s in np.random.SeedSequence(spec.seed).spawn(spec.n)]


def _rsm_poset(m: int, phi: float, p_max: float, rng: np.random.Generator,
               edge_probs=None) -> PartialOrder:
    """Emit preference pairs via repeated selection with per-voter edge probabilities."""
    selection = _selection_rows(phi, m)
    edge_p = rng.uniform(0.0, p_max, size=m - 1) if edge_probs is None else edge_probs
    remaining = list(range(m))
    pairs = []
    for i in range(1, m):
        j = int(rng.choice(len(remaining), p=selection[i - 1]))
        selected = remaining.pop(j)
        for other in remaining:
            if rng.random() < edge_p[i - 1]:
                pairs.append((selected, other))
    return PartialOrder(pairs)


def _partitioned(m: int, k: int, partial: bool, rng: np.random.Generator) -> PartitionedPreference:
    items = [int(x) for x in rng.permutation(m)]
    buckets = [[c] for c in items[:k]]  # one seed item per bucket
    missing: list[int] = []
    n_slots = k + 1 if partial else k
    for c in items[k:]:
        slot = int(rng.integers(n_slots))
        if slot == k:
            missing.append(c)
        else:
            buckets[slot].append(c)
    return PartitionedPreference(buckets, missing)


def _chain(m: int, k: int, rng: np.random.Generator) -> PartialChain:
    return PartialChain(int(x) for x in rng.permutation(m)[:k])


def _truncated(m: int, t: int, b: int, rng: np.random.Generator) -> TruncatedRanking:
    ranking = [int(x) for x in rng.permutation(m)]
    return TruncatedRanking(ranking[:t], ranking[m - b:] if b else [])


def generate(spec: GenSpec) -> Profile:
    """Build the profile described by ``spec``; deterministic given the seed."""
    m, n = spec.m, spec.n
    rngs = _voter_rngs(spec)
    identity = tuple(range(m))
    voters: list[Voter] = []

    if spec.kind == "poset":
        voters = [Voter(None, _rsm_poset(m, spec.phi, spec.p_max, rng)) for rng in rngs]
    elif spec.kind in ("partitioned_full", "partitioned_partial"):
        partial = spec.kind == "partitioned_partial"
        voters = [Voter(None, _partitioned(m, spec.k, partial, rng)) for rng in rngs]
    elif spec.kind == "chain":
        voters = [Voter(None, _chain(m, spec.k, rng)) for rng in rngs]
    elif spec.kind == "truncated":
        voters = [Voter(None, _truncated(m, spec.t, spec.b, rng)) for rng in rngs]
    elif spec.kind == "mallows":
        model = MallowsModel(identity, spec.phi)
        voters = [Voter(model, None) for _ in range(n)]
    elif spec.kind == "rim":
        model = mallows_to_rim(MallowsModel(identity, spec.phi))
        voters = [Voter(model, None) for _ in range(n)]
    elif spec.kind == "rsm":
        model = mallows_to_rsm(MallowsModel(identity, spec.phi))
        voters = [Voter(model, None) for _ in range(n)]
    elif spec.kind == "mallows_po":
        model = MallowsModel(identity, spec.phi)
        voters = [Voter(model, _rsm_poset(m, spec.phi, spec.p_max, rng)) for rng in rngs]
    elif spec.kind == "mallows_fp":
        model = MallowsModel(identity, spec.phi)
        voters = [Voter(model, _partitioned(m, spec.k, False, rng)) for rng in rngs]
    elif spec.kind == "mallows_tr":
        model = MallowsModel(identity, spec.phi)
        voters = [Voter(model, _truncated(m, spec.t, spec.b, rng)) for rng in rngs]

    return Profile(_candidates(m), voters)
