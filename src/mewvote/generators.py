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
    check_integer,
)
from .profiles import Profile, Voter


@dataclass(frozen=True)
class GenSpec:
    """A generator kind and its parameters; m, n, k (when given), t, b and seed are
    stored as plain ints, and k, t and b are bounded where the kind's observation reads them."""
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
        if self.kind not in _KINDS:
            raise ValidationError(f"unknown generator kind {self.kind!r}")
        for name in ("m", "n", "t", "b") + ("k",) * (self.k is not None):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", check_count("seed", self.seed, low=0))
        if self.m < 2 or self.n < 1:
            raise ValidationError("need m >= 2 and n >= 1")
        if not 0.0 < self.phi <= 1.0:
            raise ValidationError(f"phi must be in (0, 1], got {self.phi}")
        if not 0.0 <= self.p_max <= 1.0:
            raise ValidationError(f"p_max must be in [0, 1], got {self.p_max}")
        observation = _KINDS[self.kind][1]
        if observation in ("full", "partial", "chain") and not 1 <= (self.k or 0) <= self.m:
            raise InvalidK(f"k must be in [1, m], got {self.k}")
        if observation == "truncated" and (min(self.t, self.b) < 0 or self.t + self.b > self.m):
            raise ValidationError(f"need t + b <= m, got t={self.t} b={self.b}")


def _candidates(m: int) -> CandidateSet:
    return CandidateSet(tuple(f"c{i + 1}" for i in range(m)))


def cover_width_profile(m: int, n: int, width: int, phi: float) -> Profile:
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
    return TruncatedRanking(ranking[:t], ranking[m - b:])


# the generation step, from the Mallows model over the identity ranking with the spec's phi
_MODELS = {"mallows": lambda model: model, "rim": mallows_to_rim, "rsm": mallows_to_rsm}
_OBSERVATIONS = {  # one voter's observation, from the spec and the voter's own stream
    "poset": lambda spec, rng: _rsm_poset(spec.m, spec.phi, spec.p_max, rng),
    "full": lambda spec, rng: _partitioned(spec.m, spec.k, False, rng),
    "partial": lambda spec, rng: _partitioned(spec.m, spec.k, True, rng),
    "chain": lambda spec, rng: _chain(spec.m, spec.k, rng),
    "truncated": lambda spec, rng: _truncated(spec.m, spec.t, spec.b, rng),
}
_KINDS = {  # kind: (model or None for uniform, observation or None), in the order of KINDS
    "poset": (None, "poset"),
    "partitioned_full": (None, "full"),
    "partitioned_partial": (None, "partial"),
    "chain": (None, "chain"),
    "truncated": (None, "truncated"),
    "mallows": ("mallows", None),
    "rim": ("rim", None),
    "rsm": ("rsm", None),
    "mallows_po": ("mallows", "poset"),
    "mallows_fp": ("mallows", "full"),
    "mallows_tr": ("mallows", "truncated"),
}
KINDS = tuple(_KINDS)


def generate(spec: GenSpec) -> Profile:
    """Build the profile described by ``spec``; deterministic given the seed."""
    model, observation = _KINDS[spec.kind]
    model = model and _MODELS[model](MallowsModel(tuple(range(spec.m)), spec.phi))
    if observation is None:
        voters = [Voter(model, None) for _ in range(spec.n)]
    else:  # each voter draws from its own stream
        observe = _OBSERVATIONS[observation]
        voters = [Voter(model, observe(spec, np.random.default_rng(s)))
                  for s in np.random.SeedSequence(spec.seed).spawn(spec.n)]
    return Profile(_candidates(spec.m), voters)
