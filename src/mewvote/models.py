"""Generative ranking models: insertion model, selection model, and Mallows.

The insertion model RIM(sigma, pi) builds a ranking by inserting the items of
the reference ranking ``sigma`` one at a time; ``pi[i-1][j-1]`` is the
probability of placing the i-th reference item at position j among the first
i items.  The ranking selection model rRSM(sigma, pi) instead picks the next
ranked item from the shrinking reference list; ``pi[i-1][j-1]`` is the
probability of selecting the j-th remaining item at step i.

Mallows(sigma, phi) weights each ranking by phi ** (Kendall-tau distance to
sigma) and is a special case of both: row i of the insertion matrix is
``phi**(i-j) / (1 + phi + ... + phi**(i-1))`` and row i of the selection
matrix is ``phi**(j-1) / (1 + phi + ... + phi**(m-i))``.  Normalizers are
accumulated by explicit summation so that phi = 1 (the uniform distribution)
is exact.

A ``MallowsModel`` reads its insertion rows as ``pi`` from one cache per
(phi, m), shared by every model with those values and emptied by
``rep.clear_caches``; the model keeps no copy.  So it is passed
unconverted to every reader of an insertion model (``rim_probability``,
``sample`` and the insertion DPs in ``rep``).  ``mallows_to_rim`` gives the
same rows as a plain ``RimModel``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ValidationError
from .preferences import Ranking

ROW_SUM_TOL = 1e-12


def _check_rows(pi, lengths):
    if len(pi) != len(lengths):
        raise ValidationError(f"expected {len(lengths)} rows, one per item, got {len(pi)}")
    for i, row in enumerate(pi):
        if len(row) != lengths[i]:
            raise ValidationError(f"row {i + 1} must have {lengths[i]} entries, got {len(row)}")
        if any(p < 0.0 or p > 1.0 for p in row):
            raise ValidationError(f"row {i + 1} has entries outside [0, 1]")
        if abs(sum(row) - 1.0) > ROW_SUM_TOL:
            raise ValidationError(f"row {i + 1} sums to {sum(row)!r}, expected 1")


@dataclass(frozen=True)
class _StepModel:
    """A reference ranking and one probability row per step.  The two step
    models are sibling subclasses, each a frozen dataclass of its own (so no
    attribute can be set), neither an instance of the other, and equal fields
    of different classes compare unequal."""
    sigma: Ranking
    pi: tuple[tuple[float, ...], ...]

    def __init__(self, sigma, pi, check: bool = True):
        object.__setattr__(self, "sigma", tuple(sigma))
        object.__setattr__(self, "pi", tuple(tuple(float(p) for p in row) for row in pi))
        if check:
            _check_rows(self.pi, self._row_lengths(len(self.sigma)))

    @property
    def m(self) -> int:
        return len(self.sigma)


@dataclass(frozen=True, init=False)
class RimModel(_StepModel):
    @staticmethod
    def _row_lengths(m: int) -> list[int]:  # row i inserts among the first i items
        return [i + 1 for i in range(m)]


@dataclass(frozen=True, init=False)
class RsmRankingModel(_StepModel):
    @staticmethod
    def _row_lengths(m: int) -> list[int]:  # row i selects among the m - i + 1 left
        return [m - i for i in range(m)]


@dataclass(frozen=True)
class MallowsModel:
    sigma: Ranking
    phi: float

    def __init__(self, sigma, phi):
        object.__setattr__(self, "sigma", tuple(sigma))
        object.__setattr__(self, "phi", float(phi))
        if not 0.0 < self.phi <= 1.0:
            raise ValidationError(f"phi must be in (0, 1], got {self.phi}")

    @property
    def m(self) -> int:
        return len(self.sigma)

    @property
    def pi(self) -> tuple[tuple[float, ...], ...]:
        """Insertion rows, read from the cache per (phi, m) and never kept on
        the model; not a field, so equality, hashing and repr read sigma and
        phi only."""
        return _insertion_rows(self.phi, self.m)


@lru_cache(maxsize=4096)  # solvers run once per candidate: check each (sigma, m) once
def validate_reference(sigma: Ranking, m: int) -> None:
    """Check that a model's reference ranking orders exactly the m candidates."""
    if sorted(sigma) != list(range(m)):
        raise ValidationError("model reference ranking is not over the candidate set")


def _geometric_row(phi: float, powers: list[int]) -> tuple[float, ...]:
    weights = [phi ** e for e in powers]
    z = 0.0
    for w in weights:  # explicit sum keeps phi = 1 exact
        z += w
    return tuple(w / z for w in weights)


@lru_cache(maxsize=1024)
def _insertion_rows(phi: float, m: int) -> tuple[tuple[float, ...], ...]:
    return tuple(_geometric_row(phi, [i - j for j in range(1, i + 1)]) for i in range(1, m + 1))


@lru_cache(maxsize=1024)
def _selection_rows(phi: float, m: int) -> tuple[tuple[float, ...], ...]:
    return tuple(_geometric_row(phi, list(range(m - i + 1))) for i in range(1, m + 1))


def mallows_to_rim(model: MallowsModel) -> RimModel:
    return RimModel(model.sigma, model.pi, check=False)


def mallows_to_rsm(model: MallowsModel) -> RsmRankingModel:
    return RsmRankingModel(model.sigma, _selection_rows(model.phi, model.m), check=False)


def uniform_rim(sigma: Ranking) -> RimModel:
    """Insertion model of the uniform distribution over all rankings."""
    return mallows_to_rim(MallowsModel(sigma, 1.0))


def kendall_tau(a: Ranking, b: Ranking) -> int:
    """Number of unordered candidate pairs ranked oppositely by ``a`` and ``b``."""
    if sorted(a) != sorted(b):
        raise ValidationError("rankings are over different candidate sets")
    pos_b = {c: j for j, c in enumerate(b)}
    seq = [pos_b[c] for c in a]
    return sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )


def rim_insertion_positions(r: Ranking, sigma: Ranking) -> list[int]:
    """Position (1-based) at which each reference item is inserted to produce ``r``."""
    pos_r = {c: j for j, c in enumerate(r)}
    out = []
    for i, c in enumerate(sigma):
        before = sum(1 for d in sigma[:i] if pos_r[d] < pos_r[c])
        out.append(before + 1)
    return out


def rim_probability(r: Ranking, model: RimModel | MallowsModel) -> float:
    """Probability that the insertion process generates ``r``."""
    pi, p = model.pi, 1.0
    for i, j in enumerate(rim_insertion_positions(r, model.sigma), start=1):
        p *= pi[i - 1][j - 1]
    return p


def rsm_probability(r: Ranking, model: RsmRankingModel) -> float:
    """Probability that the selection process generates ``r``."""
    remaining = list(model.sigma)
    p = 1.0
    for i, c in enumerate(r, start=1):
        j = remaining.index(c) + 1
        p *= model.pi[i - 1][j - 1]
        remaining.pop(j - 1)
    return p


def mallows_probability(r: Ranking, model: MallowsModel) -> float:
    """Exact Mallows probability via the insertion-model factorization."""
    return rim_probability(r, model)


def sample(model, rng) -> Ranking:
    """Draw one ranking; deterministic for a given seed (PCG64 stream)."""
    gen = np.random.default_rng(rng)  # a Generator comes back as it is
    if isinstance(model, (MallowsModel, RimModel)):
        out: list[int] = []
        pi = model.pi
        for i, c in enumerate(model.sigma, start=1):
            j = gen.choice(i, p=pi[i - 1]) + 1
            out.insert(j - 1, c)
        return tuple(out)
    if isinstance(model, RsmRankingModel):
        remaining = list(model.sigma)
        out = []
        for i in range(1, len(model.sigma) + 1):
            j = gen.choice(len(remaining), p=model.pi[i - 1]) + 1
            out.append(remaining.pop(j - 1))
        return tuple(out)
    raise TypeError(f"cannot sample from {type(model).__name__}")
