"""Positional scoring rules."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidK, InvalidRule, RankOutOfRange
from .preferences import check_integer


@dataclass(frozen=True)
class ScoringRule:
    """A nonincreasing score vector over ranks, with s(1) > s(m).

    ``exact`` holds the same values as Fractions so that solvers needing
    exact score arithmetic (state merging) can avoid float keys.
    ``score_array`` holds ``scores`` as a read-only float64 array, built once
    for the dot products of expected scores; it is not a field, so equality,
    hashing and repr read the tuples alone.
    """

    name: str
    scores: tuple[float, ...]
    exact: tuple[Fraction, ...]

    def __init__(self, name, values):
        exact = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in values)
        scores = tuple(float(v) for v in exact)
        if len(scores) < 2:
            raise InvalidRule("rule needs at least 2 ranks")
        if any(s < 0 for s in exact):
            raise InvalidRule("scores must be nonnegative")
        if any(exact[i] < exact[i + 1] for i in range(len(exact) - 1)):
            raise InvalidRule("scores must be nonincreasing")
        if exact[0] <= exact[-1]:
            raise InvalidRule("top score must exceed bottom score")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "exact", exact)
        score_array = np.array(scores, dtype=np.float64)
        score_array.setflags(write=False)
        object.__setattr__(self, "score_array", score_array)

    def __reduce__(self):  # rebuilt through __init__, so a copy's score_array is read-only too
        return ScoringRule, (self.name, self.exact)

    @property
    def m(self) -> int:
        return len(self.scores)


def check_rule_size(rule: ScoringRule, m: int) -> None:
    """Reject a rule whose rank count differs from the profile's candidate count."""
    if rule.m != m:
        raise InvalidRule(f"rule has {rule.m} ranks, profile has {m} candidates")


def make_rule(kind: str, m: int, k: int | None = None) -> ScoringRule:
    if m < 2:
        raise InvalidRule("need at least 2 candidates")
    if kind == "plurality":
        return ScoringRule("plurality", [1] + [0] * (m - 1))
    if kind == "veto":
        return ScoringRule("veto", [1] * (m - 1) + [0])
    if kind == "borda":
        return ScoringRule("borda", list(range(m - 1, -1, -1)))
    if kind == "k_approval":
        if k is None or not 1 <= check_integer("k", k, InvalidK) < m:
            raise InvalidK(f"k must be in [1, {m - 1}], got {k}")
        return ScoringRule(f"{k}-approval", [1] * k + [0] * (m - k))
    raise InvalidRule(f"unknown rule kind {kind!r}")


def parse_rule(spec: str, m: int) -> ScoringRule:
    """Parse CLI rule syntax: plurality, veto, borda, k-approval:K, custom:s1,...,sm."""
    if spec in ("plurality", "veto", "borda"):
        return make_rule(spec, m)
    if spec.startswith("k-approval:"):
        try:
            k = int(spec.split(":", 1)[1])
        except ValueError:
            raise InvalidK(f"bad k-approval spec {spec!r}") from None
        return make_rule("k_approval", m, k)
    if spec.startswith("custom:"):
        parts = spec.split(":", 1)[1].split(",")
        if len(parts) != m:
            raise InvalidRule(f"custom rule has {len(parts)} scores, profile has {m} candidates")
        try:
            values = [Fraction(p.strip()) for p in parts]
        except (ValueError, ZeroDivisionError):
            raise InvalidRule(f"bad custom score vector {spec!r}") from None
        return ScoringRule("custom", values)
    raise InvalidRule(f"unknown rule {spec!r}")


def score_of_rank(rule: ScoringRule, j: int) -> float:
    if not 1 <= j <= rule.m:
        raise RankOutOfRange(f"rank {j} outside [1, {rule.m}]")
    return rule.scores[j - 1]


def integer_scores(rule: ScoringRule) -> tuple[int, ...]:
    """Exact score vector scaled to integers (common denominator cleared)."""
    denom = math.lcm(*(f.denominator for f in rule.exact))
    return tuple(int(f * denom) for f in rule.exact)
