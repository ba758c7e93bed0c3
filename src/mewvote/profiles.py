"""Voters and voting profiles (a shared candidate set plus an ordered list of
voters): the data layer that solvers, engine, oracle and profile format read."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import Unsupported, ValidationError
from .models import MallowsModel, RimModel, RsmRankingModel, validate_reference
from .preferences import (CandidateSet, Observation, PartialOrder, check_count, check_observation,
                          validate)


@dataclass(frozen=True)
class Voter:
    """One voter: a generation-step model, an optional observation, a multiplicity.

    ``model`` is None for the uniform generation step.  A complete ranking is
    represented as a full-length partial chain observation; a model or an
    observation of no known type raises Unsupported.
    """

    model: MallowsModel | RimModel | RsmRankingModel | None = None
    observation: Observation | None = None
    weight: int = 1

    def __post_init__(self):
        if not isinstance(self.model, (MallowsModel, RimModel, RsmRankingModel, type(None))):
            raise Unsupported(f"unknown model type {type(self.model).__name__}")
        check_observation(self.observation)  # every solver path keys a cache on it
        if isinstance(self.observation, PartialOrder) and not self.observation.pairs:
            object.__setattr__(self, "observation", None)  # canonical "no information"
        object.__setattr__(self, "weight", check_count("voter weight", self.weight))

    def group_key(self):
        return (self.model, self.observation)


@dataclass(frozen=True)
class Profile:
    candidates: CandidateSet
    voters: tuple[Voter, ...]

    def __init__(self, candidates, voters):
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "voters", tuple(voters))
        if not self.voters:
            raise ValidationError("profile has no voters")
        m = candidates.m
        for i, v in enumerate(self.voters):
            try:
                if v.model is not None:
                    validate_reference(v.model.sigma, m)
                if v.observation is not None:
                    validate(v.observation, m)
            except ValidationError as exc:  # keeps the subclass, as parse_profile does
                exc.args = (f"voter {i}: {exc}",)
                raise

    @property
    def m(self) -> int:
        return self.candidates.m

    @property
    def n(self) -> int:
        return len(self.voters)
