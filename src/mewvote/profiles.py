"""Voting profiles: a shared candidate set plus an ordered list of voters."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ValidationError
from .models import validate_reference
from .preferences import CandidateSet, validate
from .rep import Voter


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
            except ValidationError as exc:
                raise ValidationError(f"voter {i}: {exc}") from exc

    @property
    def m(self) -> int:
        return self.candidates.m

    @property
    def n(self) -> int:
        return len(self.voters)
