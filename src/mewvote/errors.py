"""Exception hierarchy shared by all solver and IO modules."""


class MewError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(MewError):
    """A preference structure, model, or profile violates an invariant."""


class CycleDetected(ValidationError):
    """A preference-pair set is not acyclic."""


class UnknownCandidate(ValidationError):
    """A structure references a candidate outside the candidate set."""


class OverlapViolation(ValidationError):
    """Buckets, chain entries, or top/bottom segments overlap or repeat."""


class EmptyInput(ValidationError):
    """An input collection that must be nonempty is empty."""


class ParseError(MewError):
    """A profile document is malformed."""


class InvalidRule(ValidationError):
    """A scoring vector violates the positional-rule invariants."""


class InvalidK(InvalidRule):
    """k-approval parameter outside [1, m-1]."""


class RankOutOfRange(MewError):
    """A rank index outside [1, m]."""


class TooLarge(MewError):
    """An enumeration or state count exceeds its configured cap."""


class CoverWidthExceeded(TooLarge):
    """The tracked-item DP's cover width or one step's state count passes its bound."""


class ZeroPosterior(MewError):
    """Conditioning evidence has zero probability under the voter's model."""


class Unsupported(MewError):
    """No exact solver exists for this model/observation combination."""
