"""Candidate sets, rankings, and incomplete-preference structures.

Candidates are opaque string identifiers mapped to indices ``0..m-1``.  A
ranking is a tuple of candidate indices, most preferred first, so
``ranking[j-1]`` is the candidate at rank ``j``.

Four incomplete-observation structures are supported: partial orders
(posets), partitioned preferences (ordered buckets, optionally with a
"missing" set carrying no information), partial chains, and truncated
rankings (known top/bottom segments).  All structures are immutable and
hashable, which the winner engine relies on for voter grouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import CycleDetected, OverlapViolation, TooLarge, UnknownCandidate, ValidationError

Ranking = tuple[int, ...]

COMPLETION_CAP = 1_000_000  # linear extensions one enumeration may list
IDEAL_BUDGET = 1 << 18  # order ideals one counting pass may visit


@dataclass(frozen=True)
class CandidateSet:
    ids: tuple[str, ...]

    def __post_init__(self):
        if len(self.ids) < 2:
            raise ValidationError("need at least 2 candidates")
        if len(set(self.ids)) != len(self.ids):
            raise ValidationError("candidate identifiers must be unique")

    @property
    def m(self) -> int:
        return len(self.ids)

    @cached_property
    def index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.ids)}

    def index_of(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise UnknownCandidate(f"unknown candidate {name!r}") from None


def candidate_set(*ids: str) -> CandidateSet:
    return CandidateSet(tuple(ids))


@dataclass(frozen=True)
class PartialOrder:
    """A strict partial order given as a set of preference pairs (a, b) = a > b."""

    pairs: frozenset[tuple[int, int]]

    def __init__(self, pairs):
        object.__setattr__(self, "pairs", frozenset((int(a), int(b)) for a, b in pairs))

    @cached_property
    def items(self) -> frozenset[int]:
        return frozenset(x for pair in self.pairs for x in pair)

    @cached_property
    def closure(self) -> frozenset[tuple[int, int]]:
        """Transitive closure of the pair set; raises CycleDetected."""
        succ: dict[int, set[int]] = {}
        for a, b in self.pairs:
            if a == b:
                raise CycleDetected(f"candidate {a} preferred to itself")
            succ.setdefault(a, set()).add(b)
        reach: dict[int, frozenset[int]] = {}
        state: dict[int, int] = {}  # 0 unvisited / 1 on stack / 2 done

        def visit(x: int) -> frozenset[int]:
            if state.get(x) == 1:
                raise CycleDetected("preference pairs contain a cycle")
            if state.get(x) == 2:
                return reach[x]
            state[x] = 1
            out: set[int] = set()
            for y in succ.get(x, ()):
                out.add(y)
                out |= visit(y)
            state[x] = 2
            reach[x] = frozenset(out)
            return reach[x]

        closed = set()
        for x in list(succ):
            for y in visit(x):
                closed.add((x, y))
        return frozenset(closed)

    @cached_property
    def cover_pairs(self) -> frozenset[tuple[int, int]]:
        """Pairs (a, b) with a > b and no intermediate element between them."""
        closed = self.closure
        covers = set()
        for a, b in closed:
            if not any((a, z) in closed and (z, b) in closed for z in self.items):
                covers.add((a, b))
        return frozenset(covers)


@dataclass(frozen=True)
class PartitionedPreference:
    """Ordered buckets of candidates; items in ``missing`` carry no information.

    With ``missing`` empty and the buckets covering all of C this is a fully
    partitioned preference; otherwise it is partially partitioned.
    """

    buckets: tuple[frozenset[int], ...]
    missing: frozenset[int] = frozenset()

    def __init__(self, buckets, missing=()):
        object.__setattr__(self, "buckets", tuple(frozenset(b) for b in buckets))
        object.__setattr__(self, "missing", frozenset(missing))

    @cached_property
    def items(self) -> frozenset[int]:
        out: set[int] = set(self.missing)
        for b in self.buckets:
            out |= b
        return frozenset(out)

    def bucket_of(self, c: int) -> int | None:
        for i, b in enumerate(self.buckets):
            if c in b:
                return i
        return None

    def is_fully_partitioned(self, m: int) -> bool:
        return not self.missing and sum(len(b) for b in self.buckets) == m

    def to_pairs(self) -> frozenset[tuple[int, int]]:
        pairs = set()
        for i, upper in enumerate(self.buckets):
            for lower in self.buckets[i + 1:]:
                pairs.update((a, b) for a in upper for b in lower)
        return frozenset(pairs)


@dataclass(frozen=True)
class PartialChain:
    """A linear order over a subset of the candidates."""

    chain: tuple[int, ...]

    def __init__(self, chain):
        object.__setattr__(self, "chain", tuple(int(c) for c in chain))

    def to_pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            (self.chain[i], self.chain[j])
            for i in range(len(self.chain))
            for j in range(i + 1, len(self.chain))
        )


@dataclass(frozen=True)
class TruncatedRanking:
    """Known top and bottom segments with an unordered middle."""

    top: tuple[int, ...]
    bottom: tuple[int, ...]

    def __init__(self, top, bottom):
        object.__setattr__(self, "top", tuple(int(c) for c in top))
        object.__setattr__(self, "bottom", tuple(int(c) for c in bottom))

    def middle(self, m: int) -> frozenset[int]:
        return frozenset(range(m)) - set(self.top) - set(self.bottom)

    def to_partitioned(self, m: int) -> PartitionedPreference:
        buckets: list[frozenset[int]] = [frozenset([c]) for c in self.top]
        mid = self.middle(m)
        if mid:
            buckets.append(frozenset(mid))
        buckets.extend(frozenset([c]) for c in self.bottom)
        return PartitionedPreference(buckets)


Observation = PartialOrder | PartitionedPreference | PartialChain | TruncatedRanking


def observation_pairs(obs: Observation) -> frozenset[tuple[int, int]]:
    """The preference pairs induced by any observation structure."""
    if isinstance(obs, PartialOrder):
        return obs.pairs
    if isinstance(obs, PartialChain):
        return obs.to_pairs()
    if isinstance(obs, PartitionedPreference):
        return obs.to_pairs()
    raise TypeError(f"no pair view for {type(obs).__name__}")


def validate(structure, candidates: CandidateSet | int) -> None:
    """Check structural invariants and candidate membership.

    ``candidates`` may be a CandidateSet or simply the candidate count when
    identifiers have already been resolved to indices.
    """
    m = candidates if isinstance(candidates, int) else candidates.m

    def check_member(c):
        if not 0 <= c < m:
            raise UnknownCandidate(f"candidate index {c} outside 0..{m - 1}")

    if isinstance(structure, PartialOrder):
        for a, b in structure.pairs:
            check_member(a)
            check_member(b)
        structure.closure  # raises CycleDetected on cycles
    elif isinstance(structure, PartitionedPreference):
        seen: set[int] = set()
        for b in structure.buckets:
            if not b:
                raise ValidationError("empty bucket")
            for c in b:
                check_member(c)
                if c in seen:
                    raise OverlapViolation(f"candidate {c} appears in two buckets")
                seen.add(c)
        for c in structure.missing:
            check_member(c)
            if c in seen:
                raise OverlapViolation(f"candidate {c} both bucketed and missing")
            seen.add(c)
    elif isinstance(structure, PartialChain):
        if len(set(structure.chain)) != len(structure.chain):
            raise OverlapViolation("repeated candidate in chain")
        for c in structure.chain:
            check_member(c)
    elif isinstance(structure, TruncatedRanking):
        both = list(structure.top) + list(structure.bottom)
        if len(set(both)) != len(both):
            raise OverlapViolation("top and bottom segments overlap")
        for c in both:
            check_member(c)
        if len(both) > m:
            raise ValidationError("top/bottom segments larger than candidate set")
    elif isinstance(structure, tuple):  # a plain ranking
        if sorted(structure) != list(range(m)):
            raise ValidationError("ranking is not a permutation of all candidates")
    else:
        raise TypeError(f"cannot validate {type(structure).__name__}")


def linear_extensions(p: PartialOrder, candidates: CandidateSet | int,
                      cap: int = COMPLETION_CAP) -> list[Ranking]:
    """All rankings consistent with ``p``, in lexicographic index order.

    A depth-first walk of the order-ideal lattice that places an item once its
    ancestors are placed, smallest index first, so the cost follows the number
    of extensions, not m!.  More than ``cap`` of them, counted first by
    ``ideal_levels``, raise TooLarge: counting them is #P-complete.
    """
    m = candidates if isinstance(candidates, int) else candidates.m
    anc_masks = ancestor_masks(p, m)
    full = (1 << m) - 1
    count = ideal_levels(anc_masks)[m][full]
    if count > cap:
        raise TooLarge(f"{count} linear extensions exceed cap {cap}")
    steps = [(x, 1 << x, anc) for x, anc in enumerate(anc_masks)]
    out: list[Ranking] = []

    def walk(prefix: Ranking, placed: int) -> None:
        if len(prefix) >= m - 1:  # the one item left, if any, has its ancestors placed
            out.append(prefix + ((full ^ placed).bit_length() - 1,) if placed != full else prefix)
            return
        for x, bit, anc in steps:
            if not placed & bit and placed & anc == anc:
                walk(prefix + (x,), placed | bit)

    walk((), 0)
    return out


@lru_cache(maxsize=4096)
def tracked_items(sigma: Ranking, p: PartialOrder) -> tuple[tuple[int, ...], ...]:
    """The items tracked after each insertion step in sigma order, in sigma order.

    An item is tracked from the step it is inserted (that step counts) until
    every item it is directly related to in the cover relation has been
    inserted.  This is the state plan of the tracked-item insertion DP.
    """
    partners: dict[int, set[int]] = {}
    for a, b in p.cover_pairs:
        partners.setdefault(a, set()).add(b)
        partners.setdefault(b, set()).add(a)
    remaining = set(sigma)
    tracked = []
    for i, u in enumerate(sigma, start=1):
        remaining.discard(u)
        tracked.append(tuple(x for x in sigma[:i] if partners.get(x) and partners[x] & remaining))
    return tuple(tracked)


def cover_width(sigma: Ranking, p: PartialOrder) -> int:
    """Maximum number of simultaneously tracked items during insertion in sigma order."""
    return max(map(len, tracked_items(sigma, p)), default=0)


def bucket_window(c: int, obs: Observation | None, m: int) -> tuple[int, int, int] | None:
    """Where ``c`` sits in an observation of ordered buckets: ``(k, before, size)``.

    Partitioned preferences, partial chains (one-item buckets) and truncated
    rankings (one-item top and bottom buckets around the unordered middle)
    are all ordered buckets over ``k`` of the m candidates.  ``before`` counts
    the items in buckets ahead of ``c``'s and ``size`` is its bucket's size.
    None when the observation says nothing about ``c``.
    """
    if obs is None:
        return None
    if isinstance(obs, PartitionedPreference):
        i = obs.bucket_of(c)
        if i is None:
            return None
        sizes = [len(b) for b in obs.buckets]
        return sum(sizes), sum(sizes[:i]), sizes[i]
    if isinstance(obs, PartialChain):
        if c not in obs.chain:
            return None
        return len(obs.chain), obs.chain.index(c), 1
    if isinstance(obs, TruncatedRanking):
        if c in obs.top:
            return m, obs.top.index(c), 1
        if c in obs.bottom:
            return m, m - len(obs.bottom) + obs.bottom.index(c), 1
        return m, len(obs.top), m - len(obs.top) - len(obs.bottom)
    raise TypeError(f"no bucket view of {type(obs).__name__}")


@lru_cache(maxsize=4096)
def ancestor_masks(p: PartialOrder, m: int) -> tuple[int, ...]:
    """Bit a of ``anc_masks[b]`` is set when a > b in the closure of ``p``.

    Built and validated once per (poset, m); the uniform-poset table cache is
    keyed on it.
    """
    validate(p, m)
    anc_masks = [0] * m
    for a, b in p.closure:
        anc_masks[b] |= 1 << a
    return tuple(anc_masks)


def ideal_levels(anc_masks: tuple[int, ...] | list[int]) -> list[dict[int, int]]:
    """levels[s][S] = orderings of the order ideal S of size s, so levels[k][full]
    counts the linear extensions.  Item x (bit x) extends ideal S when S holds
    ``anc_masks[x]``.  More than ``IDEAL_BUDGET`` ideals raise TooLarge.
    """
    k = len(anc_masks)
    steps = [(1 << x, anc) for x, anc in enumerate(anc_masks)]
    levels = [{0: 1}]
    seen = 1
    for _ in range(k):
        nxt: dict[int, int] = {}
        for ideal, f in levels[-1].items():
            for bit, anc in steps:
                if not ideal & bit and ideal & anc == anc:
                    nxt[ideal | bit] = nxt.get(ideal | bit, 0) + f
            if seen + len(nxt) > IDEAL_BUDGET:
                raise TooLarge(f"a poset over {k} items has at least "
                               f"{seen + len(nxt)} order ideals, past the budget "
                               f"of {IDEAL_BUDGET}")
        seen += len(nxt)
        levels.append(nxt)
    return levels


@lru_cache(maxsize=4096)
def _poset_rank_bounds(p: PartialOrder, m: int) -> tuple[tuple[int, int], ...]:
    """(best, worst) of every candidate: after its ancestors, before its descendants."""
    anc_masks = ancestor_masks(p, m)
    return tuple((1 + mask.bit_count(), m - sum(other >> c & 1 for other in anc_masks))
                 for c, mask in enumerate(anc_masks))


def rank_bounds(c: int, structure, m: int) -> tuple[int, int]:
    """Tight (best, worst) rank range candidate ``c`` can occupy in any completion."""
    if isinstance(structure, PartialOrder):
        return _poset_rank_bounds(structure, m)[c]
    window = bucket_window(c, structure, m)
    if window is None:
        return 1, m
    k, before, size = window
    return before + 1, m - (k - before - size)
