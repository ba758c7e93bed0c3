"""Candidate sets, rankings, and incomplete-preference structures.

Candidates are opaque string identifiers mapped to indices ``0..m-1``.  A
ranking is a tuple of candidate indices, most preferred first, so
``ranking[j-1]`` is the candidate at rank ``j``.

Four incomplete-observation structures are supported: partial orders
(posets), partitioned preferences (ordered buckets, optionally with a
"missing" set carrying no information), partial chains, and truncated
rankings (known top/bottom segments).  All structures are immutable and
hashable, which the winner engine relies on for voter grouping.

Each observation is analysed once per (observation, m) into two cached
views, and every solver reads one of them.  ``bucket_layout`` places the
candidates of the three shapes of ordered buckets (a chain is one-item
buckets, a truncated ranking its top, unordered middle and bottom); building
it is also how those shapes are validated.  ``ancestor_masks`` reads any
observation as a poset: a poset's closure, or the bucket order of a layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from numbers import Integral

from .errors import (CycleDetected, OverlapViolation, TooLarge, UnknownCandidate, Unsupported,
                     ValidationError, ZeroPosterior)

Ranking = tuple[int, ...]

COMPLETION_CAP = 1_000_000  # linear extensions one enumeration may list
IDEAL_BUDGET = 1 << 18  # order ideals one counting pass may visit, read at each call


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
        object.__setattr__(self, "pairs", frozenset((candidate_index(a), candidate_index(b))
                                                  for a, b in pairs))

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


def _sorted_set(items) -> tuple[int, ...]:
    return tuple(sorted(set(map(candidate_index, items))))


@dataclass(frozen=True)
class PartitionedPreference:
    """Ordered buckets of candidates; items in ``missing`` carry no information.

    With ``missing`` empty and the buckets covering all of C this is a fully
    partitioned preference; otherwise it is partially partitioned.  Each bucket
    and ``missing`` are held as sorted tuples without repeats, so equality and
    hashing ignore the order items are given in, as a set's would, at a
    fraction of a frozenset's size.  The hash is computed once, as a
    frozenset's is: the caches keyed on an observation look it up per call.
    """

    buckets: tuple[tuple[int, ...], ...]
    missing: tuple[int, ...] = ()

    def __init__(self, buckets, missing=()):
        object.__setattr__(self, "buckets", tuple(map(_sorted_set, buckets)))
        object.__setattr__(self, "missing", _sorted_set(missing))
        object.__setattr__(self, "_hash", hash((self.buckets, self.missing)))

    def __hash__(self) -> int:
        return self._hash

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
        object.__setattr__(self, "chain", tuple(map(candidate_index, chain)))

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
        object.__setattr__(self, "top", tuple(map(candidate_index, top)))
        object.__setattr__(self, "bottom", tuple(map(candidate_index, bottom)))

    def middle(self, m: int) -> frozenset[int]:
        return frozenset(range(m)) - set(self.top) - set(self.bottom)

    def to_partitioned(self, m: int) -> PartitionedPreference:
        middle = self.middle(m)
        return PartitionedPreference([(c,) for c in self.top] + [middle] * bool(middle)
                                     + [(c,) for c in self.bottom])


Observation = PartialOrder | PartitionedPreference | PartialChain | TruncatedRanking


def check_observation(obs) -> None:
    """Reject an observation of no known type before a cache is keyed on it:
    an unhashable one (a list, say) would raise a bare TypeError there."""
    if obs is not None and not isinstance(obs, Observation):
        raise Unsupported(f"unknown observation type {type(obs).__name__}")


def check_integer(name: str, value, error: type[Exception] = ValidationError) -> int:
    """``value`` as a plain int when it is an integer (a numpy one too, but not a
    bool); otherwise ``error`` naming ``name`` is raised."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def check_count(name: str, value, low: int = 1, error: type[Exception] = ValidationError) -> int:
    """``check_integer``'s int when it is at least ``low``; otherwise ``error`` naming ``name``."""
    value = check_integer(name, value, error)
    if value < low:
        raise error(f"{name} must be >= {low}, got {value}")
    return value


def candidate_index(c) -> int:
    """``c`` as a plain int, in range or not; one that is not an integer is unknown."""
    return c if type(c) is int else check_integer("candidate index", c, UnknownCandidate)


def check_candidate(c: int, m: int) -> None:
    """Reject a candidate index that is not an integer (``candidate_index``) in 0..m-1."""
    if type(c) is not int:
        c = candidate_index(c)
    if not 0 <= c < m:
        raise UnknownCandidate(f"candidate index {c} outside 0..{m - 1}")


def validate(structure, candidates: CandidateSet | int) -> None:
    """Check structural invariants and candidate membership.

    ``candidates`` may be a CandidateSet or simply the candidate count when
    identifiers have already been resolved to indices.  Ordered buckets are
    checked by building their layout, uncached.
    """
    m = candidates if isinstance(candidates, int) else candidates.m
    if isinstance(structure, PartialOrder):
        for a, b in structure.pairs:
            check_candidate(a, m)
            check_candidate(b, m)
        structure.closure  # raises CycleDetected on cycles
    else:
        _bucket_layout(structure, m)


def linear_extensions(obs: Observation | None, candidates: CandidateSet | int) -> list[Ranking]:
    """All rankings consistent with any observation or None, in lexicographic index order.

    A depth-first walk of the order-ideal lattice that places an item once its
    ancestors are placed, smallest index first, so the cost follows the number
    of extensions, not m!.  More than ``COMPLETION_CAP`` of them, counted first by
    ``ideal_levels``, raise TooLarge: counting them is #P-complete.
    """
    m = candidates if isinstance(candidates, int) else candidates.m
    anc_masks = ancestor_masks(obs, m)
    full = (1 << m) - 1
    count = ideal_levels(anc_masks)[m][full]
    if count > COMPLETION_CAP:
        raise TooLarge(f"{count} linear extensions exceed cap {COMPLETION_CAP}")
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


def _bits(mask: int) -> list[int]:
    return [x for x in range(mask.bit_length()) if mask >> x & 1]


@lru_cache(maxsize=4096)
def tracked_items(sigma: Ranking, obs: Observation) -> tuple[tuple[int, ...], ...]:
    """The items tracked after each insertion step in sigma order, in sigma order.

    An item is tracked from the step it is inserted (that step counts) until
    every item it is directly related to in the cover relation has been
    inserted.  This is the state plan of the tracked-item insertion DP.  Read
    from the ancestor masks of any observation: x covers y when x is an
    ancestor of y and of none of y's other ancestors.
    """
    anc_masks = ancestor_masks(obs, len(sigma))
    partners = [0] * len(sigma)  # bit masks of the cover partners
    for y, anc in enumerate(anc_masks):
        covers = anc
        for z in _bits(anc):
            covers &= ~anc_masks[z]
        partners[y] |= covers
        for x in _bits(covers):
            partners[x] |= 1 << y
    remaining = sum(1 << x for x in sigma)
    tracked = []
    for i, u in enumerate(sigma, start=1):
        remaining &= ~(1 << u)
        tracked.append(tuple(x for x in sigma[:i] if partners[x] & remaining))
    return tuple(tracked)


def cover_width(sigma: Ranking, obs: Observation) -> int:
    """Most items tracked at once while inserting in sigma order, for any observation."""
    return max(map(len, tracked_items(sigma, obs)), default=0)


def _bucket_layout(obs: PartitionedPreference | PartialChain | TruncatedRanking,
                   m: int) -> tuple[tuple[int, int, int] | None, ...]:
    """Every candidate's place in an observation of ordered buckets: ``(k, before, size)``.

    Partitioned preferences, partial chains (one-item buckets) and truncated
    rankings (one-item top and bottom buckets around the unordered middle)
    are all ordered buckets over ``k`` of the m candidates.  ``before`` counts
    the items in buckets ahead of the candidate's and ``size`` is its bucket's
    size; None marks a candidate the observation says nothing about.  The
    candidates of one bucket share one window tuple.  Building it validates
    the observation: an empty bucket, an item outside 0..m-1 and an item
    placed twice (in two buckets, or bucketed and missing) raise, and so
    does any other type (Unsupported), for every caller.
    """
    if isinstance(obs, TruncatedRanking):
        obs = obs.to_partitioned(m)
    if isinstance(obs, PartitionedPreference):
        buckets, missing = obs.buckets, obs.missing
    elif isinstance(obs, PartialChain):
        buckets, missing = [(c,) for c in obs.chain], ()
    else:
        raise Unsupported(f"unknown observation type {type(obs).__name__}")
    k = sum(map(len, buckets))
    layout: list[tuple[int, int, int] | None] = [None] * m
    before = 0
    for bucket in buckets:
        if not bucket:
            raise ValidationError("empty bucket")
        window = (k, before, len(bucket))
        for c in bucket:
            check_candidate(c, m)
            layout[c] = window
        before += len(bucket)
    for c in missing:
        check_candidate(c, m)
    if len(set().union(*buckets, missing)) != k + len(missing):
        raise OverlapViolation("a candidate is placed twice")
    return tuple(layout)


bucket_layout = lru_cache(maxsize=4096)(_bucket_layout)  # built once per (observation, m)


def bucket_window(c: int, obs: Observation | None, m: int) -> tuple[int, int, int] | None:
    """``c``'s ``(k, before, size)`` in ``bucket_layout``; None when there is
    no observation or it says nothing about ``c``."""
    check_candidate(c, m)
    return None if obs is None else bucket_layout(obs, m)[c]


@lru_cache(maxsize=4096)
def ancestor_masks(obs: Observation | None, m: int) -> tuple[int, ...]:
    """Bit a of ``anc_masks[b]`` is set when ``obs`` puts a above b in every completion.

    For a poset that is a > b in its closure; for ordered buckets, a's bucket
    ends at or before b's begins in ``bucket_layout``; None sets no bit.
    Built and validated once per (observation, m); the uniform-poset table
    cache is keyed on it.
    """
    if obs is None:
        return (0,) * m
    if not isinstance(obs, PartialOrder):
        layout = bucket_layout(obs, m)  # a is above b when a's bucket ends by b's start
        return tuple(0 if wb is None else sum(1 << a for a, wa in enumerate(layout)
                                              if wa is not None and wa[1] + wa[2] <= wb[1])
                     for wb in layout)
    validate(obs, m)
    anc_masks = [0] * m
    for a, b in obs.closure:
        anc_masks[b] |= 1 << a
    return tuple(anc_masks)


def ideal_levels(anc_masks: tuple[int, ...] | list[int], edges=None,
                 budget: int | None = None) -> list[dict[int, int | float]]:
    """levels[s][S] = orderings of the order ideal S of size s, so levels[k][full]
    counts the linear extensions.  Item x (bit x) extends ideal S when S holds
    ``anc_masks[x]``.  More than ``budget`` ideals, ``IDEAL_BUDGET`` as it
    stands at the call by default, raise TooLarge.

    Given an insertion model's ``edges``, one ``(row, prefix)`` pair per item
    (x's insertion row and the bit mask of the items inserted before x),
    placing x right after S instead weighs ``row[|S & prefix|]``, x's
    insertion probability at that position, in floats.  Each weighted level is
    divided by its own total, so no level underflows; a level of no mass
    raises ZeroPosterior.
    """
    k, budget = len(anc_masks), IDEAL_BUDGET if budget is None else budget
    steps = [(1 << x, anc, edges and edges[x]) for x, anc in enumerate(anc_masks)]
    levels = [{0: 1}]
    seen = 1
    for _ in range(k):
        nxt: dict[int, int | float] = {}
        for ideal, f in levels[-1].items():
            for bit, anc, edge in steps:
                if not ideal & bit and ideal & anc == anc:
                    f_edge = f * edge[0][(ideal & edge[1]).bit_count()] if edge else f
                    nxt[ideal | bit] = nxt.get(ideal | bit, 0) + f_edge
            if seen + len(nxt) > budget:
                raise TooLarge(f"a poset over {k} items has at least "
                               f"{seen + len(nxt)} order ideals, past the budget "
                               f"of {budget}")
        seen += len(nxt)
        if edges:
            total = sum(nxt.values())
            if not total:
                raise ZeroPosterior("observation has zero probability under the model")
            nxt = {ideal: f / total for ideal, f in nxt.items()}
        levels.append(nxt)
    return levels


@lru_cache(maxsize=4096)
def _poset_rank_bounds(p: PartialOrder, m: int) -> tuple[tuple[int, int], ...]:
    """(best, worst) of every candidate: after its ancestors, before its descendants."""
    anc_masks = ancestor_masks(p, m)
    return tuple((1 + mask.bit_count(), m - sum(other >> c & 1 for other in anc_masks))
                 for c, mask in enumerate(anc_masks))


def rank_bounds(c: int, structure, m: int) -> tuple[int, int]:
    """Tight (best, worst) rank range candidate ``c`` can occupy in any completion;
    an invalid observation or a ``c`` outside 0..m-1 raises."""
    if isinstance(structure, PartialOrder):
        check_candidate(c, m)
        return _poset_rank_bounds(structure, m)[c]
    try:
        window = bucket_window(c, structure, m)
    except TypeError:  # an unhashable structure cannot key the layout cache
        check_observation(structure)
        raise
    if window is None:
        return 1, m
    k, before, size = window
    return before + 1, m - (k - before - size)
