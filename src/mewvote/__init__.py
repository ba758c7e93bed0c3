"""Winner determination for elections with uncertain voter preferences.

Expected-score winners (with exact per-voter rank-distribution solvers,
candidate pruning, voter grouping, and a deterministic parallel mode),
winning-probability winners, a brute-force possible-worlds oracle, synthetic
profile generators, and a tagged JSON profile format.
"""

from .engine import MewResult, MewStats, expected_score, mew, mew_parallel
from .errors import (
    CoverWidthExceeded,
    CycleDetected,
    EmptyInput,
    InvalidK,
    InvalidRule,
    MewError,
    OverlapViolation,
    ParseError,
    RankOutOfRange,
    TooLarge,
    UnknownCandidate,
    Unsupported,
    ValidationError,
    ZeroPosterior,
)
from .generators import GenSpec, generate
from .models import (
    MallowsModel,
    RimModel,
    RsmRankingModel,
    kendall_tau,
    mallows_probability,
    mallows_to_rim,
    mallows_to_rsm,
    rim_probability,
    rsm_probability,
    sample,
    uniform_rim,
)
from .mpw import MpwResult, mpw
from .oracle import oracle_expected_regret as expected_regret
from .preferences import (
    CandidateSet,
    PartialChain,
    PartialOrder,
    PartitionedPreference,
    Ranking,
    TruncatedRanking,
    candidate_set,
    cover_width,
    linear_extensions,
    rank_bounds,
    validate,
)
from .profile_io import (
    load_profile,
    parse_profile,
    ratings_to_partitions,
    save_profile,
    serialize_profile,
)
from .profiles import Profile, Voter
from .rep import (
    rep_dispatch,
    rep_mallows_partitioned,
    rep_rim,
    rep_rim_poset,
    rep_rim_truncated,
    rep_rsm,
    rep_uniform,
    rsm_rank_distribution,
    uniform_poset_distribution,
    voter_support,
)
from .rules import ScoringRule, make_rule, parse_rule, score_of_rank

__version__ = "0.1.0"
