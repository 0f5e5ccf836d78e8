"""Linear batch, PIR, and locally repairable codes over GF(2).

Construct codes, enumerate minimal recovery sets, plan parallel reads
for multiset queries, compute exact parameters (minimum distance,
batch/PIR t, locality, availability), evaluate closed-form length and
cardinality bounds, and search exhaustively for length-optimal codes at
desk scale.
"""

from .bounds import (
    BoundVerdict,
    evaluate_all,
    evaluate_bounds,
    gopalan_lrc,
    plotkin_batch,
    redundancy_bound,
    singleton,
    wang_zhang,
    zs_base,
    zs_best,
    zs_refined,
    zs_systematic,
)
from .constructions import (
    blockwise_subcube_allones,
    identity,
    paired_parity,
    simplex,
    subcube,
    triplicated_parity,
)
from .errors import (
    BatchCodeError,
    CapacityError,
    DimensionError,
    InsufficientDataError,
    InvalidQueryError,
    InvalidTargetError,
    MatrixParseError,
    NotApplicableError,
    NotSystematicError,
    RankDeficiencyError,
)
from .gf2 import (
    BitMatrix,
    BitVector,
    LinearCode,
    format_matrix,
    parse_matrix,
    rank,
    reverse_bits,
)
from .planner import (
    Query,
    QueryPlanner,
    ServingPlan,
    is_servable_all,
    plan_is_valid,
    serve_query,
)
from .profiler import (
    CodeProfile,
    LrcProfile,
    SymbolRecovery,
    batch_t,
    corollary_check,
    info_lrc_profile,
    lrc_profile,
    pir_t,
    profile,
)
from .recovery import (
    RecoveryEnumeration,
    RecoverySet,
    enumerate_recovery_sets,
    max_disjoint_packing,
)
from .report import AnalysisReport, QueryOutcome, build_report, report_to_dict
from .search import SearchResult, min_length, redundancy_table

__version__ = "0.1.0"

__all__ = [
    "AnalysisReport",
    "BatchCodeError",
    "BitMatrix",
    "BitVector",
    "BoundVerdict",
    "CapacityError",
    "CodeProfile",
    "DimensionError",
    "InsufficientDataError",
    "InvalidQueryError",
    "InvalidTargetError",
    "LinearCode",
    "LrcProfile",
    "MatrixParseError",
    "NotApplicableError",
    "NotSystematicError",
    "Query",
    "QueryOutcome",
    "QueryPlanner",
    "RankDeficiencyError",
    "RecoveryEnumeration",
    "RecoverySet",
    "SearchResult",
    "ServingPlan",
    "SymbolRecovery",
    "batch_t",
    "blockwise_subcube_allones",
    "build_report",
    "corollary_check",
    "enumerate_recovery_sets",
    "evaluate_all",
    "evaluate_bounds",
    "format_matrix",
    "gopalan_lrc",
    "identity",
    "info_lrc_profile",
    "is_servable_all",
    "lrc_profile",
    "max_disjoint_packing",
    "min_length",
    "paired_parity",
    "parse_matrix",
    "pir_t",
    "plan_is_valid",
    "plotkin_batch",
    "profile",
    "rank",
    "redundancy_bound",
    "redundancy_table",
    "report_to_dict",
    "reverse_bits",
    "serve_query",
    "simplex",
    "singleton",
    "subcube",
    "triplicated_parity",
    "wang_zhang",
    "zs_base",
    "zs_best",
    "zs_refined",
    "zs_systematic",
]
