"""Signed magic rectangles with two filled cells per column.

Construction for every feasible parameter set, axiom verification for
arbitrary candidate arrays, and exhaustive existence search at small scale.
"""

from .core import (
    DimensionError,
    Params,
    SignedArray,
    SupportSet,
    VerificationReport,
    Violation,
    entry_multiset,
    is_shiftable,
    support_set,
    verify_smr,
)
from .direct import BlockError, CompactBlock, five_column_block, spread, three_column_block
from .dispatch import (
    InfeasibleError,
    RouteTrace,
    TraceStep,
    Verdict,
    construct,
    feasibility,
    replay,
)
from .formats import ParseError, from_csv, from_grid, from_json, to_csv, to_grid, to_json
from .oracle import (
    DEFAULT_BUDGET,
    CrossCheckReport,
    Disagreement,
    SearchOutcome,
    SearchStats,
    cross_check,
    decide,
)
from .seeds import SEED_IDS, seed
from .transforms import (
    JoinMismatchError,
    NotShiftableError,
    ParityError,
    inflate_diagonal,
    inflate_horizontal,
    join_diagonal,
    join_horizontal,
    shift,
)

__version__ = "0.1.0"

__all__ = [
    "BlockError",
    "CompactBlock",
    "CrossCheckReport",
    "DEFAULT_BUDGET",
    "DimensionError",
    "Disagreement",
    "InfeasibleError",
    "JoinMismatchError",
    "NotShiftableError",
    "ParityError",
    "Params",
    "ParseError",
    "RouteTrace",
    "SEED_IDS",
    "SearchOutcome",
    "SearchStats",
    "SignedArray",
    "SupportSet",
    "TraceStep",
    "Verdict",
    "VerificationReport",
    "Violation",
    "construct",
    "cross_check",
    "decide",
    "entry_multiset",
    "feasibility",
    "five_column_block",
    "from_csv",
    "from_grid",
    "from_json",
    "inflate_diagonal",
    "inflate_horizontal",
    "is_shiftable",
    "join_diagonal",
    "join_horizontal",
    "replay",
    "seed",
    "shift",
    "spread",
    "support_set",
    "three_column_block",
    "to_csv",
    "to_grid",
    "to_json",
    "verify_smr",
]
