"""Signed magic rectangles with two filled cells per column.

Construction for every feasible parameter set, axiom verification for
arbitrary candidate arrays, and exhaustive existence search at small scale.

``import smr`` loads no submodule.  Each public name is listed once below,
under the submodule that defines it; its first use imports that submodule
(PEP 562) and keeps the value here.  So a caller pays only for the modules
it uses: ``smr.seed`` loads ``core``, ``formats`` and ``seeds``; ``decide``
loads ``core``, ``criterion`` and ``oracle``, and the ``smr decide``
command ``cli``, ``core``, ``formats`` and ``criterion``.  The first use of
``construct`` or a transform brings in the rest, for the same total as an
eager import.  Under ``python -S``, ``import smr`` plus every seed loads no
``typing`` and no ``re``, and took 12.3 ms without a bytecode cache and
5.1 ms with a warm one (18.2 and 12.1 ms with ``typing`` records; 3.11).
"""

import importlib

__version__ = "0.1.0"

_NAMES = {
    "core": "DimensionError Params SignedArray SupportSet VerificationReport Violation "
            "entry_multiset is_shiftable support_set verify_smr",
    "criterion": "Verdict feasibility",
    "direct": "BlockError CompactBlock five_column_block spread three_column_block",
    "dispatch": "InfeasibleError RouteTrace TraceStep construct replay",
    "formats": "ParseError from_csv from_grid from_json to_csv to_grid to_json",
    "oracle": "DEFAULT_BUDGET CrossCheckReport Disagreement SearchOutcome SearchStats "
              "cross_check decide",
    "seeds": "SEED_IDS seed",
    "transforms": "JoinMismatchError NotShiftableError ParityError inflate_diagonal "
                  "inflate_horizontal join_diagonal join_horizontal shift",
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _NAMES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}", name=name)
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
