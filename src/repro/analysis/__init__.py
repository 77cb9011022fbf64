"""Security and complexity analysis: trace checks, the Appendix-A simulator,
and empirical asymptotics fitting."""

from .asymptotics import fit_polylog, fit_power_law
from .obliviousness import (
    CanonicalTrace,
    assert_indistinguishable,
    assert_same_leakage,
    canonicalize,
    capture,
    oram_regions_of,
)
from .simulator import PublicState, real_query_trace, real_select_trace, simulate

__all__ = [
    "CanonicalTrace",
    "PublicState",
    "assert_indistinguishable",
    "assert_same_leakage",
    "canonicalize",
    "capture",
    "fit_polylog",
    "fit_power_law",
    "oram_regions_of",
    "real_query_trace",
    "real_select_trace",
    "simulate",
]
