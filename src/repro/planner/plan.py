"""The planner's algorithm enums.

Under the security theorem (Appendix A) the simulator is given
``OPT(D, Q)``, the planner's operator choices, along with table sizes.
The one representation of that leaked value is
:class:`~repro.planner.compile.QueryPlan` (a tree of typed nodes with a
canonical serialization); the enums here name the paper's algorithm
choices its nodes carry.
"""

from __future__ import annotations

from enum import Enum


class SelectAlgorithm(Enum):
    """The five SELECT implementations of Section 4.1."""

    NAIVE = "naive"
    SMALL = "small"
    LARGE = "large"
    CONTINUOUS = "continuous"
    HASH = "hash"


class JoinAlgorithm(Enum):
    """The three JOIN implementations of Section 4.3."""

    HASH = "hash"
    OPAQUE = "opaque"
    ZERO_OM = "zero_om"


class AccessMethod(Enum):
    """Which storage representation a plan reads."""

    FLAT_SCAN = "flat_scan"
    INDEX_POINT = "index_point"
    INDEX_RANGE = "index_range"
    INDEX_LINEAR = "index_linear"  # flat-style scan over the raw ORAM
