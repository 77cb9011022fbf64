"""Query planner: statistics pass, cost models, and the compiled plan IR."""

from .compile import (
    AggregateNode,
    CompactNode,
    CompiledQuery,
    GroupByNode,
    IndexLookupNode,
    JoinNode,
    PlanNode,
    QueryPlan,
    ScanNode,
    SelectNode,
    SortNode,
    WriteNode,
    compile_statement,
)
from .join_planner import JoinDecision, estimate_join_costs, plan_join
from .plan import AccessMethod, JoinAlgorithm, SelectAlgorithm
from .select_planner import (
    LARGE_SELECTIVITY_THRESHOLD,
    SelectDecision,
    plan_select,
)
from .stats import SelectionStats, scan_statistics

__all__ = [
    "AccessMethod",
    "AggregateNode",
    "CompactNode",
    "CompiledQuery",
    "GroupByNode",
    "IndexLookupNode",
    "JoinAlgorithm",
    "JoinDecision",
    "JoinNode",
    "LARGE_SELECTIVITY_THRESHOLD",
    "PlanNode",
    "QueryPlan",
    "ScanNode",
    "SelectAlgorithm",
    "SelectDecision",
    "SelectNode",
    "SelectionStats",
    "SortNode",
    "WriteNode",
    "compile_statement",
    "estimate_join_costs",
    "plan_join",
    "plan_select",
    "scan_statistics",
]
