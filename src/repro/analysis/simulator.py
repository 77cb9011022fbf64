"""The Appendix A simulator, made executable.

Theorem 1 states a poly-time simulator SIM exists that, given only the
declared leakage — data size |D|, schema S, the planner's choices OPT(D,Q),
and trace sizes — produces memory traces indistinguishable from real runs.
Appendix A constructs SIM by "simulating the access pattern described in
the body of the paper for the selected operator".

We implement SIM the way the proof does: run the *same physical operators*
over a dummy database whose only relationship to the real one is the leaked
sizes, with the same plan forced.  If the canonical trace of the simulated
run matches the canonical trace of the real run, then everything the
adversary saw was computable from the leakage alone — which is precisely
the theorem's claim, checked per-query.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..enclave.enclave import Enclave
from ..enclave.errors import PlannerError
from ..engine.executor import run_select_algorithm
from ..operators.predicate import Comparison, Predicate
from ..planner.compile import CompactNode, QueryPlan, SelectNode
from ..planner.plan import SelectAlgorithm
from ..planner.select_planner import SelectDecision
from ..planner.stats import scan_statistics
from ..storage.flat import FlatStorage
from ..storage.schema import Schema, int_column
from .obliviousness import CanonicalTrace, canonicalize, oram_regions_of


@dataclass(frozen=True)
class SelectLeakage:
    """The leakage SIM receives for one selection: sizes + chosen plan.

    ``compact_output`` records whether the plan routed the selection
    through the oblivious-compaction back end (a
    :class:`~repro.planner.compile.CompactNode` wrap in the IR, or
    :attr:`SelectDecision.compact_output` for a hand-planned selection).
    ``in_enclave`` / ``resumed`` say the statistics pass was Small's first
    pass, and kept every match or handed Small its full buffer.
    """

    input_capacity: int
    output_size: int
    algorithm: SelectAlgorithm
    buffer_rows: int
    row_size: int  # schema row width is public (schema S is given to SIM)
    compact_output: bool = False
    in_enclave: bool = False
    resumed: bool = False

    @classmethod
    def from_decision(cls, schema_row_size: int, decision: "SelectDecision") -> "SelectLeakage":
        return cls(
            input_capacity=decision.stats.input_capacity,
            output_size=decision.stats.matching_rows,
            algorithm=decision.algorithm,
            buffer_rows=decision.buffer_rows,
            row_size=schema_row_size,
            compact_output=decision.compact_output,
            in_enclave=decision.in_enclave,
            resumed=decision.resumed,
        )

    @classmethod
    def from_plan(cls, schema_row_size: int, plan: QueryPlan) -> "SelectLeakage":
        """Extract the selection leakage from a compiled query plan.

        This is SIM consuming ``OPT(D, Q)`` in its reified form: the
        first (post-order) SelectNode in the tree, plus whether a
        CompactNode tightens its output.
        """
        select = plan.find(SelectNode)
        if not isinstance(select, SelectNode):
            raise PlannerError("plan has no selection to simulate")
        compact = any(
            isinstance(node, CompactNode) and node.source is select
            for node in plan.root.walk()
        )
        return cls(
            input_capacity=select.input_rows,
            output_size=select.output_rows,
            algorithm=select.algorithm,
            buffer_rows=select.buffer_rows,
            row_size=schema_row_size,
            compact_output=compact,
            in_enclave=select.in_enclave,
            resumed=select.resumed,
        )


def _selection_trace(
    table: FlatStorage, predicate: Predicate, leakage: SelectLeakage
) -> CanonicalTrace:
    """The canonical trace of a plain selection statement over ``table``:
    the statistics pass, then — unless the pass kept every match — the
    leaked algorithm (resumed from the pass's buffer when it says so) and
    the runner's read of its output."""
    enclave = table.enclave
    enclave.trace.clear()
    keeps = leakage.in_enclave or leakage.resumed
    stats = scan_statistics(table, predicate, keep=leakage.buffer_rows if keeps else 0)
    if not leakage.in_enclave:
        output = run_select_algorithm(
            table,
            predicate,
            leakage.algorithm,
            leakage.output_size,
            buffer_rows=leakage.buffer_rows,
            compact_output=leakage.compact_output,
            first=(stats.kept or [], stats.cursor) if leakage.resumed else None,
        )
        output.rows()
        output.free()
    return canonicalize(enclave.trace.events, oram_regions_of(enclave))


def simulate_select(
    leakage: SelectLeakage,
    oblivious_memory_bytes: int = 1 << 24,
) -> CanonicalTrace:
    """SIM for a selection: rebuild the access pattern from leakage alone.

    Constructs a dummy table of the leaked capacity whose first
    ``output_size`` rows match a dummy predicate (any arrangement works for
    non-Continuous algorithms; Continuous needs contiguity, which is part of
    its leaked choice), forces the leaked algorithm, and records the trace.
    SIM first reproduces the planner's statistics scan (one read pass) —
    the paper's SIM "uses this information to simulate the access pattern
    of one scan over D" — keeping Small's first buffer when the leakage
    says the scan was Small's first pass: for a held selection that scan is
    the whole trace.
    """
    enclave = Enclave(
        oblivious_memory_bytes=oblivious_memory_bytes,
        cipher="null",
        keep_trace_events=True,
    )
    schema = Schema([int_column("x"), int_column("pad")])
    table = FlatStorage(enclave, schema, leakage.input_capacity)
    for index in range(leakage.input_capacity):
        marker = 1 if index < leakage.output_size else 0
        table.write_row(index, (marker, 0))
    return _selection_trace(table, Comparison("x", "=", 1), leakage)


def real_select_trace(
    table: FlatStorage,
    predicate,
    decision: "SelectDecision",
) -> CanonicalTrace:
    """Capture the canonical trace of a real planned selection.

    Re-runs the statistics scan (so real and simulated traces cover the
    same operation window) and the decision's algorithm the way the engine
    would, matching :func:`simulate_select`.
    """
    leakage = SelectLeakage.from_decision(table.schema.row_size, decision)
    return _selection_trace(table, predicate, leakage)


def real_query_trace(db, sql: str) -> tuple[CanonicalTrace, QueryPlan]:
    """Canonical trace + compiled plan of one SQL statement end to end.

    The engine-level analogue of :func:`real_select_trace`: runs the
    statement through ``ObliDB.sql`` with a cleared trace and returns the
    canonicalized events alongside the leaked :class:`QueryPlan`, so
    callers can assert the Appendix-A contract — equal plans (equal
    ``cache_key``) must imply indistinguishable traces.  For a plain
    selection (no ``ORDER BY``) it equals :func:`simulate_select` over the
    plan's :meth:`SelectLeakage.from_plan`.
    """
    db.enclave.trace.clear()
    result = db.sql(sql)
    trace = canonicalize(db.enclave.trace.events, oram_regions_of(db.enclave))
    return trace, result.plan
