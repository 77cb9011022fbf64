"""Admission-key normalization for the concurrent serving layer.

The serving front end (:mod:`repro.serving`) coalesces concurrent identical
read statements onto one in-flight execution.  It must key a request
*before* anything is compiled or executed, because compilation itself
touches untrusted memory (the statistics pass) and must run at most once
per coalesced group.

So admission keys are computed enclave-side from the **logical statement**:
a digest (:func:`statement_fingerprint`) over a statement first
*normalized* here.  Normalization canonicalizes representation choices
that cannot change the compiled plan, the trace, or the result — today,
the operand order of commutative ``AND``/``OR`` predicates — so
``WHERE a = 1 AND b = 2`` and ``WHERE b = 2 AND a = 1`` coalesce onto one
execution.  Anything that could change the plan (tables, columns, operator
shape, literal parameters) stays in the key verbatim.

Because compilation is deterministic given the catalog, *(admission key,
table revision epochs)* identifies exactly one compiled plan, and so one
trace and one result.
"""

from __future__ import annotations

import hashlib

from ..engine.ast import SelectStatement
from ..operators.predicate import And, Not, Or, Predicate


def normalize_predicate(predicate: Predicate) -> Predicate:
    """Canonical form of a predicate under commutativity of AND/OR.

    Operands are normalized recursively and sorted by their canonical
    ``repr`` (the same structural identity the fingerprint digests).
    Unknown predicate subclasses pass through untouched — a user-defined
    predicate without a structural repr is not coalescible anyway
    (``statement_fingerprint`` refuses address-based reprs).
    """
    if isinstance(predicate, (And, Or)):
        operands = sorted(
            (normalize_predicate(operand) for operand in predicate.operands),
            key=repr,
        )
        return type(predicate)(*operands)
    if isinstance(predicate, Not):
        return Not(normalize_predicate(predicate.operand))
    return predicate


def normalize_statement(statement: SelectStatement) -> SelectStatement:
    """The statement with its predicate in canonical commutative order."""
    if statement.where is None:
        return statement
    normalized = normalize_predicate(statement.where)
    if normalized is statement.where or repr(normalized) == repr(statement.where):
        return statement
    return SelectStatement(
        table=statement.table,
        columns=statement.columns,
        aggregates=statement.aggregates,
        join=statement.join,
        where=normalized,
        group_by=statement.group_by,
        order_by=statement.order_by,
        descending=statement.descending,
        limit=statement.limit,
    )


def statement_fingerprint(
    statement: SelectStatement,
    padding: object | None,
    allow_continuous: bool,
) -> str | None:
    """Digest of the full logical statement plus engine configuration.

    Statements are frozen dataclass trees (predicates included) whose
    ``repr`` is canonical, so equal queries — parameters and all — map to
    equal fingerprints and *only* equal queries do.  The fingerprint
    never leaves the enclave; computing it touches no untrusted memory.

    Returns ``None`` — statement not keyable — when any component falls
    back to the address-based default ``object.__repr__`` (e.g. a
    user-defined :class:`~repro.operators.predicate.Predicate` subclass
    without a structural repr): an address is not an identity, and after
    allocator reuse two different predicates could collide on it.
    """
    text = f"{statement!r}|padding={padding!r}|continuous={allow_continuous}"
    if " object at 0x" in text:
        return None
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def admission_key(
    statement: SelectStatement,
    padding: object | None,
    allow_continuous: bool,
) -> str | None:
    """The coalescing identity of a read statement (``None``: not keyable).

    Two statements share an admission key iff, against the same catalog
    epochs and engine configuration, they would compile to the same
    :class:`~repro.planner.compile.QueryPlan` and return the same rows —
    the condition under which answering both from one execution is safe.
    """
    return statement_fingerprint(
        normalize_statement(statement), padding, allow_continuous
    )
