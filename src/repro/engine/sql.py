"""SQL subset parser.

ObliDB's evaluation drives the engine with SQL text (Big Data Benchmark
queries, point lookups); this module provides the matching surface: a
hand-written tokenizer and recursive-descent parser for the subset the
engine executes —

* ``SELECT`` with projections, the five aggregates, one ``JOIN .. ON``,
  ``WHERE`` trees of AND/OR/NOT over comparisons, and ``GROUP BY``;
* ``INSERT INTO .. VALUES``, with a ``FAST`` modifier for the constant-time
  flat insert;
* ``UPDATE .. SET .. WHERE`` and ``DELETE FROM .. WHERE``;
* ``CREATE TABLE`` with column types, fixed capacity, storage method, and
  index key;
* ``EXPLAIN <statement>``, which compiles the target to its
  :class:`~repro.planner.compile.QueryPlan` — the query's declared
  leakage — and returns the rendered tree without executing anything.

Example::

    CREATE TABLE checkins (uid INT, date STR(10)) CAPACITY 1000 METHOD both KEY uid
    SELECT * FROM checkins WHERE uid = 3172 AND date > '2018-01-01'
    SELECT uid, COUNT(*) FROM checkins GROUP BY uid
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..enclave.errors import SQLSyntaxError
from ..operators.aggregate import AggregateFunction, AggregateSpec
from ..operators.predicate import And, Comparison, Not, Or, Predicate
from ..storage.schema import Value
from .ast import (
    CreateTableStatement,
    DeleteStatement,
    ExplainStatement,
    InsertStatement,
    JoinClause,
    SelectStatement,
    Statement,
    UpdateStatement,
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),.*-])
  | (?P<word>[A-Za-z_][A-Za-z_0-9]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "group", "by", "join",
    "on", "insert", "into", "values", "update", "set", "delete", "create",
    "table", "capacity", "method", "key", "fast", "int", "float", "str",
    "order", "asc", "desc", "limit", "explain",
}

_AGGREGATES = {name.value for name in AggregateFunction}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'float' | 'string' | 'op' | 'punct' | 'word'
    text: str


def tokenize(sql: str) -> list[_Token]:
    """Split SQL text into tokens; raises :class:`SQLSyntaxError`."""
    tokens: list[_Token] = []
    position = 0
    while position < len(sql):
        match = _TOKEN_RE.match(sql, position)
        if match is None:
            raise SQLSyntaxError(
                f"unexpected character {sql[position]!r} at offset {position}"
            )
        position = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        assert kind is not None
        tokens.append(_Token(kind, match.group()))
    return tokens


class _Parser:
    """Recursive-descent parser over the token list."""

    def __init__(self, tokens: list[_Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # -- token helpers --------------------------------------------------
    def _peek(self) -> _Token | None:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("unexpected end of statement")
        self._position += 1
        return token

    def _accept_word(self, word: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "word" and token.text.lower() == word:
            self._position += 1
            return True
        return False

    def _expect_word(self, word: str) -> None:
        if not self._accept_word(word):
            token = self._peek()
            found = token.text if token else "end of statement"
            raise SQLSyntaxError(f"expected {word.upper()}, found {found!r}")

    def _accept_punct(self, punct: str) -> bool:
        token = self._peek()
        if token is not None and token.kind == "punct" and token.text == punct:
            self._position += 1
            return True
        return False

    def _expect_punct(self, punct: str) -> None:
        if not self._accept_punct(punct):
            token = self._peek()
            found = token.text if token else "end of statement"
            raise SQLSyntaxError(f"expected {punct!r}, found {found!r}")

    def _identifier(self) -> str:
        token = self._next()
        if token.kind != "word":
            raise SQLSyntaxError(f"expected identifier, found {token.text!r}")
        return token.text

    def _qualified_column(self) -> str:
        """``col`` or ``table.col`` — the table qualifier is dropped (the
        engine resolves columns against the joined schema)."""
        name = self._identifier()
        if self._accept_punct("."):
            return self._identifier()
        return name

    def _literal(self) -> Value:
        negative = self._accept_punct("-")
        token = self._next()
        if token.kind == "int":
            value = int(token.text)
            return -value if negative else value
        if token.kind == "float":
            float_value = float(token.text)
            return -float_value if negative else float_value
        if negative:
            raise SQLSyntaxError("'-' must be followed by a numeric literal")
        if token.kind == "string":
            return token.text[1:-1].replace("''", "'")
        raise SQLSyntaxError(f"expected literal, found {token.text!r}")

    # -- statements ------------------------------------------------------
    def statement(self) -> Statement:
        token = self._peek()
        if token is None:
            raise SQLSyntaxError("empty statement")
        word = token.text.lower()
        if word == "explain":
            return self._explain()
        if word == "select":
            return self._select()
        if word == "insert":
            return self._insert()
        if word == "update":
            return self._update()
        if word == "delete":
            return self._delete()
        if word == "create":
            return self._create()
        raise SQLSyntaxError(f"unknown statement {token.text!r}")

    def _explain(self) -> ExplainStatement:
        """``EXPLAIN <statement>``: compile the target without running it."""
        self._expect_word("explain")
        token = self._peek()
        if token is not None and token.text.lower() == "explain":
            raise SQLSyntaxError("EXPLAIN cannot be nested")
        return ExplainStatement(target=self.statement())

    def _select(self) -> SelectStatement:
        self._expect_word("select")
        columns: list[str] = []
        aggregates: list[AggregateSpec] = []
        star = False
        while True:
            if self._accept_punct("*"):
                star = True
            else:
                token = self._peek()
                assert token is not None
                if (
                    token.kind == "word"
                    and token.text.lower() in _AGGREGATES
                    and self._position + 1 < len(self._tokens)
                    and self._tokens[self._position + 1].text == "("
                ):
                    aggregates.append(self._aggregate())
                else:
                    columns.append(self._qualified_column())
            if not self._accept_punct(","):
                break
        self._expect_word("from")
        table = self._identifier()

        join: JoinClause | None = None
        if self._accept_word("join"):
            right = self._identifier()
            self._expect_word("on")
            left_column = self._qualified_column()
            op = self._next()
            if op.text != "=":
                raise SQLSyntaxError("JOIN .. ON requires an equality")
            right_column = self._qualified_column()
            join = JoinClause(
                right_table=right, left_column=left_column, right_column=right_column
            )

        where = self._where()
        group_by: str | None = None
        if self._accept_word("group"):
            self._expect_word("by")
            group_by = self._qualified_column()
        order_by: str | None = None
        descending = False
        if self._accept_word("order"):
            self._expect_word("by")
            order_by = self._qualified_column()
            if self._accept_word("desc"):
                descending = True
            else:
                self._accept_word("asc")
        limit: int | None = None
        if self._accept_word("limit"):
            token = self._next()
            if token.kind != "int":
                raise SQLSyntaxError("LIMIT requires an integer")
            limit = int(token.text)
        self._end()
        if star:
            columns = []
        return SelectStatement(
            table=table,
            columns=tuple(columns),
            aggregates=tuple(aggregates),
            join=join,
            where=where,
            group_by=group_by,
            order_by=order_by,
            descending=descending,
            limit=limit,
        )

    def _aggregate(self) -> AggregateSpec:
        name = self._identifier().lower()
        self._expect_punct("(")
        column: str | None
        if self._accept_punct("*"):
            column = None
        else:
            column = self._qualified_column()
        self._expect_punct(")")
        function = AggregateFunction(name)
        if function is not AggregateFunction.COUNT and column is None:
            raise SQLSyntaxError(f"{name.upper()}(*) is not valid")
        if function is AggregateFunction.COUNT and column is not None:
            # COUNT(col) counts rows like COUNT(*) under our NOT NULL model.
            column = None
        return AggregateSpec(function, column)

    def _insert(self) -> InsertStatement:
        self._expect_word("insert")
        self._expect_word("into")
        table = self._identifier()
        fast = self._accept_word("fast")
        self._expect_word("values")
        self._expect_punct("(")
        values: list[Value] = [self._literal()]
        while self._accept_punct(","):
            values.append(self._literal())
        self._expect_punct(")")
        self._end()
        return InsertStatement(table=table, values=tuple(values), fast=fast)

    def _update(self) -> UpdateStatement:
        self._expect_word("update")
        table = self._identifier()
        self._expect_word("set")
        assignments: list[tuple[str, Value]] = []
        while True:
            column = self._qualified_column()
            op = self._next()
            if op.text != "=":
                raise SQLSyntaxError("SET requires column = value")
            assignments.append((column, self._literal()))
            if not self._accept_punct(","):
                break
        where = self._where()
        self._end()
        return UpdateStatement(
            table=table, assignments=tuple(assignments), where=where
        )

    def _delete(self) -> DeleteStatement:
        self._expect_word("delete")
        self._expect_word("from")
        table = self._identifier()
        where = self._where()
        self._end()
        return DeleteStatement(table=table, where=where)

    def _create(self) -> CreateTableStatement:
        self._expect_word("create")
        self._expect_word("table")
        table = self._identifier()
        self._expect_punct("(")
        columns: list[tuple[str, str, int]] = []
        while True:
            name = self._identifier()
            type_token = self._identifier().lower()
            size = 0
            if type_token == "str":
                self._expect_punct("(")
                size_token = self._next()
                if size_token.kind != "int":
                    raise SQLSyntaxError("STR size must be an integer")
                size = int(size_token.text)
                self._expect_punct(")")
            elif type_token not in ("int", "float"):
                raise SQLSyntaxError(f"unknown column type {type_token!r}")
            columns.append((name, type_token, size))
            if not self._accept_punct(","):
                break
        self._expect_punct(")")
        capacity = 1024
        method = "flat"
        key_column: str | None = None
        while True:
            if self._accept_word("capacity"):
                token = self._next()
                if token.kind != "int":
                    raise SQLSyntaxError("CAPACITY requires an integer")
                capacity = int(token.text)
            elif self._accept_word("method"):
                method = self._identifier().lower()
            elif self._accept_word("key"):
                key_column = self._identifier()
            else:
                break
        self._end()
        return CreateTableStatement(
            table=table,
            columns=tuple(columns),
            capacity=capacity,
            method=method,
            key_column=key_column,
        )

    # -- predicates -------------------------------------------------------
    def _where(self) -> Predicate | None:
        if self._accept_word("where"):
            return self._or_expression()
        return None

    def _or_expression(self) -> Predicate:
        operands = [self._and_expression()]
        while self._accept_word("or"):
            operands.append(self._and_expression())
        if len(operands) == 1:
            return operands[0]
        return Or(*operands)

    def _and_expression(self) -> Predicate:
        operands = [self._not_expression()]
        while self._accept_word("and"):
            operands.append(self._not_expression())
        if len(operands) == 1:
            return operands[0]
        return And(*operands)

    def _not_expression(self) -> Predicate:
        if self._accept_word("not"):
            return Not(self._not_expression())
        return self._primary()

    def _primary(self) -> Predicate:
        if self._accept_punct("("):
            predicate = self._or_expression()
            self._expect_punct(")")
            return predicate
        column = self._qualified_column()
        op = self._next()
        if op.kind != "op":
            raise SQLSyntaxError(f"expected comparison operator, found {op.text!r}")
        operator = "!=" if op.text == "<>" else op.text
        return Comparison(column, operator, self._literal())

    def _end(self) -> None:
        token = self._peek()
        if token is not None:
            raise SQLSyntaxError(f"unexpected trailing token {token.text!r}")


def parse(sql: str) -> Statement:
    """Parse one SQL statement into its logical AST."""
    return _Parser(tokenize(sql)).statement()
