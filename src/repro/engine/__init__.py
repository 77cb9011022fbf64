"""Engine: logical AST, SQL parser, executor, padding mode, ObliDB facade."""

from .ast import (
    CreateTableStatement,
    DeleteStatement,
    ExplainStatement,
    InsertStatement,
    JoinClause,
    QueryResult,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from .database import ObliDB, RetryPolicy, VerifyReport
from .executor import Executor, PlanRunner, run_join_algorithm, run_select_algorithm
from .padding import PaddingConfig
from .sql import parse, tokenize
from .wal import RecoveryReport, WriteAheadLog

__all__ = [
    "RecoveryReport",
    "RetryPolicy",
    "VerifyReport",
    "WriteAheadLog",
    "CreateTableStatement",
    "DeleteStatement",
    "Executor",
    "ExplainStatement",
    "InsertStatement",
    "JoinClause",
    "ObliDB",
    "PaddingConfig",
    "PlanRunner",
    "QueryResult",
    "SelectStatement",
    "Statement",
    "UpdateStatement",
    "parse",
    "run_join_algorithm",
    "run_select_algorithm",
    "tokenize",
]
