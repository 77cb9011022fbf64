"""ObliDB reproduction: oblivious query processing for secure databases.

A faithful Python reproduction of *ObliDB: Oblivious Query Processing
for Secure Databases* (Eskandarian & Zaharia, VLDB 2019) on top of a
simulated SGX-like enclave.  Standard library throughout, with one
dependency: the ``cryptography`` package, whose AES-128-GCM seals every
block (``repro.enclave.crypto``).  See DESIGN.md for the system inventory
and EXPERIMENTS.md for the reproduced evaluation.

Quick start::

    from repro import ObliDB

    db = ObliDB()
    db.sql("CREATE TABLE t (id INT, name STR(16)) CAPACITY 100 METHOD both KEY id")
    db.sql("INSERT INTO t VALUES (1, 'alice')")
    print(db.sql("SELECT * FROM t WHERE id = 1").rows)
"""

from .enclave.enclave import Enclave
from .engine.ast import QueryResult, SelectStatement
from .engine.database import ObliDB, RetryPolicy
from .engine.padding import PaddingConfig
from .faults import FaultPlan, SimulatedCrash
from .operators.aggregate import AggregateFunction, AggregateSpec
from .operators.predicate import And, Comparison, Not, Or, TruePredicate
from .serving import AdmissionPolicy, ObliDBServer, ServingStats
from .storage.schema import (
    Column,
    ColumnType,
    Schema,
    float_column,
    int_column,
    str_column,
)
from .storage.table import StorageMethod

__version__ = "1.0.0"

__all__ = [
    "AdmissionPolicy",
    "AggregateFunction",
    "AggregateSpec",
    "And",
    "Column",
    "ColumnType",
    "Comparison",
    "Enclave",
    "FaultPlan",
    "Not",
    "ObliDB",
    "ObliDBServer",
    "Or",
    "PaddingConfig",
    "QueryResult",
    "RetryPolicy",
    "Schema",
    "ServingStats",
    "SimulatedCrash",
    "SelectStatement",
    "StorageMethod",
    "TruePredicate",
    "float_column",
    "int_column",
    "str_column",
    "__version__",
]
