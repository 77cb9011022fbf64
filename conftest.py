"""Root pytest configuration: run ``tests/`` before ``benchmarks/``.

The tier-1 command collects both directories and ``benchmarks`` sorts
first, so under ``-x`` a wall-clock ratio gate there could stop the run
before any correctness test ran.  Ordering is by directory only; the order
inside each directory is pytest's.
"""

from __future__ import annotations

from pathlib import Path

_BENCHMARKS = Path(__file__).resolve().parent / "benchmarks"


def pytest_collection_modifyitems(items) -> None:
    items.sort(key=lambda item: _BENCHMARKS in item.path.parents)
