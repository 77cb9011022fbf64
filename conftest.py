"""Root pytest configuration: run ``tests/`` before ``benchmarks/``, and
draw the same hypothesis examples on every run.

The tier-1 command collects both directories and ``benchmarks`` sorts
first, so under ``-x`` a wall-clock ratio gate there could stop the run
before any correctness test ran.  Ordering is by directory only; the order
inside each directory is pytest's.

Every hypothesis test is derandomized: its examples are seeded from the
test itself, so a run is repeatable on any host.  Each test keeps its own
``max_examples``.
"""

from __future__ import annotations

from pathlib import Path

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")

_BENCHMARKS = Path(__file__).resolve().parent / "benchmarks"


def pytest_collection_modifyitems(items) -> None:
    items.sort(key=lambda item: _BENCHMARKS in item.path.parents)
