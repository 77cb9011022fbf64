"""Fixtures shared by the SIM tests."""

from __future__ import annotations

import pytest

from repro.analysis import simulator


@pytest.fixture
def raw_digests(monkeypatch) -> list[str]:
    """Collects each :func:`~repro.analysis.simulate` run's raw trace
    digest: ORAM leaves and region names as drawn, not canonicalised."""
    digests: list[str] = []
    canonical = simulator._canonical

    def record(enclave):
        digests.append(enclave.trace.digest())
        return canonical(enclave)

    monkeypatch.setattr(simulator, "_canonical", record)
    return digests
