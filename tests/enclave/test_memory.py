"""Unit tests for untrusted memory regions and access recording."""

from __future__ import annotations

import pytest

from repro.enclave import Enclave, StorageError


@pytest.fixture
def enclave() -> Enclave:
    return Enclave(keep_trace_events=True)


class TestRegions:
    def test_allocate_and_rw(self, enclave: Enclave) -> None:
        enclave.untrusted.allocate_region("t", 4)
        sealed = enclave.seal(b"abc")
        enclave.untrusted.write("t", 2, sealed)
        assert enclave.untrusted.read("t", 2) is sealed
        assert enclave.untrusted.read("t", 0) is None

    def test_duplicate_region_rejected(self, enclave: Enclave) -> None:
        enclave.untrusted.allocate_region("t", 1)
        with pytest.raises(StorageError):
            enclave.untrusted.allocate_region("t", 1)

    def test_missing_region_rejected(self, enclave: Enclave) -> None:
        with pytest.raises(StorageError):
            enclave.untrusted.read("ghost", 0)

    def test_out_of_bounds_read(self, enclave: Enclave) -> None:
        enclave.untrusted.allocate_region("t", 2)
        with pytest.raises(StorageError):
            enclave.untrusted.read("t", 2)
        with pytest.raises(StorageError):
            enclave.untrusted.read("t", -1)

    def test_out_of_bounds_write(self, enclave: Enclave) -> None:
        enclave.untrusted.allocate_region("t", 2)
        with pytest.raises(StorageError):
            enclave.untrusted.write("t", 5, enclave.seal(b"x"))

    def test_free_region(self, enclave: Enclave) -> None:
        enclave.untrusted.allocate_region("t", 2)
        enclave.untrusted.free_region("t")
        assert not enclave.untrusted.has_region("t")
        with pytest.raises(StorageError):
            enclave.untrusted.free_region("t")

    def test_resize_grow_and_shrink(self, enclave: Enclave) -> None:
        region = enclave.untrusted.allocate_region("t", 2)
        sealed = enclave.seal(b"x")
        enclave.untrusted.write("t", 1, sealed)
        region.resize(5)
        assert region.capacity == 5
        assert enclave.untrusted.read("t", 1) is sealed
        region.resize(1)
        assert region.capacity == 1


class TestAccessRecording:
    def test_reads_and_writes_are_traced(self, enclave: Enclave) -> None:
        enclave.untrusted.allocate_region("t", 4)
        enclave.untrusted.write("t", 0, enclave.seal(b"x"))
        enclave.untrusted.read("t", 0)
        events = enclave.trace.events
        assert [(e.op, e.region, e.index) for e in events] == [
            ("W", "t", 0),
            ("R", "t", 0),
        ]

    def test_costs_are_counted(self, enclave: Enclave) -> None:
        enclave.untrusted.allocate_region("t", 4)
        for i in range(3):
            enclave.untrusted.write("t", i, enclave.seal(b"x"))
        enclave.untrusted.read("t", 0)
        assert enclave.cost.untrusted_writes == 3
        assert enclave.cost.untrusted_reads == 1

    def test_peek_and_tamper_are_not_traced(self, enclave: Enclave) -> None:
        """The adversary's own inspections must not pollute the trace."""
        enclave.untrusted.allocate_region("t", 1)
        enclave.untrusted.write("t", 0, enclave.seal(b"x"))
        before = len(enclave.trace)
        enclave.untrusted.peek("t", 0)
        enclave.untrusted.tamper("t", 0, None)
        assert len(enclave.trace) == before

    def test_stored_bytes_accounting(self, enclave: Enclave) -> None:
        enclave.untrusted.allocate_region("t", 4)
        assert enclave.untrusted.total_stored_bytes() == 0
        enclave.untrusted.write("t", 0, enclave.seal(b"x" * 100))
        assert enclave.untrusted.total_stored_bytes() > 100


class TestGatherScatterBounds:
    """``read_at`` / ``write_at`` refuse an index outside ``[0, capacity)``
    with the per-slot message, before any access is recorded or counted."""

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_gather_read_out_of_bounds(self, enclave: Enclave, bad: int) -> None:
        enclave.untrusted.allocate_region("t", 4)
        with pytest.raises(StorageError) as raised:
            enclave.untrusted.read_at("t", [0, bad, 2])
        assert str(raised.value) == f"gather read out of bounds: t[{bad}] (capacity 4)"
        assert len(enclave.trace) == 0
        assert enclave.cost.untrusted_reads == 0

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_scatter_write_out_of_bounds(self, enclave: Enclave, bad: int) -> None:
        enclave.untrusted.allocate_region("t", 4)
        blocks = [enclave.seal(b"x")] * 3
        with pytest.raises(StorageError) as raised:
            enclave.untrusted.write_at("t", [3, bad, 0], blocks)
        assert str(raised.value) == f"scatter write out of bounds: t[{bad}] (capacity 4)"
        assert len(enclave.trace) == 0
        assert enclave.cost.untrusted_writes == 0
        assert enclave.untrusted.peek("t", 3) is None
