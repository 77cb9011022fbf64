"""Unit tests for access traces and their digests."""

from __future__ import annotations

import pytest

from repro.enclave import AccessTrace


class TestAccessTrace:
    def test_record_and_iterate(self) -> None:
        trace = AccessTrace()
        trace.record("R", "t", 0)
        trace.record("W", "t", 1)
        assert len(trace) == 2
        assert [(e.op, e.index) for e in trace] == [("R", 0), ("W", 1)]

    def test_identical_sequences_match(self) -> None:
        a, b = AccessTrace(), AccessTrace()
        for trace in (a, b):
            trace.record("R", "t", 3)
            trace.record("W", "u", 5)
        assert a.matches(b)
        assert a.digest() == b.digest()

    def test_different_order_differs(self) -> None:
        a, b = AccessTrace(), AccessTrace()
        a.record("R", "t", 0)
        a.record("R", "t", 1)
        b.record("R", "t", 1)
        b.record("R", "t", 0)
        assert not a.matches(b)

    def test_op_direction_is_observable(self) -> None:
        a, b = AccessTrace(), AccessTrace()
        a.record("R", "t", 0)
        b.record("W", "t", 0)
        assert not a.matches(b)

    def test_region_is_observable(self) -> None:
        a, b = AccessTrace(), AccessTrace()
        a.record("R", "t1", 0)
        b.record("R", "t2", 0)
        assert not a.matches(b)

    def test_length_mismatch_never_matches(self) -> None:
        a, b = AccessTrace(), AccessTrace()
        a.record("R", "t", 0)
        assert not a.matches(b)

    def test_clear_resets(self) -> None:
        trace = AccessTrace()
        trace.record("R", "t", 0)
        trace.clear()
        assert len(trace) == 0
        assert trace.matches(AccessTrace())

    def test_digest_only_mode(self) -> None:
        trace = AccessTrace(keep_events=False)
        trace.record("R", "t", 0)
        assert len(trace) == 1
        with pytest.raises(ValueError):
            trace.events
        reference = AccessTrace()
        reference.record("R", "t", 0)
        assert trace.matches(reference)

    def test_region_histogram(self) -> None:
        trace = AccessTrace()
        for _ in range(3):
            trace.record("R", "a", 0)
        trace.record("W", "b", 0)
        assert trace.region_histogram() == {"a": 3, "b": 1}


class TestGatherRecording:
    def test_record_at_is_digest_identical_to_loop(self) -> None:
        indices = [0, 2, 5, 12, 3, 3]
        batched, reference = AccessTrace(), AccessTrace()
        batched.record_at("R", "oram#1", indices)
        for i in indices:
            reference.record("R", "oram#1", i)
        assert batched.matches(reference)
        assert [(e.op, e.index) for e in batched.events] == [
            ("R", i) for i in indices
        ]

    def test_record_at_preserves_arbitrary_order(self) -> None:
        """Leaf→root scatter order must not hash like root→leaf gather."""
        a, b = AccessTrace(), AccessTrace()
        a.record_at("W", "t", [4, 1, 0])
        b.record_at("W", "t", [0, 1, 4])
        assert not a.matches(b)

    @pytest.mark.parametrize("region", ["oram#1", "t%d", "50%_off|%%"])
    def test_record_at_renders_any_region_name_like_record(self, region: str) -> None:
        """The batched digest string is one %-format; a ``%`` in a region
        name must come out literally, and a tuple of indices works as a
        list does."""
        indices = (7, 0, 10**12)
        batched, reference = AccessTrace(), AccessTrace()
        batched.record_at("W", region, indices)
        for i in indices:
            reference.record("W", region, i)
        assert batched.matches(reference)

    def test_record_at_empty_is_noop(self) -> None:
        trace = AccessTrace()
        trace.record_at("R", "t", [])
        assert len(trace) == 0
        assert trace.matches(AccessTrace())

    def test_record_at_digest_only_mode(self) -> None:
        trace = AccessTrace(keep_events=False)
        trace.record_at("W", "t", [3, 1])
        reference = AccessTrace()
        reference.record("W", "t", 3)
        reference.record("W", "t", 1)
        assert trace.matches(reference)
