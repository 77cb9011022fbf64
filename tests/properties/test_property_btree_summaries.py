"""Property: every lookup costs its closed-form target and answers what a
sorted list answers, with and without leaf summaries.

With the leaves' parents resident (the default at these sizes) the parents
keep each leaf's (min key, max key); a lookup loads only the leaves whose
span meets its interval and pads to ``(g − 1) + L(r) + max(1, r)`` ORAM
accesses, where g = 1 is the levels still in the ORAM, r the result count
and ``L(r) = 1 + ⌈(max(1, r) − 1) / min_leaf_keys⌉``.  With no resident
level (the paper's tree) a lookup walks the leaves and pads to
``g + max(1, r) + r // min_leaf_keys + 2``.  Trees are generated from a
bulk load and random inserts and deletes over a small key space, so
duplicate runs straddle leaves — excluded open bounds included — and
deletes merge and borrow.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.enclave import Enclave
from repro.storage import ObliviousBPlusTree, Schema, int_column, str_column

SCHEMA = Schema([int_column("key"), str_column("value", 12)])
KEYS = st.integers(min_value=0, max_value=24)


def target(tree: ObliviousBPlusTree, rows: int) -> int:
    """The closed form of a lookup returning ``rows`` rows."""
    least = (tree.order - 1) // 2  # min_leaf_keys
    r = max(1, rows)
    if tree._summarised:
        return 1 + -(-(r - 1) // least) + r
    return tree.oram_levels + r + rows // least + 2


def leaves(tree: ObliviousBPlusTree):
    """(leaf id, leaf) in key order; loads every leaf."""
    node_id = tree._root
    for _ in range(tree.height - 1):
        node_id = tree._resident[node_id].children[0]
    while node_id >= 0:
        leaf = tree._load(node_id)
        yield node_id, leaf
        node_id = leaf.next_leaf
    tree._cache.clear()


def check_summaries(tree: ObliviousBPlusTree) -> None:
    """Each summary is its leaf's true (min, max); every non-root leaf holds
    at least ``min_leaf_keys`` keys, which L(r) counts on.  A tree without
    summaries keeps none."""
    if not tree._summarised:
        assert tree._spans == {}
        return
    spans = {}
    for leaf_id, leaf in leaves(tree):
        if tree.height > 1:
            assert len(leaf.keys) >= (tree.order - 1) // 2
        if leaf.keys:
            spans[leaf_id] = (leaf.keys[0], leaf.keys[-1])
    assert tree._spans == spans


def spent(enclave: Enclave, operation) -> tuple[int, object]:
    before = enclave.cost.oram_accesses
    result = operation()
    return enclave.cost.oram_accesses - before, result


@settings(max_examples=40, deadline=None)
# A run of the excluded low bound's copies filling leaves of its own.
@example(
    order=8,
    resident_levels=0,
    loaded=[5] * 30 + [6],
    commands=[("update", 6)],
    probes=[(5, 1, True, False)],
    seed=0,
)
@given(
    order=st.sampled_from([4, 8]),
    resident_levels=st.sampled_from([None, 0]),
    loaded=st.lists(KEYS, min_size=24, max_size=90),
    commands=st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "update"]), KEYS),
        min_size=8,
        max_size=40,
    ),
    probes=st.lists(
        st.tuples(KEYS, st.integers(0, 8), st.booleans(), st.booleans()),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_lookups_cost_their_closed_form(
    order, resident_levels, loaded, commands, probes, seed
) -> None:
    enclave = Enclave(oblivious_memory_bytes=1 << 22, cipher="null")
    tree = ObliviousBPlusTree(
        enclave, SCHEMA, "key", capacity=128, order=order, rng=random.Random(seed),
        resident_levels=resident_levels,
    )
    assert tree._summarised == (resident_levels is None)
    # The oracle: (key, value) sorted by key, duplicates in insertion order.
    model = [(key, f"b{i}") for i, key in sorted(enumerate(loaded), key=lambda p: p[1])]
    tree.bulk_load([(key, value) for key, value in model])
    check_summaries(tree)

    def probe() -> None:
        if not tree.height:
            return
        keys = [key for key, _ in model]
        for low, width, low_open, high_open in probes:
            high = low + width
            start = bisect_right(keys, low) if low_open else bisect_left(keys, low)
            stop = bisect_left(keys, high) if high_open else bisect_right(keys, high)
            wanted = model[start:max(start, stop)]
            count, rows = spent(
                enclave, lambda: tree.range_scan(low, high, low_open, high_open)
            )
            assert rows == wanted
            assert count == target(tree, len(rows))
            count, rows = spent(enclave, lambda: tree.search(low))
            assert rows == [row for row in model if row[0] == low]
            assert count == target(tree, len(rows))

    for step, (command, key) in enumerate(commands):
        keys = [k for k, _ in model]
        if command == "insert" and len(model) < tree.capacity:
            tree.insert((key, f"i{step}"))
            model.insert(bisect_right(keys, key), (key, f"i{step}"))
        elif command == "delete":
            assert tree.delete(key) == (key in keys)
            if key in keys:
                del model[bisect_left(keys, key)]
        elif command == "update" and tree.height:
            count, updated = spent(enclave, lambda: tree.update(key, (key, f"u{step}")))
            assert updated == (key in keys)
            assert count == target(tree, 1)
            if key in keys:
                model[bisect_left(keys, key)] = (key, f"u{step}")
        check_summaries(tree)
        probe()
    assert [row for row in tree.items()] == model
