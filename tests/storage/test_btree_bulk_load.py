"""Bottom-up build of the oblivious B+ tree (``bulk_load``).

Two angles: a structural checker that holds a freshly loaded tree to every
invariant the incremental code relies on (occupancy per level, uniform leaf
depth, leaf chain, allocator bookkeeping), and a property that a bulk-built
tree is indistinguishable — through every read, and through any later
insert / delete / update — from one built row by row.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enclave import Enclave, StorageError
from repro.enclave.errors import ObliviousMemoryError
from repro.storage import ObliviousBPlusTree, Schema, int_column, str_column
from repro.storage.btree import _InternalNode, _LeafNode, _packed_sizes
from repro.storage.btree import ORAM_KINDS

SCHEMA = Schema([int_column("key"), str_column("value", 12)])


def make_tree(
    capacity: int = 200,
    order: int = 8,
    seed: int = 1,
    oram: str = "path",
    resident_levels: int | None = None,
) -> tuple[Enclave, ObliviousBPlusTree]:
    enclave = Enclave(
        oblivious_memory_bytes=1 << 24, cipher="null", keep_trace_events=True
    )
    tree = ObliviousBPlusTree(
        enclave,
        SCHEMA,
        "key",
        capacity,
        order=order,
        rng=random.Random(seed),
        oram_factory=ORAM_KINDS[oram],
        resident_levels=resident_levels,
    )
    return enclave, tree


def check_structure(tree: ObliviousBPlusTree, leaf_minimum: bool = True) -> None:
    """Every invariant of a well-formed tree, read through the node cache.

    ``leaf_minimum=False`` allows what ``delete`` documents: a separator-
    equal key is removed by the forward leaf walk without rebalancing, so a
    leaf may sit below minimum (even empty) until a delete path reaches it.

    Resident ids are negative: a node has one exactly when it sits at or
    above the tree's ``_resident_from`` boundary, counted from the leaves.
    """
    try:
        if not tree.height:
            assert tree.count == 0 and tree._root == -1
            assert tree._allocator.allocated_count == 0
            assert not tree._resident
            return
        order = tree._order
        reachable: set[int] = set()
        leaves: list[tuple[int, _LeafNode]] = []

        def walk(node_id: int, depth: int, low: bytes | None, high: bytes | None) -> None:
            assert node_id not in reachable
            reachable.add(node_id)
            node = tree._load(node_id)
            is_root = node_id == tree._root
            assert (node_id < 0) == (tree.height - depth >= tree._resident_from)
            assert node.keys == sorted(node.keys)
            # Right-biased separators: low <= key <= high, where duplicates
            # of a separator may sit on both sides of it.
            for key in node.keys:
                assert low is None or key >= low
                assert high is None or key <= high
            if isinstance(node, _LeafNode):
                assert depth == tree.height, "leaves sit at one depth"
                assert len(node.keys) == len(node.records)
                if not leaf_minimum:
                    floor = 0
                else:
                    floor = 1 if is_root else tree._min_leaf_keys
                assert floor <= len(node.keys) <= tree._max_leaf_keys
                leaves.append((node_id, node))
                return
            assert isinstance(node, _InternalNode)
            assert len(node.keys) == len(node.children) - 1
            floor = 2 if is_root else tree._min_children
            assert floor <= len(node.children) <= order
            bounds = [low, *node.keys, high]
            for position, child in enumerate(node.children):
                walk(child, depth + 1, bounds[position], bounds[position + 1])

        walk(tree._root, 1, None, None)
        # The leaf chain is the leaves left to right, ending in -1.
        for (_, leaf), (next_id, _) in zip(leaves, leaves[1:]):
            assert leaf.next_leaf == next_id
        assert leaves[-1][1].next_leaf == -1
        chain_keys = [key for _, leaf in leaves for key in leaf.keys]
        assert chain_keys == sorted(chain_keys)
        records = [record for _, leaf in leaves for record in leaf.records]
        assert len(records) == len(set(records)) == tree.count
        assert reachable.isdisjoint(records)
        in_oram = {node_id for node_id in reachable if node_id >= 0}
        assert in_oram | set(records) == tree._allocator._allocated
        assert reachable - in_oram == set(tree._resident)
        assert len(tree._resident) <= tree._resident_limit
    finally:
        tree._cache.clear()


def rows_for(n: int, seed: int = 3, key_space: int | None = None) -> list[tuple]:
    """``n`` rows in shuffled key order; a small ``key_space`` forces
    duplicates, whose values record the input order."""
    rng = random.Random(seed)
    keys = (
        [rng.randrange(key_space) for _ in range(n)]
        if key_space
        else rng.sample(range(10 * n + 1), n)
    )
    return [(key, f"v{i}") for i, key in enumerate(keys)]


def model_of(rows: list[tuple]) -> list[tuple]:
    """Key order, duplicates in input order (a stable sort)."""
    return sorted(rows, key=lambda row: row[0])


# Around every packing boundary of order 8 (7 keys a leaf, 8 children a
# node): one leaf, two leaves, a full second level, a third level, capacity.
SIZES = [0, 1, 6, 7, 8, 9, 10, 14, 15, 49, 56, 57, 58, 63, 64, 199, 200]


class TestStructure:
    @pytest.mark.parametrize("oram", ["path", "ring", "recursive"])
    @pytest.mark.parametrize("n", SIZES)
    def test_loaded_tree_is_well_formed(self, n: int, oram: str) -> None:
        _, tree = make_tree(oram=oram)
        rows = rows_for(n)
        tree.bulk_load(rows)
        check_structure(tree)
        assert tree.count == n
        assert tree.height == tree._packed_shape(n)[1] if n else tree.height == 0
        assert list(tree.items()) == model_of(rows)

    @pytest.mark.parametrize("resident_levels", [None, 1, 0])
    @pytest.mark.parametrize("order", [4, 5, 6, 9])
    def test_every_size_at_small_orders(self, order: int, resident_levels) -> None:
        top = order * (order + 2)  # well into a third level
        for n in range(top + 1):
            _, tree = make_tree(
                capacity=top, order=order, resident_levels=resident_levels
            )
            rows = rows_for(n, key_space=max(1, n // 2))
            tree.bulk_load(rows)
            check_structure(tree)
            assert list(tree.items()) == model_of(rows)

    @pytest.mark.parametrize("resident_levels", [None, 2, 1, 0])
    def test_node_count_matches_closed_form(self, resident_levels) -> None:
        """The ORAM holds the packed tree's levels below the boundary —
        only the leaves when every interior level is resident."""
        for n in (1, 7, 8, 57, 200):
            _, tree = make_tree(resident_levels=resident_levels)
            tree.bulk_load(rows_for(n))
            nodes = tree._allocator.allocated_count - n
            assert (nodes, tree.height) == tree._packed_shape(n)
            if resident_levels is None:
                assert nodes == -(-n // 7)
            elif resident_levels == 0:
                assert tree.resident_nodes == 0

    @pytest.mark.parametrize(
        "entries,full,minimum,expected",
        [
            (0, 7, 3, []),
            (2, 7, 3, [2]),  # a lone node is the root: no minimum
            (14, 7, 3, [7, 7]),
            (17, 7, 3, [7, 7, 3]),  # the remainder stands when it suffices
            (15, 7, 3, [7, 4, 4]),  # else the last two share evenly
            (16, 7, 3, [7, 5, 4]),
            (9, 8, 4, [5, 4]),
        ],
    )
    def test_packed_sizes(self, entries, full, minimum, expected) -> None:
        assert _packed_sizes(entries, full, minimum) == expected

    @pytest.mark.parametrize("resident_levels", [None, 1, 0])
    def test_later_mutations_meet_an_ordinary_tree(self, resident_levels) -> None:
        """Splits, borrows and merges after a load find the occupancy they
        expect: delete most of a packed tree, refill it, and it stays well
        formed throughout — every node on its side of the boundary."""
        _, tree = make_tree(resident_levels=resident_levels)
        rows = rows_for(150)
        tree.bulk_load(rows)
        rng = random.Random(9)
        rng.shuffle(rows)
        for key, _ in rows[:130]:
            assert tree.delete(key) == 1
            check_structure(tree, leaf_minimum=False)
        for key, _ in rows[:130]:
            tree.insert((key, "again"))
            check_structure(tree, leaf_minimum=False)
        assert [row[0] for row in tree.items()] == sorted(key for key, _ in rows)

    def test_reload_after_emptying(self) -> None:
        """An index emptied by deletes is empty again: recycled block ids
        and the stale blocks left in the ORAM do not disturb a second load."""
        _, tree = make_tree()
        first = rows_for(40)
        tree.bulk_load(first)
        for key, _ in first:
            tree.delete(key)
        assert tree.count == 0
        second = rows_for(60, seed=8, key_space=20)
        tree.bulk_load(second)
        check_structure(tree)
        assert list(tree.items()) == model_of(second)
        assert sorted(tree.linear_scan()) == sorted(second)


class TestRefusals:
    """Every refusal is raised before the first untrusted access."""

    @staticmethod
    def _refused(enclave: Enclave, tree: ObliviousBPlusTree, rows, error) -> None:
        events = len(enclave.trace)
        cost = enclave.cost.snapshot()
        in_use = enclave.oblivious.in_use_bytes
        allocated = tree._allocator.allocated_count
        with pytest.raises(error):
            tree.bulk_load(rows)
        assert len(enclave.trace) == events
        assert enclave.cost.snapshot() == cost
        assert enclave.oblivious.in_use_bytes == in_use
        assert tree._allocator.allocated_count == allocated

    def test_non_empty_tree(self) -> None:
        enclave, tree = make_tree()
        tree.insert((1, "a"))
        self._refused(enclave, tree, [(2, "b")], StorageError)
        assert list(tree.items()) == [(1, "a")]

    def test_more_rows_than_capacity(self) -> None:
        enclave, tree = make_tree(capacity=16)
        self._refused(enclave, tree, rows_for(17), StorageError)
        assert tree.count == 0
        tree.bulk_load(rows_for(16))
        assert tree.count == 16

    def test_invalid_row(self) -> None:
        from repro.enclave.errors import SchemaError

        enclave, tree = make_tree()
        self._refused(
            enclave, tree, [(1, "ok"), (2, "x" * 40)], SchemaError
        )

    def test_directory_that_does_not_fit(self) -> None:
        enclave, tree = make_tree()
        enclave.oblivious.allocate(enclave.oblivious.free_bytes - 100)
        self._refused(enclave, tree, rows_for(50), ObliviousMemoryError)
        assert not tree.prefers_bulk_load(50)


# ----------------------------------------------------------------------
# Bulk-built == built row by row
# ----------------------------------------------------------------------
KEY = st.integers(min_value=0, max_value=24)


def assert_same_answers(trees: list[ObliviousBPlusTree], model) -> None:
    for tree in trees:
        assert list(tree.items()) == model
        for key in range(25):
            assert tree.search(key) == [row for row in model if row[0] == key]
        for low, high in ((None, None), (3, 11), (10, 10), (20, None), (None, 4)):
            assert tree.range_scan(low, high) == [
                row
                for row in model
                if (low is None or row[0] >= low) and (high is None or row[0] <= high)
            ]
        assert sorted(tree.linear_scan()) == sorted(model)


@settings(max_examples=40, deadline=None)
@given(
    keys=st.lists(KEY, max_size=90),
    commands=st.lists(
        st.tuples(st.sampled_from(["insert", "delete", "update", "lookup"]), KEY),
        max_size=60,
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_bulk_built_equals_row_by_row(keys, commands, seed) -> None:
    """Duplicate-heavy keys (25 values, up to 90 rows): a bulk-built tree
    with its interior resident, the same load with every node in the ORAM
    (the paper's tree), and a tree built row by row answer every read alike
    — duplicates in insertion order — and keep doing so, and agreeing with
    a sorted-list model, through later mutations."""
    rows = [(key, f"v{i}") for i, key in enumerate(keys)]
    _, bulk = make_tree(capacity=160, seed=seed)
    _, paper = make_tree(capacity=160, seed=seed, resident_levels=0)
    _, rowwise = make_tree(capacity=160, seed=seed + 1)
    trees = [bulk, paper, rowwise]
    bulk.bulk_load(rows)
    paper.bulk_load(rows)
    for row in rows:
        rowwise.insert(row)
    model = model_of(rows)
    check_structure(bulk)
    check_structure(paper)
    assert bulk.height == paper.height
    assert_same_answers(trees, model)

    for step, (command, key) in enumerate(commands):
        first = next((i for i, row in enumerate(model) if row[0] == key), None)
        if command == "insert":
            row = (key, f"n{step}")
            for tree in trees:
                tree.insert(row)
            after = [i for i, other in enumerate(model) if other[0] <= key]
            model.insert(after[-1] + 1 if after else 0, row)
        elif command == "delete":
            expected = 0 if first is None else 1
            assert [tree.delete(key) for tree in trees] == [expected] * 3
            if first is not None:
                del model[first]
        elif command == "update":
            row = (key, f"u{step}")
            expected = 0 if first is None else 1
            assert [tree.update(key, row) for tree in trees] == [expected] * 3
            if first is not None:
                model[first] = row
        else:
            expected = [row for row in model if row[0] == key]
            assert [tree.search(key) for tree in trees] == [expected] * 3
    assert [tree.count for tree in trees] == [len(model)] * 3
    # Same load, same commands: the two bulk-built trees are one shape, each
    # node on its side of its tree's boundary.
    assert bulk.height == paper.height
    check_structure(bulk, leaf_minimum=False)
    check_structure(paper, leaf_minimum=False)
    assert_same_answers(trees, model)
