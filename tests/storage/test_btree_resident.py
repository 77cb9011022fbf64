"""The B+ tree's resident interior: counts, the level rule, the account.

The top levels of the tree live in oblivious memory, so every padded target
is the paper's formula evaluated at the levels still in the ORAM.  These
tests hold the closed forms at every setting from none (the paper's tree) to
every interior level, across root splits and collapses; that the boundary is
a function of public sizes which steps down as oblivious memory shrinks; and
that the reservation is charged once and released.
"""

from __future__ import annotations

import random

import pytest

from repro import ObliDB
from repro.enclave import Enclave, StorageError
from repro.enclave.errors import ObliviousMemoryError
from repro.oram.path_oram import DEFAULT_STASH_LIMIT
from repro.storage import ObliviousBPlusTree, Schema, StorageMethod, int_column, str_column
from repro.storage.btree import _InternalNode, resident_bytes_for, resident_levels_for

SCHEMA = Schema([int_column("key"), str_column("value", 12)])

#: Order 5 (two keys a leaf and two children a node at minimum) grows tall
#: fast: 64 rows can build six levels, and 56 ascending inserts (every split
#: leaves its left half at minimum) reach four.
ORDER, CAPACITY, ROWS, TALLEST = 5, 64, 56, 6


def make_tree(
    resident_levels: int | None,
    capacity: int = CAPACITY,
    order: int = ORDER,
    budget: int = 1 << 24,
    seed: int = 1,
) -> tuple[Enclave, ObliviousBPlusTree]:
    enclave = Enclave(oblivious_memory_bytes=budget, cipher="null")
    tree = ObliviousBPlusTree(
        enclave,
        SCHEMA,
        "key",
        capacity,
        order=order,
        rng=random.Random(seed),
        resident_levels=resident_levels,
    )
    return enclave, tree


def client_state_floor(tree: ObliviousBPlusTree) -> int:
    """What the index's Path ORAM must have: position map and stash."""
    return 8 * tree.oram.capacity + DEFAULT_STASH_LIMIT * tree.oram.block_size


def oram_levels(height: int, resident_levels: int, tallest: int = TALLEST) -> int:
    """Levels of a ``height``-level tree a descent reads from the ORAM: the
    ones below the boundary, which sits ``tallest - resident_levels`` levels
    above the leaves — or nowhere, for the paper's tree."""
    return min(height, tallest - resident_levels) if resident_levels else height


def lookup(g: int, rows: int, summarised: bool) -> int:
    """A padded lookup of ``rows`` results at ``g`` ORAM levels (order 5:
    two keys a leaf at least).  With the leaves' parents resident their key
    summaries leave only the leaves the result meets, 1 + ⌈(r − 1) / 2⌉;
    otherwise the walk's allowance of r // 2 + 2 extra leaves."""
    r = max(1, rows)
    if summarised:
        return (g - 1) + 1 + r // 2 + r
    return g + r + rows // 2 + 2


def spent(enclave: Enclave, operation) -> tuple[int, object]:
    before = enclave.cost.oram_accesses
    result = operation()
    return enclave.cost.oram_accesses - before, result


def interior_levels(tree: ObliviousBPlusTree) -> dict[int, list[int]]:
    """Interior node ids by level above the leaves."""
    levels: dict[int, list[int]] = {}
    frontier = [tree._root] if tree.height > 1 else []
    for level in range(tree.height - 1, 0, -1):
        levels[level] = frontier
        children = []
        for node_id in frontier:
            node = tree._load(node_id)
            assert isinstance(node, _InternalNode)
            children.extend(node.children)
        frontier = children
    tree._cache.clear()
    return levels


class TestClosedFormCounts:
    @pytest.mark.parametrize("resident_levels", range(TALLEST))
    def test_every_operation_across_root_splits_and_collapses(
        self, resident_levels: int
    ) -> None:
        enclave, tree = make_tree(resident_levels)
        assert tree.resident_levels == resident_levels
        keys = list(range(0, 2 * ROWS, 2))
        heights = []
        for key in keys:
            count, _ = spent(enclave, lambda: tree.insert((key, f"v{key}")))
            g = oram_levels(tree.height, resident_levels)
            assert tree.oram_levels == g
            assert count == 3 * g + 4
            heights.append(tree.height)
        assert heights == sorted(heights) and heights[-1] == 4  # three root splits

        # Where each interior node lives is its level's side of the boundary.
        for level, node_ids in interior_levels(tree).items():
            resident = bool(resident_levels) and level >= TALLEST - resident_levels
            assert all((node_id < 0) == resident for node_id in node_ids)
        assert tree.resident_nodes == sum(
            len(ids) for ids in interior_levels(tree).values() if ids[0] < 0
        )

        g = oram_levels(4, resident_levels)
        summarised = resident_levels == TALLEST - 1  # the leaves' parents
        for key in (keys[0], keys[-1], 1, -5, 999):  # hits, a miss, both ends
            count, rows = spent(enclave, lambda: tree.search(key))
            assert rows == ([(key, f"v{key}")] if key in keys else [])
            assert count == lookup(g, 1, summarised)
        for low, high in ((10, 20), (11, 11), (0, 110), (57, None)):
            count, rows = spent(enclave, lambda: tree.range_scan(low, high))
            wanted = [k for k in sorted(keys) if k >= low and (high is None or k <= high)]
            assert [row[0] for row in rows] == wanted
            assert count == lookup(g, len(rows), summarised)
        for key in (keys[3], 7):  # hit and miss cost alike
            count, updated = spent(enclave, lambda: tree.update(key, (key, "new")))
            assert updated == (key in keys)
            assert count == lookup(g, 1, summarised)

        random.Random(5).shuffle(keys)
        heights = []
        for key in keys + [7]:  # the last delete meets an empty tree
            count, deleted = spent(enclave, lambda: tree.delete(key))
            assert deleted == (key in keys)
            g = max(1, oram_levels(tree.height, resident_levels))
            assert count == 6 * g + 6 + 2
            heights.append(tree.height)
        assert heights == sorted(heights, reverse=True) and heights[-1] == 0
        assert tree.resident_nodes == 0 and tree._allocator.allocated_count == 0

    def test_default_is_every_interior_level(self) -> None:
        """1 024 rows at order 8: a point lookup is the leaf and the record;
        the paper's tree also pays for three interior levels and two leaves
        of padding."""
        rows = [(key, f"v{key}") for key in range(1024)]
        counts = {}
        for resident_levels in (None, 0):
            enclave, tree = make_tree(resident_levels, capacity=1024, order=8)
            tree.bulk_load(rows)
            assert tree.height == 4
            counts[resident_levels], found = spent(enclave, lambda: tree.search(77))
            assert found == [(77, "v77")]
            if resident_levels is None:
                assert (tree.resident_levels, tree.oram_levels) == (4, 1)
                assert tree.resident_nodes == 23
        assert counts == {None: 2, 0: 7}

    def test_setting_out_of_range(self) -> None:
        for resident_levels in (-1, TALLEST):
            enclave = Enclave(cipher="null")
            with pytest.raises(ValueError, match="resident_levels"):
                ObliviousBPlusTree(
                    enclave, SCHEMA, "key", CAPACITY, order=ORDER,
                    resident_levels=resident_levels,
                )
            assert enclave.oblivious.in_use_bytes == 0
            assert not enclave.untrusted.region_names()


class TestLevelRule:
    def test_closed_form(self) -> None:
        widths = [341, 85, 21, 5, 1]  # 1 024 rows at order 8, leaf level first
        assert resident_levels_for(widths, 100, 10**9, 100) == 4  # never the leaves
        assert resident_levels_for(widths, 100, 112 * 100, 100) == 4
        assert resident_levels_for(widths, 100, 112 * 100 - 1, 100) == 3
        assert resident_levels_for(widths, 100, 27 * 100, 100) == 3
        assert resident_levels_for(widths, 100, 600, 100) == 2
        assert resident_levels_for(widths, 100, 100, 100) == 1
        assert resident_levels_for(widths, 100, 99, 100) == 0
        assert resident_levels_for([1], 100, 10**9, 100) == 0  # a leaf-only tree
        # A parent of the leaves is charged for its children's summaries.
        assert resident_levels_for(widths, 100, 27 * 100 + 85 * 250, 250) == 4
        assert resident_levels_for(widths, 100, 27 * 100 + 85 * 250 - 1, 250) == 3
        assert resident_bytes_for(widths, 4, 100, 250) == 27 * 100 + 85 * 250
        assert resident_bytes_for(widths, 3, 100, 250) == 27 * 100

    def test_levels_are_public_and_step_down_with_the_budget(self) -> None:
        """Capacity, order, block size and the free oblivious bytes fix the
        boundary — the rng and the contents do not enter — and a budget in
        which the paper's tree fits always fits the resident levels too."""
        _, paper = make_tree(0, capacity=1024, order=8)
        floor = client_state_floor(paper)
        block_size = paper.oram.block_size
        # A parent of the leaves and its summaries outgrow this block.
        parent_bytes = (1 + 2 + 8 * 8 + 7 * 8) + 8 * 2 * 8
        assert parent_bytes > block_size
        previous = None
        seen = set()
        for budget in (1 << 20, floor + 20_000, floor + 5_000, floor + 700, floor + 200, floor):
            levels = set()
            for seed in (1, 2):
                enclave, tree = make_tree(None, capacity=1024, order=8, budget=budget, seed=seed)
                for key in range(0, 300, 7 * seed):
                    tree.insert((key, str(seed)))
                levels.add(tree.resident_levels)
                charged = tree.oblivious_memory_bytes()
                assert enclave.oblivious.in_use_bytes <= budget
            (k,) = levels
            spare = budget - tree.oram.oblivious_memory_bytes()
            assert k == resident_levels_for(
                [341, 85, 21, 5, 1],
                block_size,
                min(DEFAULT_STASH_LIMIT * block_size, spare),
                parent_bytes,
            )
            assert charged == resident_bytes_for(
                [341, 85, 21, 5, 1], k, block_size, parent_bytes
            )
            assert previous is None or k <= previous
            previous = k
            seen.add(k)
        assert max(seen) == 4 and min(seen) == 0 and len(seen) >= 4
        with pytest.raises(ObliviousMemoryError):
            make_tree(0, capacity=1024, order=8, budget=floor - 1)

    def test_large_capacity_keeps_lower_levels_in_the_oram(self) -> None:
        """The ceiling is a stash's worth of nodes: 100 000 rows leave the
        bottom four levels in the ORAM however much memory is free."""
        _, tree = make_tree(None, capacity=100_000, order=8, budget=1 << 28)
        widths = tree._worst_case_widths()
        assert widths == [33333, 8333, 2083, 520, 130, 32, 8, 2, 1]
        assert tree.resident_levels == 5  # 130 + 32 + 8 + 2 + 1 <= 256 < + 520
        assert tree._resident_from == 4


class TestAccount:
    def test_charged_once_and_released(self) -> None:
        enclave, tree = make_tree(None, capacity=200, order=8)
        charged = tree.oblivious_memory_bytes()
        assert charged == resident_bytes_for(
            tree._worst_case_widths(),
            tree.resident_levels,
            tree.oram.block_size,
            max(tree.oram.block_size, (1 + 2 + 8 * 8 + 7 * 8) + 8 * 2 * 8),
        ) > tree._resident_limit * tree.oram.block_size
        assert enclave.oblivious.in_use_bytes == charged + tree.oram.oblivious_memory_bytes()
        for key in range(150):
            tree.insert((key, "x"))
        for key in range(0, 150, 2):
            tree.delete(key)
        assert tree.resident_nodes > 1
        assert enclave.oblivious.in_use_bytes == charged + tree.oram.oblivious_memory_bytes()
        tree.free()
        assert enclave.oblivious.in_use_bytes == 0
        tree.free()  # idempotent, like the ORAM's
        assert enclave.oblivious.in_use_bytes == 0

    def test_paper_kind_charges_nothing(self) -> None:
        enclave, tree = make_tree(0, capacity=200, order=8)
        assert tree.oblivious_memory_bytes() == 0
        assert enclave.oblivious.in_use_bytes == tree.oram.oblivious_memory_bytes()

    def test_count_above_the_reservation_is_refused(self) -> None:
        _, tree = make_tree(None)
        for key in range(12):
            tree.insert((key, "x"))
        tree._resident_limit = tree.resident_nodes  # as if the closed form were short
        with pytest.raises(StorageError, match="reservation"):
            for key in range(12, CAPACITY):
                tree.insert((key, "x"))

    def test_create_and_drop_through_the_engine(self) -> None:
        """Only ``"path"`` spends oblivious memory on the tree; DROP gives
        it back; a database without an index sees the whole budget."""
        budget = 1 << 20
        db = ObliDB(cipher="null", oblivious_memory_bytes=budget, seed=3)
        db.sql("CREATE TABLE flat_only (k INT, v INT) CAPACITY 256 METHOD flat")
        assert db.enclave.oblivious.free_bytes == budget
        for kind in ("path", "paper", "ring", "recursive"):
            table = db.create_table(
                "t", SCHEMA, 256, method=StorageMethod.BOTH, key_column="key", oram_kind=kind
            )
            tree = table.indexed
            assert (tree.resident_levels > 0) == (kind == "path")
            assert (tree.oblivious_memory_bytes() > 0) == (kind == "path")
            db.drop_table("t")
            assert db.enclave.oblivious.free_bytes == budget

    def test_create_table_succeeds_wherever_the_paper_kind_does(self) -> None:
        _, probe = make_tree(0, capacity=256, order=8)
        floor = client_state_floor(probe)
        levels = []
        for extra in (-1, 0, 50, 100, 400, 1_000, 10_000, 100_000):
            budget = floor + extra
            outcomes = {}
            for kind in ("paper", "path"):
                db = ObliDB(cipher="null", oblivious_memory_bytes=budget, seed=3)
                try:
                    table = db.create_table(
                        "t", SCHEMA, 256, method=StorageMethod.INDEXED,
                        key_column="key", oram_kind=kind,
                    )
                except ObliviousMemoryError:
                    outcomes[kind] = None
                else:
                    outcomes[kind] = table.indexed.resident_levels
                    assert db.enclave.oblivious.in_use_bytes <= budget
            assert (outcomes["path"] is None) == (outcomes["paper"] is None)
            if outcomes["path"] is not None:
                levels.append(outcomes["path"])
        assert len(levels) == 7  # every budget but the one below the floor
        assert levels == sorted(levels) and levels[0] == 0 and levels[-1] == 3
