"""Tests for the fsck-style :meth:`ObliDB.verify` invariant sweep."""

from __future__ import annotations

from repro import ObliDB, StorageMethod
from repro.storage import Schema, int_column


def _workload_db(**kwargs) -> ObliDB:
    db = ObliDB(cipher="null", seed=1, **kwargs)
    db.sql("CREATE TABLE flat_t (x INT, v STR(8)) CAPACITY 8 METHOD flat")
    db.sql("CREATE TABLE both_t (k INT, v STR(8)) CAPACITY 16 METHOD both KEY k")
    for i in range(4):
        db.sql(f"INSERT INTO flat_t VALUES ({i}, 'f{i}')")
        db.sql(f"INSERT INTO both_t VALUES ({i}, 'b{i}')")
    db.sql("UPDATE flat_t SET v = 'new' WHERE x = 2")
    db.sql("DELETE FROM both_t WHERE k = 1")
    return db


class TestVerifyClean:
    def test_ok_after_mixed_workload(self):
        report = _workload_db().verify()
        assert report.ok
        assert report.issues == []
        assert report.tables_checked == 2
        assert report.blocks_verified > 0

    def test_ok_with_wal(self):
        report = _workload_db(wal=True).verify()
        assert report.ok

    def test_ok_on_empty_database(self):
        report = ObliDB(cipher="null").verify()
        assert report.ok
        assert report.tables_checked == 0


class TestVerifyFindsDamage:
    def test_tampered_table_block_is_an_issue_not_a_raise(self):
        db = _workload_db()
        block = db.enclave.untrusted.peek("table:flat_t:flat", 1)
        corrupted = block._replace(
            ciphertext=bytes([block.ciphertext[0] ^ 1]) + block.ciphertext[1:]
        )
        db.enclave.untrusted.tamper("table:flat_t:flat", 1, corrupted)
        report = db.verify()
        assert not report.ok
        assert any("flat verification failed" in issue for issue in report.issues)

    def test_missing_region_is_an_issue(self):
        db = _workload_db()
        db.enclave.untrusted.free_region("table:flat_t:flat")
        report = db.verify()
        assert any("missing" in issue for issue in report.issues)

    def test_leaked_scratch_region_is_an_issue(self):
        db = _workload_db()
        db.enclave.untrusted.allocate_region("flat#999", 4)
        report = db.verify()
        assert report.issues == ["leaked scratch region flat#999"]

    def test_uncommitted_wal_tail_is_an_issue(self):
        db = _workload_db(wal=True)
        wal = db.wal
        stranded = db.enclave.seal(b"SELECT 1", wal._aad(wal.count))
        db.enclave.untrusted.write(wal.region_name, wal.count, stranded)
        report = db.verify()
        assert any("uncommitted trailing" in issue for issue in report.issues)

    def test_tampered_wal_record_is_an_issue(self):
        db = _workload_db(wal=True)
        wal = db.wal
        db.enclave.untrusted.tamper(wal.region_name, 0, None)
        report = db.verify()
        assert any("WAL verification failed" in issue for issue in report.issues)

    def test_broken_leaf_chain_is_an_issue(self):
        """A leaf chain cut through the tree's own ORAM write keeps every
        MAC valid, and a range scan then stops early; the tree's check
        walks the structure and flags it."""
        db = ObliDB(cipher="null", seed=1)
        db.create_table(
            "t", Schema([int_column("id")]), 256, method=StorageMethod.INDEXED,
            key_column="id", oram_kind="paper",
        )
        db.insert_many("t", [(i,) for i in range(200)])
        assert db.verify().ok
        tree = db.table("t").indexed
        node_id = tree._root
        for _ in range(tree.height - 1):
            node_id = tree._load(node_id).children[0]
        leaf = tree._load(node_id)
        tree._cache.clear()
        leaf.next_leaf = -1
        tree.oram.write(node_id, tree._serialize(leaf))
        rows = db.sql("SELECT * FROM t WHERE id >= 0 AND id <= 50").rows
        assert len(rows) < 51
        report = db.verify()
        assert not report.ok
        assert any("index verification failed" in issue for issue in report.issues)
