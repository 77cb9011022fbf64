#!/usr/bin/env python3
"""A standalone oblivious index: point workloads, integrity, attestation.

Uses the lower-level building blocks directly — the Path ORAM, the
oblivious B+ tree, the revision-number integrity machinery, and the
attestation handshake — for applications that want an oblivious key-value
store rather than a full SQL engine (the setting of the paper's Figure 9
comparison against HIRB and the Oblix/POSUP-style indexes).

Run:  python examples/secure_index.py
"""

import random

from repro.baselines import HIRBMap, PlainIndex
from repro.enclave import (
    AttestationPlatform,
    AttestingClient,
    Enclave,
    IntegrityError,
    attest,
)
from repro.storage import IndexedStorage, Schema, int_column, str_column

ROWS = 500


def main() -> None:
    # --- 1. Attest the enclave before provisioning any data ----------------
    platform = AttestationPlatform()
    client = AttestingClient(platform, expected_code_identity="oblidb-index-v1")
    attest(platform, "oblidb-index-v1", client)
    print("attestation: enclave measurement verified\n")

    # --- 2. Build the oblivious index --------------------------------------
    enclave = Enclave(oblivious_memory_bytes=1 << 22)
    schema = Schema([int_column("key"), str_column("value", 32)])
    index = IndexedStorage(enclave, schema, "key", ROWS + 64, rng=random.Random(3))

    keys = list(range(ROWS))
    random.Random(1).shuffle(keys)
    for key in keys:
        index.insert((key, f"secret-{key:05d}"))
    print(f"loaded {ROWS} records; tree height {index.tree.height}")

    # Point lookups cost O(log^2 N) with a fixed access shape.
    snapshot = enclave.cost.snapshot()
    assert index.point_lookup(137) == [(137, "secret-00137")]
    delta = enclave.cost.delta_since(snapshot)
    print(f"point lookup: {delta.oram_accesses} ORAM accesses, "
          f"{delta.block_ios} block transfers, "
          f"~{delta.modeled_time_ms():.2f} ms modeled\n")

    # Range scan walks the leaf level (leaks only the segment size).
    rows = index.range_lookup(100, 109)
    print("range [100,109]:", [row[0] for row in rows])

    # --- 3. Compare against the Figure 9 baselines -------------------------
    hirb = HIRBMap(capacity=ROWS + 64, rng=random.Random(4), cipher="null")
    mysql = PlainIndex()
    for key in keys:
        hirb.insert(key, f"secret-{key:05d}"[:56])
        mysql.insert(key, f"secret-{key:05d}")

    def per_op(cost_model, fn, ops=20):
        snapshot = cost_model.snapshot()
        fn()
        return cost_model.delta_since(snapshot).modeled_time_ms() / ops

    oblidb_ms = per_op(enclave.cost, lambda: [index.point_lookup(k) for k in range(20)])
    hirb_ms = per_op(hirb.client.cost, lambda: [hirb.get(k) for k in range(20)])
    mysql_ms = per_op(mysql.cost, lambda: [mysql.get(k) for k in range(20)])
    print("\nmodeled ms per point lookup (miniature Figure 9):")
    print(f"  HIRB+vORAM : {hirb_ms:.4f}")
    print(f"  ObliDB     : {oblidb_ms:.4f}  ({hirb_ms / oblidb_ms:.1f}x faster than HIRB)")
    print(f"  MySQL-like : {mysql_ms:.4f}  (no security)")

    # --- 4. Integrity: the malicious OS cannot tamper undetected -----------
    oram_region = index.oram.region_name  # type: ignore[attr-defined]
    # The top levels of the bucket tree live inside the enclave; the host
    # holds (and can forge) only the buckets from this index on.  Transplant
    # the first of them over the rest of its level.
    first = (1 << index.oram.treetop_levels) - 1  # type: ignore[attr-defined]
    honest_block = enclave.untrusted.peek(oram_region, first)
    for sibling in range(first + 1, 2 * first + 1):
        enclave.untrusted.tamper(oram_region, sibling, honest_block)
    try:
        for probe in range(20):  # touch enough paths to hit the forged bucket
            index.point_lookup(probe)
    except IntegrityError as error:
        print(f"\ntamper detected as expected: {error}")
    else:
        print("\n(tampered bucket not on any probed path this run — "
              "rerun probes reach it with more lookups)")


if __name__ == "__main__":
    main()
