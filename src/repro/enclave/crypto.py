"""Authenticated encryption for blocks stored outside the enclave.

ObliDB encrypts and MACs every block it writes to untrusted memory, binding
each ciphertext to the row identity it carries and to a per-block revision
number so the OS can neither tamper with, shuffle, replay, nor roll back
blocks (Section 3 of the paper).  The SGX SDK seals with AES-128-GCM
(``sgx_rijndael128GCM_encrypt``); :class:`AuthenticatedCipher` is the same
algorithm through the ``cryptography`` package's ``AESGCM``:

* confidentiality — AES-128 in counter mode under a fresh random 96-bit
  nonce per seal (so re-encrypting the same row yields a fresh ciphertext,
  which is what makes dummy writes indistinguishable from real writes);
* integrity — the 128-bit GCM tag over the ciphertext and the associated
  data (the row-identity/revision header), verified on every open.

A :class:`SealedBlock` holds the three GCM outputs as separate fields —
``nonce`` (12 B), ``ciphertext`` (as long as the plaintext), ``mac`` (the
16 B tag) — so a stored block is ``12 + n + 16`` bytes and
``AESGCM(key).decrypt(nonce, ciphertext + mac, aad)`` opens it.

Nonce discipline: nonces are random, so NIST SP 800-38D's bound of 2³² seals
per key applies.  The key here is the enclave's one sealing key, shared by
every table region, ORAM and WAL of a database, and no simulated run
approaches the bound; it is stated as a limit and not enforced.

There is no standard-library fallback: a second construction selected by what
happens to be installed would be a silent 5–7× slowdown and a second cipher
to test.  A missing ``cryptography`` package fails this module's import with a
message that names it.

The ``seal_many``/``open_many`` batch API shares nonce generation and
attribute lookups across a run of blocks, taking one *per-block* associated
data value per plaintext/ciphertext: the blocks of one batch are typically
bound to different slots (and revisions) of a region — a flat-table chunk, a
Path ORAM root→leaf path, a Ring ORAM slot set — so a whole path is sealed
or opened in one pass without weakening the identity binding.

``NullCipher`` implements the same interface without byte-level work; it is
used by large benchmarks where only access counts matter.  It still binds
associated data so integrity tests behave identically.
"""

from __future__ import annotations

import hashlib
import hmac
import os
from typing import NamedTuple, Protocol, Sequence

try:
    from cryptography.exceptions import InvalidTag
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM
except ImportError as exc:  # pragma: no cover - the package is a hard requirement
    raise ImportError(
        "repro.enclave.crypto seals blocks with AES-128-GCM from the "
        "'cryptography' package, which is not installed "
        "(pip install -r requirements.txt); there is no fallback cipher"
    ) from exc

from .errors import IntegrityError

_MAC_SIZE = 16
_NONCE_SIZE = 12
_KEY_SIZE = 16  # AES-128, as sgx_rijndael128GCM_encrypt


class SealedBlock(NamedTuple):
    """An encrypted, MACed block as it lives in untrusted memory.

    Only ``ciphertext`` length is observable to the adversary; the trace layer
    never exposes contents.  ``nonce`` randomises every encryption.  A
    ``NamedTuple`` rather than a dataclass: blocks are allocated once per
    observable access, so construction cost is on the hot path.
    """

    nonce: bytes
    ciphertext: bytes
    mac: bytes

    def size(self) -> int:
        """Total stored size in bytes (ciphertext plus header overhead)."""
        return len(self.nonce) + len(self.ciphertext) + len(self.mac)


#: ``_new_tuple(SealedBlock, (nonce, ciphertext, mac))`` is the block
#: ``SealedBlock(nonce, ciphertext, mac)`` builds, without the Python-level
#: ``__new__`` a NamedTuple call runs; the batch paths build one per block.
_new_tuple = tuple.__new__


class CipherSuite(Protocol):
    """Interface every block cipher used by the enclave must provide."""

    def seal(self, plaintext: bytes, associated_data: bytes = b"") -> SealedBlock:
        """Encrypt and authenticate ``plaintext``, binding ``associated_data``."""
        ...

    def open(self, block: SealedBlock, associated_data: bytes = b"") -> bytes:
        """Verify and decrypt ``block``; raise :class:`IntegrityError` on tamper."""
        ...

    def seal_many(
        self, plaintexts: Sequence[bytes], associated_data: Sequence[bytes]
    ) -> list[SealedBlock]:
        """Batch :meth:`seal` over parallel plaintext/AAD sequences."""
        ...

    def open_many(
        self, blocks: Sequence[SealedBlock], associated_data: Sequence[bytes]
    ) -> list[bytes]:
        """Batch :meth:`open` over parallel block/AAD sequences."""
        ...


class AuthenticatedCipher:
    """AES-128-GCM with a fresh random 96-bit nonce per seal."""

    def __init__(self, key: bytes | None = None) -> None:
        if key is None:
            key = os.urandom(32)
        if len(key) < 16:
            raise ValueError("key must be at least 16 bytes")
        self._aead = AESGCM(
            hashlib.blake2b(b"enc", key=key, digest_size=_KEY_SIZE).digest()
        )

    # ------------------------------------------------------------------
    # Scalar API
    # ------------------------------------------------------------------
    def seal(self, plaintext: bytes, associated_data: bytes = b"") -> SealedBlock:
        nonce = os.urandom(_NONCE_SIZE)
        sealed = self._aead.encrypt(nonce, plaintext, associated_data)
        return SealedBlock(nonce, sealed[:-_MAC_SIZE], sealed[-_MAC_SIZE:])

    def open(self, block: SealedBlock, associated_data: bytes = b"") -> bytes:
        nonce, ciphertext, mac = block
        try:
            return self._aead.decrypt(nonce, ciphertext + mac, associated_data)
        except (InvalidTag, ValueError):
            # ValueError: a nonce outside GCM's 8–128 bytes — as much the
            # host's doing as a bad tag, so the same integrity failure.
            raise IntegrityError("block MAC verification failed") from None

    # ------------------------------------------------------------------
    # Batch API: one nonce draw and pre-bound lookups for a run of blocks
    # ------------------------------------------------------------------
    def seal_many(
        self, plaintexts: Sequence[bytes], associated_data: Sequence[bytes]
    ) -> list[SealedBlock]:
        count = len(plaintexts)
        if len(associated_data) != count:
            raise ValueError("seal_many needs one associated_data per plaintext")
        drawn = os.urandom(_NONCE_SIZE * count)
        nonces = [
            drawn[offset : offset + _NONCE_SIZE]
            for offset in range(0, _NONCE_SIZE * count, _NONCE_SIZE)
        ]
        return [
            _new_tuple(SealedBlock, (nonce, sealed[:-_MAC_SIZE], sealed[-_MAC_SIZE:]))
            for nonce, sealed in zip(
                nonces, map(self._aead.encrypt, nonces, plaintexts, associated_data)
            )
        ]

    def open_many(
        self, blocks: Sequence[SealedBlock], associated_data: Sequence[bytes]
    ) -> list[bytes]:
        if len(associated_data) != len(blocks):
            raise ValueError("open_many needs one associated_data per block")
        decrypt = self._aead.decrypt
        try:
            return [
                decrypt(nonce, ciphertext + mac, aad)
                for (nonce, ciphertext, mac), aad in zip(blocks, associated_data)
            ]
        except (InvalidTag, ValueError):
            raise IntegrityError("block MAC verification failed") from None


class NullCipher:
    """Cost-only stand-in: no byte-level crypto, same tamper-detection API.

    Stores the plaintext directly (the adversary model is enforced by the
    trace layer, not by inspecting Python objects) and a cheap checksum over
    plaintext plus associated data so integrity-violation tests still fire.
    Used by benchmarks where encrypting megabytes in pure Python would swamp
    the access-pattern costs the experiment is about.
    """

    def seal(self, plaintext: bytes, associated_data: bytes = b"") -> SealedBlock:
        mac = hashlib.blake2b(
            associated_data + b"\x00" + plaintext, digest_size=_MAC_SIZE
        ).digest()
        return SealedBlock(nonce=b"", ciphertext=plaintext, mac=mac)

    def open(self, block: SealedBlock, associated_data: bytes = b"") -> bytes:
        expected = hashlib.blake2b(
            associated_data + b"\x00" + block.ciphertext, digest_size=_MAC_SIZE
        ).digest()
        if not hmac.compare_digest(expected, block.mac):
            raise IntegrityError("block checksum verification failed")
        return block.ciphertext

    def seal_many(
        self, plaintexts: Sequence[bytes], associated_data: Sequence[bytes]
    ) -> list[SealedBlock]:
        if len(associated_data) != len(plaintexts):
            raise ValueError("seal_many needs one associated_data per plaintext")
        blake2b = hashlib.blake2b
        return [
            _new_tuple(
                SealedBlock,
                (
                    b"",
                    plaintext,
                    blake2b(aad + b"\x00" + plaintext, digest_size=_MAC_SIZE).digest(),
                ),
            )
            for plaintext, aad in zip(plaintexts, associated_data)
        ]

    def open_many(
        self, blocks: Sequence[SealedBlock], associated_data: Sequence[bytes]
    ) -> list[bytes]:
        if len(associated_data) != len(blocks):
            raise ValueError("open_many needs one associated_data per block")
        blake2b = hashlib.blake2b
        compare = hmac.compare_digest
        out: list[bytes] = []
        for (_nonce, ciphertext, mac), aad in zip(blocks, associated_data):
            expected = blake2b(aad + b"\x00" + ciphertext, digest_size=_MAC_SIZE).digest()
            if not compare(expected, mac):
                raise IntegrityError("block checksum verification failed")
            out.append(ciphertext)
        return out
