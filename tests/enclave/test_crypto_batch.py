"""Round-trip, batch-API and standard-conformance tests for the cipher layer.

``AuthenticatedCipher`` is AES-128-GCM from the ``cryptography`` package: a
published known-answer vector and interop both ways with a bare ``AESGCM``
under the derived key show the class *is* the standard (not a wrapper that
reorders fields), every length round-trips scalar and batched, associated
data binds per block, and any tampered or malformed component raises
:class:`IntegrityError`.
"""

from __future__ import annotations

import hashlib

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from repro.enclave import AuthenticatedCipher, IntegrityError, NullCipher
from repro.enclave.crypto import SealedBlock

#: Lengths around multiples of the AES block (16 B): empty, single byte,
#: below/at/above a boundary, and a large ragged tail.
LENGTHS = [0, 1, 2, 15, 16, 17, 26, 63, 64, 65, 127, 128, 129, 1000]

KEY = b"k" * 32


def derived_key(key: bytes) -> bytes:
    """The AES-128 key ``AuthenticatedCipher(key)`` seals under."""
    return hashlib.blake2b(b"enc", key=key, digest_size=16).digest()


def patterned(length: int) -> bytes:
    return bytes(i * 37 % 256 for i in range(length))


@pytest.mark.parametrize("cipher_factory", [
    lambda: AuthenticatedCipher(b"k" * 32),
    NullCipher,
], ids=["authenticated", "null"])
class TestRoundTrip:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_roundtrip_every_length(self, cipher_factory, length: int) -> None:
        cipher = cipher_factory()
        plaintext = patterned(length)
        sealed = cipher.seal(plaintext, b"aad")
        assert cipher.open(sealed, b"aad") == plaintext

    def test_roundtrip_empty_aad(self, cipher_factory) -> None:
        cipher = cipher_factory()
        assert cipher.open(cipher.seal(b"payload")) == b"payload"

    def test_wrong_aad_rejected(self, cipher_factory) -> None:
        cipher = cipher_factory()
        sealed = cipher.seal(b"payload", b"row:1")
        with pytest.raises(IntegrityError):
            cipher.open(sealed, b"row:2")

    @pytest.mark.parametrize("length", [1, 26, 64, 129])
    def test_tampered_ciphertext_rejected(self, cipher_factory, length: int) -> None:
        cipher = cipher_factory()
        sealed = cipher.seal(patterned(length), b"aad")
        corrupted = SealedBlock(
            nonce=sealed.nonce,
            ciphertext=bytes([sealed.ciphertext[0] ^ 1]) + sealed.ciphertext[1:],
            mac=sealed.mac,
        )
        with pytest.raises(IntegrityError):
            cipher.open(corrupted, b"aad")

    def test_tampered_mac_rejected(self, cipher_factory) -> None:
        cipher = cipher_factory()
        sealed = cipher.seal(b"payload", b"aad")
        corrupted = SealedBlock(
            nonce=sealed.nonce,
            ciphertext=sealed.ciphertext,
            mac=bytes([sealed.mac[0] ^ 1]) + sealed.mac[1:],
        )
        with pytest.raises(IntegrityError):
            cipher.open(corrupted, b"aad")

    def test_batch_roundtrip(self, cipher_factory) -> None:
        cipher = cipher_factory()
        plaintexts = [patterned(length) for length in LENGTHS]
        aads = [f"slot:{i}".encode() for i in range(len(plaintexts))]
        sealed = cipher.seal_many(plaintexts, aads)
        assert cipher.open_many(sealed, aads) == plaintexts

    def test_batch_binds_aad_per_block(self, cipher_factory) -> None:
        cipher = cipher_factory()
        sealed = cipher.seal_many([b"a", b"b"], [b"aad0", b"aad1"])
        with pytest.raises(IntegrityError):
            cipher.open_many(sealed, [b"aad1", b"aad0"])  # swapped

    def test_batch_and_scalar_interoperate(self, cipher_factory) -> None:
        """Blocks sealed scalar open batched and vice versa."""
        cipher = cipher_factory()
        scalar = cipher.seal(b"payload", b"aad")
        assert cipher.open_many([scalar], [b"aad"]) == [b"payload"]
        [batched] = cipher.seal_many([b"payload"], [b"aad"])
        assert cipher.open(batched, b"aad") == b"payload"

    def test_batch_length_mismatch_rejected(self, cipher_factory) -> None:
        cipher = cipher_factory()
        with pytest.raises(ValueError):
            cipher.seal_many([b"a", b"b"], [b"aad"])
        sealed = cipher.seal_many([b"a"], [b"aad"])
        with pytest.raises(ValueError):
            cipher.open_many(sealed, [])

    def test_empty_batch(self, cipher_factory) -> None:
        cipher = cipher_factory()
        assert cipher.seal_many([], []) == []
        assert cipher.open_many([], []) == []


class TestAuthenticatedProperties:
    def test_tampered_nonce_rejected(self) -> None:
        cipher = AuthenticatedCipher(b"k" * 32)
        sealed = cipher.seal(b"payload", b"aad")
        corrupted = SealedBlock(
            nonce=bytes([sealed.nonce[0] ^ 1]) + sealed.nonce[1:],
            ciphertext=sealed.ciphertext,
            mac=sealed.mac,
        )
        with pytest.raises(IntegrityError):
            cipher.open(corrupted, b"aad")

    def test_batch_ciphertexts_randomised(self) -> None:
        """Equal plaintexts in one batch must still produce fresh nonces and
        distinct ciphertexts (dummy-write indistinguishability)."""
        cipher = AuthenticatedCipher(b"k" * 32)
        a, b = cipher.seal_many([b"same", b"same"], [b"aad", b"aad"])
        assert a.nonce != b.nonce
        assert a.ciphertext != b.ciphertext

    def test_every_length_roundtrips_scalar_and_batched(self) -> None:
        cipher = AuthenticatedCipher(KEY)
        plaintexts = [patterned(length) for length in range(1001)]
        aads = [b"slot:%d" % length for length in range(1001)]
        for plaintext, aad in zip(plaintexts, aads):
            sealed = cipher.seal(plaintext, aad)
            assert sealed.size() == 12 + len(plaintext) + 16
            assert cipher.open(sealed, aad) == plaintext
        batch = cipher.seal_many(plaintexts, aads)
        assert [block.size() for block in batch] == [12 + n + 16 for n in range(1001)]
        assert cipher.open_many(batch, aads) == plaintexts


#: McGrew & Viega, "The Galois/Counter Mode of Operation", test case 4
#: (AES-128, 60-byte plaintext, 20-byte associated data, 96-bit IV).
GCM_KEY = bytes.fromhex("feffe9928665731c6d6a8f9467308308")
GCM_IV = bytes.fromhex("cafebabefacedbaddecaf888")
GCM_AAD = bytes.fromhex("feedfacedeadbeeffeedfacedeadbeefabaddad2")
GCM_PLAINTEXT = bytes.fromhex(
    "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
    "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39"
)
GCM_CIPHERTEXT = bytes.fromhex(
    "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e"
    "21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091"
)
GCM_TAG = bytes.fromhex("5bc94fbc3221a5db94fae95ae7121a47")


class TestIsTheStandard:
    def test_published_aes128_gcm_vector(self) -> None:
        """The library call the class makes — ``AESGCM(key).encrypt(nonce,
        data, aad)`` and its ``decrypt`` — is the published algorithm:
        ciphertext ‖ 16-byte tag.  The interop tests below carry that over
        to the class and its ``SealedBlock(nonce, ciphertext, mac)`` split."""
        aead = AESGCM(GCM_KEY)
        assert aead.encrypt(GCM_IV, GCM_PLAINTEXT, GCM_AAD) == GCM_CIPHERTEXT + GCM_TAG
        assert aead.decrypt(GCM_IV, GCM_CIPHERTEXT + GCM_TAG, GCM_AAD) == GCM_PLAINTEXT

    @pytest.mark.parametrize("length", LENGTHS)
    def test_bare_aesgcm_opens_what_the_class_seals(self, length: int) -> None:
        plaintext = patterned(length)
        cipher = AuthenticatedCipher(KEY)
        bare = AESGCM(derived_key(KEY))
        for nonce, ciphertext, mac in (
            cipher.seal(plaintext, b"aad"),
            *cipher.seal_many([plaintext], [b"aad"]),
        ):
            assert bare.decrypt(nonce, ciphertext + mac, b"aad") == plaintext

    @pytest.mark.parametrize("length", LENGTHS)
    def test_class_opens_what_bare_aesgcm_seals(self, length: int) -> None:
        plaintext = patterned(length)
        nonce = b"n" * 12
        sealed = AESGCM(derived_key(KEY)).encrypt(nonce, plaintext, b"aad")
        block = SealedBlock(nonce, sealed[:-16], sealed[-16:])
        cipher = AuthenticatedCipher(KEY)
        assert cipher.open(block, b"aad") == plaintext
        assert cipher.open_many([block], [b"aad"]) == [plaintext]


def flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


class TestMalformedBlocksAreIntegrityFailures:
    """Whatever the host hands back — a flipped bit anywhere, a nonce or tag
    of the wrong length — is an ``IntegrityError``, never the ``ValueError``
    or ``InvalidTag`` the library raises."""

    AAD = b"slot:3:rev:9"

    @pytest.mark.parametrize(
        "damage",
        [
            lambda b: b._replace(nonce=flip(b.nonce)),
            lambda b: b._replace(ciphertext=flip(b.ciphertext)),
            lambda b: b._replace(mac=flip(b.mac)),
            lambda b: b._replace(nonce=b.nonce[:4]),
            lambda b: b._replace(nonce=b""),
            lambda b: b._replace(mac=b.mac[:8]),
            lambda b: b._replace(ciphertext=b"", mac=b.mac[:8]),
        ],
        ids=[
            "nonce-bit", "ciphertext-bit", "tag-bit",
            "nonce-4-bytes", "nonce-empty", "tag-8-bytes", "shorter-than-a-tag",
        ],
    )
    def test_damaged_block_rejected(self, damage) -> None:
        cipher = AuthenticatedCipher(KEY)
        good = cipher.seal(patterned(129), self.AAD)
        bad = damage(good)
        with pytest.raises(IntegrityError, match="block MAC verification failed"):
            cipher.open(bad, self.AAD)
        with pytest.raises(IntegrityError, match="block MAC verification failed"):
            cipher.open_many([good, bad, good], [self.AAD] * 3)

    def test_flipped_associated_data_rejected(self) -> None:
        cipher = AuthenticatedCipher(KEY)
        good = cipher.seal(patterned(129), self.AAD)
        with pytest.raises(IntegrityError):
            cipher.open(good, flip(self.AAD))
        with pytest.raises(IntegrityError):
            cipher.open_many([good, good], [self.AAD, flip(self.AAD)])

    def test_integrity_error_hides_the_library_exception(self) -> None:
        cipher = AuthenticatedCipher(KEY)
        bad = cipher.seal(b"payload")._replace(nonce=b"1234")
        with pytest.raises(IntegrityError) as caught:
            cipher.open(bad)
        assert caught.value.__cause__ is None
        assert caught.value.__suppress_context__
