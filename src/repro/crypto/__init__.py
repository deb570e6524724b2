"""Cryptographic substrate: hashing, keys, signatures, MACs, nonces.

The paper (§2) assumes unforgeable digital signatures, a collision-resistant
hash function, and non-repeating nonces.  This package supplies all three,
with two signature backends (a fast HMAC-based PKI simulation and a
self-contained textbook RSA-FDH) behind one interface.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "DIGEST_SIZE": "repro.crypto.hashing",
    "digest": "repro.crypto.hashing",
    "digest_bytes": "repro.crypto.hashing",
    "hash_value": "repro.crypto.hashing",
    "KeyRegistry": "repro.crypto.keys",
    "PrivateCredential": "repro.crypto.keys",
    "NonceSource": "repro.crypto.nonces",
    "NonceTracker": "repro.crypto.nonces",
    "Signature": "repro.crypto.signatures",
    "SignatureScheme": "repro.crypto.signatures",
    "SchemeStats": "repro.crypto.signatures",
    "HmacSignatureScheme": "repro.crypto.signatures",
    "RsaSignatureScheme": "repro.crypto.signatures",
    "MacAuthenticator": "repro.crypto.authenticators",
    "ProofOfWriting": "repro.crypto.commitments",
    "make_opening": "repro.crypto.commitments",
    "make_commitment": "repro.crypto.commitments",
    "verify_opening": "repro.crypto.commitments",
    "make_mac_row": "repro.crypto.commitments",
    "row_mac_for": "repro.crypto.commitments",
}

__all__, __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
