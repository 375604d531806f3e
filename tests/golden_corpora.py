"""Deterministic corpora used for bit-parity golden tests of the FSST kernel.

Each corpus is a list of byte strings ("lines", mirroring the reference's
Vec<&[u8]> inputs). Token-family corpora serialize int32 token arrays
little-endian, exactly as the engine's serializer does. Seeded numpy
RNGs only — no wall clock anywhere.
"""

from __future__ import annotations

import os

import numpy as np

REFERENCE_FIXTURES = "/root/reference/tests/fixtures"
# copies of the two reference text fixtures, rebuilt byte-exactly by
# decoding every compressed line of tests/golden/<name>.json
VENDORED_FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def _fixture_lines(name: str) -> list[bytes]:
    root = REFERENCE_FIXTURES if os.path.isdir(REFERENCE_FIXTURES) else VENDORED_FIXTURES
    with open(os.path.join(root, name), "rb") as f:
        return f.read().split(b"\n")


def _tok_bytes(arr) -> bytes:
    return np.asarray(arr, dtype="<i4").tobytes()


def corpus_declaration() -> list[bytes]:
    # reference fixture (public-domain text), split on newlines like the
    # file_compressor example does
    return _fixture_lines("declaration.txt")


def corpus_art_of_war() -> list[bytes]:
    return _fixture_lines("art_of_war.txt")


def corpus_zipf_tokens() -> list[bytes]:
    rng = np.random.default_rng(42)
    lines = []
    for _ in range(200):
        n = int(rng.integers(16, 256))
        toks = rng.zipf(1.3, size=n).astype(np.int64) % 50_000
        lines.append(_tok_bytes(toks))
    return lines


def corpus_zeros_tokens() -> list[bytes]:
    rng = np.random.default_rng(7)
    lines = []
    for i in range(100):
        if i % 3 == 0:
            lines.append(_tok_bytes(np.zeros(int(rng.integers(1, 200)), dtype=np.int32)))
        else:
            pat = np.array([0, 1, 2, 3, 4, 0], dtype=np.int32)
            lines.append(_tok_bytes(np.tile(pat, int(rng.integers(1, 30)))))
    return lines


def corpus_cyclic_tokens() -> list[bytes]:
    rng = np.random.default_rng(13)
    motif = rng.integers(0, 1000, size=64).astype(np.int32)
    lines = []
    for _ in range(10):
        reps = int(rng.integers(8, 64))
        lines.append(_tok_bytes(np.tile(motif, reps)))
    return lines


def corpus_highbyte_tokens() -> list[bytes]:
    rng = np.random.default_rng(99)
    return [
        _tok_bytes(rng.integers(1 << 24, 1 << 31, size=int(rng.integers(8, 128))))
        for _ in range(50)
    ]


def corpus_constant_tokens() -> list[bytes]:
    return [_tok_bytes(np.full(64, 7, dtype=np.int32)) for _ in range(50)]


def corpus_random_tokens() -> list[bytes]:
    rng = np.random.default_rng(1234)
    return [
        _tok_bytes(rng.integers(0, 1 << 31, size=int(rng.integers(0, 64))))
        for _ in range(80)
    ]


def corpus_edge_lines() -> list[bytes]:
    # empty lines, 1..17-byte lines, all zeros, all 0xFF, exact 8/16 bytes
    lines = [b"", b"\x00", b"\xff" * 9, bytes(range(17)), b"a" * 8, b"ab" * 8]
    lines += [b"", b"x"]
    lines += [bytes([i % 251 for i in range(k)]) for k in range(1, 18)]
    lines += [b"\x00" * 40, b"hello hello hello hello hello"]
    return lines


def corpus_tiny() -> list[bytes]:
    text = b"hello hello hello hello hello"
    return [text] * 5


CORPORA = {
    "declaration": corpus_declaration,
    "art_of_war": corpus_art_of_war,
    "zipf_tokens": corpus_zipf_tokens,
    "zeros_tokens": corpus_zeros_tokens,
    "cyclic_tokens": corpus_cyclic_tokens,
    "highbyte_tokens": corpus_highbyte_tokens,
    "constant_tokens": corpus_constant_tokens,
    "random_tokens": corpus_random_tokens,
    "edge_lines": corpus_edge_lines,
    "tiny": corpus_tiny,
}


def pack(lines: list[bytes]) -> bytes:
    """Binary format consumed by tools/golden_gen: u32 count | u32 lens | bytes."""
    out = bytearray()
    out += len(lines).to_bytes(4, "little")
    for ln in lines:
        out += len(ln).to_bytes(4, "little")
    for ln in lines:
        out += ln
    return bytes(out)
