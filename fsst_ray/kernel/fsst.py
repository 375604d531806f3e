"""FSST (Fast Static Symbol Table) constants and training entry point.

FSST is the string-compression scheme of Boncz, Neumann & Leis,
"FSST: Fast Random Access String Compression", VLDB vol 13 p2649; the
engine matches the reference implementation (spiraldb/fsst v0.4.3):
identical symbol tables, identical compressed bytes. The C kernel
(fsst_native.c, via native.py) trains, encodes and decodes. A trained
table is its state blob, the codec's whole state (<= 2.3 KB):
[1, n lo, n hi, has_suffix_code], n little-endian u64 symbols, n u8
lengths. The pure-Python oracle the kernel is tested against lives in
tests/fsst_oracle.py.
"""

from __future__ import annotations

from . import native

U64 = 0xFFFFFFFFFFFFFFFF

ESCAPE_CODE = 255
FSST_CODE_BITS = 9
FSST_LEN_BITS = 12
FSST_CODE_MAX = 1 << FSST_CODE_BITS  # 512
FSST_CODE_MASK = FSST_CODE_MAX - 1  # 511
FSST_CODE_BASE = 256

# Packed u16 "Code": low 9 bits = extended code (0-255 raw byte,
# 256-510 symbol codes 0-254, 511 invalid), bits 12-15 = symbol length.
CODE_UNUSED = FSST_CODE_MASK + (1 << FSST_LEN_BITS)

HASH_TABLE_SIZE = 1 << 11  # 2048 slots
PHT_MASK = HASH_TABLE_SIZE - 1

GENERATIONS = (8, 38, 68, 98, 128)
FSST_SAMPLETARGET = 1 << 14  # 16 KiB
FSST_SAMPLEMAX = 1 << 15  # 32 KiB
FSST_SAMPLELINE = 512
FSST_SAMPLE_SEED = 4637947


def fsst_hash(value: int) -> int:
    """Multiply-xor-shift hash used as sampling PRNG and PHT hash."""
    value &= U64
    return ((value * 2971215073) ^ (value >> 15)) & U64


def train(lines: list[bytes]) -> bytes:
    """Train a symbol table on `lines` with the C trainer; returns its
    state blob."""
    return native.train(lines)
