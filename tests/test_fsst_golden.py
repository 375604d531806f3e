"""Bit-parity of both FSST paths vs the reference Rust crate: the
engine's (the C trainer's state blob from `fsst.train`, encoded and
decoded by `native.compress_bulk` / `decompress_bulk`) and the Python
oracle's (`fsst_oracle.train_oracle` and its compress).

Goldens in tests/golden/ were produced by tools/golden_gen (which links
the reference crate at /root/reference); regenerate with
`python tests/make_goldens.py`. These tests require NO Rust at runtime.
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import fsst_oracle  # noqa: E402
from golden_corpora import CORPORA  # noqa: E402

from fsst_ray.kernel import fsst, native

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def _engine(lines):
    """(symbols, lengths, compressed lines, decoded lines) on the engine
    path; symbols and lengths read from the state blob."""
    blob = fsst.train(lines)
    n = blob[1] | (blob[2] << 8)
    lengths = list(blob[4 + 8 * n : 4 + 9 * n])
    symbols = [blob[4 + 8 * i : 4 + 8 * i + lengths[i]] for i in range(n)]
    offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum([len(ln) for ln in lines], out=offsets[1:])
    data = np.frombuffer(b"".join(lines), dtype=np.uint8)
    codes, code_off = native.compress_bulk(data, offsets, blob)
    out, out_off = native.decompress_bulk(codes, code_off, blob, int(offsets[-1]))
    rows = range(len(lines))
    return (
        symbols,
        lengths,
        [codes[code_off[r] : code_off[r + 1]].tobytes() for r in rows],
        [out[out_off[r] : out_off[r + 1]].tobytes() for r in rows],
    )


def _oracle(lines):
    comp = fsst_oracle.train_oracle(lines)
    lengths = comp.lengths[: comp.n_symbols].tolist()
    symbols = [
        int(comp.symbols[i]).to_bytes(8, "little")[: lengths[i]] for i in range(comp.n_symbols)
    ]
    compressed = [comp.compress(ln) for ln in lines]
    dec = comp.decompressor()
    return symbols, lengths, compressed, [dec.decompress(c) for c in compressed]


# the engine path keeps the bare corpus name as its id
CASES = [
    pytest.param(name, path, id=name if path is _engine else f"{name}-oracle")
    for path in (_engine, _oracle)
    for name in sorted(CORPORA)
]


@pytest.mark.parametrize("name,path", CASES)
def test_golden_parity(name, path):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    lines = CORPORA[name]()

    symbols, lengths, compressed, decoded = path(lines)

    # symbol table parity (symbols as byte strings, lengths)
    assert lengths == golden["lengths"], f"{name}: symbol lengths differ"
    assert [s.hex() for s in symbols] == golden["symbols"], f"{name}: symbols differ"

    # compressed byte parity + round trip
    for i, line in enumerate(lines):
        assert compressed[i].hex() == golden["compressed"][i], f"{name}: line {i} bytes differ"
        assert decoded[i] == line, f"{name}: line {i} round-trip failed"
