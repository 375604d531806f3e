"""Bit-parity of both FSST trainers vs the reference Rust crate: the
engine's `fsst.train` (the C trainer) and the Python oracle
`fsst.train_oracle`, each encoding with the Python oracle's compress.

Goldens in tests/golden/ were produced by tools/golden_gen (which links
the reference crate at /root/reference); regenerate with
`python tests/make_goldens.py`. These tests require NO Rust at runtime.
"""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from golden_corpora import CORPORA  # noqa: E402

from fsst_ray.kernel import fsst

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


# the C trainer's cases keep the bare corpus name as their id
CASES = [
    pytest.param(name, trainer, id=name if trainer is fsst.train else f"{name}-oracle")
    for trainer in (fsst.train, fsst.train_oracle)
    for name in sorted(CORPORA)
]


@pytest.mark.parametrize("name,trainer", CASES)
def test_golden_parity(name, trainer):
    golden = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    lines = CORPORA[name]()

    comp = trainer(lines)

    # symbol table parity (symbols as byte strings, lengths)
    got_lengths = comp.lengths[: comp.n_symbols].tolist()
    assert got_lengths == golden["lengths"], f"{name}: symbol lengths differ"
    got_symbols = [
        int(comp.symbols[i]).to_bytes(8, "little")[: got_lengths[i]].hex()
        for i in range(comp.n_symbols)
    ]
    assert got_symbols == golden["symbols"], f"{name}: symbols differ"

    # compressed byte parity + round trip
    dec = comp.decompressor()
    for i, line in enumerate(lines):
        compressed = comp.compress(line)
        assert compressed.hex() == golden["compressed"][i], f"{name}: line {i} bytes differ"
        assert dec.decompress(compressed) == line, f"{name}: line {i} round-trip failed"
