"""Unit tests pinning FSST kernel semantics — ports of the reference's
correctness cases (reference tests/correctness.rs, src/builder.rs:854-934
and doctests src/lib.rs:313-323, 434-450) to byte/token inputs, run on
the engine path (C trainer, state blob, C encode/decode), and the C
trainer and encoder held byte-equal to the Python oracle."""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import fsst_oracle  # noqa: E402

from fsst_ray.kernel import fsst, native


def _compress_rows(state: bytes, lines: list[bytes]) -> list[bytes]:
    offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum([len(ln) for ln in lines], out=offsets[1:])
    data = np.frombuffer(b"".join(lines), dtype=np.uint8)
    codes, off = native.compress_bulk(data, offsets, state)
    return [codes[off[r] : off[r + 1]].tobytes() for r in range(len(lines))]


def compress(state: bytes, line: bytes) -> bytes:
    return _compress_rows(state, [line])[0]


def decompress(state: bytes, codes: bytes) -> bytes:
    offsets = np.array([0, len(codes)], dtype=np.int64)
    out, _ = native.decompress_bulk(np.frombuffer(codes, dtype=np.uint8), offsets, state)
    return out.tobytes()


def test_basic_roundtrip():
    # mirror of test_basic (tests/correctness.rs:16-23)
    text = (
        b"This is a test paragraph with some repeated words words words "
        b"and the usual english patterns the the the of of and and"
    )
    state = fsst.train([text])
    assert decompress(state, compress(state, text)) == text
    # compression kicks in once symbols clear the count cutoff
    state5 = fsst.train([text] * 20)
    assert len(compress(state5, text)) < len(text)


def test_train_on_empty():
    # mirror of test_train_on_empty (tests/correctness.rs:25-34)
    state = fsst.train([])
    assert state == bytes([1, 0, 0, 0])  # no symbols
    data = b"anything at all"
    compressed = compress(state, data)
    # all-escape: exactly 2x size, alternating [255, byte]
    assert len(compressed) == 2 * len(data)
    assert compressed[::2] == b"\xff" * len(data)
    assert compressed[1::2] == data
    assert decompress(state, compressed) == data


def test_empty_corpus_lines():
    state = fsst.train([b"", b"", b""])
    assert compress(state, b"") == b""
    assert decompress(state, b"") == b""


def test_one_byte_handbuilt():
    # mirror of test_one_byte (tests/correctness.rs:36-47) + doctest
    # src/lib.rs:313-323: a single inserted symbol compresses to [0]
    builder = fsst_oracle.CompressorBuilder()
    sym = int.from_bytes(b"hello\x00\x00\x00", "little")
    assert builder.insert(sym, 5)
    comp = builder.build()
    assert comp.compress(b"hello") == b"\x00"
    assert comp.decompressor().decompress(b"\x00") == b"hello"
    state = comp.symbol_table_bytes()
    assert compress(state, b"hello") == b"\x00"
    assert decompress(state, b"\x00") == b"hello"


def test_eight_byte_symbol_code_zero():
    # doctest src/lib.rs:434-450
    builder = fsst_oracle.CompressorBuilder()
    sym = int.from_bytes(b"aaaaaaaa", "little")
    assert builder.insert(sym, 8)
    comp = builder.build()
    assert comp.compress(b"aaaaaaaa") == b"\x00"
    assert compress(comp.symbol_table_bytes(), b"aaaaaaaa") == b"\x00"


def test_zeros():
    # mirror of test_zeros (tests/correctness.rs:49-55): the all-zero
    # symbol special case (src/lib.rs:52-69)
    corpus = [b"\x00" * 64, b"\x00\x01\x02\x03\x04\x00" * 8]
    state = fsst.train(corpus)
    for line in corpus + [b"\x00", b"\x00" * 7]:
        assert decompress(state, compress(state, line)) == line


def test_large_cyclic():
    # mirror of test_large (tests/correctness.rs:57-71): small training
    # corpus, much larger compress input
    motif = bytes(range(48)) * 4
    train_corpus = [motif * 50]
    state = fsst.train(train_corpus)
    big = motif * 4096  # ~780 KB
    compressed = compress(state, big)
    assert len(compressed) < len(big) // 2
    assert decompress(state, compressed) == big


def test_exact_escape_sequence():
    # mirror of test_builder (src/builder.rs:876-892): unseen bytes
    # escape as [255, b] pairs; trained text has no escapes
    text = b"hello hello hello hello hello"
    state = fsst.train([text] * 5)
    assert 255 not in compress(state, text)
    unseen = compress(state, b"xyz123")
    assert unseen == bytes(
        b for ch in b"xyz123" for b in (255, ch)
    )
    assert decompress(state, unseen) == b"xyz123"


def test_training_determinism():
    # FIXTURES.md: training twice on the same input is bit-identical
    rng = np.random.default_rng(5)
    lines = [
        (rng.zipf(1.5, size=int(rng.integers(10, 200))) % 1000)
        .astype("<i4")
        .tobytes()
        for _ in range(500)
    ]
    assert fsst.train(lines) == fsst.train(lines)


def test_worst_case_bound():
    # compressed size never exceeds 2x input (src/lib.rs:523-525)
    rng = np.random.default_rng(9)
    state = fsst.train([rng.integers(0, 256, 100).astype(np.uint8).tobytes()])
    for _ in range(20):
        data = rng.integers(0, 256, int(rng.integers(0, 200))).astype(np.uint8).tobytes()
        compressed = compress(state, data)
        assert len(compressed) <= 2 * len(data)
        assert decompress(state, compressed) == data


def test_randomized_roundtrip_property():
    # fuzz_compress / fuzz_train analogue with fixed seeds
    rng = np.random.default_rng(1234)
    for trial in range(10):
        n_lines = int(rng.integers(1, 50))
        lines = [
            rng.integers(0, 256, int(rng.integers(0, 300))).astype(np.uint8).tobytes()
            for _ in range(n_lines)
        ]
        state = fsst.train(lines)  # must never crash
        for line in lines:
            assert decompress(state, compress(state, line)) == line


def test_train_never_panics_on_adversarial_bytes():
    """Mirror of /root/reference/fuzz/fuzz_targets/fuzz_train.rs:5-7:
    training on arbitrary byte inputs must never raise, and the trained
    table must round-trip the training data. Covers all-escape bytes,
    >16 KiB single lines (beyond FSST_SAMPLEMAX), empty mixes, single
    repeated bytes, and dense byte-space sweeps."""
    rng = np.random.default_rng(0xF5A7)
    adversarial = [
        [b""],
        [b"", b"", b""],
        [bytes(range(256)) * 80],                      # every byte, 20 KiB
        [b"\xff" * 40000],                             # one line > sample max
        [bytes([rng.integers(0, 256)]) * 3 for _ in range(300)],
        [rng.integers(0, 256, 17000).astype(np.uint8).tobytes()],  # random > 16 KiB
        [b"\x00" * 5, b"", b"\x00\x01" * 9000, b"ab"],
        [rng.integers(0, 2, 1000).astype(np.uint8).tobytes() for _ in range(64)],
    ]
    for lines in adversarial:
        state = fsst.train(lines)  # must never raise
        for line in lines:
            assert decompress(state, compress(state, line)) == line


# ---- C trainer vs the Python oracle, byte for byte ----


def _first_picks(n_lines: int, k: int) -> list[int]:
    """Line numbers of make_sample's first k picks: each pick draws its
    line from one step of the fsst_hash chain and its chunk from the
    next, whatever the line lengths."""
    rnd = fsst.fsst_hash(fsst.FSST_SAMPLE_SEED)
    picks = []
    for _ in range(k):
        rnd = fsst.fsst_hash(rnd)
        picks.append(rnd % n_lines)
        rnd = fsst.fsst_hash(rnd)
    return picks


def _zipf_lines(rng, n, width, vocab):
    return [
        (rng.zipf(1.3, int(rng.integers(0, width))) % vocab).astype("<i4").tobytes()
        for _ in range(n)
    ]


TRAIN_CASES = {
    "empty_input": lambda rng: [],
    "only_empty_lines": lambda rng: [b""] * 50,
    "small_total": lambda rng: _zipf_lines(rng, 40, 60, 500),  # < 16 KiB: every line
    # only line 0 has bytes: every other pick scans to the end and wraps
    "one_line_then_empties": lambda rng: [b"abcdefghij" * 2000] + [b""] * 999,
    # empty runs at both ends: picks in the tail run wrap to line 60
    "empty_runs_across_wrap": lambda rng: [b""] * 60
    + [rng.integers(97, 123, 300).astype(np.uint8).tobytes() for _ in range(80)]
    + [b""] * 60,
    "all_escape_bytes": lambda rng: [b"\xff" * 700] * 30,
    "every_byte_value": lambda rng: [bytes(range(256)) * 3 for _ in range(30)],
    "long_lines": lambda rng: [
        rng.integers(0, 8, int(rng.integers(513, 5000))).astype(np.uint8).tobytes()
        for _ in range(12)
    ],
    "fills_255": lambda rng: [rng.integers(0, 256, 512).astype(np.uint8).tobytes() for _ in range(64)],
    "pht_collisions": lambda rng: _zipf_lines(rng, 400, 200, 5000),
    "zero_bytes": lambda rng: [b"\x00" * 900, b"\x00\x01" * 5000, b"", b"\x00"],
}


@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
def test_c_trainer_matches_oracle(case, monkeypatch):
    lines = TRAIN_CASES[case](np.random.default_rng(len(case)))
    rejected = []
    pht_insert = fsst_oracle.CompressorBuilder._pht_insert

    def counting_insert(self, symbol, length, code):
        ok = pht_insert(self, symbol, length, code)
        rejected.append(not ok)
        return ok

    monkeypatch.setattr(fsst_oracle.CompressorBuilder, "_pht_insert", counting_insert)
    comp = fsst_oracle.train_oracle(lines)
    oracle = comp.symbol_table_bytes()
    assert fsst.train(lines) == oracle
    assert _compress_rows(oracle, lines) == [comp.compress(ln) for ln in lines]
    # each case reaches the shape it is named for
    n_symbols = oracle[1] | (oracle[2] << 8)
    total = sum(map(len, lines))
    if case == "fills_255":
        assert n_symbols == 255
    if case == "pht_collisions":
        assert any(rejected)
    if case == "small_total":
        assert 0 < total < fsst.FSST_SAMPLETARGET
    if case == "empty_runs_across_wrap":
        assert total >= fsst.FSST_SAMPLETARGET
        assert any(p >= 140 for p in _first_picks(len(lines), 32))
    if case == "long_lines":
        assert total >= fsst.FSST_SAMPLETARGET
        assert min(map(len, lines)) > fsst.FSST_SAMPLELINE
    if case in ("empty_input", "only_empty_lines"):
        assert n_symbols == 0


def test_c_trainer_fuzz_matches_oracle():
    """Seeded mix of line counts, lengths and byte alphabets, spanning
    both sampling paths (under and over 16 KiB in total): the C blob
    equals the oracle's, and the C encoder loaded from it writes the
    oracle's bytes on every line."""
    rng = np.random.default_rng(0x7A1)
    for trial in range(40):
        n = int(rng.integers(0, 120))
        alphabet = int(rng.choice([2, 4, 26, 256]))
        width = int(rng.choice([8, 64, 600, 2000]))
        lines = [
            b"" if rng.random() < 0.2
            else rng.integers(0, alphabet, int(rng.integers(1, width))).astype(np.uint8).tobytes()
            for _ in range(n)
        ]
        comp = fsst_oracle.train_oracle(lines)
        state = fsst.train(lines)
        assert state == comp.symbol_table_bytes(), trial
        assert _compress_rows(state, lines) == [comp.compress(ln) for ln in lines], trial


def test_make_sample_is_linear_in_lines():
    """A pick looks only as far as the next non-empty line: sampling
    100k lines of 20 B takes milliseconds (the list-per-pick scan took
    seconds, O(picks x lines)); the bound leaves a 50x margin."""
    lines = [b"abcdefghijklmnopqrst"] * 100_000
    t0 = time.perf_counter()
    sample = fsst_oracle.make_sample(lines)
    assert time.perf_counter() - t0 < 0.5
    assert sum(map(len, sample)) >= fsst.FSST_SAMPLETARGET
    assert fsst.train(lines) == fsst_oracle.train_oracle(lines).symbol_table_bytes()
