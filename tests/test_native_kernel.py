"""The C kernel must produce byte-identical output to the Python oracle
(tests/fsst_oracle.py)."""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent))
import fsst_oracle  # noqa: E402
from golden_corpora import CORPORA  # noqa: E402

from fsst_ray.kernel import fsst, native


def _pack_rows(lines):
    offsets = np.zeros(len(lines) + 1, dtype=np.int64)
    np.cumsum([len(ln) for ln in lines], out=offsets[1:])
    data = np.frombuffer(b"".join(lines), dtype=np.uint8)
    return data, offsets


def test_native_available():
    assert native.get_lib() is not None, "C kernel failed to build (cc missing?)"


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_native_matches_oracle(name):
    lines = CORPORA[name]()
    state = fsst.train(lines)
    comp = fsst_oracle.train_oracle(lines)
    assert state == comp.symbol_table_bytes()
    data, offsets = _pack_rows(lines)

    codes, code_offsets = native.compress_bulk(data, offsets, state)
    # parity vs the Python oracle, row by row
    expected = [comp.compress(ln) for ln in lines]
    for r, exp in enumerate(expected):
        got = codes[code_offsets[r] : code_offsets[r + 1]].tobytes()
        assert got == exp, f"{name}: row {r} compressed bytes differ"

    total_plain = int(offsets[-1])
    out, out_offsets = native.decompress_bulk(
        codes, code_offsets, state, decoded_size_hint=total_plain
    )
    assert out.tobytes() == b"".join(lines)
    assert np.array_equal(out_offsets, offsets)


def test_decode_capacity_guard():
    lines = [b"abcabcabc" * 10]
    state = fsst.train(lines * 5)
    data, offsets = _pack_rows(lines)
    codes, code_offsets = native.compress_bulk(data, offsets, state)
    with pytest.raises(ValueError):
        native.decompress_bulk(codes, code_offsets, state, decoded_size_hint=-8)


@pytest.mark.parametrize("entry", ["compress_bulk", "decompress_bulk", "decompress_bulk_at"])
def test_malformed_state_is_corrupt_chunk(entry):
    """Every FSST entry point validates the state blob it is given."""
    state = fsst.train([b"abcabcabc" * 10] * 5)
    data, offsets = _pack_rows([b"abcabcabc"])
    call = {
        "compress_bulk": lambda st: native.compress_bulk(data, offsets, st),
        "decompress_bulk": lambda st: native.decompress_bulk(data, offsets, st),
        "decompress_bulk_at": lambda st: native.decompress_bulk_at(
            data[:0], offsets[:1], st, np.empty(0, np.uint8), offsets[:1]
        ),
    }[entry]
    call(state)
    for bad in (state[:-1], b"", b"\x02" + state[1:]):
        with pytest.raises(ValueError, match="corrupt chunk"):
            call(bad)


def test_row_checksums_c_matches_numpy():
    import pyarrow as pa

    from fsst_ray.sources.tokens import tokens_table
    from fsst_ray.stages import decoder
    from fsst_ray.stages.serialize import tokens_views

    batch = tokens_table(0.3)
    c_sums = decoder._row_checksums(batch)

    # recompute with the numpy reference formula
    values, offsets = tokens_views(batch)
    v = values.astype(np.uint64)
    local = np.arange(len(v), dtype=np.uint64) - np.repeat(
        offsets[:-1].astype(np.uint64), (offsets[1:] - offsets[:-1])
    )
    mixed = (v + np.uint64(0x9E3779B97F4A7C15)) * (local + np.uint64(1))
    ref = np.zeros(len(offsets) - 1, dtype=np.uint64)
    nonempty = offsets[:-1] < offsets[1:]
    ref[nonempty] = np.add.reduceat(mixed, offsets[:-1][nonempty])
    assert np.array_equal(c_sums, ref)


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_decompress_bulk_at_matches_oracle(name):
    """The known-output-offsets lockstep decoder must reproduce every
    golden corpus row into its exact region, with no slack bytes."""
    lines = CORPORA[name]()
    state = fsst.train(lines)
    data, offsets = _pack_rows(lines)
    codes, code_offsets = native.compress_bulk(data, offsets, state)

    out = np.full(int(offsets[-1]) + 4, 0xEE, dtype=np.uint8)  # canary tail
    written = native.decompress_bulk_at(codes, code_offsets, state, out, offsets)
    assert written == int(offsets[-1])
    assert out[: written].tobytes() == b"".join(lines)
    assert np.all(out[written:] == 0xEE), "wrote outside declared regions"


@pytest.mark.parametrize("esc_heavy", [False, True])
def test_decompress_bulk_at_both_loop_bodies(esc_heavy):
    """Exercise the branchy and branchless lockstep bodies (picked by
    the escape-rate pre-scan) against the single-cursor kernel."""
    rng = np.random.default_rng(7)
    if esc_heavy:
        raw = rng.integers(0, 256, size=300_000, endpoint=False).astype(np.uint8)
        train_lines = [b"xyzw" * 256] * 8  # table unrelated to data: many escapes
    else:
        raw = np.tile(np.frombuffer(b"the quick brown fox ", dtype=np.uint8), 15_000)
        train_lines = [raw[:4096].tobytes()] * 8
    state = fsst.train(train_lines)
    seg = 1 << 12
    offsets = np.concatenate(
        [np.arange(0, len(raw), seg, dtype=np.int64), [len(raw)]]
    )
    codes, code_offsets = native.compress_bulk(raw, offsets, state)
    single, _ = native.decompress_bulk(
        codes, code_offsets, state, decoded_size_hint=len(raw)
    )
    out = np.empty(len(raw), dtype=np.uint8)
    written = native.decompress_bulk_at(codes, code_offsets, state, out, offsets)
    assert written == len(raw)
    assert np.array_equal(out, single[: len(raw)])
    assert out.tobytes() == raw.tobytes()


def test_decompress_bulk_at_rejects_wrong_sizes():
    lines = [b"abcabcabc" * 100] * 6
    state = fsst.train(lines)
    data, offsets = _pack_rows(lines)
    codes, code_offsets = native.compress_bulk(data, offsets, state)
    bad = offsets.copy()
    bad[1:] -= 1  # every region one byte short
    out = np.empty(int(offsets[-1]), dtype=np.uint8)
    with pytest.raises(ValueError):
        native.decompress_bulk_at(codes, code_offsets, state, out, bad)


def test_get_lib_raises_when_library_cannot_load(monkeypatch, tmp_path):
    """A missing C kernel is a loud error, never a silent slow path; the
    failure is not cached, so a later call tries again."""
    native.get_lib()  # the real library, restored by monkeypatch below
    monkeypatch.setattr(native, "_LIB", None)
    monkeypatch.setenv("FSST_NATIVE_SO", str(tmp_path / "missing.so"))
    for _ in range(2):
        with pytest.raises(RuntimeError, match="missing.so"):
            native.get_lib()
    assert native._LIB is None


def test_get_lib_build_failure_reports_compiler_stderr(monkeypatch, tmp_path):
    bad = tmp_path / "broken_kernel.c"
    bad.write_text("int broken_kernel(void) { return undeclared_name; }\n")
    monkeypatch.setattr(native, "_LIB", None)
    monkeypatch.setattr(native, "_SRC", bad)
    monkeypatch.delenv("FSST_NATIVE_SO", raising=False)
    with pytest.raises(RuntimeError, match="undeclared_name"):
        native.get_lib()
