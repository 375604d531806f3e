"""Micro-benchmarks for the C FSST kernel, mirroring the reference's
/root/reference/benches/micro.rs:18-106 (cf=1/2/4/8 synthetic cases,
hashtab vs two-byte path attribution) plus a realistic trained-corpus
case. Times the kernel through its wrappers (`native.compress_bulk` /
`decompress_bulk`, state blob in) — no Ray, no Arrow — so kernel
changes can be attributed precisely.

Usage: python tools/micro_bench.py [--mb 64]
Prints one JSON line: {case: MB_per_sec, ...}, plus `train_ms_c` and
`train_ms_oracle`: best-of milliseconds to train one table on the
32 KiB zipf-token sample with the C trainer (`fsst.train`) and with the
Python oracle (tests/fsst_oracle.py `train_oracle`); and
`state_load_us`: best-of microseconds of one `compress_bulk` call on
one 8-byte row, an upper bound on the kernel's per-call build of its
encoder from the blob.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "tests"))

import fsst_oracle  # noqa: E402

from fsst_ray.kernel import fsst, native  # noqa: E402


def _build(symbols: list[tuple[bytes, int]]) -> bytes:
    """State blob of a hand-built table (oracle builder, as the
    reference's micro.rs inserts symbols directly)."""
    b = fsst_oracle.CompressorBuilder()
    for sym, length in symbols:
        word = int.from_bytes(sym.ljust(8, b"\x00"), "little")
        assert b.insert(word, length)
    return b.build().symbol_table_bytes()


def _one_mb(seed: bytes, mb: int) -> np.ndarray:
    buf = (seed * (mb * (1 << 20) // len(seed) + 1))[: mb * (1 << 20)]
    return np.frombuffer(buf, dtype=np.uint8)


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _time_compress(state: bytes, data: np.ndarray, reps: int = 3, row_bytes: int = 0) -> float:
    if row_bytes:
        offsets = np.arange(0, len(data) + row_bytes - 1, row_bytes, dtype=np.int64)
        offsets[-1] = len(data)
    else:
        offsets = np.array([0, len(data)], dtype=np.int64)
    return len(data) / _best(lambda: native.compress_bulk(data, offsets, state), reps) / (1 << 20)


def _time_decompress(state: bytes, data: np.ndarray, reps: int = 3) -> float:
    codes, coffs = native.compress_bulk(data, np.array([0, len(data)], dtype=np.int64), state)
    out, _ = native.decompress_bulk(codes, coffs, state, decoded_size_hint=len(data))
    assert np.array_equal(out, data)
    dt = _best(lambda: native.decompress_bulk(codes, coffs, state, decoded_size_hint=len(data)), reps)
    return len(data) / dt / (1 << 20)


def _time_train(train, lines: list[bytes], reps: int) -> float:
    return _best(lambda: train(lines), reps) * 1e3


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mb", type=int, default=64)
    args = ap.parse_args()
    mb = args.mb

    results: dict[str, float] = {}

    # cf=1: one-byte symbol, every input byte -> one code byte
    state = _build([(b"a", 1)])
    results["cf1_compress"] = _time_compress(state, _one_mb(b"aaaaaaaa", mb))

    # cf=2: mixed 1- and 3-byte symbols (micro.rs cf=2)
    state = _build([(b"a", 1), (b"bab", 3)])
    results["cf2_compress"] = _time_compress(state, _one_mb(b"ab", mb))
    # same table/data on the engine's real shape (segmented rows -> the
    # 4-lane interleave engages): evidence for the cf=2 root-cause note
    results["cf2_compress_rows"] = _time_compress(
        state, _one_mb(b"ab", mb), row_bytes=1024
    )

    # cf=4: one 4-byte symbol (hash-table path every step)
    state = _build([(b"abcd", 4)])
    results["cf4_compress"] = _time_compress(state, _one_mb(b"abcd", mb))

    # cf=8: one 8-byte symbol
    state = _build([(b"abcdefgh", 8)])
    results["cf8_compress"] = _time_compress(state, _one_mb(b"abcdefgh", mb))
    results["cf8_decompress"] = _time_decompress(state, _one_mb(b"abcdefgh", mb))

    # two-byte fast path: 2-byte symbol hit every step
    state = _build([(b"ab", 2)])
    results["twobyte_compress"] = _time_compress(state, _one_mb(b"ab", mb))

    # escape-heavy: random bytes against an unrelated table
    state = _build([(b"zyxwvuts", 8)])
    rng = np.random.default_rng(7)
    results["escape_compress"] = _time_compress(
        state, rng.integers(0, 256, mb << 20).astype(np.uint8)
    )

    # realistic: table trained on zipf token bytes (the flagship shape)
    rng = np.random.default_rng(42)
    toks = (rng.zipf(1.3, size=(mb << 20) // 4) % 50_000).astype("<i4")
    data = np.frombuffer(toks.tobytes(), dtype=np.uint8)
    lines = [data[i : i + 512].tobytes() for i in range(0, 1 << 15, 512)]
    state = fsst.train(lines)
    results["train_ms_c"] = _time_train(fsst.train, lines, reps=20)
    results["train_ms_oracle"] = _time_train(fsst_oracle.train_oracle, lines, reps=3)
    row = np.array([0, 8], dtype=np.int64)
    results["state_load_us"] = _best(lambda: native.compress_bulk(data, row, state), 200) * 1e6
    results["tokens_compress_1row"] = _time_compress(state, data)
    # flagship shape: ~1 KiB rows -> the 3-lane interleave engages
    results["tokens_compress_rows"] = _time_compress(state, data, row_bytes=1024)
    results["tokens_decompress"] = _time_decompress(state, data)

    state = _build([(b"abcd", 4)])
    results["cf4_compress_rows"] = _time_compress(
        state, _one_mb(b"abcd", mb), row_bytes=1024
    )

    print(json.dumps({k: round(v, 1) for k, v in results.items()}))


if __name__ == "__main__":
    main()
