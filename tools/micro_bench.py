"""Micro-benchmarks for the C FSST kernel, mirroring the reference's
/root/reference/benches/micro.rs:18-106 (cf=1/2/4/8 synthetic cases,
hashtab vs two-byte path attribution) plus a realistic trained-corpus
case. Times the raw C entry points — no Ray, no Arrow — so kernel
changes can be attributed precisely.

Usage: python tools/micro_bench.py [--mb 64]
Prints one JSON line: {case: MB_per_sec, ...}, plus `train_ms_c` and
`train_ms_oracle`: best-of milliseconds to train one table on the
32 KiB zipf-token sample with the C trainer (`fsst.train`, including
the encoder rebuild) and with the Python oracle (`fsst.train_oracle`).
"""

from __future__ import annotations

import argparse
import ctypes
import json
import sys
import time

import numpy as np

sys.path.insert(0, ".")

from fsst_ray.kernel import fsst, native  # noqa: E402


def _build(symbols: list[tuple[bytes, int]]) -> fsst.Compressor:
    b = fsst.CompressorBuilder()
    for sym, length in symbols:
        word = int.from_bytes(sym.ljust(8, b"\x00"), "little")
        assert b.insert(word, length)
    return b.build()


def _one_mb(seed: bytes, mb: int) -> np.ndarray:
    buf = (seed * (mb * (1 << 20) // len(seed) + 1))[: mb * (1 << 20)]
    return np.frombuffer(buf, dtype=np.uint8)


def _time_compress(
    comp: fsst.Compressor, data: np.ndarray, reps: int = 3, row_bytes: int = 0
) -> float:
    lib = native.get_lib()
    if row_bytes:
        offsets = np.arange(0, len(data) + row_bytes - 1, row_bytes, dtype=np.int64)
        offsets[-1] = len(data)
    else:
        offsets = np.array([0, len(data)], dtype=np.int64)
    n_rows = len(offsets) - 1
    out = np.empty(2 * len(data) + 8 * n_rows + 8, dtype=np.uint8)
    out_offsets = np.empty(n_rows + 1, dtype=np.int64)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        lib.fsst_compress_bulk(
            data.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            offsets.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            n_rows,
            comp.codes_two_byte.ctypes.data_as(ctypes.POINTER(ctypes.c_uint16)),
            comp.pht_symbol.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
            comp.pht_code.ctypes.data_as(ctypes.POINTER(ctypes.c_uint16)),
            comp.pht_ignored.ctypes.data_as(ctypes.POINTER(ctypes.c_uint16)),
            comp.has_suffix_code,
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            out_offsets.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        )
        best = min(best, time.perf_counter() - t0)
    return len(data) / best / (1 << 20)


def _time_decompress(comp: fsst.Compressor, data: np.ndarray, reps: int = 3) -> float:
    lib = native.get_lib()
    codes, coffs = native.compress_bulk(data, np.array([0, len(data)], dtype=np.int64), comp)
    dec = comp.decompressor()
    symbols = np.ascontiguousarray(dec.symbols, dtype=np.uint64)
    lengths = np.ascontiguousarray(dec.lengths, dtype=np.uint8)
    if len(symbols) < 256:
        symbols = np.concatenate([symbols, np.zeros(256 - len(symbols), np.uint64)])
        lengths = np.concatenate([lengths, np.zeros(256 - len(lengths), np.uint8)])
    cap = len(data) + 8
    out = np.empty(cap, dtype=np.uint8)
    out_offsets = np.empty(2, dtype=np.int64)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        n = lib.fsst_decompress_bulk(
            codes.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            coffs.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
            1,
            symbols.ctypes.data_as(ctypes.POINTER(ctypes.c_uint64)),
            lengths.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            out.ctypes.data_as(ctypes.POINTER(ctypes.c_uint8)),
            cap,
            out_offsets.ctypes.data_as(ctypes.POINTER(ctypes.c_int64)),
        )
        best = min(best, time.perf_counter() - t0)
    assert n == len(data)
    return len(data) / best / (1 << 20)


def _time_train(train, lines: list[bytes], reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        train(lines)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mb", type=int, default=64)
    args = ap.parse_args()
    mb = args.mb

    results: dict[str, float] = {}

    # cf=1: one-byte symbol, every input byte -> one code byte
    comp = _build([(b"a", 1)])
    results["cf1_compress"] = _time_compress(comp, _one_mb(b"aaaaaaaa", mb))

    # cf=2: mixed 1- and 3-byte symbols (micro.rs cf=2)
    comp = _build([(b"a", 1), (b"bab", 3)])
    results["cf2_compress"] = _time_compress(comp, _one_mb(b"ab", mb))
    # same table/data on the engine's real shape (segmented rows -> the
    # 4-lane interleave engages): evidence for the cf=2 root-cause note
    results["cf2_compress_rows"] = _time_compress(
        comp, _one_mb(b"ab", mb), row_bytes=1024
    )

    # cf=4: one 4-byte symbol (hash-table path every step)
    comp = _build([(b"abcd", 4)])
    results["cf4_compress"] = _time_compress(comp, _one_mb(b"abcd", mb))

    # cf=8: one 8-byte symbol
    comp = _build([(b"abcdefgh", 8)])
    results["cf8_compress"] = _time_compress(comp, _one_mb(b"abcdefgh", mb))
    results["cf8_decompress"] = _time_decompress(comp, _one_mb(b"abcdefgh", mb))

    # two-byte fast path: 2-byte symbol hit every step
    comp = _build([(b"ab", 2)])
    results["twobyte_compress"] = _time_compress(comp, _one_mb(b"ab", mb))

    # escape-heavy: random bytes against an unrelated table
    comp = _build([(b"zyxwvuts", 8)])
    rng = np.random.default_rng(7)
    results["escape_compress"] = _time_compress(
        comp, rng.integers(0, 256, mb << 20).astype(np.uint8)
    )

    # realistic: table trained on zipf token bytes (the flagship shape)
    rng = np.random.default_rng(42)
    toks = (rng.zipf(1.3, size=(mb << 20) // 4) % 50_000).astype("<i4")
    data = np.frombuffer(toks.tobytes(), dtype=np.uint8)
    lines = [data[i : i + 512].tobytes() for i in range(0, 1 << 15, 512)]
    comp = fsst.train(lines)
    results["train_ms_c"] = _time_train(fsst.train, lines, reps=20)
    results["train_ms_oracle"] = _time_train(fsst.train_oracle, lines, reps=3)
    results["tokens_compress_1row"] = _time_compress(comp, data)
    # flagship shape: ~1 KiB rows -> the 3-lane interleave engages
    results["tokens_compress_rows"] = _time_compress(comp, data, row_bytes=1024)
    results["tokens_decompress"] = _time_decompress(comp, data)

    comp = _build([(b"abcd", 4)])
    results["cf4_compress_rows"] = _time_compress(
        comp, _one_mb(b"abcd", mb), row_bytes=1024
    )

    print(json.dumps({k: round(v, 1) for k, v in results.items()}))


if __name__ == "__main__":
    main()
