"""Real-text compression-ratio evidence: the documents-table text
through our FSST kernel vs the reference crate on the SAME bytes.

The reference's published benches use dbtext corpora (wikipedia,
l_comment, urls — /root/reference/benches/compress.rs:18-57) which are
not available offline; the `documents` testdata text is the available
real-text stand-in (natural-language sentences, not zipf-synthetic
token bytes). Both engines train on the identical sample rule
(512-byte lines of the first 32 KiB), so symbol tables — and therefore
compressed sizes — are bit-identical by construction; the point of
this tool is recorded evidence of the ratio FSST achieves on real text
plus a same-bytes throughput head-to-head.

Usage:
  python tools/text_ratio_bench.py [--sf-dir /root/testdata/sf0.1]
                                   [--with-ref]   # also run the crate
Prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import subprocess
import sys
import time

import numpy as np
import pyarrow.parquet as pq

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from fsst_ray.kernel import fsst, native  # noqa: E402

REF_BENCH = pathlib.Path(__file__).parent / "ref_bench"


def corpus_bytes(sf_dir: str) -> bytes:
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    return "\n".join(t["text"].to_pylist()).encode("utf-8")


def ours(data: bytes) -> dict:
    arr = np.frombuffer(data, dtype=np.uint8)
    # same sample rule as ref_bench stdin case: 512-byte lines of the
    # first 32 KiB (reference make_sample semantics on one big buffer)
    lines = [data[i : i + 512] for i in range(0, 1 << 15, 512) if i + 512 <= len(data)]
    state = fsst.train(lines)

    # best-of-3 per case, matching ref_bench's time_compress protocol.
    # One UNTIMED warm-up first: ref_bench reuses its output Vec across
    # reps while our bulk kernels allocate fresh output per call, and
    # this host's fresh-page first-touch path is pathologically slow
    # (measured 150 MB/s on the first 105 MB allocation vs 2.8 GB/s
    # once the allocator arena is warm — same pathology BASELINE.md
    # documents for plasma) — without the warm-up the comparison times
    # the host's page-zeroing, not the kernel.
    def best3(fn):
        fn()
        best, result = float("inf"), None
        for _ in range(3):
            t0 = time.perf_counter()
            r = fn()
            dt = time.perf_counter() - t0
            if dt < best:
                best, result = dt, r
        return best, result

    # 1-row shape (ratio parity case; single lane — the 4-lane
    # interleave needs multiple rows, see BASELINE.md cf=2 note)
    offsets = np.array([0, len(arr)], dtype=np.int64)
    dt_c, (codes, _) = best3(lambda: native.compress_bulk(arr, offsets, state))
    dt_d, (out, _) = best3(
        lambda: native.decompress_bulk(
            codes,
            np.array([0, len(codes)], dtype=np.int64),
            state,
            decoded_size_hint=len(arr),
        )
    )
    assert bytes(out) == data, "roundtrip mismatch"

    # rows shape: independent 1 KiB rows — the engine's production
    # shape (per-row/chunk compression), engages the 4-lane kernel
    row_offsets = np.arange(0, len(arr) + 1023, 1024, dtype=np.int64)
    row_offsets[-1] = len(arr)
    dt_rows, _ = best3(lambda: native.compress_bulk(arr, row_offsets, state))
    return {
        "ratio": round(len(data) / len(codes), 4),
        "compress_mb_s": round(len(data) / dt_c / (1 << 20), 1),
        "compress_rows_mb_s": round(len(data) / dt_rows / (1 << 20), 1),
        "decompress_mb_s": round(len(data) / dt_d / (1 << 20), 1),
    }


def reference(data: bytes) -> dict | None:
    # build per tools/ref_bench/README.md: the reference crate needs
    # --cap-lints allow on this toolchain, and the shared target dir
    # keeps rebuilds out of the repo tree
    exe = pathlib.Path("/tmp/ref_bench_target/release/ref_bench")
    if not exe.exists():
        exe_in_tree = REF_BENCH / "target" / "release" / "ref_bench"
        if exe_in_tree.exists():
            exe = exe_in_tree
    if not exe.exists():
        import os

        r = subprocess.run(
            ["cargo", "build", "--release", "--offline"],
            cwd=REF_BENCH,
            capture_output=True,
            text=True,
            env=dict(
                os.environ,
                RUSTFLAGS="--cap-lints allow",
                CARGO_TARGET_DIR="/tmp/ref_bench_target",
            ),
        )
        if r.returncode != 0 or not exe.exists():
            return None
    out = subprocess.run(
        [str(exe), "1"], input=data, capture_output=True
    ).stdout.decode()
    j = json.loads(out.strip().splitlines()[-1])
    return {
        "ratio": round(j.get("stdin_ratio", 0.0), 4),
        "compress_mb_s": j.get("tokens_compress_1row"),
        "compress_rows_mb_s": j.get("tokens_compress_rows"),
        "decompress_mb_s": j.get("tokens_decompress"),
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sf-dir", default="/root/testdata/sf0.1")
    ap.add_argument("--with-ref", action="store_true")
    # VERDICT r3 item 8: the raw sf0.1 text is ~1.5 MB — cache-resident,
    # so throughput reads hot. Tile the corpus to >= min-mb so the
    # kernels stream out-of-cache. FSST is a stateless per-byte symbol
    # substitution (no cross-window matching), so tiling leaves the
    # ratio EXACTLY unchanged while making the MB/s columns honest.
    ap.add_argument("--min-mb", type=int, default=100)
    args = ap.parse_args()
    base = corpus_bytes(args.sf_dir)
    reps = max(1, -(-(args.min_mb << 20) // len(base))) if base else 1
    data = base * reps
    result = {
        "corpus": f"{args.sf_dir}/documents.parquet text",
        "base_bytes": len(base),
        "tiled_reps": reps,
        "bytes": len(data),
        "ours": ours(data),
    }
    if args.with_ref:
        ref = reference(data)
        if ref is not None:
            result["reference"] = ref
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
