"""Bounded-memory streaming evidence: encode + decode-verify a corpus
whose raw token bytes exceed the Ray object-store budget several times
over, recording peak memory alongside wall times (VERDICT r2 item 4).

Pass 1's one scan stages each input block once on disk (one lz4 Arrow
IPC file per block, rows in hash order), and pass 2 encodes one bucket
per running reduce task from its hash-range slices of those files, so
it claims memory of one bucket per task, independent of corpus size,
and staging disk of every input row until the job ends (no bucket
unlinks anything; `_staging` is removed at the end). The report gives
the staged file count beside the staging peak. This run demonstrates
it end-to-end: a
deliberately small object store (default 24 GiB) streams a corpus ~3x
its size, and a sampler thread records the whole-VM memory-footprint
peak (MemTotal - MemAvailable: heap + object store +
page-cache-excluded), the /dev/shm peak (the plasma store is
shm-backed, so this bounds object-store residency + any tmpfs scratch)
and the peak size of the encode's `_staging` directory.

Disk, not RAM, caps the feasible scale in this sandbox (~68 GB free):
scale 10000 = ~17.5B tokens = ~70 GB raw token bytes (~23 GB input
parquet + ~35 GB encoded output on disk). That is 3x the object-store
budget and over half of RAM; a flat memory profile here is the
boundedness evidence — the same curves hold at 100 TB because no stage
holds state proportional to corpus size (see SURVEY.md §4.1).

Usage:
    python tools/beyond_ram_run.py [--scale 10000] [--num-cpus 32]
        [--obj-store-gb 24] [--keep-corpus] [--keep-output]

Prints one JSON line; record it in BENCH/BASELINE.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import subprocess
import threading
import time


class MemSampler:
    """1 Hz sampler of whole-VM used memory, /dev/shm usage and the size
    of the `staging` directory; peaks are tracked per named phase
    (mark() starts a new window)."""

    def __init__(self, staging: str):
        self._staging = staging
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._phase = "idle"
        self.peaks: dict[str, dict[str, float]] = {}
        self._thread = threading.Thread(target=self._run, daemon=True)

    @staticmethod
    def _used_gb() -> float:
        mem = {}
        with open("/proc/meminfo") as f:
            for line in f:
                k, v = line.split(":", 1)
                mem[k] = int(v.strip().split()[0])  # kB
        return (mem["MemTotal"] - mem["MemAvailable"]) / 1e6

    @staticmethod
    def _shm_gb() -> float:
        st = os.statvfs("/dev/shm")
        return (st.f_blocks - st.f_bavail) * st.f_frsize / 1e9

    def _staging_gb(self) -> float:
        total = 0
        for root, _, files in os.walk(self._staging):
            for f in files:
                try:
                    total += os.stat(os.path.join(root, f)).st_size
                except FileNotFoundError:  # unlinked by its bucket
                    pass
        return total / 1e9

    def _run(self):
        while not self._stop.is_set():
            used, shm, staged = self._used_gb(), self._shm_gb(), self._staging_gb()
            with self._lock:
                p = self.peaks.setdefault(
                    self._phase, {"used_gb": 0.0, "shm_gb": 0.0, "staging_gb": 0.0}
                )
                p["used_gb"] = max(p["used_gb"], used)
                p["shm_gb"] = max(p["shm_gb"], shm)
                p["staging_gb"] = max(p["staging_gb"], staged)
            self._stop.wait(1.0)

    def mark(self, phase: str):
        with self._lock:
            self._phase = phase

    def start(self):
        self._thread.start()

    def stop(self) -> dict:
        self._stop.set()
        self._thread.join()
        return {k: {m: round(v, 2) for m, v in p.items()} for k, p in self.peaks.items()}


def _du_gb(path: str) -> float:
    out = subprocess.run(
        ["du", "-sb", path], capture_output=True, text=True, check=True
    ).stdout
    return int(out.split()[0]) / 1e9


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=10000)
    ap.add_argument("--num-cpus", type=int, default=32)
    ap.add_argument("--obj-store-gb", type=float, default=24)
    ap.add_argument("--keep-corpus", action="store_true")
    ap.add_argument("--keep-output", action="store_true")
    ap.add_argument("--out-dir", default="/tmp/beyond_ram_enc")
    args = ap.parse_args()

    os.environ.setdefault("POLARS_MAX_THREADS", "2")
    sampler = MemSampler(os.path.join(args.out_dir, "_staging"))
    sampler.start()
    baseline_gb = MemSampler._used_gb()

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            object_store_memory=int(args.obj_store_gb * 1e9),
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from fsst_ray import decode_dataset, encode_dataset
    from fsst_ray.sources.tokens import ensure_tokens_parquet, read_parquet_bundled
    from fsst_ray.stages.decoder import dataset_checksum

    timings: dict[str, float] = {}

    sampler.mark("generate")
    t0 = time.perf_counter()
    path = ensure_tokens_parquet(args.scale)
    timings["generate"] = time.perf_counter() - t0
    input_gb = _du_gb(path)

    ds = read_parquet_bundled(path)
    total_tokens = int(ds.sum("n_tok"))
    raw_gb = total_tokens * 4 / 1e9

    enc_dir = args.out_dir
    shutil.rmtree(enc_dir, ignore_errors=True)
    try:
        sampler.mark("encode")
        t0 = time.perf_counter()
        result = encode_dataset(
            ds,
            enc_dir,
            chunk_tokens=1 << 19,
            bucket_tokens=1 << 22,
            input_path=path,
        )
        timings["encode"] = time.perf_counter() - t0
        encoded_gb = _du_gb(enc_dir)

        sampler.mark("decode_verify")
        t0 = time.perf_counter()
        check = dataset_checksum(decode_dataset(enc_dir))
        timings["decode_verify"] = time.perf_counter() - t0
        assert check["tokens"] == total_tokens, "decode token count mismatch"
    finally:
        if not args.keep_output:
            shutil.rmtree(enc_dir, ignore_errors=True)
        if not args.keep_corpus:
            shutil.rmtree(path, ignore_errors=True)

    peaks = sampler.stop()
    obj_gb = args.obj_store_gb
    out = {
        "metric": "bounded-memory streaming (beyond object-store scale)",
        "value": round(max(p["used_gb"] for p in peaks.values()) - baseline_gb, 2),
        "unit": "peak GB above baseline",
        "scale": args.scale,
        "tokens": total_tokens,
        "raw_token_gb": round(raw_gb, 1),
        "input_parquet_gb": round(input_gb, 1),
        "encoded_gb": round(encoded_gb, 1),
        "compression_ratio": round(result.metrics.get("compression_ratio", 0.0), 3),
        "object_store_gb": obj_gb,
        "raw_over_object_store": round(raw_gb / obj_gb, 2),
        "baseline_used_gb": round(baseline_gb, 2),
        "peaks_by_phase": peaks,
        "staging_peak_gb": max(p["staging_gb"] for p in peaks.values()),
        "staged_files": result.metrics["pass2"]["staged_files"],
        "timings_sec": {k: round(v, 1) for k, v in timings.items()},
        "encode_tokens_per_sec": round(total_tokens / timings["encode"]),
        "decode_tokens_per_sec": round(total_tokens / timings["decode_verify"]),
        "num_cpus": args.num_cpus,
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
