"""Where the driver and Ray Data executors of a selective decode cross.

`decode_select` and `decode_ntok_range` run in the driver when their
zone-pruned scan files total at most `decode_job._DRIVER_READ_BYTES`
bytes, and over Ray Data above it. This tool times each read on one
encoded corpus with the bound forced both ways, so the bound can be set
from where the two executors cross:

- a 4-id lookup into each source, then one id from each of the 2, 4
  and 8 largest sources (the scan grows with the sources' files);
- a length range over the p99 tail of n_tok and one over every row
  (the scan is the whole corpus; the second decodes every chunk, the
  driver's worst case).

Usage:
  python -c "from fsst_ray.sources.tokens import ensure_tokens_parquet as e; print(e(100))"
  python -m fsst_ray encode --input <that dir> --output /tmp/enc100 --num-cpus 4
  python tools/executor_crossover.py --encoded /tmp/enc100 --cpus 4 [--reps 3]

Prints one JSON line per read: scan MiB, rows, median seconds of each
executor over --reps runs, and ray_s / driver_s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np
import pyarrow.compute as pc
import pyarrow.parquet as pq

sys.path.insert(0, ".")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--encoded", required=True)
    ap.add_argument("--cpus", type=int, default=4)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args()

    import ray

    ray.init(num_cpus=args.cpus, include_dashboard=False, logging_level="ERROR")
    ray.data.DataContext.get_current().enable_progress_bars = False

    from fsst_ray import decode_ntok_range, decode_select
    from fsst_ray.pipelines import decode_job
    from fsst_ray.state import manifest as mf

    enc = args.encoded
    entries = mf.load_manifest(enc)
    path = mf.chunks_dir(enc)
    sources: dict[str, list[dict]] = {}
    for key, e in entries.items():
        sources.setdefault(key.split(":", 1)[0], []).append(e)
    size = {
        s: sum(os.path.getsize(path / e["file"]) for e in es)
        for s, es in sources.items()
    }

    def ids_of(source: str, k: int) -> list[str]:
        # doc ids are '{source}-{row:09d}': k rows spread over the source
        rows = [
            int(e[f].rsplit("-", 1)[1])
            for e in sources[source]
            for f in ("doc_min", "doc_max")
        ]
        picks = np.linspace(min(rows), max(rows), k + 2).astype(int)[1:-1]
        return [f"{source}-{r:09d}" for r in picks]

    ntok = pc.list_flatten(
        pq.read_table(str(path), columns=["n_tok"])["n_tok"]
    ).to_numpy()
    p99 = int(np.percentile(ntok, 99))

    by_size = sorted(size, key=size.get)
    reads = [(f"select[{s}]", "select", ids_of(s, 4)) for s in by_size]
    reads += [
        (f"select[{k} largest]", "select", [i for s in by_size[-k:] for i in ids_of(s, 1)])
        for k in (2, 4, 8)
        if k <= len(by_size)
    ]
    reads += [("ntok[p99 tail]", "ntok", (p99, 1 << 30)), ("ntok[all]", "ntok", (0, 1 << 30))]

    def run(kind, arg, stats):
        if kind == "select":
            ds = decode_select(enc, arg, stats=stats)
        else:
            ds = decode_ntok_range(enc, *arg, stats=stats)
        return sum(t.num_rows for t in ray.get(ds.to_arrow_refs()))

    def timed(kind, arg, bound):
        decode_job._DRIVER_READ_BYTES = bound
        times, stats = [], {}
        for _ in range(args.reps):
            t0 = time.perf_counter()
            rows = run(kind, arg, stats)
            times.append(time.perf_counter() - t0)
        return statistics.median(times), rows, stats

    # warm both executors once (page cache, C kernel, Ray Data workers)
    for bound in (0, 1 << 40):
        decode_job._DRIVER_READ_BYTES = bound
        run(*reads[-2][1:], {})

    for name, kind, arg in reads:
        driver_s, rows, stats = timed(kind, arg, 1 << 40)
        ray_s, ray_rows, _ = timed(kind, arg, 0)
        assert rows == ray_rows, (name, rows, ray_rows)
        print(json.dumps({
            "cpus": args.cpus,
            "read": name,
            "scan_mib": round(stats["bytes_zone_scanned"] / 2**20, 1),
            "files_read": stats["files_read"],
            "rows": rows,
            "driver_s": round(driver_s, 3),
            "ray_s": round(ray_s, 3),
            "ray_over_driver": round(ray_s / driver_s, 2),
        }), flush=True)
    ray.shutdown()


if __name__ == "__main__":
    main()
