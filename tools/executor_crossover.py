"""Where the driver and Ray executors of per-file corpus jobs cross.

Every per-file job runs through `fsst_ray/pipelines/executor.py`: in
the driver when its files total at most a byte bound on disk, one Ray
task per file above it. This tool times jobs on one encoded corpus
with the bound forced both ways, so the bounds can be set from where
the two executors cross.

Reads (`executor._DRIVER_READ_BYTES`):

- a 4-id lookup into each source, then one id from each of the 2, 4
  and 8 largest sources (the scan grows with the sources' files);
- a length range over the p99 tail of n_tok and one over every row
  (the scan is the whole corpus; the second decodes every chunk, the
  driver's worst case).

Rewrites (`executor._DRIVER_REWRITE_BYTES`), each run on a fresh copy
of the corpus under --work:

- `purge_deletes` after 200 deletes spread over all sources (the
  zone maps then hit nearly every file);
- `compact_corpus` after 3 appends of --append-scale token rows under
  fresh id prefixes (every source's files merge into one).

Encodes (pass 2's per-bucket encode, also under the rewrite bound),
each run on a fresh copy of the corpus under --work:

- `append_dataset` of token rows at 0.1, 0.3, 1, 3, 10 and 30 times
  --append-scale under a fresh id prefix; the size is the staged
  bytes (`metrics["pass2"]["staged_bytes"]`). Pass 1's scan, which
  stages the input, runs the same way on both sides, so the difference is the
  reduce side; its seconds (`pass2_encode`) are printed beside the
  append's.

With --cold every timed run, on either side, starts on a fresh Ray
instance (`ray.shutdown()` then `ray.init()` just before it), as the
first job of a CLI command does; by default Ray workers are warm.

Usage:
  python -c "from fsst_ray.sources.tokens import ensure_tokens_parquet as e; print(e(100))"
  python -m fsst_ray encode --input <that dir> --output /tmp/enc100 --num-cpus 4
  python tools/executor_crossover.py --encoded /tmp/enc100 --cpus 4 [--reps 3] \
      [--jobs reads,rewrites,encode] [--work DIR] [--append-scale 1] [--cold]

Prints one JSON line per job: MiB on disk, rows (reads), median
seconds of each executor over --reps runs, and ray_s / driver_s.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
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
    ap.add_argument("--jobs", default="reads,rewrites")
    ap.add_argument("--work", default=tempfile.gettempdir())
    ap.add_argument("--append-scale", type=float, default=1.0)
    ap.add_argument("--cold", action="store_true")
    args = ap.parse_args()

    import ray

    def start_ray():
        ray.init(num_cpus=args.cpus, include_dashboard=False, logging_level="ERROR")
        ray.data.DataContext.get_current().enable_progress_bars = False

    def fresh():
        # before each timed run: a new Ray instance with --cold
        if args.cold:
            ray.shutdown()
            start_ray()

    start_ray()

    from fsst_ray import decode_ntok_range, decode_select
    from fsst_ray.pipelines import executor
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
        executor._DRIVER_READ_BYTES = bound
        times, stats = [], {}
        for _ in range(args.reps):
            fresh()
            t0 = time.perf_counter()
            rows = run(kind, arg, stats)
            times.append(time.perf_counter() - t0)
        return statistics.median(times), rows, stats

    if "reads" in args.jobs:
        # warm both executors once (page cache, C kernel, Ray workers)
        for bound in (0, 1 << 40):
            executor._DRIVER_READ_BYTES = bound
            run(*reads[-2][1:], {})
    else:
        reads = []

    for name, kind, arg in reads:
        driver_s, rows, stats = timed(kind, arg, 1 << 40)
        ray_s, ray_rows, _ = timed(kind, arg, 0)
        assert rows == ray_rows, (name, rows, ray_rows)
        print(json.dumps({
            "cpus": args.cpus,
            "workers": "cold" if args.cold else "warm",
            "read": name,
            "scan_mib": round(stats["bytes_zone_scanned"] / 2**20, 1),
            "files_read": stats["files_read"],
            "rows": rows,
            "driver_s": round(driver_s, 3),
            "ray_s": round(ray_s, 3),
            "ray_over_driver": round(ray_s / driver_s, 2),
        }), flush=True)
    if "rewrites" in args.jobs:
        time_rewrites(args, enc, sources, ids_of, fresh)
    if "encode" in args.jobs:
        time_appends(args, enc, fresh)
    ray.shutdown()


def time_rewrites(args, enc, sources, ids_of, fresh) -> None:
    import ray.data as rd

    from fsst_ray import append_dataset, compact_corpus, delete_docs, purge_deletes, tokens_table
    from fsst_ray.pipelines import executor
    from fsst_ray.state import manifest as mf

    work = tempfile.mkdtemp(prefix="xover_", dir=args.work)
    per_source = -(-200 // len(sources))
    victims = sorted(i for s in sources for i in ids_of(s, per_source))[:200]
    appended = os.path.join(work, "appended")
    shutil.copytree(enc, appended)
    extra = tokens_table(args.append_scale)
    for g in range(3):
        ids = pc.binary_join_element_wise(f"x{g}", extra["doc_id"], "-")
        col = extra.schema.get_field_index("doc_id")
        append_dataset(rd.from_arrow(extra.set_column(col, "doc_id", ids)), appended)

    def purge(d):
        delete_docs(d, victims)
        return lambda: purge_deletes(d)

    def compact(d):
        return lambda: compact_corpus(d)

    for name, src, prepare in (("purge", enc, purge), ("compact", appended, compact)):
        seen = {}
        for side, bound in (("driver", 1 << 40), ("ray", 0)):
            executor._DRIVER_REWRITE_BYTES = bound
            times = []
            for _ in range(args.reps):
                d = os.path.join(work, "run")
                shutil.copytree(src, d)
                job = prepare(d)
                fresh()
                t0 = time.perf_counter()
                res = job()
                times.append(time.perf_counter() - t0)
                shutil.rmtree(d)
            assert res.pop("executor") == side, (name, side)
            seen[side] = (statistics.median(times), res)
        assert seen["driver"][1] == seen["ray"][1], (name, seen)
        mib = sum(f.stat().st_size for f in mf.chunks_dir(src).glob("*.parquet"))
        print(json.dumps({
            "cpus": args.cpus,
            "workers": "cold" if args.cold else "warm",
            "job": name,
            "corpus_mib": round(mib / 2**20, 1),
            "result": seen["driver"][1],
            "driver_s": round(seen["driver"][0], 3),
            "ray_s": round(seen["ray"][0], 3),
            "ray_over_driver": round(seen["ray"][0] / seen["driver"][0], 2),
        }), flush=True)
    shutil.rmtree(work)


def time_appends(args, enc, fresh) -> None:
    import ray.data as rd

    from fsst_ray import append_dataset, tokens_table
    from fsst_ray.pipelines import executor
    from fsst_ray.state import manifest as mf

    work = tempfile.mkdtemp(prefix="xover_", dir=args.work)
    for f in (0.1, 0.3, 1, 3, 10, 30):
        extra = tokens_table(f * args.append_scale)
        ids = pc.binary_join_element_wise("x", extra["doc_id"], "-")
        extra = extra.set_column(extra.schema.get_field_index("doc_id"), "doc_id", ids)
        seen = {}
        for side, bound in (("driver", 1 << 40), ("ray", 0)):
            executor._DRIVER_REWRITE_BYTES = bound
            times, pass2 = [], []
            for _ in range(args.reps):
                d = os.path.join(work, "run")
                shutil.copytree(enc, d)
                fresh()
                t0 = time.perf_counter()
                res = append_dataset(rd.from_arrow(extra), d)
                times.append(time.perf_counter() - t0)
                pass2.append(res.metrics["timings"]["pass2_encode"])
                entries = mf.load_manifest(d)
                shutil.rmtree(d)
            assert res.metrics["pass2"]["executor"] == side, (f, side)
            seen[side] = (statistics.median(times), statistics.median(pass2), entries)
        assert seen["driver"][2] == seen["ray"][2], f
        print(json.dumps({
            "cpus": args.cpus,
            "workers": "cold" if args.cold else "warm",
            "job": "append",
            "append_scale": f * args.append_scale,
            "staged_mib": round(res.metrics["pass2"]["staged_bytes"] / 2**20, 1),
            "driver_s": round(seen["driver"][0], 3),
            "ray_s": round(seen["ray"][0], 3),
            "ray_over_driver": round(seen["ray"][0] / seen["driver"][0], 2),
            "driver_pass2_s": round(seen["driver"][1], 3),
            "ray_pass2_s": round(seen["ray"][1], 3),
        }), flush=True)
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
