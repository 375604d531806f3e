"""The traced run (--trace 1): per-layer metrics.

Ray runs the engine's stage functions in worker processes, out of reach
of spans taken here, so the traced run does three things in one Ray
session:

1. runs the workload untraced for --seconds (the reference wall times);
2. runs it again for --seconds with the layer spans below installed in
   this process, which gives the tracing overhead, traced wall against
   untraced wall;
3. replays each layer in this process on the same inputs: one ingest of
   the corpus (read, pass-1 training, partition assignment, chunk
   encode, write, decode, checksum), and for point_lookup one lookup per
   request of the untraced run, and for churn one append, purge and
   verify. A span's self time is its duration minus that of the spans
   inside it; `pipelines.overhead_s` is the workload operation's
   untraced wall minus the self times of the layers it runs (Ray
   scheduling, process start-up, serialisation and the object store).

Spans are taken only in this benchmark's files, by wrapping the
engine's module functions and codec methods while the replay runs; the
engine itself is not changed.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import pathlib
import shutil
import statistics
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import workloads

# chunks per source on which every codec is forced (codec_sweep)
SWEEP_CHUNKS_PER_SOURCE = 2
MB = 1e6

# span name -> layer. Spans not listed are replay glue (reported as residual).
LAYER_SPANS = {
    "sources.read": "sources",
    "kernel.train": "kernel",
    "kernel.compress": "kernel",
    "kernel.decompress": "kernel",
    "codecs.stats": "codecs",
    "codecs.select": "codecs",
    "codecs.frame": "codecs",
    "codecs.encode": "codecs",
    "codecs.decode": "codecs",
    "stages.pass1_train": "stages",
    "stages.assign": "stages",
    "stages.encode_rows": "stages",
    "stages.decode_batch": "stages",
    "stages.checksum": "stages",
    "pipelines.write": "pipelines",
    "pipelines.read": "pipelines",
    "state.load_manifest": "state",
}


class Tracer:
    """Nested spans kept in memory: per name, total and self time, plus
    byte counters."""

    def __init__(self):
        self.total = collections.defaultdict(float)
        self.self_s = collections.defaultdict(float)
        self.bytes = collections.Counter()
        self._stack: list[float] = []
        self.wall = 0.0

    @contextlib.contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        self._stack.append(0.0)
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            children = self._stack.pop()
            self.total[name] += dt
            self.self_s[name] += dt - children
            if self._stack:
                self._stack[-1] += dt

    def wrap(self, name: str, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kw):
            with self.span(name):
                result = fn(*args, **kw)
            if count is not None:
                self.bytes[name] += count(args, kw, result)
            return result

        return traced

    def layer_self(self) -> float:
        return sum(v for k, v in self.self_s.items() if k.split("#")[0] in LAYER_SPANS)


@contextlib.contextmanager
def layer_spans(tr: Tracer):
    """Wrap the engine's layer functions (in this process only)."""
    from fsst_ray.codecs import CODEC_BY_NAME
    from fsst_ray.codecs import select as sel
    from fsst_ray.kernel import fsst, native
    from fsst_ray.stages import decoder, encoder

    patches = [
        (fsst, "train", "kernel.train", None),
        (native, "compress_bulk", "kernel.compress", lambda a, k, r: int(a[0].nbytes)),
        (native, "decompress_bulk", "kernel.decompress", lambda a, k, r: int(r[0].nbytes)),
        (native, "decompress_bulk_at", "kernel.decompress", lambda a, k, r: int(r)),
        (sel, "chunk_stats", "codecs.stats", None),
        (sel, "select_codec", "codecs.select", None),
        (encoder, "encode_chunk", "codecs.frame", None),
        (decoder, "decode_payload_into", "codecs.frame", None),
    ]
    saved = []
    for mod, attr, name, count in patches:
        saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, tr.wrap(name, getattr(mod, attr), count))
    for codec in CODEC_BY_NAME.values():
        codec.encode = tr.wrap(
            f"codecs.encode#{codec.name}", codec.encode, lambda a, k, r: 4 * len(a[0])
        )
        codec.decode_values_into = tr.wrap(
            f"codecs.decode#{codec.name}", codec.decode_values_into, lambda a, k, r: 4 * a[1]
        )
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)
        for codec in CODEC_BY_NAME.values():
            del codec.encode, codec.decode_values_into


def replay_encode(tr: Tracer, input_path, out_dir: pathlib.Path, base_states=None) -> dict:
    """Pass 1, assignment and chunk encode of one input, as encode_dataset
    (or append_dataset, given the corpus's `base_states`) runs them; one
    parquet file per bucket. Returns the states used."""
    from fsst_ray.codecs.select import DEFAULT_CODECS
    from fsst_ray.stages.encoder import assign_partitions, build_bucket_plan, encode_rows_to_chunks
    from fsst_ray.stages.trainer import sample_and_mass_batch, train_source_group

    with tr.span("sources.read"):
        tables = [pq.read_table(f) for f in sorted(pathlib.Path(input_path).glob("*.parquet"))]
    tr.bytes["sources.read"] += sum(t.nbytes for t in tables)
    with tr.span("stages.pass1_train"):
        tiny = pa.concat_tables([sample_and_mass_batch(t) for t in tables])
        states, mass = {}, {}
        for src in sorted(set(tiny["source"].to_pylist())):
            r = train_source_group(tiny.filter(pc.equal(tiny["source"], src))).to_pylist()[0]
            states[src] = {"fsst": r["state"], "ratio": r["ratio"]}
            mass[src] = {"tokens": r["mass"], "rows": r["rows"]}
    if base_states is not None:
        states = {src: base_states.get(src, st) for src, st in states.items()}
    plan = build_bucket_plan(mass, 16 << 20)
    with tr.span("stages.assign"):
        keyed = [assign_partitions(t, plan) for t in tables]
    rows = pa.concat_tables(keyed)
    rows = rows.take(pc.sort_indices(rows, [("part_key", "ascending"), ("doc_id", "ascending")]))
    keys = rows["part_key"].to_numpy(zero_copy_only=False)
    bounds = np.concatenate([[0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [len(keys)]])
    out_dir.mkdir(parents=True, exist_ok=True)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = rows.slice(lo, hi - lo)
        with tr.span("stages.encode_rows"):
            chunks = encode_rows_to_chunks(part, states, str(keys[lo]), 1 << 19, DEFAULT_CODECS)
        with tr.span("pipelines.write"):
            pq.write_table(chunks, out_dir / f"{lo}.parquet", compression="none")
    return states


def replay_decode(tr: Tracer, files) -> int:
    """Read, decode and checksum chunk files as decode_dataset +
    dataset_checksum do; returns the decoded token count."""
    from fsst_ray.stages.decoder import checksum_batch, decode_chunks_batch

    tokens = 0
    for f in files:
        with tr.span("pipelines.read"):
            t = pq.read_table(f)
        with tr.span("stages.decode_batch"):
            rows = decode_chunks_batch(t)
        with tr.span("stages.checksum"):
            tokens += checksum_batch(rows)["tokens"][0].as_py()
    return tokens


def replay_lookup(tr: Tracer, out_dir: str, ids) -> None:
    """decode_select's work for one request: manifest, zone pruning,
    projected index scan, decode of the hit chunks."""
    from fsst_ray.stages.decoder import decode_chunks_batch
    from fsst_ray.state import manifest as mf

    with tr.span("state.load_manifest"):
        entries = mf.load_manifest(out_dir)
    wanted = np.array(sorted(ids))
    cdir = mf.chunks_dir(out_dir)
    for e in entries.values():
        i = int(np.searchsorted(wanted, e.get("doc_min") or "", side="left"))
        if e.get("doc_min") is not None and not (i < len(wanted) and wanted[i] <= e["doc_max"]):
            continue
        with tr.span("pipelines.read"):
            index = pq.read_table(cdir / e["file"], columns=["chunk_seq", "doc_id"])
        hit = pc.is_in(pc.list_flatten(index["doc_id"]), value_set=pa.array(wanted))
        parents = pc.list_parent_indices(index["doc_id"]).to_numpy()
        seqs = index["chunk_seq"].to_numpy()[np.unique(parents[hit.to_numpy(zero_copy_only=False)])]
        if not len(seqs):
            continue
        with tr.span("pipelines.read"):
            t = pq.read_table(cdir / e["file"])
        t = t.filter(pc.is_in(t["chunk_seq"], value_set=pa.array(seqs)))
        with tr.span("stages.decode_batch"):
            decode_chunks_batch(t)


def codec_sweep(files, states) -> dict:
    """Every codec forced on a sample of real chunks: encode and decode
    MB/s, and estimated against actual bytes. Decoded values must equal
    the input."""
    from fsst_ray.codecs import CODEC_BY_NAME, decode_payload
    from fsst_ray.codecs.select import DEFAULT_CODECS, chunk_stats, select_codec
    from fsst_ray.stages.decoder import decode_chunks_batch
    from fsst_ray.stages.serialize import tokens_views

    per_source = collections.Counter()
    acc = {n: {"bytes": 0, "enc": 0.0, "dec": 0.0, "err": []} for n in DEFAULT_CODECS}
    for f in files:
        t = pq.read_table(f)
        for r in range(t.num_rows):
            src = t["source"][r].as_py()
            if per_source[src] >= SWEEP_CHUNKS_PER_SOURCE:
                continue
            per_source[src] += 1
            values, _ = tokens_views(decode_chunks_batch(t.slice(r, 1)))
            state = states.get(src)
            _, estimates = select_codec(values, state, DEFAULT_CODECS, chunk_stats(values))
            for name in DEFAULT_CODECS:
                if not np.isfinite(estimates[name]):
                    continue
                codec = CODEC_BY_NAME[name]
                t0 = time.perf_counter()
                payload = codec.encode(values, state if name == "fsst" else None)
                t1 = time.perf_counter()
                back = decode_payload(payload)
                t2 = time.perf_counter()
                workloads.expect(np.array_equal(back, values), f"{name} did not round-trip a chunk")
                a = acc[name]
                a["bytes"] += values.nbytes
                a["enc"] += t1 - t0
                a["dec"] += t2 - t1
                a["err"].append(abs(estimates[name] - len(payload)) / len(payload))
    return {
        n: {
            "encode_mb_s": a["bytes"] / MB / a["enc"] if a["enc"] else 0.0,
            "decode_mb_s": a["bytes"] / MB / a["dec"] if a["dec"] else 0.0,
            "est_err": statistics.median(a["err"]) if a["err"] else 0.0,
        }
        for n, a in acc.items()
    }


def winners(out_dir: str) -> dict:
    """Chunks and bytes per codec in the engine's output (index columns only)."""
    from fsst_ray.state import manifest as mf

    t = pa.concat_tables(
        pq.read_table(f, columns=["codec", "bytes_out"])
        for f in sorted(mf.chunks_dir(out_dir).glob("*.parquet"))
    )
    out = collections.defaultdict(lambda: {"chunks": 0, "bytes_out": 0})
    for codec, b in zip(t["codec"].to_pylist(), t["bytes_out"].to_pylist()):
        out[codec]["chunks"] += 1
        out[codec]["bytes_out"] += b
    return out


def bucket_skew(out_dir: str) -> float:
    from fsst_ray.state import manifest as mf

    tokens = [e["tokens"] for e in mf.load_manifest(out_dir).values()]
    return max(tokens) / statistics.mean(tokens)


def _median_key(dicts, key) -> float:
    return statistics.median(d[key] for d in dicts)


def run(workload: str, session, seconds: float):
    """Returns (outcome, per-layer metrics, report)."""
    from fsst_ray.codecs.select import DEFAULT_CODECS
    from fsst_ray.state import manifest as mf

    fn = workloads.WORKLOADS[workload]
    untraced = fn(session, seconds)
    probe = Tracer()
    with layer_spans(probe):
        traced = fn(session, seconds)
    outcome = workloads.Outcome(
        attempted=untraced.attempted + traced.attempted,
        failed=untraced.failed + traced.failed,
        op_s=untraced.op_s,
    )
    if not untraced.op_s or not traced.op_s:
        raise SystemExit("no operation succeeded; nothing to report")
    wall = statistics.median(untraced.op_s)
    replay_dir = session.work / "replay"

    # one ingest of the corpus, replayed layer by layer
    ingest = Tracer()
    t0 = time.perf_counter()
    with layer_spans(ingest):
        states = replay_encode(ingest, session.corpus.path, replay_dir / "ingest")
        tokens = replay_decode(ingest, sorted((replay_dir / "ingest").glob("*.parquet")))
        with ingest.span("state.load_manifest"):
            entries = mf.load_manifest(session.base)
    ingest.wall = time.perf_counter() - t0
    outcome.attempted += 2
    same_states = {k: v["fsst"] for k, v in states.items()} == {
        k: v["fsst"] for k, v in mf.load_plan(session.base)[0].items()
    }
    if tokens != session.corpus.checksum["tokens"] or not same_states:
        outcome.failed += 1
        print("replay check failed: decoded tokens or trained states differ from the run's", file=sys.stderr)
    chunk_files = sorted(mf.chunks_dir(session.base).glob("*.parquet"))
    try:
        sweep = codec_sweep(chunk_files, states)
    except workloads.CheckFailed as e:
        print(f"check failed in codec sweep: {e}", file=sys.stderr)
        outcome.failed += 1
        sweep = {n: {"encode_mb_s": 0.0, "decode_mb_s": 0.0, "est_err": 0.0} for n in DEFAULT_CODECS}

    # the workload's own operation
    op = ingest
    if workload == "point_lookup":
        op = Tracer()
        requests = workloads.lookup_requests(session.corpus, np.random.default_rng([session.seed, 1]))
        n = len(untraced.op_s)
        t0 = time.perf_counter()
        with layer_spans(op):
            for _ in range(n):
                present, absent = next(requests)
                replay_lookup(op, session.base, present + absent)
        op.wall = (time.perf_counter() - t0) / n
        op.self_s = collections.defaultdict(float, {k: v / n for k, v in op.self_s.items()})
    elif workload == "churn":
        op = Tracer()
        out = session.work / "churn"
        base_states = mf.load_plan(str(out))[0]
        new = workloads.corpus.corpus_tables(session.seed * 1009 + 999, workloads.CHURN_APPEND_SCALE, "r-")
        new_path = workloads.corpus.write_corpus(new, replay_dir / "append_input")
        files = sorted(mf.chunks_dir(str(out)).glob("*.parquet"))
        t0 = time.perf_counter()
        with layer_spans(op):
            replay_encode(op, new_path, replay_dir / "append", base_states)
            # purge decodes and re-encodes every zone-hit file; with ids
            # spread over all sources, that is every file
            from fsst_ray.stages.decoder import decode_chunks_batch
            from fsst_ray.stages.encoder import encode_rows_to_chunks

            for f in files:
                with op.span("pipelines.read"):
                    t = pq.read_table(f)
                with op.span("stages.decode_batch"):
                    rows = decode_chunks_batch(t)
                with op.span("stages.encode_rows"):
                    encode_rows_to_chunks(rows, base_states, None, 1 << 19, DEFAULT_CODECS)
            replay_decode(op, files)
            with op.span("state.load_manifest"):
                mf.load_manifest(str(out))
        op.wall = time.perf_counter() - t0

    def self_of(tr, prefix):
        return sum(v for k, v in tr.self_s.items() if k.split("#")[0] == prefix)

    def mb_s(tr, name):
        return tr.bytes[name] / MB / tr.total[name] if tr.total[name] else 0.0

    timings = untraced.info.get("encode_timings") or session.setup.info["encode_timings"]
    wins = winners(session.base)
    metrics = {
        "kernel.train_s": (self_of(ingest, "kernel.train"), "s"),
        "kernel.compress_mb_s": (mb_s(ingest, "kernel.compress"), "MB/s"),
        "kernel.decompress_mb_s": (mb_s(ingest, "kernel.decompress"), "MB/s"),
        "codecs.stats_s": (self_of(ingest, "codecs.stats"), "s"),
        "codecs.select_s": (self_of(ingest, "codecs.select"), "s"),
        "codecs.encode_s": (self_of(ingest, "codecs.encode"), "s"),
        "codecs.decode_s": (self_of(ingest, "codecs.decode"), "s"),
        "stages.pass1_train_s": (self_of(ingest, "stages.pass1_train"), "s"),
        "stages.assign_s": (self_of(ingest, "stages.assign"), "s"),
        "stages.encode_rows_s": (self_of(ingest, "stages.encode_rows"), "s"),
        "stages.bucket_skew": (bucket_skew(session.base), "ratio"),
        "stages.decode_batch_s": (self_of(ingest, "stages.decode_batch"), "s"),
        "stages.checksum_s": (self_of(ingest, "stages.checksum"), "s"),
        "pipelines.pass2_encode_s": (_median_key(timings, "pass2_encode"), "s"),
        "pipelines.writer_add_max_s": (_median_key(timings, "writer_add_max"), "s"),
        "pipelines.writer_encode_sum_s": (_median_key(timings, "writer_encode_sum"), "s"),
        "pipelines.writer_write_max_s": (_median_key(timings, "writer_write_max"), "s"),
        "pipelines.overhead_s": (wall - op.layer_self(), "s"),
        "state.load_manifest_s": (self_of(ingest, "state.load_manifest"), "s"),
        "state.manifest_entries": (len(entries), "count"),
        "sources.read_mb_s": (mb_s(ingest, "sources.read"), "MB/s"),
        "trace.overhead_frac": (statistics.median(traced.op_s) / wall - 1.0, "ratio"),
        "trace.residual_s": (op.wall - op.layer_self(), "s"),
    }
    for name in DEFAULT_CODECS:
        metrics[f"codecs.{name}.chunks"] = (wins[name]["chunks"] if name in wins else 0, "count")
        metrics[f"codecs.{name}.bytes_out"] = (wins[name]["bytes_out"] if name in wins else 0, "B")
        metrics[f"codecs.{name}.encode_mb_s"] = (sweep[name]["encode_mb_s"], "MB/s")
        metrics[f"codecs.{name}.decode_mb_s"] = (sweep[name]["decode_mb_s"], "MB/s")
        metrics[f"codecs.{name}.est_err"] = (sweep[name]["est_err"], "ratio")

    by_layer = collections.defaultdict(float)
    for k, v in op.self_s.items():
        layer = LAYER_SPANS.get(k.split("#")[0])
        if layer:
            by_layer[layer] += v
    report = {
        "op_wall_s": wall,
        "op_layer_self_s": dict(by_layer),
        "op_overhead_s": wall - op.layer_self(),
        "op_replay_wall_s": op.wall,
        "op_replay_residual_s": op.wall - op.layer_self(),
        "ingest_replay_wall_s": ingest.wall,
        "traced_op_wall_s": statistics.median(traced.op_s),
        "untraced_op_wall_s": wall,
        "span_self_s": {k: v for k, v in sorted(op.self_s.items())},
    }
    report.update(_workload_report(workload, untraced, op))
    shutil.rmtree(replay_dir, ignore_errors=True)
    return outcome, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, report


def _workload_report(workload: str, o, op: Tracer) -> dict:
    """Per-layer metrics of the lookup and churn paths (printed, not in
    the per-layer set, because bulk_encode never runs them)."""
    if workload == "point_lookup":
        stats = o.info["select_stats"]
        return {
            "pipelines.select.files_zone_scanned_frac": statistics.mean(
                s["files_zone_scanned"] / s["files_total"] for s in stats
            ),
            "pipelines.select.files_read_frac": statistics.mean(
                s["files_read"] / s["files_total"] for s in stats
            ),
            "pipelines.select.chunks_decoded_per_hit": sum(s["chunks_decoded"] for s in stats)
            / (workloads.LOOKUP_IDS * len(stats)),
            "state.load_manifest_s_per_lookup": op.self_s["state.load_manifest"],
        }
    if workload == "churn":
        steps, stats = o.info["steps"], o.info["stats"]
        live = [s["bytes"]["live"] for s in stats]
        return {
            **{f"pipelines.{k}_s": _median_key(steps, k) for k in steps[0]},
            "pipelines.select.files_read_frac": statistics.mean(
                s["files_read"] / s["files_total"] for s in stats
            ),
            "state.tombstone_files": statistics.median(s["tombstone_files"] for s in stats),
            "state.purge_rewrite_ratio": statistics.median(
                s["bytes"]["purge_written"] / c for s, c in zip(stats, live)
            ),
            "state.compact_rewrite_ratio": statistics.median(
                s["bytes"]["compact_written"] / c for s, c in zip(stats, live)
            ),
            "cycle.kernel.train_s": op.self_s["kernel.train"],
        }
    return {}
