"""The two-pass encode job (flagship pipeline).

Pass 1 (stages/trainer.py): per-source deterministic sampling + token
mass, folded in the driver -> FSST symbol tables per source + bucket plan.
Pass 2: assign (source, bucket) part keys (skew-aware: bucket count
proportional to source token mass), shuffle once on part_key, encode
each bucket into ~chunk_tokens-sized auto-selected codec chunks, write
one atomic parquet file + manifest entry per bucket.

At 100 TB: the only all-to-all exchange is the pass-2 bucket exchange,
a direct hash exchange onto per-bucket writer actors; the small side
(symbol tables, ~2.3 KB/source) is broadcast via the plan / object
store; no stage materializes the dataset. Per-bucket files and
manifest entries are what make an encode resumable, appendable and
compactable.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from ..codecs.select import DEFAULT_CODECS
from ..stages.encoder import (
    assign_partitions,
    build_bucket_plan,
    encode_rows_to_chunks,
)
from ..stages.trainer import train_states
from ..state import manifest as mf


@dataclass
class EncodeResult:
    out_dir: str
    metrics: dict = field(default_factory=dict)
    bucket_plan: dict = field(default_factory=dict)

    @property
    def chunks_path(self) -> str:
        return str(mf.chunks_dir(self.out_dir))


def _narrow_tokens(sub: pa.Table) -> pa.Table:
    """Exchange compression: re-type the routed `tokens` child from
    int32 to uint16 when every value in this sub-table fits — HALVES
    the bytes each token pays through the object store (and, on a real
    cluster, the network exchange) for one vectorized min/max pass plus
    one copy route-side. The list structure is untouched, so the
    writer's zero-copy slicing/compaction machinery is oblivious; the
    writer widens back to int32 at flush, so encoded output is
    bit-identical."""
    import pyarrow.compute as pc

    idx = sub.schema.get_field_index("tokens")
    col = sub["tokens"]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    # flatten(), not .values: it honors the slice offset, so each
    # routed sub-table scans only its own values
    child = col.flatten() if len(col) else None
    if child is None or len(child) == 0:
        return sub
    mm = pc.min_max(child)
    lo, hi = mm["min"].as_py(), mm["max"].as_py()
    if lo is None or lo < 0 or hi > 0xFFFF:
        return sub
    return sub.set_column(idx, "tokens", pc.cast(col, pa.list_(pa.uint16())))


def _concat_bufs(bufs: list[pa.Table]) -> pa.Table:
    """Concat a part's buffered sub-tables, widening first when sends
    disagree on the (wire-only) tokens width — one narrowed send and
    one int32 send can land in the same part."""
    if len(bufs) == 1:
        return bufs[0]
    if len({b.schema.field("tokens").type for b in bufs}) > 1:
        bufs = [_widen_tokens(b) for b in bufs]
    return pa.concat_tables(bufs)


def _widen_tokens(rows: pa.Table) -> pa.Table:
    """Writer-side inverse of _narrow_tokens (no-op on int32 input)."""
    idx = rows.schema.get_field_index("tokens")
    if rows.schema.field(idx).type == pa.list_(pa.int32()):
        return rows
    import pyarrow.compute as pc

    return rows.set_column(
        idx, "tokens", pc.cast(rows["tokens"], pa.list_(pa.int32()))
    )


class _BucketWriter:
    """Reduce-side encoder/writer actor for the custom hash exchange.

    The Dataset API's only keyed exchange is a sort-based groupby, which
    drags every row through sort machinery and does not scale on one
    node; this actor pool implements a direct hash-partitioned exchange
    instead: map tasks push each bucket's raw rows straight to its
    writer. Encoding happens reduce-side to keep chunks full-size
    (fragmenting chunks map-side multiplied per-chunk overhead ~30x).

    Memory is bounded, not proportional to input: each bucket's rows
    are buffered only until `flush_tokens`, then encoded and appended
    to the bucket's parquet file as a row group (tmp file, renamed at
    finalize so resume sees only complete buckets). Buffered rows are
    zero-copy slices that pin their whole parent add-table, so a
    global `budget_tokens` cap tracks PINNED tokens; when it trips,
    parts with at least half a flush of rows are flushed and the rest
    are compacted (slices copied into one owned table, releasing the
    parents) — never flushed small, which would fragment chunks and
    multiply per-flush overhead (measured 2x encode CPU). Writer heap
    is then O(budget + n_parts x flush_tokens/2). Retried
    map tasks resend their sub-batches; `seen_sends` makes delivery
    idempotent (content-addressed send ids), replacing the old silent
    doc_id dedup. Chunk composition is deterministic (doc_id-sorted)
    when a bucket fits in a single flush; across flushes the chunk
    boundaries follow arrival order, but the decoded content is
    identical either way (chunks are self-contained).
    """

    def __init__(
        self,
        out_dir: str,
        states,
        chunk_tokens: int,
        codecs,
        flush_tokens: int | None = None,
        budget_tokens: int | None = None,
    ):
        self.out_dir = out_dir
        self.states = states
        self.chunk_tokens = chunk_tokens
        self.codecs = codecs
        self.flush_tokens = flush_tokens or max(4 * chunk_tokens, 1 << 20)
        self.budget_tokens = budget_tokens or max(16 * self.flush_tokens, 64 << 20)
        self.parts: dict[str, dict] = {}
        self.errors: list[str] = []  # deferred input-precondition errors
        self.seen_sends: set = set()
        self.pinned_tokens = 0  # tokens held via zero-copy slices
        # telemetry (seconds): exchange attribution for bench tuning
        self.t_add = 0.0
        self.t_encode = 0.0
        self.t_write = 0.0

    def _part(self, key: str) -> dict:
        st = self.parts.get(key)
        if st is None:
            st = self.parts[key] = {
                "bufs": [],
                "buf_tokens": 0,
                "pinned": 0,
                "rows": 0,
                "writer": None,
                "tmp": None,
                "final": None,
                "chunks": 0,
                "tokens": 0,
                "bytes_in": 0,
                "bytes_out": 0,
                "codecs": {},
                # sorted u64 digests of doc_ids flushed so far: the
                # duplicate guard must also catch dups split across
                # flushes of the same bucket (8 B/doc, bucket-bounded)
                "doc_digests": np.empty(0, dtype=np.uint64),
                # zone map for selective decode: lexicographic doc_id
                # range of this part (decode_select prunes files whose
                # range cannot contain any requested id)
                "doc_min": None,
                "doc_max": None,
            }
        return st

    def add(self, table: pa.Table, send_id) -> int:
        if send_id in self.seen_sends:
            return 0  # retried map task resent this sub-batch
        self.seen_sends.add(send_id)
        _t0 = time.perf_counter()
        # contract: route() sends sub-tables already sorted by part_key,
        # so parts are contiguous runs — zero-copy slices, no gather in
        # the writer (the writers are the exchange's serial resource;
        # sorting happens in the parallel routing tasks)
        keys = table["part_key"].to_numpy(zero_copy_only=False)
        n_tok = table["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
        bounds = np.concatenate(
            [[0], np.flatnonzero(keys[1:] != keys[:-1]) + 1, [len(keys)]]
        )
        for g in range(len(bounds) - 1):
            lo, hi = int(bounds[g]), int(bounds[g + 1])
            key = keys[lo]
            st = self._part(key)
            st["bufs"].append(table.slice(lo, hi - lo))
            mm = pa.compute.min_max(table["doc_id"].slice(lo, hi - lo))
            dmin, dmax = mm["min"].as_py(), mm["max"].as_py()
            if dmin is not None and (st["doc_min"] is None or dmin < st["doc_min"]):
                st["doc_min"] = dmin
            if dmax is not None and (st["doc_max"] is None or dmax > st["doc_max"]):
                st["doc_max"] = dmax
            toks = int(n_tok[lo:hi].sum())
            st["buf_tokens"] += toks
            st["pinned"] += toks
            st["rows"] += hi - lo
            self.pinned_tokens += toks
            if st["buf_tokens"] >= self.flush_tokens:
                self._flush(key, st)
        if self.pinned_tokens > self.budget_tokens:
            # pinned sweep: flush sizable buffers, compact the rest
            # (copy slices into owned tables so parent add-tables
            # release) — small buffers are never flushed early, which
            # would fragment chunks and multiply per-flush overhead
            floor = self.flush_tokens // 2
            for key, st in self.parts.items():
                if not st["pinned"]:
                    continue
                if st["buf_tokens"] >= floor:
                    self._flush(key, st)
                else:
                    self._compact(st)
        self.t_add += time.perf_counter() - _t0
        return table.num_rows

    def _compact(self, st: dict) -> None:
        merged = _concat_bufs(st["bufs"])
        # take, not combine_chunks: combine keeps referencing the parent
        # add-table's child buffers (verified: a 5-row slice of a 1000-row
        # list table still holds the full 3000-value child after combine),
        # so only a gather actually releases the pinned parent
        st["bufs"] = [merged.take(pa.array(np.arange(merged.num_rows)))]
        self.pinned_tokens -= st["pinned"]
        st["pinned"] = 0

    def _flush(self, key: str, st: dict) -> None:
        if not st["bufs"]:
            return
        rows = _widen_tokens(_concat_bufs(st["bufs"]))  # narrowing is wire-only
        st["bufs"] = []
        self.pinned_tokens -= st["pinned"]
        st["pinned"] = 0
        st["buf_tokens"] = 0
        # duplicate-doc_id guards. Errors are RECORDED and raised at
        # finalize, never from add(): a raise mid-add would mark the
        # send as seen while dropping later parts, so the task retry's
        # resend is deduped away and the exchange drain poll hangs —
        # deferring keeps delivery intact and surfaces the error
        # deterministically on the driver's finalize ray.get.
        doc_ids = rows["doc_id"].to_numpy(zero_copy_only=False)
        sd = np.sort(doc_ids)
        dup = sd[1:] == sd[:-1]
        if dup.any():
            self.errors.append(
                f"duplicate doc_id rows in bucket {key}: "
                f"{np.unique(sd[1:][dup])[:5].tolist()} "
                "(input precondition: doc_id must be unique per row)"
            )
        # cross-flush guard: compare u64 digests against every earlier
        # flush of this bucket (a duplicate pair can straddle a flush
        # boundary once a bucket exceeds flush_tokens)
        import polars as pl

        col = rows["doc_id"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        digests = np.sort(pl.from_arrow(col).hash(seed=23).to_numpy().astype(np.uint64))
        if len(st["doc_digests"]) and np.isin(
            digests, st["doc_digests"], assume_unique=True
        ).any():
            self.errors.append(
                f"duplicate doc_id across flushes in bucket {key} "
                "(input precondition: doc_id must be unique per row)"
            )
        st["doc_digests"] = np.concatenate([st["doc_digests"], digests])
        st["doc_digests"].sort()
        # doc-sorted chunking via sort_keys: no physical table sort —
        # the chunk gather inside encode copies the values once anyway
        _t0 = time.perf_counter()
        chunks = encode_rows_to_chunks(
            rows, self.states, key, self.chunk_tokens, self.codecs, sort_keys=doc_ids
        )
        self.t_encode += time.perf_counter() - _t0
        chunks = chunks.set_column(
            chunks.schema.get_field_index("chunk_seq"),
            "chunk_seq",
            pa.array(
                np.arange(st["chunks"], st["chunks"] + chunks.num_rows, dtype=np.int32),
                type=pa.int32(),
            ),
        )
        if st["writer"] is None:
            import pyarrow.parquet as pq

            from ..stages.encoder import ENCODED_CHUNK_SCHEMA

            cdir = mf.chunks_dir(self.out_dir)
            cdir.mkdir(parents=True, exist_ok=True)
            st["final"] = cdir / f"{mf.sanitize_part(key)}.parquet"
            st["tmp"] = st["final"].with_suffix(f".{os.getpid()}.tmp")
            st["writer"] = pq.ParquetWriter(
                st["tmp"], ENCODED_CHUNK_SCHEMA, compression="none"
            )
        _t0 = time.perf_counter()
        st["writer"].write_table(chunks)
        self.t_write += time.perf_counter() - _t0
        st["chunks"] += chunks.num_rows
        st["tokens"] += int(pa.compute.sum(chunks["n_values"]).as_py() or 0)
        st["bytes_in"] += int(pa.compute.sum(chunks["bytes_in"]).as_py() or 0)
        st["bytes_out"] += int(pa.compute.sum(chunks["bytes_out"]).as_py() or 0)
        for c in chunks["codec"].to_pylist():
            st["codecs"][c] = st["codecs"].get(c, 0) + 1

    def finalize(self, expected: dict[str, int]) -> list[dict]:
        entries = []
        for key in sorted(self.parts):
            self._flush(key, self.parts[key])
        if self.errors:
            raise ValueError("; ".join(self.errors[:5]))
        for key in sorted(self.parts):
            st = self.parts[key]
            if st["writer"] is None:
                continue
            st["writer"].close()
            os.replace(st["tmp"], st["final"])
            want = expected.get(key)
            if want is not None and st["rows"] != want:
                raise RuntimeError(
                    f"bucket {key}: wrote {st['rows']} rows, expected {want} "
                    "(writer actor lost state — rerun with resume=True)"
                )
            entry = {
                "part_key": key,
                "status": "done",
                "chunks": st["chunks"],
                "rows": st["rows"],
                "tokens": st["tokens"],
                "bytes_in": st["bytes_in"],
                "bytes_out": st["bytes_out"],
                "codecs": st["codecs"],
                "file": st["final"].name,
                "doc_min": st["doc_min"],
                "doc_max": st["doc_max"],
            }
            mf.write_part_entry(self.out_dir, entry)
            entries.append(entry)
        self.parts = {}
        return entries

    def received_rows(self) -> int:
        """Total rows delivered to this writer (dedup-safe): the async
        exchange's drain poll compares this against routed totals."""
        return sum(st["rows"] for st in self.parts.values())

    def timing(self) -> dict:
        """add is inclusive of in-add flushes; encode/write are the
        flush internals (from add or finalize)."""
        return {"add": self.t_add, "encode": self.t_encode, "write": self.t_write}


# send acknowledgement policies a route task may run under (FSST_ROUTE_ACK)
_ROUTE_ACK_POLICIES = ("auto", "full", "window")
# "window": sends a route task may leave unacknowledged when it returns
# (in-flight routed bytes per task = window x sub-batch bytes)
_ROUTE_ACK_WINDOW = 4


def encode_dataset(
    ds,
    out_dir: str,
    *,
    chunk_tokens: int = 1 << 19,
    bucket_tokens: int = 16 << 20,
    codecs: tuple[str, ...] = DEFAULT_CODECS,
    resume: bool = False,
    writer_flush_tokens: int | None = None,
    writer_budget_tokens: int | None = None,
    input_path: str | None = None,
    _plan: tuple | None = None,
    _key_tag: str = "",
) -> EncodeResult:
    """Run the two-pass encode job over a tokens dataset.

    Input precondition: `doc_id` is unique per row (it is the retry /
    resume identity); duplicated doc_ids raise rather than silently
    dropping rows.

    When `input_path` (the parquet directory behind `ds`) is given,
    pass 1 uses the pruned two-read path: mass from a projected
    (doc_id, n_tok, source) scan + samples from a doc_id-filtered read
    — identical states, ~0.1% of the read bytes at scale.
    """
    import ray

    # send acknowledgement policy:
    #   full   — each route task ray.gets every send: strictest
    #            in-flight bound (~concurrent blocks) and the
    #            simplest delivery guarantee.
    #   window — wait for all-but-_ROUTE_ACK_WINDOW sends: kills the
    #            convoy where every task waits on its round's slowest
    #            writer; measured 1.7x faster at 4 CPUs (where few
    #            concurrent tasks make the convoy bite), equal at 16-32.
    #            Relies on the driver-side drain poll before finalize; a
    #            worker dying after task completion is detected by the
    #            poll timing out -> rerun with resume.
    #   auto (default) — window at <=8 CPUs; full above, where the two
    #            measure equal and the bounded-in-flight posture wins.
    # Checked before any task starts: an unknown value must not
    # silently turn per-task acknowledgement off.
    route_ack = os.environ.get("FSST_ROUTE_ACK", "auto")
    if route_ack not in _ROUTE_ACK_POLICIES:
        raise ValueError(
            f"FSST_ROUTE_ACK={route_ack!r}: expected one of "
            f"{', '.join(_ROUTE_ACK_POLICIES)}"
        )

    # "mode" stays in the persisted config so plans saved by earlier
    # versions still pass the resume equality check
    config = {
        "mode": "bucketed",
        "chunk_tokens": chunk_tokens,
        "bucket_tokens": bucket_tokens,
        "codecs": list(codecs),
    }

    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    # which pass-1 route ran and what it trained; resumed and
    # caller-planned encodes train nothing
    pass1 = {"route": "planned" if _plan is not None else "resumed", "sources_trained": []}
    if _plan is not None:
        # caller-managed plan (append_dataset): states/buckets decided
        # and persisted by the caller; keys namespaced by _key_tag
        states, bucket_plan, mass = _plan
    elif resume and mf.plan_path(out_dir).exists():
        from .compact_job import has_compaction

        if has_compaction(out_dir):
            # compaction replaced the original per-bucket part keys, so
            # completed_parts can no longer tell which buckets exist —
            # and compaction requires a COMPLETE corpus, so there is
            # nothing for a base resume to finish anyway
            raise ValueError(
                "corpus has been compacted; base-encode resume is not "
                "meaningful (appends still work: encode --append)"
            )
        states, bucket_plan, mass, saved_config = mf.load_plan(out_dir)
        assert saved_config == config, (
            f"resume config mismatch: {saved_config} != {config}"
        )
    else:
        states, mass, pass1 = train_states(ds, input_path)
        bucket_plan = build_bucket_plan(mass, bucket_tokens)
        mf.save_plan(out_dir, states, bucket_plan, mass, config)
    timings["pass1_train"] = time.perf_counter() - t0

    done = mf.completed_parts(out_dir) if resume else set()
    if mf.chunks_dir(out_dir).exists():
        for stale in mf.chunks_dir(out_dir).glob("*.tmp"):
            stale.unlink()  # partial flushes from an interrupted run

    keyed = ds.map_batches(
        lambda b: assign_partitions(b, bucket_plan, _key_tag),
        batch_format="pyarrow",
        batch_size=None,
    )
    if done:
        done_list = sorted(done)

        def drop_done(batch: pa.Table) -> pa.Table:
            keys = batch["part_key"].to_numpy(zero_copy_only=False)
            keep = ~np.isin(keys, done_list)
            return batch.filter(pa.array(keep))

        keyed = keyed.map_batches(drop_done, batch_format="pyarrow")

    # custom hash exchange: push each bucket's raw rows directly to its
    # writer actor (no sort); writers encode + write incrementally;
    # delivery verified by per-bucket row counts
    import zlib

    cluster_cpus = int(ray.cluster_resources().get("CPU", 8))
    # cpus//2: writers encode concurrently with the (cheap) routing map
    # tasks; a full-cpus pool only adds actor ramp-up and scheduler
    # contention (measured at sf0.1 and scale 2400)
    n_writers = max(2, cluster_cpus // 2)
    if route_ack == "auto":
        route_ack = "window" if cluster_cpus <= 8 else "full"
    # read driver-side and captured by the route closure: workers
    # started before the test set the env would not see it
    fault_dir = os.environ.get("FSST_FAULT_ROUTE_ONCE_DIR")
    # Writers encode+write parquet incrementally inside add(), so they
    # DO burn CPU — but declaring it (num_cpus=1) would let the cpus//2
    # writer pool reserve half the task slots and starve the routing map
    # stage; measured best config is an unreserved pool (num_cpus=0)
    # sized to cpus//2 so routing and encoding overlap.
    writer_pool = [
        ray.remote(num_cpus=0)(_BucketWriter).remote(
            out_dir,
            states,
            chunk_tokens,
            codecs,
            writer_flush_tokens,
            writer_budget_tokens,
        )
        for _ in range(n_writers)
    ]

    def route(batch: pa.Table) -> pa.Table:
        import polars as pl

        keys = batch["part_key"].to_numpy(zero_copy_only=False)
        # crc32 once per unique part_key, not per row
        uniq, inv, counts = np.unique(keys, return_inverse=True, return_counts=True)
        uniq_wid = np.array(
            [zlib.crc32(k.encode()) % n_writers for k in uniq], dtype=np.int64
        )
        wid = uniq_wid[inv]
        # content-addressed send ids: a retried task resends byte-
        # identical sub-batches, so the writer can drop duplicates
        doc_col = batch["doc_id"]
        if isinstance(doc_col, pa.ChunkedArray):
            doc_col = doc_col.combine_chunks()
        doc_hash = pl.from_arrow(doc_col).hash(seed=11).to_numpy().astype(np.uint64)
        # one gather sorted by (writer, part_key): per-writer
        # sub-tables are contiguous slices whose parts are adjacent
        # runs, so the (serial) writer never gathers
        order = np.lexsort((keys, wid))
        sorted_batch = batch.take(pa.array(order))
        swid = wid[order]
        shash = doc_hash[order]
        wb = np.concatenate(
            [[0], np.flatnonzero(swid[1:] != swid[:-1]) + 1, [len(swid)]]
        )
        refs = []
        for g in range(len(wb) - 1):
            lo, hi = int(wb[g]), int(wb[g + 1])
            sub = _narrow_tokens(sorted_batch.slice(lo, hi - lo))
            send_id = (int(shash[lo:hi].sum(dtype=np.uint64)), hi - lo)
            refs.append(writer_pool[int(swid[lo])].add.remote(sub, send_id))
        # fault injection (tests only): after the sends are in
        # flight, kill this worker once — Ray reruns the task, the
        # retry resends everything, and the writers' send-id dedup
        # must absorb the duplicates
        if fault_dir:
            import pathlib

            flag = pathlib.Path(fault_dir) / "route_killed"
            try:
                flag.touch(exist_ok=False)
                os._exit(1)  # simulated worker death (not an exception)
            except FileExistsError:
                pass
        if route_ack == "full":
            ray.get(refs)
        elif len(refs) > _ROUTE_ACK_WINDOW:
            ray.wait(
                refs, num_returns=len(refs) - _ROUTE_ACK_WINDOW, fetch_local=False
            )
        # remaining sends drain in the background; the driver polls
        # writer received-row counts before finalize
        return pa.table(
            {
                "part_key": pa.array(uniq, type=pa.string()),
                "n_rows": pa.array(counts, type=pa.int64()),
            }
        )

    count_rows = keyed.map_batches(
        route, batch_format="pyarrow", batch_size=None
    ).take_all()
    expected: dict[str, int] = {}
    for r in count_rows:
        expected[r["part_key"]] = expected.get(r["part_key"], 0) + int(r["n_rows"])
    if route_ack != "full":
        total_routed = sum(expected.values())
        deadline = time.perf_counter() + 300.0
        while True:
            got = sum(ray.get([w.received_rows.remote() for w in writer_pool]))
            if got >= total_routed:
                break
            if time.perf_counter() > deadline:
                raise RuntimeError(
                    f"exchange drain timed out: writers received {got} of "
                    f"{total_routed} routed rows (a routing worker may have "
                    "died after task completion — rerun with resume=True)"
                )
            time.sleep(0.05)
    # entries are persisted in the manifest dir by each writer
    ray.get([w.finalize.remote(expected) for w in writer_pool])
    wt = ray.get([w.timing.remote() for w in writer_pool])
    timings["writer_add_max"] = round(max(t["add"] for t in wt), 3)
    timings["writer_encode_max"] = round(max(t["encode"] for t in wt), 3)
    timings["writer_write_max"] = round(max(t["write"] for t in wt), 3)
    timings["writer_encode_sum"] = round(sum(t["encode"] for t in wt), 3)
    for w in writer_pool:
        ray.kill(w)

    timings["pass2_encode"] = time.perf_counter() - t0 - timings["pass1_train"]

    # job complete: fold per-part entry files into one compacted
    # manifest so later resume/decode/stats calls do one read, not
    # O(parts) driver-side file opens
    mf.compact_manifest(out_dir)
    entries = mf.load_manifest(out_dir)
    metrics = mf.summarize(entries)
    metrics["timings"] = {k: round(v, 3) for k, v in timings.items()}
    metrics["pass1"] = pass1
    return EncodeResult(out_dir, metrics, bucket_plan)


def _append_plan_path(out_dir: str, gen: int):
    import pathlib

    return pathlib.Path(out_dir) / f"append_plan_g{gen}.json"


def _append_generations(out_dir: str) -> list[int]:
    import pathlib
    import re

    gens = []
    for p in pathlib.Path(out_dir).glob("append_plan_g*.json"):
        m = re.fullmatch(r"append_plan_g(\d+)\.json", p.name)
        if m:
            gens.append(int(m.group(1)))
    return sorted(gens)


def append_dataset(
    ds,
    out_dir: str,
    *,
    resume: bool = False,
    input_path: str | None = None,
) -> EncodeResult:
    """Incremental ingest: encode NEW rows into an existing encoded
    corpus without re-reading or re-writing any old data.

    - Codec states for sources already in the corpus are REUSED from
      the saved plan — no retraining pass over old bytes, so the
      append costs O(appended bytes) regardless of corpus size.
    - Sources first seen in the appended data get states trained on
      the appended data alone.
    - Appended buckets carry generation-tagged part keys
      ('{source}:g{N}-{bucket:05d}'), so existing bucket files are
      never touched and the manifest overlay makes decode / verify /
      select / stats see the union corpus with no extra step.

    Preconditions: the base encode completed (plan.json exists), and
    doc_id stays unique across the WHOLE corpus
    (old + appended) — it is the retry/resume identity. A crashed
    append resumes with resume=True (the same skip-completed-parts
    machinery as encode, scoped to this generation's tagged keys);
    starting a NEW append while the previous one is incomplete raises.
    """
    import json

    base_states, _, _, config = mf.load_plan(out_dir)
    # guards corpora on disk: earlier versions could also write the
    # retired groupby and streaming modes
    assert config["mode"] in ("bucketed", "bucketed_groupby"), (
        "append requires a bucketed base encode (streaming-mode outputs "
        "are not resumable/extensible per-bucket)"
    )
    gens = _append_generations(out_dir)
    latest = gens[-1] if gens else 0
    if resume and gens:
        prev = json.loads(_append_plan_path(out_dir, latest).read_text())
        if not prev.get("completed"):
            gen = latest  # resume the crashed generation
        else:
            gen = latest + 1  # nothing to resume: a fresh generation
    else:
        if gens:
            prev = json.loads(_append_plan_path(out_dir, latest).read_text())
            assert prev.get("completed"), (
                f"append generation g{latest} is incomplete — rerun with "
                "resume=True to finish it before starting a new append"
            )
        gen = latest + 1

    plan_file = _append_plan_path(out_dir, gen)
    # encode_dataset's own pass-1 timer covers only taking this plan
    t0 = time.perf_counter()
    if resume and plan_file.exists():
        states, bucket_plan, mass, saved_config = mf.load_plan(out_dir, path=plan_file)
        assert saved_config == config, (
            f"append resume config mismatch: {saved_config} != {config}"
        )
        pass1 = {"route": "resumed", "sources_trained": []}
    else:
        # pass 1 over the APPENDED data only: mass for every source,
        # training only for sources the corpus does not have yet
        states, mass, pass1 = train_states(ds, input_path, base_states)
        bucket_plan = build_bucket_plan(mass, config["bucket_tokens"])
        mf.save_plan(
            out_dir, states, bucket_plan, mass, config,
            path=plan_file, extra={"generation": gen, "completed": False},
        )
    pass1_s = time.perf_counter() - t0

    result = encode_dataset(
        ds,
        out_dir,
        chunk_tokens=config["chunk_tokens"],
        bucket_tokens=config["bucket_tokens"],
        codecs=tuple(config["codecs"]),
        resume=resume,
        input_path=input_path,
        _plan=(states, bucket_plan, mass),
        _key_tag=f"g{gen}-",
    )
    mf.save_plan(
        out_dir, states, bucket_plan, mass, config,
        path=plan_file, extra={"generation": gen, "completed": True},
    )
    result.metrics["generation"] = gen
    result.metrics["pass1"] = pass1
    result.metrics["timings"]["pass1_train"] = round(pass1_s, 3)
    return result
