"""The two-pass encode job (flagship pipeline).

Pass 1 (stages/trainer.py `scan`): one Ray Data map over the input
samples each source and counts its token mass, and stages each input
block once under `<out>/_staging/` as an lz4 Arrow IPC file, rows
sorted by (source, doc-id hash h), with one index row per record batch.
The driver folds that stream into FSST symbol tables per source and a
bucket plan (skew-aware: bucket count proportional to token mass).
Pass 2: bucket b of a source's n buckets is the hash range
(h * n) >> 64 == b (`encoder.hash_bucket`), a contiguous slice of each
block file. `encode_bucket` reads only the record batches its range
overlaps, encodes its rows into ~chunk_tokens-sized auto-selected codec
chunks ordered by doc_id, and writes one atomic parquet file + manifest
entry per bucket, through the per-file executor (in the driver for
small jobs, one Ray task per bucket above its bound).

At 100 TB: the only all-to-all exchange is the pass-2 bucket read, a
range exchange through the filesystem (each input row is written once,
each bucket reads its slices); the small side (symbol tables,
~2.3 KB/source) is broadcast via the plan / object store; no stage
materializes the dataset, and a reduce task holds one bucket. The
staging peak is still every input row. Per-bucket files and manifest
entries are what make an encode resumable, appendable and compactable.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.select import DEFAULT_CODECS
from ..stages.encoder import (
    ENCODED_CHUNK_SCHEMA,
    build_bucket_plan,
    encode_rows_to_chunks,
    hash_bucket,
    part_key,
)
from ..stages.trainer import scan, train_sources
from ..state import manifest as mf
from . import executor


@dataclass
class EncodeResult:
    out_dir: str
    metrics: dict = field(default_factory=dict)
    bucket_plan: dict = field(default_factory=dict)

    @property
    def chunks_path(self) -> str:
        return str(mf.chunks_dir(self.out_dir))


def encode_bucket(
    slices: list,
    *,
    key: str,
    bucket: int,
    n_buckets: int,
    out_dir: str,
    states,
    chunk_tokens: int,
    codecs,
) -> dict:
    """Reduce side of pass 2: encode one bucket from its slices of the
    staged block files into `chunks/<part>.parquet` (tmp+rename) and
    its manifest entry. `slices` holds (block file, [(batch number,
    row count), ...]) pairs: the record batches of the bucket's source
    whose hash range overlaps bucket `bucket` of `n_buckets`.

    Raises, writing nothing, when a batch holds other than its index
    row's count or the bucket holds a doc_id twice (input precondition:
    doc_id is unique per row). Rows are ordered by doc_id before
    chunking, so the bytes depend only on the input and the plan. A
    bucket no row hashes to gets an empty file, so every planned bucket
    has one. Returns the entry and the read, encode and write seconds."""
    t0 = time.perf_counter()
    parts = []
    for path, batches in slices:
        with pa.OSFile(path) as f:
            reader = pa.ipc.open_file(f)
            for i, n in batches:
                batch = reader.get_batch(i)
                if batch.num_rows != n:
                    raise RuntimeError(
                        f"bucket {key}: {path} batch {i} holds {batch.num_rows} rows, "
                        f"its index row {n} (rerun with resume=True)"
                    )
                # rows are in hash order, so the bucket is one slice
                b = hash_bucket(batch.column("_h").to_numpy(), n_buckets)
                lo, hi = np.searchsorted(b, [bucket, bucket + 1]).tolist()
                parts.append(batch.slice(lo, hi - lo))
    rows = pa.Table.from_batches(parts) if parts else None
    t1 = time.perf_counter()
    if rows is None or rows.num_rows == 0:
        chunks = ENCODED_CHUNK_SCHEMA.empty_table()
    else:
        doc_ids = rows["doc_id"].to_numpy(zero_copy_only=False)
        sd = np.sort(doc_ids)
        dup = sd[1:] == sd[:-1]
        if dup.any():
            raise ValueError(
                f"duplicate doc_id rows in bucket {key}: "
                f"{np.unique(sd[1:][dup])[:5].tolist()} "
                "(input precondition: doc_id must be unique per row)"
            )
        # doc-sorted chunking via sort_keys: no physical table sort, the
        # chunk gather inside encode copies the values once anyway
        chunks = encode_rows_to_chunks(rows, states, key, chunk_tokens, codecs, sort_keys=doc_ids)
    t2 = time.perf_counter()
    entry = mf.write_chunk_file(
        chunks, mf.chunks_dir(out_dir) / f"{mf.sanitize_part(key)}.parquet", key
    )
    t3 = time.perf_counter()
    mf.write_part_entry(out_dir, entry)
    return {"entry": entry, "read": t1 - t0, "encode": t2 - t1, "write": t3 - t2}


def _bucket_calls(index: pa.Table, bucket_plan: dict, tag: str, done: set) -> list[dict]:
    """One encode_bucket call per planned bucket not in `done`: its part
    key, bucket, bucket count, slices (the staged batches of its source
    whose hash range overlaps the bucket's) and their on-disk bytes."""
    cols = {c: index[c].to_numpy(zero_copy_only=False) for c in index.column_names}
    calls = []
    for source, n in sorted(bucket_plan.items()):
        mine = np.flatnonzero(cols["source"] == source)
        first = hash_bucket(cols["h_lo"][mine], n)
        last = hash_bucket(cols["h_hi"][mine], n)
        for b in range(n):
            key = part_key(source, tag, b)
            if key in done:
                continue
            hit = mine[(first <= b) & (last >= b)]
            slices: dict[str, list] = {}
            for i in hit.tolist():
                slices.setdefault(cols["path"][i], []).append(
                    (int(cols["batch"][i]), int(cols["rows"][i]))
                )
            calls.append(
                {
                    "key": key,
                    "bucket": b,
                    "n_buckets": n,
                    "slices": sorted(slices.items()),
                    "nbytes": int(cols["nbytes"][hit].sum()),
                }
            )
    return calls


def _resumed_plan(out_dir: str, plan_file: pathlib.Path, config: dict, mass: dict):
    """(states, bucket plan) of the saved plan a resume finishes. Raises
    ValueError when the plan was cut by another routing rule (its done
    buckets would hold other rows), another config, or when the input's
    scanned mass differs from the one the plan was made from."""
    routing = json.loads(plan_file.read_text()).get("routing")
    if routing != mf.ROUTING:
        raise ValueError(
            f"{plan_file.name} routes buckets by {routing or 'an earlier rule'}, "
            f"not {mf.ROUTING}: resuming would mix two routings and "
            "duplicate or drop rows (encode into a new directory)"
        )
    states, bucket_plan, saved_mass, saved_config = mf.load_plan(out_dir, path=plan_file)
    if saved_config != config:
        raise ValueError(f"resume config mismatch: {saved_config} != {config}")
    if saved_mass != mass:
        raise ValueError(
            f"resume input differs from the one {plan_file.name} was made from: "
            f"mass {mass} != {saved_mass}"
        )
    return states, bucket_plan


def _encode(
    ds,
    out_dir: str,
    config: dict,
    *,
    plan_file: pathlib.Path,
    key_tag: str = "",
    resume: bool = False,
    base_states: dict | None = None,
    extra: dict | None = None,
) -> EncodeResult:
    """The one route of every encode, append and resume: pass 1's scan
    (which stages every input block), the plan (trained and saved to
    `plan_file`, or a resumed one), then one encode_bucket call per
    bucket not yet done. Part keys are tagged by `key_tag`; sources in
    `base_states` keep their states. Raises unless each source's buckets
    hold pass 1's row count for it."""
    timings: dict[str, float] = {}
    t0 = time.perf_counter()
    staging = pathlib.Path(out_dir) / "_staging"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    # the fault hook is read in the driver: workers started before a
    # test sets the variable would not see it
    mass, kept, index = scan(ds, str(staging), os.environ.get("FSST_FAULT_ROUTE_ONCE_DIR"))
    if resume and plan_file.exists():
        states, bucket_plan = _resumed_plan(out_dir, plan_file, config, mass)
        pass1 = {"route": "resumed", "sources_trained": []}
    else:
        states, trained = train_sources(mass, kept, base_states)
        bucket_plan = build_bucket_plan(mass, config["bucket_tokens"])
        mf.save_plan(out_dir, states, bucket_plan, mass, config, path=plan_file, extra=extra)
        pass1 = {"route": "scan", "sources_trained": trained}
    timings["pass1_train"] = time.perf_counter() - t0

    done = mf.completed_parts(out_dir) if resume else set()
    if mf.chunks_dir(out_dir).exists():
        for stale in mf.chunks_dir(out_dir).glob("*.tmp"):
            stale.unlink()  # partial writes from an interrupted run
    # reduce: one encode_bucket call per bucket, in the driver or as
    # one Ray task per bucket (executor's rewrite bound, sized by the
    # batches each call reads)
    calls = _bucket_calls(index, bucket_plan, key_tag, done)
    results, run = executor.map_files(
        encode_bucket,
        [c["slices"] for c in calls],
        [{k: c[k] for k in ("key", "bucket", "n_buckets")} for c in calls],
        sizes=[c["nbytes"] for c in calls],
        rewrite=True,
        out_dir=out_dir,
        states=states,
        chunk_tokens=config["chunk_tokens"],
        codecs=tuple(config["codecs"]),
    )
    shutil.rmtree(staging, ignore_errors=True)
    # per-bucket max read, summed encode and max write, under the key
    # names perfbench/trace.py reads
    timings["writer_add_max"] = max((r["read"] for r in results), default=0.0)
    timings["writer_encode_sum"] = sum(r["encode"] for r in results)
    timings["writer_write_max"] = max((r["write"] for r in results), default=0.0)
    timings["pass2_encode"] = time.perf_counter() - t0 - timings["pass1_train"]

    # job complete: fold per-part entry files into one compacted
    # manifest so later resume/decode/stats calls do one read, not
    # O(parts) driver-side file opens
    mf.compact_manifest(out_dir)
    entries = mf.load_manifest(out_dir)
    for source, info in mass.items():
        keys = (part_key(source, key_tag, b) for b in range(bucket_plan[source]))
        got = sum(entries.get(k, {}).get("rows", 0) for k in keys)
        if got != info["rows"]:
            raise RuntimeError(
                f"source {source}: its buckets hold {got} rows, pass 1 counted "
                f"{info['rows']} (re-encode into a new directory)"
            )
    metrics = mf.summarize(entries)
    metrics["timings"] = {k: round(v, 3) for k, v in timings.items()}
    metrics["pass1"] = pass1
    metrics["pass2"] = {
        "executor": run["executor"],
        "staged_files": len(set(index["path"].to_pylist())),
        "staged_bytes": pc.sum(index["nbytes"]).as_py() or 0,
    }
    return EncodeResult(out_dir, metrics, bucket_plan)


def encode_dataset(
    ds,
    out_dir: str,
    *,
    chunk_tokens: int = 1 << 19,
    bucket_tokens: int = 16 << 20,
    codecs: tuple[str, ...] = DEFAULT_CODECS,
    resume: bool = False,
    input_path: str | None = None,
) -> EncodeResult:
    """Run the two-pass encode job over a tokens dataset.

    Input precondition: `doc_id` is unique per row (it is the retry /
    resume identity); duplicated doc_ids raise rather than silently
    dropping rows. A resume re-scans `ds` and raises unless its mass
    equals the saved plan's.

    `input_path` (the parquet directory behind `ds`) is accepted from
    callers that know it; the one scan reads `ds` either way.

    metrics["timings"]["pass1_train"] covers the scan, the staging and
    the training; "pass2_encode" the bucket encodes.
    """
    # "mode" stays in the persisted config so plans saved by earlier
    # versions still pass the resume equality check
    config = {
        "mode": "bucketed",
        "chunk_tokens": chunk_tokens,
        "bucket_tokens": bucket_tokens,
        "codecs": list(codecs),
    }
    if resume and mf.plan_path(out_dir).exists():
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
    return _encode(ds, out_dir, config, plan_file=mf.plan_path(out_dir), resume=resume)


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
      the saved plans (`mf.corpus_states`: the base plan's and every
      earlier generation's) — no retraining pass over old bytes, so the
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
    append resumes with resume=True (the same scan and
    skip-completed-parts route as encode, scoped to this generation's
    tagged keys); starting a NEW append while the previous one is
    incomplete raises. `input_path` is accepted as in encode_dataset.
    """
    _, _, _, config = mf.load_plan(out_dir)
    # guards corpora on disk: earlier versions could also write the
    # retired groupby and streaming modes
    if config["mode"] not in ("bucketed", "bucketed_groupby"):
        raise ValueError(
            "append requires a bucketed base encode (streaming-mode outputs "
            "are not resumable/extensible per-bucket)"
        )
    gens = mf.append_generations(out_dir)
    latest = gens[-1] if gens else 0
    gen = latest + 1
    if gens and not json.loads(mf.append_plan_path(out_dir, latest).read_text()).get("completed"):
        if not resume:
            raise ValueError(
                f"append generation g{latest} is incomplete — rerun with "
                "resume=True to finish it before starting a new append"
            )
        gen = latest  # resume the crashed generation

    plan_file = mf.append_plan_path(out_dir, gen)
    result = _encode(
        ds,
        out_dir,
        config,
        plan_file=plan_file,
        key_tag=f"g{gen}-",
        resume=resume,
        # pass 1 over the APPENDED data only: training only for sources
        # the corpus does not have yet
        base_states=mf.corpus_states(out_dir),
        extra={"generation": gen, "completed": False},
    )
    plan = json.loads(plan_file.read_text())
    mf.write_json_atomic(plan_file, {**plan, "completed": True})
    result.metrics["generation"] = gen
    return result
