"""The two-pass encode job (flagship pipeline).

Pass 1 (stages/trainer.py): per-source deterministic sampling + token
mass, folded in the driver -> FSST symbol tables per source + bucket plan.
Pass 2: assign (source, bucket) part keys (skew-aware: bucket count
proportional to source token mass) and stage each bucket's rows on disk
as Arrow IPC fragments (`stage_batch`, one Ray Data map over the input);
then encode each bucket into ~chunk_tokens-sized auto-selected codec
chunks, ordered by doc_id, and write one atomic parquet file + manifest
entry per bucket (`encode_bucket`, through the per-file executor: in the
driver for small jobs, one Ray task per bucket above its bound).

At 100 TB: the only all-to-all exchange is the pass-2 bucket staging,
a hash exchange through the filesystem; the small side (symbol tables,
~2.3 KB/source) is broadcast via the plan / object store; no stage
materializes the dataset, and a reduce task holds one bucket. Per-bucket
files and manifest entries are what make an encode resumable,
appendable and compactable.
"""

from __future__ import annotations

import os
import pathlib
import shutil
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
from . import executor


@dataclass
class EncodeResult:
    out_dir: str
    metrics: dict = field(default_factory=dict)
    bucket_plan: dict = field(default_factory=dict)

    @property
    def chunks_path(self) -> str:
        return str(mf.chunks_dir(self.out_dir))


def stage_batch(
    batch: pa.Table,
    *,
    staging: str,
    bucket_plan: dict[str, int],
    key_tag: str,
    done: list[str],
    fault_dir: str | None = None,
) -> pa.Table:
    """Map side of pass 2: key one batch and write one fragment per part
    key under `staging/<part>/`, skipping the keys in `done`.

    A fragment is an lz4-compressed Arrow IPC file: at 4 CPUs on a
    1.73B-token corpus it staged 1.85 B/token in 41 s where uncompressed
    parquet took 2.5 B/token and 76 s, and it reads back faster. It is
    named by its content (the sum of its doc-id hashes and its row
    count) and written tmp+rename, so a retried task rewrites the same
    files. Returns one row per fragment: part_key,
    n_rows and path; the driver sums n_rows into the routed row count
    each bucket must hold."""
    import polars as pl
    import pyarrow.feather as feather

    keyed = assign_partitions(batch, bucket_plan, key_tag)
    uniq, inv = np.unique(keyed["part_key"].to_numpy(zero_copy_only=False), return_inverse=True)
    order = np.argsort(inv, kind="stable")
    rows = keyed.drop_columns(["part_key"]).take(pa.array(order))
    doc_col = rows["doc_id"]
    if isinstance(doc_col, pa.ChunkedArray):
        doc_col = doc_col.combine_chunks()
    doc_hash = pl.from_arrow(doc_col).hash(seed=11).to_numpy().astype(np.uint64)
    bounds = np.concatenate([[0], np.cumsum(np.bincount(inv, minlength=len(uniq)))])
    skip = set(done)
    out = {"part_key": [], "n_rows": [], "path": []}
    for key, lo, hi in zip(uniq, bounds[:-1].tolist(), bounds[1:].tolist()):
        if key in skip:
            continue
        part_dir = pathlib.Path(staging) / mf.sanitize_part(key)
        part_dir.mkdir(parents=True, exist_ok=True)
        path = part_dir / f"{int(doc_hash[lo:hi].sum(dtype=np.uint64)):016x}-{hi - lo}.arrow"
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        feather.write_feather(rows.slice(lo, hi - lo), tmp, compression="lz4")
        os.replace(tmp, path)
        out["part_key"].append(key)
        out["n_rows"].append(hi - lo)
        out["path"].append(str(path))
    # fault injection (tests only): once the fragments are written,
    # kill this worker once; Ray reruns the task, which rewrites the
    # same fragments
    if fault_dir:
        try:
            (pathlib.Path(fault_dir) / "route_killed").touch(exist_ok=False)
            os._exit(1)  # simulated worker death (not an exception)
        except FileExistsError:
            pass
    return pa.table(
        {
            "part_key": pa.array(out["part_key"], type=pa.string()),
            "n_rows": pa.array(out["n_rows"], type=pa.int64()),
            "path": pa.array(out["path"], type=pa.string()),
        }
    )


def encode_bucket(
    fragments: list[str],
    *,
    key: str,
    expected: int,
    out_dir: str,
    states,
    chunk_tokens: int,
    codecs,
) -> dict:
    """Reduce side of pass 2: encode one bucket from its staged
    fragments into `chunks/<part>.parquet` (tmp+rename) and its manifest
    entry, then unlink the fragments.

    Raises, writing nothing, when the fragments hold other than the
    `expected` routed row count or a doc_id twice (input precondition:
    doc_id is unique per row). Rows are ordered by doc_id before
    chunking, so the bytes depend only on the input and the plan.
    Returns the entry and the read, encode and write seconds."""
    import pyarrow.feather as feather

    t0 = time.perf_counter()
    rows = pa.concat_tables([feather.read_table(f) for f in fragments])
    t1 = time.perf_counter()
    if rows.num_rows != expected:
        raise RuntimeError(
            f"bucket {key}: staged {rows.num_rows} rows, expected {expected} "
            "(rerun with resume=True)"
        )
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
    for f in fragments:
        os.unlink(f)
    return {"entry": entry, "read": t1 - t0, "encode": t2 - t1, "write": t3 - t2}


def encode_dataset(
    ds,
    out_dir: str,
    *,
    chunk_tokens: int = 1 << 19,
    bucket_tokens: int = 16 << 20,
    codecs: tuple[str, ...] = DEFAULT_CODECS,
    resume: bool = False,
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
        if saved_config != config:
            raise ValueError(f"resume config mismatch: {saved_config} != {config}")
    else:
        states, mass, pass1 = train_states(ds, input_path)
        bucket_plan = build_bucket_plan(mass, bucket_tokens)
        mf.save_plan(out_dir, states, bucket_plan, mass, config)
    timings["pass1_train"] = time.perf_counter() - t0

    done = mf.completed_parts(out_dir) if resume else set()
    if mf.chunks_dir(out_dir).exists():
        for stale in mf.chunks_dir(out_dir).glob("*.tmp"):
            stale.unlink()  # partial writes from an interrupted run
    staging = pathlib.Path(out_dir) / "_staging"
    shutil.rmtree(staging, ignore_errors=True)

    # map: stage each bucket's rows not yet done as fragments
    staged = ds.map_batches(
        stage_batch,
        batch_format="pyarrow",
        batch_size=None,
        fn_kwargs={
            "staging": str(staging),
            "bucket_plan": bucket_plan,
            "key_tag": _key_tag,
            "done": sorted(done),
            # read in the driver: workers started before a test sets
            # the variable would not see it
            "fault_dir": os.environ.get("FSST_FAULT_ROUTE_ONCE_DIR"),
        },
    ).take_all()
    expected: dict[str, int] = {}
    fragments: dict[str, list] = {}
    for r in staged:
        expected[r["part_key"]] = expected.get(r["part_key"], 0) + r["n_rows"]
        fragments.setdefault(r["part_key"], []).append(r["path"])
    # reduce: one encode_bucket call per bucket, in the driver or as
    # one Ray task per bucket (executor's rewrite bound)
    keys = sorted(expected)
    results, run = executor.map_files(
        encode_bucket,
        [sorted(fragments[k]) for k in keys],
        [{"key": k, "expected": expected[k]} for k in keys],
        rewrite=True,
        out_dir=out_dir,
        states=states,
        chunk_tokens=chunk_tokens,
        codecs=codecs,
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
    metrics = mf.summarize(entries)
    metrics["timings"] = {k: round(v, 3) for k, v in timings.items()}
    metrics["pass1"] = pass1
    metrics["pass2"] = {"executor": run["executor"], "staged_bytes": run["bytes_read"]}
    return EncodeResult(out_dir, metrics, bucket_plan)


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
    append resumes with resume=True (the same skip-completed-parts
    machinery as encode, scoped to this generation's tagged keys);
    starting a NEW append while the previous one is incomplete raises.
    """
    import json

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
    if resume and gens:
        prev = json.loads(mf.append_plan_path(out_dir, latest).read_text())
        if not prev.get("completed"):
            gen = latest  # resume the crashed generation
        else:
            gen = latest + 1  # nothing to resume: a fresh generation
    else:
        if gens:
            prev = json.loads(mf.append_plan_path(out_dir, latest).read_text())
            if not prev.get("completed"):
                raise ValueError(
                    f"append generation g{latest} is incomplete — rerun with "
                    "resume=True to finish it before starting a new append"
                )
        gen = latest + 1

    plan_file = mf.append_plan_path(out_dir, gen)
    # encode_dataset's own pass-1 timer covers only taking this plan
    t0 = time.perf_counter()
    if resume and plan_file.exists():
        states, bucket_plan, mass, saved_config = mf.load_plan(out_dir, path=plan_file)
        if saved_config != config:
            raise ValueError(f"append resume config mismatch: {saved_config} != {config}")
        pass1 = {"route": "resumed", "sources_trained": []}
    else:
        # pass 1 over the APPENDED data only: mass for every source,
        # training only for sources the corpus does not have yet
        states, mass, pass1 = train_states(ds, input_path, mf.corpus_states(out_dir))
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
