"""Row deletion for encoded corpora: tombstones.

Deleting documents from a 100-TB encoded corpus must not rewrite
payload bytes — a delete batch lands as one parquet sidecar under
`<out>/tombstones/` (atomic tmp+rename, uniquely named per writer, the
same uncoordinated-append discipline as manifest entries), and EVERY
decode path (full scan, point lookup, length range, per-source)
filters decoded rows against the broadcast tombstone set. Cost:
O(delete-set) storage + one vectorized membership test per decoded
batch.

Contract:
- the tombstone set is assumed broadcastable (deletes are a tiny
  fraction of the corpus; the purge below resets it to empty);
- a deleted doc_id must NOT be re-appended before a purge — tombstones
  filter by id over the union corpus, so the new row would be hidden
  too (`upsert_docs` composes the safe order);
- `verify` against the ORIGINAL input will (correctly) mismatch once
  rows are deleted — the corpus no longer equals that input. The
  driver query compares against the SQL-filtered oracle instead.

`purge_deletes` materializes the deletions: in each bucket file whose
zone range can contain a tombstoned id, the chunks whose `doc_id` index
list holds one are decoded, filtered and re-encoded with the corpus's
saved per-source states (`mf.corpus_states`: the base plan overlaid
with every append generation's, so append-trained sources keep their
symbol tables); the file's other chunk rows are copied as they are. It
refuses on an incomplete corpus (an orphan file not yet in the manifest
would silently resurrect its deleted rows when the tombstones clear)
and is CRASH-CONVERGENT without a journal: every zone-hit file's
manifest entry is derived from the file's CURRENT content on every
run, so a rerun after any interruption lands on the same final state.
Files that cannot contain a deleted id are never touched. Each zone-hit
file is one `_purge_file` call through the per-file executor
(pipelines/executor.py): in the driver at or below its rewrite bound,
one Ray task per file above it.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..keyed import list_any, sorted_isin
from . import manifest as mf


def tombstones_dir(out_dir: str) -> pathlib.Path:
    return pathlib.Path(out_dir) / "tombstones"


def delete_docs(out_dir: str, doc_ids) -> dict:
    """Append one delete batch (sorted, deduped). Batch files are
    uniquely named per writer (pid + random suffix), so concurrent
    delete calls never clobber each other. Returns counts."""
    import uuid

    import pyarrow.parquet as pq

    ids = sorted({str(d) for d in doc_ids})
    tdir = tombstones_dir(out_dir)
    tdir.mkdir(parents=True, exist_ok=True)
    name = f"del_{os.getpid()}_{uuid.uuid4().hex[:10]}.parquet"
    final = tdir / name
    tmp = final.with_suffix(".parquet.tmp")
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.string())}), tmp)
    os.replace(tmp, final)
    return {"deleted": len(ids), "batch_file": name}


def _tombstone_batches(out_dir: str) -> list[pathlib.Path]:
    tdir = tombstones_dir(out_dir)
    return sorted(tdir.glob("del_*.parquet")) if tdir.exists() else []


def load_tombstones(out_dir: str, files: list[pathlib.Path] | None = None) -> np.ndarray:
    """Sorted unique doc_id array of the given delete batches (default:
    all current ones). Driver-side and broadcast once per job —
    delete-set-sized, never corpus-sized."""
    import pyarrow.parquet as pq

    files = _tombstone_batches(out_dir) if files is None else files
    parts = [
        pq.read_table(f, columns=["doc_id"])["doc_id"].to_numpy(
            zero_copy_only=False
        )
        for f in files
    ]
    if not parts:
        return np.array([], dtype=str)
    return np.unique(np.concatenate(parts))


def drop_dead(rows: pa.Table, dead: np.ndarray) -> pa.Table:
    """`rows` without those whose doc_id is in `dead`, the sorted
    tombstone set of `load_tombstones`: the one row filter every decode
    path applies, in the driver or mapped over a Ray Dataset."""
    if len(dead) == 0:
        return rows
    ids = rows["doc_id"].to_numpy(zero_copy_only=False)
    return rows.filter(pa.array(~sorted_isin(dead, ids)))


def _purge_file(path, key, dead, states, chunk_tokens, codecs) -> dict:
    """Purge one zone-hit chunk file. The chunks whose `doc_id` index
    list holds an id in `dead` are decoded, their dead rows dropped and
    the survivors re-encoded with `states`, in doc-id order; every
    other chunk row is copied as it is (a payload carries its own
    symbol table). The copied rows and the re-encoded ones replace the
    file through `mf.write_chunk_file`. Returns the file's result row:
    its key, its manifest entry derived from the file's current
    content, the rows purged, the chunks decoded and the action taken
    ("rewrite", or "refresh" when no row was dead)."""
    import pyarrow.parquet as pq

    from ..stages.decoder import decode_chunks_batch
    from ..stages.encoder import encode_rows_to_chunks

    file = pathlib.Path(path).name
    raw = pq.read_table(path)
    doc_lists = raw["doc_id"]
    ids = pc.list_flatten(doc_lists).to_numpy(zero_copy_only=False)
    dead_ids = sorted_isin(dead, ids)
    hit = list_any(doc_lists, dead_ids)
    if not hit.any():
        # crash convergence: a prior interrupted purge may have
        # rewritten this file without updating its entry — derive it
        # from current content either way
        entry = mf.entry_from_chunks(key, file, raw)
        return {"key": key, "entry": entry, "purged": 0, "chunks_decoded": 0, "action": "refresh"}
    # decoded rows follow the hit chunks' flattened doc_id lists
    in_hit = np.repeat(hit, pc.list_value_length(doc_lists).to_numpy(zero_copy_only=False))
    live = ~dead_ids[in_hit]
    keep = decode_chunks_batch(raw.filter(pa.array(hit))).filter(pa.array(live))
    # a fully tombstoned file becomes an EMPTY chunk file (schema kept)
    # rather than being unlinked: the part key stays in the manifest,
    # so the corpus-completeness invariant holds for resume/compact
    chunks = [raw.filter(pa.array(~hit))]
    if keep.num_rows:
        chunks.append(
            encode_rows_to_chunks(
                keep, states, key, chunk_tokens, codecs, sort_keys=ids[in_hit][live]
            )
        )
    entry = mf.write_chunk_file(pa.concat_tables(chunks), path, key)
    return {
        "key": key,
        "entry": entry,
        "purged": int(dead_ids.sum()),
        "chunks_decoded": int(hit.sum()),
        "action": "rewrite",
    }


def purge_deletes(out_dir: str) -> dict:
    """Materialize tombstones (see module docstring): zone-pruned
    victim files (`mf.zone_may_hit`), and in each only the chunks that
    hold a dead id are decoded, filtered and re-encoded (`_purge_file`,
    run by the per-file executor: in the driver when the zone-hit files
    total at most its bound on disk, one Ray task per file above it); a
    fully tombstoned file becomes an EMPTY chunk file (its part key
    stays in the manifest, preserving the corpus-completeness
    invariant, and the tmp+rename keeps the path crash-convergent);
    entries of every zone-hit file are derived from current content.
    Only the delete batches snapshotted at the start are cleared — a
    concurrent delete_docs landing mid-purge survives for the next one.
    Returns counts (rows purged, files rewritten, chunks decoded) and
    the `executor` that ran the rewrite."""
    from ..pipelines import executor
    from ..pipelines.compact_job import _assert_corpus_complete, assert_readable

    # an interrupted compaction's manifest may reference superseded
    # files; an incomplete encode/append may have orphan chunk files a
    # manifest-driven purge would miss (their deleted rows would
    # resurrect when the tombstones clear) — refuse both
    assert_readable(out_dir)
    # snapshot the batch files NOW: a delete_docs that lands after this
    # point is NOT part of this purge and must survive the cleanup
    batch_files = _tombstone_batches(out_dir)
    dead = load_tombstones(out_dir, files=batch_files)
    if len(dead) == 0:
        return {"purged_rows": 0, "files_rewritten": 0}
    _, bucket_plan, _, config = mf.load_plan(out_dir)
    _assert_corpus_complete(out_dir, bucket_plan)
    # snapshot the sidecar list BEFORE loading: a concurrent append's
    # entry written after this point must survive the consolidation
    sidecars = mf.manifest_sidecars(out_dir)
    entries = mf.load_manifest(out_dir)
    cdir = mf.chunks_dir(out_dir)

    victims = {k: e for k, e in sorted(entries.items()) if mf.zone_may_hit(e, dead)}
    if not victims:
        for f in batch_files:
            f.unlink(missing_ok=True)
        return {"purged_rows": 0, "files_rewritten": 0}
    results, run = executor.map_files(
        _purge_file,
        [str(cdir / e["file"]) for e in victims.values()],
        [{"key": k} for k in victims],
        rewrite=True,
        dead=dead,
        states=mf.corpus_states(out_dir),
        chunk_tokens=config["chunk_tokens"],
        codecs=tuple(config["codecs"]),
    )
    for r in results:
        entries[r["key"]] = r["entry"]
    mf.consolidate_manifest(out_dir, entries, sidecars)
    for f in batch_files:
        f.unlink(missing_ok=True)
    return {
        "purged_rows": sum(r["purged"] for r in results),
        "files_rewritten": sum(r["action"] == "rewrite" for r in results),
        "chunks_decoded": sum(r["chunks_decoded"] for r in results),
        "executor": run["executor"],
    }


def _upsert_dir(out_dir: str) -> pathlib.Path:
    return pathlib.Path(out_dir) / "upserts"


def _upsert_intent(out_dir: str) -> pathlib.Path:
    return _upsert_dir(out_dir) / "intent.json"


def _latest_generation(out_dir: str) -> int:
    gens = mf.append_generations(out_dir)
    return gens[-1] if gens else 0


def _finish_upsert(out_dir: str, n_ids: int, purged: dict, res) -> dict:
    import shutil

    _upsert_intent(out_dir).unlink(missing_ok=True)
    shutil.rmtree(_upsert_dir(out_dir) / "staging", ignore_errors=True)
    return {
        "upserted": n_ids,
        "replaced_rows": purged["purged_rows"],
        "files_rewritten": purged["files_rewritten"],
        "generation": res.metrics["generation"],
    }


def upsert_docs(ds, out_dir: str) -> dict:
    """Replace-or-insert: delete any existing rows with the incoming
    doc_ids, MATERIALIZE the deletion (purge — required because a
    tombstone would hide the re-appended id, see the module contract),
    then append the new rows as a fresh generation. Cost: one
    zone-pruned purge over the hit files + O(appended bytes) staging
    write + O(appended bytes) encode. Returns the combined metrics.

    CRASH-CONVERGENT via a journal (the purge->append window would
    otherwise lose the replaced rows forever: the old copies are
    materialized away and the new ones never landed). The incoming
    rows are staged to `<out>/upserts/staging/` and an intent file
    recording the pre-upsert append generation is written BEFORE any
    delete; only after the append lands are both removed. A rerun
    after any interruption goes through `resume_upsert`, which
    replays the not-yet-done phases idempotently (delete+purge of
    already-purged ids is a no-op; a half-done append resumes its
    generation; a fully-landed append is detected by the completed
    generation > base and only the journal is cleared). Single
    writer assumed, same as append/compaction."""
    import json

    import ray.data as rd

    intent = _upsert_intent(out_dir)
    if intent.exists():
        raise RuntimeError(
            f"interrupted upsert pending at {intent}; call "
            "resume_upsert(out_dir) before starting a new one"
        )
    import shutil

    staging = _upsert_dir(out_dir) / "staging"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    ds.write_parquet(str(staging))
    staged = rd.read_parquet(str(staging))
    ids = []
    for b in staged.select_columns(["doc_id"]).iter_batches(batch_format="pyarrow"):
        ids += pa.table(b)["doc_id"].to_pylist()
    tmp = intent.with_suffix(".tmp")
    tmp.write_text(json.dumps({"base_generation": _latest_generation(out_dir),
                               "n_ids": len(ids)}))
    os.replace(tmp, intent)

    from ..pipelines.encode_job import append_dataset

    delete_docs(out_dir, ids)
    purged = purge_deletes(out_dir)
    res = append_dataset(staged, out_dir, input_path=str(staging))
    return _finish_upsert(out_dir, len(ids), purged, res)


def resume_upsert(out_dir: str) -> dict | None:
    """Complete an interrupted `upsert_docs`. Returns the upsert
    metrics (replaced_rows reflects only work done by THIS call), or
    None when no upsert journal is pending."""
    import json

    import ray.data as rd

    intent = _upsert_intent(out_dir)
    if not intent.exists():
        return None
    meta = json.loads(intent.read_text())
    base_gen = int(meta["base_generation"])
    staging = _upsert_dir(out_dir) / "staging"
    staged = rd.read_parquet(str(staging))

    from ..pipelines.encode_job import append_dataset

    gens = [g for g in mf.append_generations(out_dir) if g > base_gen]
    no_purge = {"purged_rows": 0, "files_rewritten": 0}
    if gens:
        # delete+purge finished before the append started (sequential
        # phases); never re-delete here — the new generation may hold
        # the replacement rows and a fresh tombstone would hide them
        plan = json.loads(mf.append_plan_path(out_dir, gens[-1]).read_text())
        if plan.get("completed"):

            class _Done:  # append landed; only the journal is stale
                metrics = {"generation": gens[-1]}

            return _finish_upsert(out_dir, int(meta["n_ids"]), no_purge, _Done())
        res = append_dataset(staged, out_dir, resume=True, input_path=str(staging))
        return _finish_upsert(out_dir, int(meta["n_ids"]), no_purge, res)

    # crashed at/before delete+purge: replay both (idempotent — ids
    # already purged simply hit nothing), then append
    ids = []
    for b in staged.select_columns(["doc_id"]).iter_batches(batch_format="pyarrow"):
        ids += pa.table(b)["doc_id"].to_pylist()
    delete_docs(out_dir, ids)
    purged = purge_deletes(out_dir)
    res = append_dataset(staged, out_dir, input_path=str(staging))
    return _finish_upsert(out_dir, len(ids), purged, res)
