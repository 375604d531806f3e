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

`purge_deletes` materializes the deletions: bucket files whose zone
range can contain a tombstoned id are decoded, filtered and re-encoded
with the corpus's saved per-source states (base plan overlaid with
every append generation's, so append-trained sources keep their
symbol tables). It refuses on an incomplete corpus (an orphan file not
yet in the manifest would silently resurrect its deleted rows when the
tombstones clear) and is CRASH-CONVERGENT without a journal: every
zone-hit file's manifest entry is recomputed from the file's CURRENT
content on every run, so a rerun after any interruption lands on the
same final state. Files that cannot contain a deleted id are never
touched. Each zone-hit file is one `_purge_file` call through the
per-file executor (pipelines/executor.py): in the driver at or below
its rewrite bound, one Ray task per file above it.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pyarrow as pa

from ..keyed import sorted_isin
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


def _all_states(out_dir: str) -> dict:
    """Base-plan codec states overlaid with every append generation's —
    sources first seen in an append exist ONLY in that generation's
    plan file, and re-encoding them without their symbol table would
    silently fall back to a worse codec."""
    from ..pipelines.encode_job import _append_generations, _append_plan_path

    base_states, _, _, _ = mf.load_plan(out_dir)
    states = dict(base_states)
    for gen in _append_generations(out_dir):
        gstates, _, _, _ = mf.load_plan(
            out_dir, path=_append_plan_path(out_dir, gen)
        )
        for src, st in gstates.items():
            states.setdefault(src, st)
    return states


def _entry_from_chunks(key: str, old: dict, chunks: pa.Table) -> dict:
    """Recompute a manifest entry from a file's chunk rows (the
    crash-convergence primitive: entries always reflect on-disk
    content)."""
    new_e = dict(old)
    new_e.update(
        rows=int(pa.compute.sum(chunks["n_rows"]).as_py() or 0),
        chunks=chunks.num_rows,
        tokens=int(pa.compute.sum(chunks["n_values"]).as_py() or 0),
        bytes_in=int(pa.compute.sum(chunks["bytes_in"]).as_py() or 0),
        bytes_out=int(pa.compute.sum(chunks["bytes_out"]).as_py() or 0),
        codecs={},
    )
    for c in chunks["codec"].to_pylist():
        new_e["codecs"][c] = new_e["codecs"].get(c, 0) + 1
    if "doc_min" in old:
        doc_lists = chunks["doc_id"]
        flat = (
            doc_lists.combine_chunks()
            if isinstance(doc_lists, pa.ChunkedArray)
            else doc_lists
        ).flatten()
        if len(flat):
            mm = pa.compute.min_max(flat)
            new_e["doc_min"] = mm["min"].as_py()
            new_e["doc_max"] = mm["max"].as_py()
        else:
            # emptied file: "" (below any real doc_id) is the explicit
            # NEVER-HIT zone — absent fields mean always-scan, and the
            # stale range would keep attracting pointless decodes
            new_e["doc_min"] = new_e["doc_max"] = ""
    return new_e


def _purge_file(path, key, entry, dead, states, chunk_tokens, codecs) -> dict:
    """Purge one zone-hit chunk file: decode, drop the ids in `dead`,
    re-encode with `states` and replace the file (tmp+rename). Returns
    the file's result row: its key, its manifest entry recomputed from
    the file's current content, the rows purged and the action taken
    ("rewrite", or "refresh" when no row was dead)."""
    import pyarrow.parquet as pq

    from ..pipelines.compact_job import write_rekeyed
    from ..stages.decoder import decode_chunks_batch
    from ..stages.encoder import encode_rows_to_chunks

    raw = pq.read_table(path)
    rows = decode_chunks_batch(raw)
    hit = sorted_isin(dead, rows["doc_id"].to_numpy(zero_copy_only=False))
    if not hit.any():
        # crash convergence: a prior interrupted purge may have
        # rewritten this file without updating its entry — recompute
        # from current content either way
        entry = _entry_from_chunks(key, entry, raw)
        return {"key": key, "entry": entry, "purged": 0, "action": "refresh"}
    keep = rows.filter(pa.array(~hit))
    if keep.num_rows == 0:
        # every row tombstoned: the file becomes an EMPTY chunk file
        # (schema preserved via slice(0)) rather than being unlinked —
        # the part key stays in the manifest so the corpus-completeness
        # invariant holds for resume/compact, and the tmp+rename keeps
        # this path crash-convergent
        chunks = raw.slice(0, 0)
    else:
        chunks = encode_rows_to_chunks(keep, states, None, chunk_tokens, codecs)
    chunks = write_rekeyed(chunks, path, key, ".parquet.tmp")
    entry = _entry_from_chunks(key, entry, chunks)
    return {"key": key, "entry": entry, "purged": int(hit.sum()), "action": "rewrite"}


def purge_deletes(out_dir: str) -> dict:
    """Materialize tombstones (see module docstring): zone-pruned
    per-file decode -> filter -> re-encode (`_purge_file`, run by the
    per-file executor: in the driver when the zone-hit files total at
    most its bound on disk, one Ray task per file above it); a fully
    tombstoned file becomes an EMPTY chunk file (its part key stays in
    the manifest, preserving the corpus-completeness invariant, and the
    tmp+rename keeps the path crash-convergent); entries of every
    zone-hit file are recomputed from current content. Only the delete
    batches snapshotted at the start are cleared — a concurrent
    delete_docs landing mid-purge survives for the next one. Returns
    counts and the `executor` that ran the rewrite."""
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

    def may_hit(e: dict) -> bool:
        dmin, dmax = e.get("doc_min"), e.get("doc_max")
        if dmin is None or dmax is None:
            return True
        i = int(np.searchsorted(dead, dmin, side="left"))
        return i < len(dead) and dead[i] <= dmax

    victims = {k: e for k, e in sorted(entries.items()) if may_hit(e)}
    if not victims:
        for f in batch_files:
            f.unlink(missing_ok=True)
        return {"purged_rows": 0, "files_rewritten": 0}
    results, run = executor.map_files(
        _purge_file,
        [str(cdir / e["file"]) for e in victims.values()],
        [{"key": k, "entry": e} for k, e in victims.items()],
        rewrite=True,
        dead=dead,
        states=_all_states(out_dir),
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
        "executor": run["executor"],
    }


def _upsert_dir(out_dir: str) -> pathlib.Path:
    return pathlib.Path(out_dir) / "upserts"


def _upsert_intent(out_dir: str) -> pathlib.Path:
    return _upsert_dir(out_dir) / "intent.json"


def _latest_generation(out_dir: str) -> int:
    from ..pipelines.encode_job import _append_generations

    gens = _append_generations(out_dir)
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

    from ..pipelines.encode_job import _append_generations, _append_plan_path, append_dataset

    gens = [g for g in _append_generations(out_dir) if g > base_gen]
    no_purge = {"purged_rows": 0, "files_rewritten": 0}
    if gens:
        # delete+purge finished before the append started (sequential
        # phases); never re-delete here — the new generation may hold
        # the replacement rows and a fresh tombstone would hide them
        plan = json.loads(_append_plan_path(out_dir, gens[-1]).read_text())
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
