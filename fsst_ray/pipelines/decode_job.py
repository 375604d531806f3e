"""Decode pass + round-trip verification."""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..keyed import list_any
from ..sources.tokens import TOKENS_SCHEMA
from ..stages.decoder import dataset_checksum, decode_chunks_batch
from ..state import manifest as mf
from . import executor


def read_encoded(out_dir: str):
    """Ray Dataset of encoded-chunk rows.

    Encoded chunk rows are a few MB each, so the default 128 MB block
    target would bundle many bucket files into one read task and cap
    decode parallelism; split to roughly one block per bucket file.
    """
    import pathlib

    import ray
    import ray.data as rd

    from .compact_job import assert_readable

    assert_readable(out_dir)
    path = mf.chunks_dir(out_dir)
    nbytes = sum(f.stat().st_size for f in pathlib.Path(path).glob("*.parquet"))
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    # bytes-aware block count (same rule as read_parquet_bundled but
    # 4x CPUs): decode blocks are heavy (payload decode writes ~2x the
    # encoded bytes), so ~2 blocks/CPU quantizes badly — a 33-block
    # read on 16 CPUs gives some workers 3 blocks and a 50% tail
    # (measured: the 16-CPU decode leg swung 10.5-18.9 s on it)
    blocks = max(4 * cpus, -(-nbytes // (256 << 20)))
    return rd.read_parquet(
        str(path),
        file_extensions=["parquet"],
        override_num_blocks=blocks,
    )


def decode_dataset(encoded_or_dir, out_dir: str | None = None):
    """Encoded chunks -> original (doc_id, tokens, n_tok, source) rows.

    Tombstone contract (state/tombstones.py: "EVERY decode path
    filters"): given a directory — or a Dataset plus `out_dir` — the
    corpus tombstone set is applied and deleted rows never surface. A
    bare Dataset carries no pointer to its corpus directory, so callers
    composing `read_encoded(d)` with `decode_dataset(ds)` MUST pass
    `out_dir=d`, otherwise deleted rows resurrect."""
    if isinstance(encoded_or_dir, str):
        out_dir = encoded_or_dir
        encoded = read_encoded(encoded_or_dir)
    else:
        encoded = encoded_or_dir
    rows = encoded.map_batches(
        decode_chunks_batch, batch_format="pyarrow", batch_size=None
    )
    if out_dir is not None:
        rows = _apply_tombstones(out_dir, rows)
    return rows


def verify_roundtrip(original_ds, encoded_or_dir) -> dict:
    """Streaming checksum comparison: decoded content == original content
    (order-insensitive, per-row order-sensitive within tokens)."""
    left = dataset_checksum(original_ds)
    right = dataset_checksum(decode_dataset(encoded_or_dir))
    return {
        "match": left == right,
        "original": left,
        "decoded": right,
    }


_HITS_SCHEMA = pa.schema([("part_key", pa.string()), ("chunk_seq", pa.int32())])


def _apply_tombstones(out_dir: str, rows_ds):
    from ..state.tombstones import drop_dead, load_tombstones

    dead = load_tombstones(out_dir)
    if len(dead) == 0:
        return rows_ds
    return rows_ds.map_batches(
        drop_dead, fn_kwargs={"dead": dead}, batch_format="pyarrow"
    )


def _chunk_keys(table: pa.Table) -> pa.Array:
    """'{part_key}#{chunk_seq}' per row: the composite chunk key that
    phase B matches against phase A's hits."""
    return pc.binary_join_element_wise(
        table["part_key"], pc.cast(table["chunk_seq"], pa.string()), "#"
    )


def _is_in(values, wanted: pa.Array):
    return pc.is_in(values, value_set=wanted)


def _ntok_between(values, lo: int, hi: int):
    return pc.and_(pc.greater_equal(values, lo), pc.less_equal(values, hi))


def find_hits(path, column: str, match) -> pa.Table:
    """Phase A over one chunk file: the (part_key, chunk_seq) of every
    chunk whose per-row `column` index list holds at least one value
    `match` accepts (an exact test per row, not a min/max
    approximation). Reads only the index columns."""
    import pyarrow.parquet as pq

    index = pq.read_table(path, columns=["part_key", "chunk_seq", column])
    mask = list_any(index[column], match(pc.list_flatten(index[column])))
    return index.select(["part_key", "chunk_seq"]).filter(pa.array(mask))


def decode_file(path, dead, column=None, match=None, keys=None) -> pa.Table:
    """One chunk file's live rows: the one decode body of every
    file-subset read. Decodes only the chunks whose key is in `keys`
    (phase B) when given, keeps the rows whose `column` value `match`
    accepts when given, and drops the tombstoned ids in `dead`."""
    import pyarrow.parquet as pq

    from ..state.tombstones import drop_dead

    chunks = pq.read_table(path)
    if keys is not None:
        chunks = chunks.filter(pc.is_in(_chunk_keys(chunks), value_set=keys))
    if chunks.num_rows == 0:
        return TOKENS_SCHEMA.empty_table()
    rows = decode_chunks_batch(chunks)
    if match is not None:
        rows = rows.filter(match(rows[column]))
    return drop_dead(rows, dead)


def _decode_files(out_dir, files, stats, **kwargs):
    """Map `decode_file` over `files` (see executor.py for where it
    runs) with the corpus's tombstones; records the executor and the
    bytes read in `stats`."""
    from ..state.tombstones import load_tombstones

    rows, run = executor.map_files_to_dataset(
        decode_file,
        files,
        TOKENS_SCHEMA.empty_table(),
        dead=load_tombstones(out_dir),
        **kwargs,
    )
    if stats is not None:
        stats.update(run)
    return rows


def _pruned_decode(out_dir, entries, scan_entries, column, match, stats):
    """The two-phase pruned read shared by decode_select and
    decode_ntok_range: phase A (`find_hits`) scans only the
    (part_key, chunk_seq, `column`) index columns of the `scan_entries`
    files — the payload column, ~99% of encoded bytes, is never read;
    phase B (`decode_file` with the hit keys) re-reads just the files
    holding a hit chunk (the manifest's part->file map), decodes only
    the hit chunks and drops tombstoned rows. Each phase runs through
    the per-file executor (executor.py): in the driver when its files
    total at most the read bound on disk; above it phase A runs one Ray
    task per file and phase B is a lazy Ray Data map over the files."""
    path = mf.chunks_dir(out_dir)
    scan_files = [str(path / e["file"]) for e in scan_entries.values()]
    found, scan = executor.map_files(find_hits, scan_files, column=column, match=match)
    # driver-bounded: at most one row per hit chunk
    hits = pa.concat_tables([_HITS_SCHEMA.empty_table(), *found])
    hit_parts = set(hits["part_key"].to_pylist())
    hit_files = [str(path / e["file"]) for k, e in entries.items() if k in hit_parts]
    if stats is not None:
        stats["executor"] = scan["executor"]
        stats["files_zone_scanned"] = len(scan_files)
        stats["bytes_zone_scanned"] = scan["bytes_read"]
        stats["files_total"] = len(entries)
        stats["files_read"] = len(hit_files)
        stats["chunks_total"] = sum(e["chunks"] for e in entries.values())
        stats["chunks_decoded"] = hits.num_rows
    return _decode_files(
        out_dir, hit_files, None, column=column, match=match, keys=_chunk_keys(hits)
    )


def decode_select(out_dir: str, doc_ids, stats: dict | None = None):
    """Selective decode: the original rows for exactly `doc_ids`.

    The point-lookup path over an encoded corpus — decodes only the
    chunks that contain requested docs instead of scanning everything.
    Zone-map pruning first drops every file whose manifest
    [doc_min, doc_max] range cannot hold a requested id (entries
    without zone fields are always scanned; an empty request scans
    nothing), then a two-phase pruned read:

    - **Phase A** scans ONLY the chunk-index columns (`part_key`,
      `chunk_seq`, `doc_id`) of the remaining files and collects the
      hit chunk keys (driver-bounded: at most one key per requested
      doc per chunk).
    - **Phase B** re-reads just the HIT bucket files, decodes only the
      hit chunks, and trims the decoded rows to the requested ids.

    Small reads run in the driver: when a phase's files total at most
    `executor._DRIVER_READ_BYTES` on disk, it runs in this process with
    pyarrow and no Ray job starts — a point lookup then costs
    milliseconds, not Ray's fixed cost per job. Larger phases run the
    same per-file functions on Ray (see `_pruned_decode`). Either way
    the result is a Dataset.

    If `stats` is passed, records files_zone_scanned /
    bytes_zone_scanned / files_total / files_read / chunks_total /
    chunks_decoded for pruning assertions, and phase A's `executor`
    ("driver" or "ray").
    """
    wanted_sorted = sorted({str(d) for d in doc_ids})
    wanted_np = np.array(wanted_sorted)

    from .compact_job import assert_readable

    assert_readable(out_dir)
    entries = mf.load_manifest(out_dir)
    scan_entries = {k: e for k, e in entries.items() if mf.zone_may_hit(e, wanted_np)}
    match = functools.partial(_is_in, wanted=pa.array(wanted_sorted, pa.string()))
    return _pruned_decode(out_dir, entries, scan_entries, "doc_id", match, stats)


def decode_ntok_range(out_dir: str, lo: int, hi: int, stats: dict | None = None):
    """Selective decode by sequence length: rows with lo <= n_tok <= hi.

    The length-predicate sibling of `decode_select` — the read pattern
    of a curriculum / length-bucketed training selection ("decode only
    the long documents"). Same two-phase pruned read and the same two
    executors (driver at or below `executor._DRIVER_READ_BYTES` of a
    phase's files, Ray above):

    - **Phase A** scans ONLY (part_key, chunk_seq, n_tok) — parquet
      projection never touches the payload column. A chunk is hit iff
      it contains at least one row in range (exact test over the
      flattened per-row n_tok index, not a min/max approximation).
    - **Phase B** re-reads just the hit bucket files, decodes only hit
      chunks, and trims decoded rows to the range.

    File-level doc-id zone maps cannot help here by design (buckets are
    doc-hash assigned for write balance, so every bucket spans most of
    the length distribution), so phase A scans every file — but whole
    files are still skipped in phase B when none of their chunks hit,
    which is exactly the selective-tail case (n_tok above p99) where
    this read matters at 100 TB.
    """
    from .compact_job import assert_readable

    assert_readable(out_dir)
    entries = mf.load_manifest(out_dir)
    match = functools.partial(_ntok_between, lo=lo, hi=hi)
    return _pruned_decode(out_dir, entries, entries, "n_tok", match, stats)


def generation_of_key(part_key: str) -> int:
    """Append generation encoded in a part key: base buckets
    ('{source}:{bucket}') are generation 0, appended buckets
    ('{source}:g{N}-{bucket}') are N. Compacted keys
    ('{source}:c{gen}-{seq}') RAISE — compaction folds generations
    into one file set, so as-of-generation reads are no longer
    possible (the documented trade of compact_corpus)."""
    seg = part_key.split(":", 1)[1]
    if seg[:1] == "c":
        raise ValueError(
            f"part key {part_key!r} is compacted: generations were folded "
            "by compact_corpus, so generation time travel is unavailable "
            "on this corpus"
        )
    if seg[:1] == "g":
        return int(seg[1 : seg.index("-")])
    return 0


def decode_generation(out_dir: str, max_gen: int, stats: dict | None = None):
    """As-of-generation decode (time travel over incremental appends):
    only rows ingested at append generation <= `max_gen` (base encode =
    generation 0). Pruning is purely manifest-level, like
    `decode_source`: generations are encoded in part keys and buckets
    never span generations, so ONLY the selected generations' bucket
    files are opened. Tombstones still apply (current deletes filter
    every decode path — "as of generation g, minus rows since deleted";
    documented). Raises on a compacted corpus (generations folded).

    If `stats` is passed, records files_total / files_read, `executor`
    ("driver" or "ray", see executor.py) and `bytes_read`."""
    return _decode_parts(
        out_dir, lambda key: generation_of_key(key) <= max_gen, stats
    )


def decode_source(out_dir: str, sources, stats: dict | None = None):
    """Selective decode by SOURCE: the per-source export read ("give me
    the english split"). Buckets are per-source by construction
    (part_key = '{source}:...'), so the pruning is purely manifest-
    level — only the requested sources' bucket files are ever opened;
    no phase-A scan is needed at all. At 100 TB this reads exactly the
    selected sources' share of the corpus. Records the same `stats` as
    `decode_generation`."""
    wanted = set(sources) if not isinstance(sources, str) else {sources}
    # belt-and-braces: buckets are per-source, but the predicate is
    # enforced on the decoded rows anyway
    match = functools.partial(_is_in, wanted=pa.array(sorted(wanted), pa.string()))
    return _decode_parts(
        out_dir,
        lambda key: key.split(":", 1)[0] in wanted,
        stats,
        column="source",
        match=match,
    )


def _decode_parts(out_dir, keep_key, stats, **kwargs):
    """Decode the bucket files whose part key `keep_key` accepts: the
    manifest-level file filter behind decode_source and
    decode_generation."""
    from .compact_job import assert_readable

    assert_readable(out_dir)
    path = mf.chunks_dir(out_dir)
    entries = mf.load_manifest(out_dir)
    files = [str(path / e["file"]) for key, e in entries.items() if keep_key(key)]
    if stats is not None:
        stats["files_total"] = len(entries)
        stats["files_read"] = len(files)
    return _decode_files(out_dir, files, stats, **kwargs)
