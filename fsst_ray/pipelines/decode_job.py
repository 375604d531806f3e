"""Decode pass + round-trip verification."""

from __future__ import annotations

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.tokens import TOKENS_SCHEMA
from ..stages.decoder import dataset_checksum, decode_chunks_batch
from ..state import manifest as mf


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


# A selective decode whose zone-pruned scan files total at most this
# many bytes on disk runs in the driver. Set from
# tools/executor_crossover.py (16M-token buckets, Ray at 4 CPUs on a
# 4-core VM): point lookups ran 5.5-14x faster in the driver at every
# scan size up to 611 MiB; a range that decodes every chunk (the
# driver's worst case) ran 2.0x faster at 90 MiB, 1.37x at 302 MiB and
# 0.96x at 611 MiB. The bound stays below that crossover with margin,
# because more CPUs speed up only the Ray Data side, and it caps the
# driver's decoded rows at about 2.3x the bound.
_DRIVER_READ_BYTES = 256 << 20

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


def _doc_in(values, wanted: pa.Array):
    return pc.is_in(values, value_set=wanted)


def _ntok_between(values, lo: int, hi: int):
    return pc.and_(pc.greater_equal(values, lo), pc.less_equal(values, hi))


def find_hits(index: pa.Table, column: str, match) -> pa.Table:
    """Phase A: the (part_key, chunk_seq) of every chunk whose per-row
    `column` index list holds at least one value `match` accepts (an
    exact test per row, not a min/max approximation)."""
    col = index[column]
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    parents = pc.list_parent_indices(col).to_numpy(zero_copy_only=False)
    hit = match(pc.list_flatten(col)).to_numpy(zero_copy_only=False)
    mask = np.zeros(index.num_rows, dtype=bool)
    mask[parents[hit]] = True
    return index.select(["part_key", "chunk_seq"]).filter(pa.array(mask))


def decode_hits(chunks: pa.Table, keys: pa.Array, column: str, match) -> pa.Table:
    """Phase B: decode only the chunk rows whose key is in `keys`, and
    trim the decoded rows to those whose `column` value `match`
    accepts."""
    chunks = chunks.filter(pc.is_in(_chunk_keys(chunks), value_set=keys))
    if chunks.num_rows == 0:
        return TOKENS_SCHEMA.empty_table()
    rows = decode_chunks_batch(chunks)
    return rows.filter(match(rows[column]))


def _pruned_decode(out_dir, entries, scan_entries, column, match, stats):
    """The two-phase pruned read shared by decode_select and
    decode_ntok_range: phase A (`find_hits`) scans only the
    (part_key, chunk_seq, `column`) index columns of the `scan_entries`
    files — the payload column, ~99% of encoded bytes, is never read;
    phase B (`decode_hits`) re-reads just the files holding a hit chunk
    (the manifest's part->file map) and decodes only the hit chunks;
    then tombstoned rows are dropped.

    One path, two executors. When the scan files total at most
    `_DRIVER_READ_BYTES` on disk, the driver runs the phase functions
    with pyarrow and returns `rd.from_arrow` of the rows; larger scans
    map the same functions over Ray Data reads."""
    import pyarrow.parquet as pq
    import ray.data as rd

    from ..state.tombstones import drop_dead, load_tombstones

    path = mf.chunks_dir(out_dir)
    scan_files = [str(path / e["file"]) for e in scan_entries.values()]
    scan_bytes = sum(os.path.getsize(f) for f in scan_files)
    in_driver = scan_bytes <= _DRIVER_READ_BYTES
    index_cols = ["part_key", "chunk_seq", column]
    if in_driver:
        hits = pa.concat_tables(
            [_HITS_SCHEMA.empty_table()]
            + [
                find_hits(pq.read_table(f, columns=index_cols), column, match)
                for f in scan_files
            ]
        )
    else:
        index = rd.read_parquet(
            scan_files, file_extensions=["parquet"], columns=index_cols
        ).map_batches(
            find_hits,
            fn_kwargs={"column": column, "match": match},
            batch_format="pyarrow",
        )
        # driver-bounded: at most one row per hit chunk
        hits = pa.concat_tables(
            [_HITS_SCHEMA.empty_table()]
            + [pa.table(b) for b in index.iter_batches(batch_format="pyarrow")]
        )

    hit_parts = set(hits["part_key"].to_pylist())
    hit_files = [str(path / e["file"]) for k, e in entries.items() if k in hit_parts]
    if stats is not None:
        stats["executor"] = "driver" if in_driver else "ray"
        stats["files_zone_scanned"] = len(scan_files)
        stats["bytes_zone_scanned"] = scan_bytes
        stats["files_total"] = len(entries)
        stats["files_read"] = len(hit_files)
        stats["chunks_total"] = sum(e["chunks"] for e in entries.values())
        stats["chunks_decoded"] = hits.num_rows
    keys = _chunk_keys(hits)
    if in_driver:
        rows = pa.concat_tables(
            [TOKENS_SCHEMA.empty_table()]
            + [decode_hits(pq.read_table(f), keys, column, match) for f in hit_files]
        )
        return rd.from_arrow(drop_dead(rows, load_tombstones(out_dir)))
    if not hit_files:
        return rd.from_arrow(TOKENS_SCHEMA.empty_table())
    rows_ds = rd.read_parquet(hit_files, file_extensions=["parquet"]).map_batches(
        decode_hits,
        fn_kwargs={"keys": keys, "column": column, "match": match},
        batch_format="pyarrow",
        batch_size=None,
    )
    return _apply_tombstones(out_dir, rows_ds)


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

    Small reads run in the driver: when the zone-pruned scan files
    total at most `_DRIVER_READ_BYTES` (256 MiB) on disk, both phases
    and the tombstone drop run in this process with pyarrow and no Ray
    Data job starts — a point lookup then costs milliseconds, not
    Ray's fixed cost per job. Larger scans map the same phase
    functions over Ray Data reads. Either way the result is a Dataset.

    If `stats` is passed, records files_zone_scanned /
    bytes_zone_scanned / files_total / files_read / chunks_total /
    chunks_decoded for pruning assertions, and `executor` ("driver" or
    "ray").
    """
    wanted_sorted = sorted({str(d) for d in doc_ids})
    wanted_np = np.array(wanted_sorted)

    from .compact_job import assert_readable

    assert_readable(out_dir)
    entries = mf.load_manifest(out_dir)

    def _zone_may_hit(e: dict) -> bool:
        if not wanted_sorted:
            return False
        dmin, dmax = e.get("doc_min"), e.get("doc_max")
        if dmin is None or dmax is None:
            return True
        i = int(np.searchsorted(wanted_np, dmin, side="left"))
        return i < len(wanted_np) and wanted_np[i] <= dmax

    scan_entries = {k: e for k, e in entries.items() if _zone_may_hit(e)}
    match = functools.partial(_doc_in, wanted=pa.array(wanted_sorted, pa.string()))
    return _pruned_decode(out_dir, entries, scan_entries, "doc_id", match, stats)


def decode_ntok_range(out_dir: str, lo: int, hi: int, stats: dict | None = None):
    """Selective decode by sequence length: rows with lo <= n_tok <= hi.

    The length-predicate sibling of `decode_select` — the read pattern
    of a curriculum / length-bucketed training selection ("decode only
    the long documents"). Same two-phase pruned read and the same two
    executors (driver at or below `_DRIVER_READ_BYTES` of scanned files,
    Ray Data above):

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
    documented). Raises on a compacted corpus (generations folded)."""
    import ray.data as rd

    from .compact_job import assert_readable

    assert_readable(out_dir)
    path = mf.chunks_dir(out_dir)
    entries = mf.load_manifest(out_dir)
    files = [
        str(path / e["file"])
        for key, e in entries.items()
        if generation_of_key(key) <= max_gen
    ]
    if stats is not None:
        stats["files_total"] = len(entries)
        stats["files_read"] = len(files)
    if not files:
        return rd.from_arrow(TOKENS_SCHEMA.empty_table())
    rows = rd.read_parquet(
        files, override_num_blocks=max(len(files), 1)
    ).map_batches(decode_chunks_batch, batch_format="pyarrow", batch_size=None)
    return _apply_tombstones(out_dir, rows)


def decode_source(out_dir: str, sources, stats: dict | None = None):
    """Selective decode by SOURCE: the per-source export read ("give me
    the english split"). Buckets are per-source by construction
    (part_key = '{source}:...'), so the pruning is purely manifest-
    level — only the requested sources' bucket files are ever opened;
    no phase-A scan is needed at all. At 100 TB this reads exactly the
    selected sources' share of the corpus."""
    import ray.data as rd

    wanted = set(sources) if not isinstance(sources, str) else {sources}
    path = mf.chunks_dir(out_dir)
    from .compact_job import assert_readable

    assert_readable(out_dir)
    entries = mf.load_manifest(out_dir)
    files = [
        str(path / e["file"])
        for key, e in entries.items()
        if key.split(":", 1)[0] in wanted
    ]
    if stats is not None:
        stats["files_total"] = len(entries)
        stats["files_read"] = len(files)
    if not files:
        return rd.from_arrow(TOKENS_SCHEMA.empty_table())
    rows = rd.read_parquet(
        files, override_num_blocks=max(len(files), 1)
    ).map_batches(decode_chunks_batch, batch_format="pyarrow", batch_size=None)
    value_set = pa.array(sorted(wanted), pa.string())

    def enforce(batch: pa.Table) -> pa.Table:
        # belt-and-braces: buckets are per-source, but enforce the
        # predicate on decoded rows anyway
        return batch.filter(pc.is_in(batch["source"], value_set=value_set))

    return _apply_tombstones(out_dir, rows.map_batches(enforce, batch_format="pyarrow"))
