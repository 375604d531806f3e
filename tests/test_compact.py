"""Compaction: generation-fragmented bucket files merge into larger
ones with bit-identical decode, crash-safe journal recovery, and a
blocked base-encode resume afterwards."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from fsst_ray import (
    compact_corpus,
    decode_dataset,
    encode_dataset,
    verify_roundtrip,
)
from fsst_ray.pipelines.compact_job import (
    _merge_group,
    plan_compaction,
    repair_compaction,
)
from fsst_ray.sources.tokens import ensure_tokens_parquet
from fsst_ray.state import manifest as mf

SCALE = 0.2


@pytest.fixture(scope="module")
def tokens_full(ray_session):
    import ray.data as rd

    path = ensure_tokens_parquet(SCALE)
    ds = rd.read_parquet(path, file_extensions=["parquet"])
    return pa.concat_tables(
        pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")
    )


def _build_fragmented(tokens_full, tmp_path, name: str) -> tuple[str, object]:
    """Base encode of the even rows + one appended generation of the
    odd rows — a corpus with two file generations per source."""
    import ray.data as rd

    from fsst_ray import append_dataset

    idx = np.arange(tokens_full.num_rows)
    half_a = tokens_full.take(pa.array(idx[idx % 2 == 0]))
    half_b = tokens_full.take(pa.array(idx[idx % 2 == 1]))
    out = str(tmp_path / name)
    encode_dataset(
        rd.from_arrow(half_a), out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )
    append_dataset(rd.from_arrow(half_b), out)
    return out, rd.from_arrow(tokens_full)


def test_compact_roundtrip_and_file_reduction(tokens_full, tmp_path, ray_session):
    out, full_ds = _build_fragmented(tokens_full, tmp_path, "enc_c1")
    before = verify_roundtrip(full_ds, out)
    assert before["match"]
    files_before = len(list(mf.chunks_dir(out).glob("*.parquet")))
    sums_before = mf.summarize(mf.load_manifest(out))

    metrics = compact_corpus(out, target_bytes=512 << 20)
    assert metrics["groups"] >= 1
    files_after = len(list(mf.chunks_dir(out).glob("*.parquet")))
    assert files_after < files_before
    assert files_after == files_before - metrics["files_removed"] + metrics["files_written"]

    # decode is bit-identical and the manifest sums are unchanged
    after = verify_roundtrip(full_ds, out)
    assert after["match"] and after["decoded"] == before["decoded"]
    sums_after = mf.summarize(mf.load_manifest(out))
    for k in ("rows", "tokens", "bytes_in", "bytes_out", "chunks"):
        assert sums_after[k] == sums_before[k], k

    # selective decode still prunes with the merged zone maps
    from fsst_ray import decode_select

    some_id = decode_dataset(out).take(1)[0]["doc_id"]
    stats: dict = {}
    got = decode_select(out, [some_id], stats=stats).take_all()
    assert [r["doc_id"] for r in got] == [some_id]
    assert stats["files_read"] <= stats["files_total"]

    # a second compaction is a no-op (files already merged per source)
    again = compact_corpus(out, target_bytes=512 << 20)
    assert again["groups"] == 0
    assert verify_roundtrip(full_ds, out)["match"]


def test_compact_crash_recovery(tokens_full, tmp_path, ray_session):
    """Crash after one group's rename (constituents still on disk) and
    before the second group ran: repair must converge with no lost or
    duplicated rows."""
    out, full_ds = _build_fragmented(tokens_full, tmp_path, "enc_c2")
    before = verify_roundtrip(full_ds, out)

    journal = plan_compaction(out, target_bytes=512 << 20)
    assert len(journal["groups"]) >= 2, "need >=2 groups to simulate a partial crash"
    jp = pathlib.Path(out) / f"compaction_g{journal['generation']}.json"
    mf.write_json_atomic(jp, journal)

    # group 0: fully merged but constituents NOT unlinked (crash window)
    g0 = journal["groups"][0]
    cdir = mf.chunks_dir(out)

    tables = [pq.read_table(cdir / f) for f in g0["old_files"]]
    t = pa.concat_tables(tables, promote_options="none")
    t = t.set_column(
        t.schema.get_field_index("part_key"),
        "part_key",
        pa.array([g0["new_key"]] * t.num_rows, pa.string()),
    )
    t = t.set_column(
        t.schema.get_field_index("chunk_seq"),
        "chunk_seq",
        pa.array(range(t.num_rows), pa.int32()),
    )
    pq.write_table(t, cdir / g0["new_file"], compression="none")
    # group 1: crashed mid-write, tmp left behind (this version's
    # `<file>.tmp` and an earlier version's `.ctmp`)
    g1 = journal["groups"][1]
    tmps = [cdir / (g1["new_file"] + ".tmp"), (cdir / g1["new_file"]).with_suffix(".parquet.ctmp")]
    for tmp in tmps:
        tmp.write_bytes(b"partial")

    rep = repair_compaction(out)
    assert rep == {"repaired_groups": 1}
    # g0 constituents gone, g1 rolled back (originals intact, tmp gone)
    assert not any((cdir / f).exists() for f in g0["old_files"])
    assert all((cdir / f).exists() for f in g1["old_files"])
    assert not any(tmp.exists() for tmp in tmps)
    assert json.loads(jp.read_text())["completed"]

    after = verify_roundtrip(full_ds, out)
    assert after["match"] and after["decoded"] == before["decoded"]

    # manifest: g0 merged entry installed, g1 old entries kept
    entries = mf.load_manifest(out)
    assert g0["new_key"] in entries
    assert all(k not in entries for k in g0["old_keys"])
    assert all(k in entries for k in g1["old_keys"])

    # a fresh compaction finishes the remaining groups
    compact_corpus(out, target_bytes=512 << 20)
    assert verify_roundtrip(full_ds, out)["match"]


def test_base_resume_refused_after_compaction(tokens_full, tmp_path, ray_session):
    import ray.data as rd

    out, _ = _build_fragmented(tokens_full, tmp_path, "enc_c3")
    compact_corpus(out, target_bytes=512 << 20)
    idx = np.arange(tokens_full.num_rows)
    half_a = tokens_full.take(pa.array(idx[idx % 2 == 0]))
    with pytest.raises(ValueError, match="compacted"):
        encode_dataset(
            rd.from_arrow(half_a),
            out,
            chunk_tokens=1 << 14,
            bucket_tokens=1 << 15,
            resume=True,
        )
    # appends still work after compaction (a new generation)
    from fsst_ray import append_dataset

    extra = tokens_full.take(pa.array([0])).set_column(
        tokens_full.schema.get_field_index("doc_id"),
        "doc_id",
        pa.array(["post-compact-000000001"], pa.string()),
    )
    res = append_dataset(rd.from_arrow(extra), out)
    assert res.metrics["generation"] == 2


def test_merge_group_missing_constituent_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="constituent missing"):
        _merge_group(
            [str(tmp_path / "gone.parquet")],
            tmp_path / "x_c1-00000.parquet",
            "x:c1-00000",
        )


def test_decode_source_prunes_before_and_after_compaction(
    tokens_full, tmp_path, ray_session
):
    from fsst_ray import decode_source

    out, _ = _build_fragmented(tokens_full, tmp_path, "enc_c4")
    want = tokens_full.filter(
        pa.compute.equal(tokens_full["source"], pa.scalar("english"))
    ).num_rows

    stats: dict = {}
    got = decode_source(out, ["english"], stats=stats).count()
    assert got == want
    assert 0 < stats["files_read"] < stats["files_total"]

    compact_corpus(out, target_bytes=512 << 20)
    stats2: dict = {}
    got2 = decode_source(out, ["english"], stats=stats2).count()
    assert got2 == want
    assert 0 < stats2["files_read"] < stats2["files_total"]
    assert stats2["files_read"] <= stats["files_read"]

    # unknown source: empty with stable schema
    empty = decode_source(out, ["nope"], stats={})
    assert empty.count() == 0


def test_summarize_by_source_generations(tokens_full, tmp_path, ray_session):
    out, _ = _build_fragmented(tokens_full, tmp_path, "enc_c5")
    by_src = mf.summarize_by_source(mf.load_manifest(out))
    assert "english" in by_src
    # base + one append generation visible before compaction
    assert by_src["english"]["generations"] == ["g0", "g1"]
    total = mf.summarize(mf.load_manifest(out))
    assert sum(s["rows"] for s in by_src.values()) == total["rows"]
    assert sum(s["tokens"] for s in by_src.values()) == total["tokens"]

    compact_corpus(out, target_bytes=512 << 20)
    by_src2 = mf.summarize_by_source(mf.load_manifest(out))
    assert by_src2["english"]["generations"] == ["c1"]
    assert by_src2["english"]["rows"] == by_src["english"]["rows"]


def test_compact_legacy_entries_without_zone_maps(tokens_full, tmp_path, ray_session):
    """Pre-zone-map manifests (no doc_min/doc_max) must still compact;
    the merged entry is derived from the merged file, so it gains the
    zone map of its rows."""
    out, full_ds = _build_fragmented(tokens_full, tmp_path, "enc_c6")
    entries = mf.load_manifest(out)
    for e in entries.values():
        e.pop("doc_min", None)
        e.pop("doc_max", None)
    mf.write_json_atomic(mf.compact_path(out), entries)
    for p in mf.manifest_dir(out).glob("*.json"):
        if p.name != mf.compact_path(out).name:
            p.unlink()

    metrics = compact_corpus(out, target_bytes=512 << 20)
    assert metrics["groups"] >= 1
    merged = {
        k: e for k, e in mf.load_manifest(out).items() if ":c1-" in k
    }
    assert merged
    for e in merged.values():
        ids = pq.read_table(mf.chunks_dir(out) / e["file"], columns=["doc_id"])["doc_id"]
        flat = ids.combine_chunks().flatten().to_pylist()
        assert (e["doc_min"], e["doc_max"]) == (min(flat), max(flat))
    assert verify_roundtrip(full_ds, out)["match"]


def test_compact_refuses_crashed_append(tokens_full, tmp_path, ray_session):
    """Compacting a corpus with an incomplete append generation would
    destroy the g{N}- keys its resume needs (silent row duplication on
    resume) — it must refuse instead."""
    import ray.data as rd

    from fsst_ray import append_dataset

    idx = np.arange(tokens_full.num_rows)
    half_a = tokens_full.take(pa.array(idx[idx % 2 == 0]))
    half_b = tokens_full.take(pa.array(idx[idx % 2 == 1]))
    out = str(tmp_path / "enc_c7")
    encode_dataset(
        rd.from_arrow(half_a), out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )
    append_dataset(rd.from_arrow(half_b), out)
    # simulate a crashed append: mark the latest plan incomplete
    plan = json.loads(mf.append_plan_path(out, 1).read_text())
    plan["completed"] = False
    mf.write_json_atomic(mf.append_plan_path(out, 1), plan)

    with pytest.raises(ValueError, match="append generation g1 is incomplete"):
        compact_corpus(out, target_bytes=512 << 20)


def test_compact_refuses_incomplete_base(tokens_full, tmp_path, ray_session):
    import ray.data as rd

    idx = np.arange(tokens_full.num_rows)
    half_a = tokens_full.take(pa.array(idx[idx % 2 == 0]))
    out = str(tmp_path / "enc_c8")
    encode_dataset(
        rd.from_arrow(half_a), out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )
    # simulate a crashed base encode: drop one bucket's entry + file
    entries = mf.load_manifest(out)
    victim = sorted(entries)[0]
    f = mf.chunks_dir(out) / entries[victim]["file"]
    f.unlink()
    del entries[victim]
    mf.write_json_atomic(mf.compact_path(out), entries)

    with pytest.raises(ValueError, match="base encode incomplete"):
        compact_corpus(out, target_bytes=512 << 20)


def test_reads_refused_during_interrupted_compaction(
    tokens_full, tmp_path, ray_session
):
    """The rename-to-unlink crash window leaves both the merged file
    and its constituents on disk; every read path must refuse until the
    journal is replayed, then read bit-identically."""
    from fsst_ray import decode_select, decode_source

    out, full_ds = _build_fragmented(tokens_full, tmp_path, "enc_c9")
    before = verify_roundtrip(full_ds, out)

    journal = plan_compaction(out, target_bytes=512 << 20)
    jp = pathlib.Path(out) / f"compaction_g{journal['generation']}.json"
    mf.write_json_atomic(jp, journal)
    # crash window: merged file landed, constituents NOT unlinked
    g0 = journal["groups"][0]
    cdir = mf.chunks_dir(out)

    t = pa.concat_tables(
        [pq.read_table(cdir / f) for f in g0["old_files"]], promote_options="none"
    )
    t = t.set_column(
        t.schema.get_field_index("part_key"),
        "part_key",
        pa.array([g0["new_key"]] * t.num_rows, pa.string()),
    )
    t = t.set_column(
        t.schema.get_field_index("chunk_seq"),
        "chunk_seq",
        pa.array(range(t.num_rows), pa.int32()),
    )
    pq.write_table(t, cdir / g0["new_file"], compression="none")

    with pytest.raises(ValueError, match="interrupted compaction"):
        decode_dataset(out).count()
    with pytest.raises(ValueError, match="interrupted compaction"):
        decode_select(out, ["whatever"])
    with pytest.raises(ValueError, match="interrupted compaction"):
        decode_source(out, ["english"])

    repair_compaction(out)
    after = verify_roundtrip(full_ds, out)
    assert after["match"] and after["decoded"] == before["decoded"]


def test_consolidation_preserves_concurrent_sidecars(tmp_path):
    """An entry written AFTER the consolidation snapshot must survive
    (it overlays the compacted map on the next load) — the concurrent
    append-vs-purge/compact window."""
    out = str(tmp_path / "m")
    e1 = {"part_key": "a:00000", "file": "a_00000.parquet", "status": "done",
          "rows": 1, "tokens": 1, "chunks": 1, "bytes_in": 1, "bytes_out": 1,
          "codecs": {}}
    mf.write_part_entry(out, e1)
    sidecars = mf.manifest_sidecars(out)
    entries = mf.load_manifest(out)
    # concurrent append lands after the snapshot
    e2 = dict(e1, part_key="b:g1-00000", file="b_g1-00000.parquet")
    mf.write_part_entry(out, e2)
    mf.consolidate_manifest(out, entries, sidecars)
    after = mf.load_manifest(out)
    assert "a:00000" in after and "b:g1-00000" in after


def test_generation_of_key_parsing():
    """Part-key generation parsing: base=0, gN=N, compacted keys raise
    (generations folded -> time travel unavailable)."""
    import pytest

    from fsst_ray.pipelines.decode_job import generation_of_key

    assert generation_of_key("english:00001") == 0
    assert generation_of_key("english:g1-00002") == 1
    assert generation_of_key("english:g12-00000") == 12
    with pytest.raises(ValueError, match="compacted"):
        generation_of_key("english:c1-00003")


def _assert_entries_match_files(out) -> None:
    """Every manifest entry is `entry_from_chunks` of its chunk file,
    and every chunk file has one entry whose key its rows carry."""
    entries = mf.load_manifest(out)
    cdir = mf.chunks_dir(out)
    assert sorted(e["file"] for e in entries.values()) == sorted(
        f.name for f in cdir.glob("*.parquet")
    )
    for key, e in entries.items():
        chunks = pq.read_table(cdir / e["file"])
        assert e == mf.entry_from_chunks(key, e["file"], chunks), key
        assert set(chunks["part_key"].to_pylist()) <= {key}
        assert chunks["chunk_seq"].to_pylist() == list(range(chunks.num_rows))


def test_manifest_entries_match_chunk_files(tokens_full, tmp_path, ray_session):
    """Encode, append, delete+purge, compact and a repaired compaction
    all leave entries equal to what their files hold."""
    import ray.data as rd

    from fsst_ray import append_dataset, delete_docs, purge_deletes

    out, _ = _build_fragmented(tokens_full, tmp_path, "enc_entries")
    _assert_entries_match_files(out)

    # one dead id: every file whose zone range spans it is visited, only
    # the one holding it is rewritten, the others only get their entry
    victim = sorted(i for i in tokens_full["doc_id"].to_pylist() if i.startswith("english"))[3]
    spans = [
        e for e in mf.load_manifest(out).values() if e["doc_min"] <= victim <= e["doc_max"]
    ]
    assert len(spans) >= 2
    delete_docs(out, [victim])
    res = purge_deletes(out)
    assert res["purged_rows"] == 1 and res["files_rewritten"] == 1
    _assert_entries_match_files(out)

    assert compact_corpus(out, target_bytes=512 << 20)["groups"] >= 1
    _assert_entries_match_files(out)

    # crash after one merge group landed, before the manifest install
    more = tokens_full.set_column(
        tokens_full.schema.get_field_index("doc_id"),
        "doc_id",
        pc.binary_join_element_wise("x-", tokens_full["doc_id"], ""),
    )
    append_dataset(rd.from_arrow(more), out)
    journal = plan_compaction(out, target_bytes=512 << 20)
    assert len(journal["groups"]) >= 2
    mf.write_json_atomic(pathlib.Path(out) / f"compaction_g{journal['generation']}.json", journal)
    cdir = mf.chunks_dir(out)
    g0 = journal["groups"][0]
    _merge_group([str(cdir / f) for f in g0["old_files"]], cdir / g0["new_file"], g0["new_key"])
    assert repair_compaction(out) == {"repaired_groups": 1}
    _assert_entries_match_files(out)
    assert all("entry" not in g for g in journal["groups"])
