"""Tombstone deletes: every decode path hides deleted rows; purge
materializes the deletion with zone-pruned per-file rewrites and
clears the tombstones."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from fsst_ray import (
    decode_dataset,
    decode_select,
    decode_source,
    delete_docs,
    encode_dataset,
    purge_deletes,
    verify_roundtrip,
)
from fsst_ray.sources.tokens import ensure_tokens_parquet
from fsst_ray.state import manifest as mf
from fsst_ray.state.tombstones import load_tombstones

SCALE = 0.2


@pytest.fixture(scope="module")
def corpus(ray_session, tmp_path_factory):
    import ray.data as rd

    path = ensure_tokens_parquet(SCALE)
    ds = rd.read_parquet(path, file_extensions=["parquet"])
    full = pa.concat_tables(
        pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")
    )
    out = str(tmp_path_factory.mktemp("tomb") / "enc")
    encode_dataset(ds, out, chunk_tokens=1 << 14, bucket_tokens=1 << 15)
    return out, full, ds


def test_delete_hides_rows_everywhere_then_purge(corpus, ray_session):
    import ray.data as rd

    out, full, ds = corpus
    all_ids = full["doc_id"].to_pylist()
    # delete every 10th doc plus one english doc we can point-look-up
    dead = sorted(all_ids[::10])
    delete_docs(out, dead[: len(dead) // 2])
    delete_docs(out, dead[len(dead) // 2 :])  # two batches union
    dead_set = set(dead)

    survivors = decode_dataset(out)
    got_ids = set(
        pa.concat_tables(
            pa.table(b) for b in survivors.iter_batches(batch_format="pyarrow")
        )["doc_id"].to_pylist()
    )
    assert got_ids == set(all_ids) - dead_set

    # point lookup: a deleted id yields nothing, a live one decodes
    live = next(i for i in all_ids if i not in dead_set)
    assert decode_select(out, [dead[0]]).count() == 0
    assert decode_select(out, [live]).count() == 1

    # per-source export also filters
    eng = decode_source(out, ["english"]).to_pandas()
    assert not (set(eng["doc_id"]) & dead_set)

    # roundtrip vs the FILTERED original matches; vs the full one must not
    keep_ds = rd.from_arrow(
        full.filter(
            pc.invert(pc.is_in(full["doc_id"], value_set=pa.array(dead)))
        )
    )
    assert verify_roundtrip(keep_ds, out)["match"]
    assert not verify_roundtrip(ds, out)["match"]

    # purge: files containing dead ids rewritten, others untouched
    import pathlib

    cdir = mf.chunks_dir(out)
    before = {f.name: f.stat().st_mtime_ns for f in cdir.glob("*.parquet")}
    res = purge_deletes(out)
    assert res["purged_rows"] == len(dead)
    assert res["files_rewritten"] >= 1
    after = {f.name: f.stat().st_mtime_ns for f in cdir.glob("*.parquet")}
    assert len(load_tombstones(out)) == 0
    # manifest sums reflect the purge
    sums = mf.summarize(mf.load_manifest(out))
    assert sums["rows"] == len(all_ids) - len(dead)
    # decode after purge: identical survivor set, bit-identical content
    assert verify_roundtrip(keep_ds, out)["match"]
    # a fresh delete-free corpus has no filter stage anymore
    assert decode_select(out, [live]).count() == 1


def test_purge_zone_pruning_skips_clean_files(corpus, ray_session, tmp_path):
    import ray.data as rd

    out, full, _ = corpus  # NOTE: module corpus already purged above —
    # build a fresh one to control which files contain dead ids
    out2 = str(tmp_path / "enc2")
    ds = rd.from_arrow(full)
    encode_dataset(ds, out2, chunk_tokens=1 << 14, bucket_tokens=1 << 15)
    # delete ids from ONE source only; other sources' files must not move
    eng = sorted(i for i in full["doc_id"].to_pylist() if i.startswith("english"))
    delete_docs(out2, eng[:5])
    cdir = mf.chunks_dir(out2)
    before = {f.name: f.stat().st_mtime_ns for f in cdir.glob("*.parquet")}
    res = purge_deletes(out2)
    assert res["purged_rows"] == 5
    after = {f.name: f.stat().st_mtime_ns for f in cdir.glob("*.parquet")}
    untouched = [n for n in before if before[n] == after[n]]
    touched = [n for n in before if before[n] != after[n]]
    assert touched and untouched, (touched, untouched)
    assert all(n.startswith("english") for n in touched), touched


def test_delete_is_idempotent_and_empty_safe(corpus, ray_session, tmp_path):
    import ray.data as rd

    _, full, _ = corpus
    out3 = str(tmp_path / "enc3")
    encode_dataset(
        rd.from_arrow(full.slice(0, 64)), out3, chunk_tokens=1 << 14,
        bucket_tokens=1 << 15,
    )
    assert purge_deletes(out3) == {"purged_rows": 0, "files_rewritten": 0}
    some = full.slice(0, 64)["doc_id"].to_pylist()[:3]
    delete_docs(out3, some)
    delete_docs(out3, some)  # duplicate batch: union, not double-count
    assert list(load_tombstones(out3)) == sorted(some)
    res = purge_deletes(out3)
    assert res["purged_rows"] == 3


def test_upsert_replaces_and_inserts(corpus, ray_session, tmp_path):
    import ray.data as rd

    from fsst_ray import upsert_docs

    _, full, _ = corpus
    out = str(tmp_path / "enc_up")
    base = full.slice(0, 200)
    encode_dataset(
        rd.from_arrow(base), out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )
    # replace 3 existing docs with DIFFERENT tokens + insert 2 new ones
    victims = base.slice(0, 3)
    new_tokens = pa.array(
        [[9, 9, 9], [8, 8], [7]], pa.list_(pa.int32())
    )
    up = pa.table(
        {
            "doc_id": pa.concat_arrays(
                [victims["doc_id"].combine_chunks(), pa.array(["new-a", "new-b"])]
            ),
            "tokens": pa.concat_arrays(
                [new_tokens, pa.array([[1, 2], [3]], pa.list_(pa.int32()))]
            ),
            "n_tok": pa.array([3, 2, 1, 2, 1], pa.int32()),
            "source": pa.concat_arrays(
                [victims["source"].combine_chunks(), pa.array(["english"] * 2)]
            ),
        }
    )
    res = upsert_docs(rd.from_arrow(up), out)
    assert res["upserted"] == 5 and res["replaced_rows"] == 3
    assert res["generation"] == 1

    rows = pa.concat_tables(
        pa.table(b)
        for b in decode_dataset(out).iter_batches(batch_format="pyarrow")
    )
    assert rows.num_rows == 202  # 200 - 3 + 5
    by_id = {
        d: t for d, t in zip(rows["doc_id"].to_pylist(), rows["tokens"].to_pylist())
    }
    vid = victims["doc_id"].to_pylist()
    assert by_id[vid[0]] == [9, 9, 9] and by_id[vid[2]] == [7]
    assert by_id["new-a"] == [1, 2] and by_id["new-b"] == [3]
    assert len(load_tombstones(out)) == 0  # purge cleared before append


def test_purge_empties_fully_tombstoned_file(corpus, ray_session, tmp_path):
    """Deleting EVERY row of a bucket file must leave an EMPTY chunk
    file with its manifest entry at rows=0 — not crash, and not drop
    the part key (dropping it bricked every later purge/compact behind
    the corpus-completeness check)."""
    import ray.data as rd

    _, full, _ = corpus
    out = str(tmp_path / "enc_empty")
    encode_dataset(
        rd.from_arrow(full), out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )
    # kill an entire source (all of 'constant')
    dead = [i for i in full["doc_id"].to_pylist() if i.startswith("constant")]
    delete_docs(out, dead)
    victim_keys = [k for k in mf.load_manifest(out) if k.startswith("constant")]
    assert victim_keys
    res = purge_deletes(out)
    assert res["purged_rows"] == len(dead)
    after = mf.load_manifest(out)
    # entries survive at rows=0, files exist but hold no chunks
    for k in victim_keys:
        assert after[k]["rows"] == 0 and after[k]["chunks"] == 0
        assert (mf.chunks_dir(out) / after[k]["file"]).exists()
    # corpus still decodes to exactly the survivors
    assert decode_dataset(out).count() == full.num_rows - len(dead)

    # THE REGRESSION: later lifecycle ops must still work (previously
    # the dropped key tripped the base-completeness guard forever)
    live = next(i for i in full["doc_id"].to_pylist() if not i.startswith("constant"))
    delete_docs(out, [live])
    res2 = purge_deletes(out)
    assert res2["purged_rows"] == 1
    compact_res = __import__("fsst_ray").compact_corpus(out, target_bytes=512 << 20)
    assert decode_dataset(out).count() == full.num_rows - len(dead) - 1


def test_purge_uses_append_generation_states(corpus, ray_session, tmp_path):
    """A source first seen in an append generation has its fsst state
    only in that generation's plan — purge must overlay it, or the
    rewrite silently falls back to a worse codec."""
    import ray.data as rd

    from fsst_ray import append_dataset

    _, full, _ = corpus
    out = str(tmp_path / "enc_genstate")
    encode_dataset(
        rd.from_arrow(full.slice(0, 128)), out,
        chunk_tokens=1 << 14, bucket_tokens=1 << 15,
    )
    # append a NEW source whose text-like tokens want the fsst codec
    eng = full.filter(
        pa.compute.equal(full["source"], pa.scalar("english"))
    ).slice(0, 40)
    new_src = eng.set_column(
        eng.schema.get_field_index("source"),
        "source",
        pa.array(["appended-src"] * eng.num_rows, pa.string()),
    )
    new_src = new_src.set_column(
        new_src.schema.get_field_index("doc_id"),
        "doc_id",
        pa.array([f"appended-{i:04d}" for i in range(eng.num_rows)], pa.string()),
    )
    append_dataset(rd.from_arrow(new_src), out)
    entries = mf.load_manifest(out)
    key = next(k for k in entries if k.startswith("appended-src"))
    codecs_before = dict(entries[key]["codecs"])
    bytes_before = entries[key]["bytes_out"]

    # delete ONE appended doc and purge: the rewrite must keep the
    # same codec mix (same states), not balloon to a fallback
    delete_docs(out, ["appended-0000"])
    res = purge_deletes(out)
    assert res["purged_rows"] == 1
    after = mf.load_manifest(out)[key]
    assert set(after["codecs"]) == set(codecs_before), (
        codecs_before, after["codecs"],
    )
    assert after["bytes_out"] <= bytes_before


def _mini_upsert_corpus(full, tmp_path, name):
    import ray.data as rd

    out = str(tmp_path / name)
    base = full.slice(0, 120)
    encode_dataset(
        rd.from_arrow(base), out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )
    victims = base.slice(0, 2)
    up = pa.table(
        {
            "doc_id": pa.concat_arrays(
                [victims["doc_id"].combine_chunks(), pa.array(["up-new-1"])]
            ),
            "tokens": pa.array([[4, 4], [5], [6, 6, 6]], pa.list_(pa.int32())),
            "n_tok": pa.array([2, 1, 3], pa.int32()),
            "source": pa.concat_arrays(
                [victims["source"].combine_chunks(), pa.array(["english"])]
            ),
        }
    )
    return out, base, up, victims


def test_upsert_crash_between_purge_and_append_resumes(corpus, ray_session, tmp_path):
    """The ADVICE r4 window: a crash after purge_deletes but before
    append_dataset must NOT lose the replacement rows — the journal
    (staged rows + intent) lets resume_upsert land them."""
    import ray.data as rd

    from fsst_ray.state.tombstones import (
        _upsert_dir,
        _upsert_intent,
        resume_upsert,
        upsert_docs,
    )

    _, full, _ = corpus
    out, base, up, victims = _mini_upsert_corpus(full, tmp_path, "enc_crash1")

    # simulate upsert_docs up to the crash point: stage + intent +
    # delete + purge, then "crash" before the append
    import json as _json

    staging = _upsert_dir(out) / "staging"
    staging.mkdir(parents=True)
    rd.from_arrow(up).write_parquet(str(staging))
    _upsert_intent(out).write_text(
        _json.dumps({"base_generation": 0, "n_ids": 3})
    )
    ids = up["doc_id"].to_pylist()[:2]
    delete_docs(out, ids)
    purge_deletes(out)
    # rows are gone, replacements not yet landed -> journal saves us
    assert decode_dataset(out).count() == 118

    with pytest.raises(RuntimeError, match="interrupted upsert"):
        upsert_docs(rd.from_arrow(up), out)

    res = resume_upsert(out)
    assert res is not None and res["generation"] == 1
    assert not _upsert_intent(out).exists()
    rows = pa.concat_tables(
        pa.table(b)
        for b in decode_dataset(out).iter_batches(batch_format="pyarrow")
    )
    assert rows.num_rows == 121  # 120 - 2 + 3
    by_id = dict(zip(rows["doc_id"].to_pylist(), rows["tokens"].to_pylist()))
    vid = victims["doc_id"].to_pylist()
    assert by_id[vid[0]] == [4, 4] and by_id[vid[1]] == [5]
    assert by_id["up-new-1"] == [6, 6, 6]
    assert resume_upsert(out) is None  # journal cleared, nothing pending


def test_upsert_stale_journal_after_landed_append(corpus, ray_session, tmp_path):
    """Crash AFTER the append landed but before the journal cleared:
    resume must detect the completed generation and only clear the
    journal — never append the staged rows twice."""
    import json as _json

    import ray.data as rd

    from fsst_ray.state.tombstones import (
        _upsert_dir,
        _upsert_intent,
        resume_upsert,
        upsert_docs,
    )

    _, full, _ = corpus
    out, base, up, victims = _mini_upsert_corpus(full, tmp_path, "enc_crash2")
    res = upsert_docs(rd.from_arrow(up), out)
    assert res["generation"] == 1 and not _upsert_intent(out).exists()

    # recreate the journal as if the final cleanup never ran
    staging = _upsert_dir(out) / "staging"
    staging.mkdir(parents=True, exist_ok=True)
    rd.from_arrow(up).write_parquet(str(staging))
    _upsert_intent(out).write_text(
        _json.dumps({"base_generation": 0, "n_ids": 3})
    )
    res2 = resume_upsert(out)
    assert res2 is not None and res2["generation"] == 1
    assert not _upsert_intent(out).exists()
    assert decode_dataset(out).count() == 121  # unchanged: no duplicates


def _chunk_rows(out) -> dict:
    """file name -> its chunk rows (payload and doc_id lists)."""
    import pyarrow.parquet as pq

    return {
        f.name: pq.read_table(f, columns=["payload", "doc_id"])
        for f in sorted(mf.chunks_dir(out).glob("*.parquet"))
    }


def test_purge_touches_only_hit_chunks(corpus, ray_session, tmp_path, monkeypatch):
    """Purge decodes exactly the chunks whose doc_id list holds a dead
    id and copies every other chunk's payload bytes unchanged; a second
    purge of a copy gives byte-identical files."""
    import shutil

    import ray.data as rd

    from fsst_ray.pipelines import executor
    from fsst_ray.stages import decoder

    _, full, _ = corpus
    out = str(tmp_path / "enc_chunks")
    encode_dataset(rd.from_arrow(full), out, chunk_tokens=1 << 12, bucket_tokens=1 << 15)
    ids = sorted(full["doc_id"].to_pylist())
    dead = ids[::97]
    delete_docs(out, dead)
    twin = str(tmp_path / "enc_chunks_twin")
    shutil.copytree(out, twin)

    before = _chunk_rows(out)
    dead_set = set(dead)
    hit = {
        name: [bool(dead_set & set(d)) for d in t["doc_id"].to_pylist()]
        for name, t in before.items()
    }
    n_hit = sum(map(sum, hit.values()))
    n_chunks = sum(map(len, hit.values()))
    assert 0 < n_hit < n_chunks / 2, (n_hit, n_chunks)

    calls = []
    real = decoder.decode_payload_into

    def counting(payload, out_values):
        calls.append(len(out_values))
        return real(payload, out_values)

    monkeypatch.setattr(executor, "_DRIVER_REWRITE_BYTES", 1 << 40)
    monkeypatch.setattr(decoder, "decode_payload_into", counting)
    res = purge_deletes(out)
    monkeypatch.setattr(decoder, "decode_payload_into", real)
    assert res["executor"] == "driver"
    assert res["purged_rows"] == len(dead)
    assert len(calls) == res["chunks_decoded"] == n_hit

    after = _chunk_rows(out)
    for name, t in before.items():
        kept = [p for p, h in zip(t["payload"].to_pylist(), hit[name]) if not h]
        new_payloads = after[name]["payload"].to_pylist()
        # untouched chunks come first, in their order, byte for byte
        assert new_payloads[: len(kept)] == kept, name
        left = [d for lst in after[name]["doc_id"].to_pylist() for d in lst]
        assert not dead_set & set(left), name
    keep_ds = rd.from_arrow(full.filter(pc.invert(pc.is_in(full["doc_id"], pa.array(dead)))))
    assert verify_roundtrip(keep_ds, out)["match"]

    purge_deletes(twin)
    for name in before:
        a = (mf.chunks_dir(out) / name).read_bytes()
        assert a == (mf.chunks_dir(twin) / name).read_bytes(), name
