"""End-to-end Ray pipeline tests: encode -> decode -> per-row equality,
skew bucketing, resume, pass-2 staging and delivery guards."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from fsst_ray import (
    decode_dataset,
    encode_dataset,
    tokens_table,
    verify_roundtrip,
)
from fsst_ray.sources.tokens import ensure_tokens_parquet
from fsst_ray.state import manifest as mf

SCALE = 0.2  # ~1,230 rows / ~330k tokens


@pytest.fixture(scope="module")
def tokens_ds(ray_session):
    import ray.data as rd

    path = ensure_tokens_parquet(SCALE)
    return rd.read_parquet(path, file_extensions=["parquet"])


def _sorted_rows(table: pa.Table):
    df = table.sort_by("doc_id").to_pydict()
    return list(zip(df["doc_id"], df["tokens"], df["n_tok"], df["source"]))


def test_encode_decode_bucketed(tokens_ds, tmp_path):
    out = str(tmp_path / "enc")
    result = encode_dataset(
        tokens_ds, out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )
    assert result.metrics["rows"] == tokens_ds.count()
    assert result.metrics["tokens"] > 0
    # compression: the corpus is dominated by compressible families
    assert result.metrics["bytes_out"] < result.metrics["bytes_in"]
    # multiple codecs must actually win on different families
    assert len(result.metrics["codecs"]) >= 3, result.metrics["codecs"]

    # skew handling: the cyclic-large family must fan out over >1 bucket
    assert result.bucket_plan["cyclic-large"] > 1

    # exact per-row equality, full table
    decoded = decode_dataset(out).take_all()
    original = tokens_table(SCALE)
    dec_tbl = pa.Table.from_pylist(decoded, schema=original.schema)
    assert _sorted_rows(dec_tbl) == _sorted_rows(original)

    # checksum verify agrees
    v = verify_roundtrip(tokens_ds, out)
    assert v["match"], v


def test_resume_skips_done_parts(tokens_ds, tmp_path):
    out = str(tmp_path / "enc_resume")
    result = encode_dataset(
        tokens_ds, out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )
    entries = mf.load_manifest(out)
    all_parts = set(entries)
    assert len(all_parts) == sum(result.bucket_plan.values())
    # the parts that hold rows are the keys the per-row statement of
    # the routing rule gives (a bucket no row hashes to has an empty file)
    from fsst_ray.stages.encoder import assign_partitions

    keyed = assign_partitions(tokens_table(SCALE), result.bucket_plan)
    assert {k for k, e in entries.items() if e["rows"]} == set(keyed["part_key"].to_pylist())

    # the completed job compacted per-part entries into one file
    assert mf.compact_path(out).exists()
    assert not [
        p
        for p in mf.manifest_dir(out).glob("*.json")
        if p.name != mf._COMPACT_NAME
    ]

    # simulate a partial failure: delete some bucket files (the
    # compacted manifest entry persists — completed_parts requires the
    # chunk file, so the lost buckets are re-encoded regardless)
    victims = sorted(all_parts)[::3]
    for part in victims:
        (mf.chunks_dir(out) / f"{mf.sanitize_part(part)}.parquet").unlink()

    result2 = encode_dataset(
        tokens_ds, out, chunk_tokens=1 << 14, bucket_tokens=1 << 15, resume=True
    )
    # the resume re-scans (and stages) the input but trains nothing
    assert result2.metrics["pass1"] == {"route": "resumed", "sources_trained": []}
    assert result2.metrics["pass2"]["staged_files"] == result.metrics["pass2"]["staged_files"]
    assert set(mf.load_manifest(out)) == all_parts
    v = verify_roundtrip(tokens_ds, out)
    assert v["match"], v
    # resumed totals match the original run
    assert result2.metrics["rows"] == result.metrics["rows"]
    assert result2.metrics["bytes_out"] == result.metrics["bytes_out"]


def test_checksum_detects_corruption(tokens_ds):
    from fsst_ray.stages.decoder import dataset_checksum

    a = dataset_checksum(tokens_ds)

    def corrupt(batch: pa.Table) -> pa.Table:
        import numpy as np

        from fsst_ray.stages.serialize import tokens_from_values, tokens_views

        values, offsets = tokens_views(batch)
        values = values.copy()
        if len(values):
            values[0] += 1
        n_tok = (offsets[1:] - offsets[:-1]).astype(np.int32)
        return batch.set_column(
            batch.schema.get_field_index("tokens"),
            "tokens",
            tokens_from_values(values, n_tok),
        )

    b = dataset_checksum(
        tokens_ds.map_batches(corrupt, batch_format="pyarrow")
    )
    assert a["rows"] == b["rows"] and a["checksum"] != b["checksum"]


def test_duplicate_doc_id_rejected(ray_session, tmp_path):
    import ray.data as rd

    rows = tokens_table(0.05)
    dup = rows.take(pa.array([0] * 2 + list(range(rows.num_rows))))
    ds = rd.from_arrow(dup)
    with pytest.raises(Exception, match="duplicate doc_id"):
        encode_dataset(
            ds, str(tmp_path / "enc_dup"), chunk_tokens=1 << 14, bucket_tokens=1 << 15
        )


def test_duplicate_doc_id_across_blocks_rejected(ray_session, tmp_path):
    """Duplicated doc_ids that arrive in DIFFERENT input blocks, and so
    are staged in different block files read by the same bucket, must still
    raise (ADVICE r2 item 2)."""
    import ray.data as rd

    rows = tokens_table(0.05)
    # two blocks, each containing row 0 exactly once
    t2 = rows.take(pa.array([0]))
    ds = rd.from_arrow(rows).union(rd.from_arrow(t2))
    with pytest.raises(Exception, match="duplicate doc_id"):
        encode_dataset(
            ds,
            str(tmp_path / "enc_dup2"),
            chunk_tokens=1 << 14,
            bucket_tokens=1 << 15,
        )


def _short_docs_table() -> pa.Table:
    rng = np.random.default_rng(42)
    rows = []
    for i in range(300):
        # 20-40 tokens -> 80-160 bytes per chunk, far below 512
        n = int(rng.integers(20, 41))
        rows.append(
            {
                "doc_id": f"d{i:05d}",
                "tokens": rng.integers(0, 50, size=n).astype(np.int32).tolist(),
                "n_tok": n,
                "source": "short",
            }
        )
    return pa.Table.from_pylist(
        rows,
        schema=pa.schema(
            [
                ("doc_id", pa.string()),
                ("tokens", pa.list_(pa.int32())),
                ("n_tok", pa.int32()),
                ("source", pa.string()),
            ]
        ),
    )


def test_sample_rows_match_loop_reference():
    """sample_and_mass_batch's vectorized rules against the per-row loop
    they replaced: per source, non-empty rows in ascending doc priority,
    each cut to chunk fsst_hash(priority) of its 512-byte chunks, kept
    while the source's bytes before it are under FSST_SAMPLEMAX; plus
    one mass row per source."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from fsst_ray.kernel.fsst import FSST_SAMPLELINE, FSST_SAMPLEMAX, fsst_hash
    from fsst_ray.stages.trainer import _doc_priorities, sample_and_mass_batch

    tokens = pq.read_table(ensure_tokens_parquet(SCALE))
    table = pa.concat_tables([tokens, _short_docs_table().cast(tokens.schema)])
    out = sample_and_mass_batch(table)

    rows = table.to_pylist()
    priority = [int(p) for p in _doc_priorities(table["doc_id"])]
    want_samples, want_mass = {}, {}
    for source in {r["source"] for r in rows}:
        mine = [i for i, r in enumerate(rows) if r["source"] == source]
        want_mass[source] = (sum(rows[i]["n_tok"] for i in mine), len(mine))
        total = 0
        for p, i in sorted((priority[i], i) for i in mine if rows[i]["tokens"]):
            if total >= FSST_SAMPLEMAX:
                break
            raw = np.asarray(rows[i]["tokens"], dtype="<i4").tobytes()
            lo = FSST_SAMPLELINE * (fsst_hash(p) % (1 + (len(raw) - 1) // FSST_SAMPLELINE))
            want_samples.setdefault(source, []).append((p, raw[lo : lo + FSST_SAMPLELINE]))
            total += len(want_samples[source][-1][1])

    got_samples, got_mass = {}, {}
    for r in out.filter(pc.invert(out["is_mass"])).to_pylist():
        got_samples.setdefault(r["source"], []).append((r["priority"], r["chunk"]))
    for r in out.filter(out["is_mass"]).to_pylist():
        got_mass[r["source"]] = (r["mass"], r["rows"])
    assert got_samples == want_samples
    assert got_mass == want_mass


def test_pass1_is_partition_independent(ray_session, tmp_path):
    """The driver folds per-block budget prefixes, which equals the
    global prefix only if pass 1 ignores how rows are split into blocks
    and ordered: one block, 23 blocks, reversed rows and several
    parquet files must give equal states and mass (mixed long- and
    short-doc sources, so blocks cut their candidates short). The
    short-doc source keeps more than 64 candidates, up to the
    FSST_SAMPLEMAX byte budget, not a row-count cap."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from fsst_ray.kernel.fsst import FSST_SAMPLEMAX
    from fsst_ray.stages import trainer

    tokens = pq.read_table(ensure_tokens_parquet(SCALE))
    table = pa.concat_tables([tokens, _short_docs_table().cast(tokens.schema)])
    n = table.num_rows
    cuts = np.linspace(0, n, 24).astype(int)
    rev = table.take(pa.array(np.arange(n)[::-1]))
    path = tmp_path / "parts"
    path.mkdir()
    perm = np.random.default_rng(7).permutation(n)
    for i, part in enumerate(np.array_split(perm, 5)):
        pq.write_table(table.take(pa.array(part)), f"{path}/p{i}.parquet")

    def run(ds):
        states, mass, _ = trainer.train_states(ds)
        return {s: (st["fsst"], st["ratio"]) for s, st in states.items()}, mass

    # the driver fold over 23 blocks keeps exactly the one-block prefix
    def samples(t):
        return sorted(zip(*(t[c].to_pylist() for c in ("source", "priority", "chunk"))))

    one = trainer.sample_and_mass_batch(table)
    _, kept = trainer._fold(
        trainer.sample_and_mass_batch(table.slice(a, b - a)) for a, b in zip(cuts, cuts[1:])
    )
    assert samples(kept) == samples(one.filter(pc.invert(one["is_mass"])))
    short = kept.filter(pc.equal(kept["source"], "short"))
    short_bytes = pc.sum(pc.binary_length(short["chunk"])).as_py()
    assert short.num_rows > 64 and short_bytes >= FSST_SAMPLEMAX

    want = run(rd.from_arrow(table))
    assert run(rd.from_arrow([table.slice(a, b - a) for a, b in zip(cuts, cuts[1:])])) == want
    assert run(rd.from_arrow([rev.slice(0, n // 3), rev.slice(n // 3)])) == want
    parts = rd.read_parquet(str(path), file_extensions=["parquet"], override_num_blocks=5)
    assert run(parts) == want


# (states + mass, kept rows) digests of test_pass1_output_is_pinned
PINNED_PASS1 = ("647bb15fa64b39e5", "6e5916a4e5548c60")


def _pass1_digests(table: pa.Table, n_blocks: int) -> tuple[str, str]:
    """sha256 of train_states' (states, mass) over `table` cut into
    `n_blocks` blocks, and of the driver fold's kept sample rows."""
    import hashlib
    import json

    import ray.data as rd

    from fsst_ray.stages import trainer

    cuts = np.linspace(0, table.num_rows, n_blocks + 1).astype(int)
    blocks = [table.slice(a, b - a) for a, b in zip(cuts, cuts[1:])]
    states, mass, _ = trainer.train_states(rd.from_arrow(blocks))
    out = {s: [st["fsst"].hex(), repr(st["ratio"])] for s, st in states.items()}
    _, kept = trainer._fold(trainer.sample_and_mass_batch(b) for b in blocks)
    rows = {c: [v.hex() if isinstance(v, bytes) else v for v in kept[c].to_pylist()]
            for c in kept.column_names}

    def digest(obj):
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]

    return digest([out, mass]), digest(rows)


def test_pass1_output_is_pinned(ray_session):
    """Pass 1's states, mass and kept sample rows (in order) on the
    SCALE corpus plus a short-doc source, in 7 blocks, equal the
    digests taken when sources were numbered by an object-array sort:
    numbering them by one dictionary encode per block moves nothing.
    A change to the corpus generator changes these digests too."""
    import pyarrow.parquet as pq

    tokens = pq.read_table(ensure_tokens_parquet(SCALE))
    table = pa.concat_tables([tokens, _short_docs_table().cast(tokens.schema)])
    assert _pass1_digests(table, 7) == PINNED_PASS1


def test_pass1_report_trains_only_new_sources(ray_session, tmp_path):
    """metrics["pass1"] records the route and the sources trained: a
    base encode trains every source, an append of known sources trains
    none (their saved states are reused), and an append carrying one
    new source trains exactly that one."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from fsst_ray import append_dataset

    full = pq.read_table(ensure_tokens_parquet(SCALE))
    small = full.filter(pc.is_in(full["source"], pa.array(["constant", "empty", "zeros"])))
    idx = np.arange(small.num_rows)
    base, known, extra = (small.take(pa.array(idx[idx % 3 == k])) for k in range(3))
    # half of the last part moves to a source the corpus has not seen
    relabel = pa.array(np.arange(extra.num_rows) % 2 == 0)
    extra = extra.set_column(
        extra.schema.get_field_index("source"),
        "source",
        pc.if_else(relabel, pa.scalar("new-src"), extra["source"].combine_chunks()),
    )
    out = str(tmp_path / "enc")

    res = encode_dataset(rd.from_arrow(base), out, chunk_tokens=1 << 14, bucket_tokens=1 << 15)
    assert res.metrics["pass1"] == {
        "route": "scan", "sources_trained": ["constant", "empty", "zeros"]
    }
    res = append_dataset(rd.from_arrow(known), out)
    assert res.metrics["pass1"] == {"route": "scan", "sources_trained": []}
    res = append_dataset(rd.from_arrow(extra), out)
    assert res.metrics["pass1"] == {"route": "scan", "sources_trained": ["new-src"]}
    assert "new-src" in res.bucket_plan


def test_encode_sort_keys_permutation_regression():
    """sort_keys makes the encoder's gather order a permutation; a run
    like [0, 2, 1, 3] spans len-1 without being ascending, which once
    spuriously took the contiguous zero-copy fast path and mis-paired
    doc_ids with another row's token values."""
    from fsst_ray.stages.decoder import decode_chunks_batch
    from fsst_ray.codecs.select import DEFAULT_CODECS
    from fsst_ray.stages.encoder import encode_rows_to_chunks

    rows = {
        "d0": [1, 2, 3],
        "d2": [4, 5],
        "d1": [6, 7, 8, 9],
        "d3": [10],
    }
    batch = pa.table(
        {
            "doc_id": pa.array(list(rows)),
            "tokens": pa.array(list(rows.values()), type=pa.list_(pa.int32())),
            "n_tok": pa.array([len(v) for v in rows.values()], type=pa.int32()),
            "source": pa.array(["s"] * 4),
        }
    )
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    # one chunk holds all rows; lexsort order is [0, 2, 1, 3]
    chunks = encode_rows_to_chunks(
        batch, {}, "s:00000", 1 << 20, DEFAULT_CODECS, sort_keys=doc_ids
    )
    decoded = decode_chunks_batch(chunks)
    got = {
        d: v
        for d, v in zip(
            decoded["doc_id"].to_pylist(), decoded["tokens"].to_pylist()
        )
    }
    assert got == rows


def test_route_worker_death_retry_dedup(tokens_ds, tmp_path, monkeypatch):
    """Kill one scan worker AFTER it staged its block; Ray reruns the
    task, the retry rewrites the same content-named block file, and the
    output must stay exact (no duplicated or lost rows)."""
    monkeypatch.setenv("FSST_FAULT_ROUTE_ONCE_DIR", str(tmp_path))
    out = str(tmp_path / "enc_fault")
    result = encode_dataset(
        tokens_ds, out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )
    assert (tmp_path / "route_killed").exists(), "fault did not fire"
    assert result.metrics["rows"] == tokens_ds.count()
    monkeypatch.delenv("FSST_FAULT_ROUTE_ONCE_DIR")
    v = verify_roundtrip(tokens_ds, out)
    assert v["match"], v


def _staged_bucket(tmp_path, rows: pa.Table):
    """Stage `rows` (one source, one bucket) with the scan map, two rows
    per block; returns (out_dir, the bucket's encode_bucket call)."""
    from fsst_ray.pipelines.encode_job import _bucket_calls
    from fsst_ray.stages.trainer import _fold, scan_batch

    out = tmp_path / "out"
    (out / "_staging").mkdir(parents=True)
    index = []
    _fold(
        (
            scan_batch(rows.slice(lo, 2), staging=str(out / "_staging"))
            for lo in range(0, rows.num_rows, 2)
        ),
        index,
    )
    (call,) = _bucket_calls(pa.concat_tables(index), {"s": 1}, "", set())
    assert call["key"] == "s:00000" and len(call["slices"]) == len(index)
    return str(out), call


def test_encode_bucket_checks_routed_rows(tmp_path):
    """encode_bucket raises, writing no bucket file and no manifest
    entry, when a staged batch holds other than its index row's count
    or the bucket holds a doc_id twice; given the right counts it
    writes the bucket."""
    from fsst_ray.codecs.select import DEFAULT_CODECS
    from fsst_ray.pipelines.encode_job import encode_bucket

    ids = [0, 1, 2, 3, 4]
    rows = pa.table(
        {
            "doc_id": pa.array([f"d-{i}" for i in ids]),
            "tokens": pa.array([[i, i + 1] for i in ids], type=pa.list_(pa.int32())),
            "n_tok": pa.array([2] * len(ids), type=pa.int32()),
            "source": pa.array(["s"] * len(ids)),
        }
    )
    out, call = _staged_bucket(tmp_path, rows)
    assert [n for _, batches in call["slices"] for _, n in batches] == [2, 2, 1]
    kw = dict(
        key=call["key"], bucket=0, n_buckets=1, out_dir=out, states={},
        chunk_tokens=1 << 10, codecs=DEFAULT_CODECS,
    )
    (path, [(batch, n)]), *rest = call["slices"]
    with pytest.raises(RuntimeError, match=f"batch {batch} holds {n} rows, its index row {n + 1}"):
        encode_bucket([(path, [(batch, n + 1)]), *rest], **kw)
    assert not list(mf.chunks_dir(out).glob("*")) and not mf.load_manifest(out)

    # the same row staged twice, as a retried task with different input
    # blocks would leave it
    dup, dup_call = _staged_bucket(tmp_path / "dup", rows.take(pa.array([0, 1, 1, 2])))
    with pytest.raises(ValueError, match="duplicate doc_id"):
        encode_bucket(dup_call["slices"], **{**kw, "out_dir": dup})
    assert not list(mf.chunks_dir(dup).glob("*")) and not mf.load_manifest(dup)

    res = encode_bucket(call["slices"], **kw)
    assert res["entry"]["rows"] == 5 and mf.load_manifest(out) == {call["key"]: res["entry"]}
    assert (mf.chunks_dir(out) / res["entry"]["file"]).exists()
    decoded = decode_dataset(out).take_all()
    assert sorted(r["doc_id"] for r in decoded) == rows["doc_id"].to_pylist()


def test_encode_checks_rows_per_source(tokens_ds, tmp_path, monkeypatch):
    """The driver counts each source's encoded rows against pass 1's
    count and raises before the encode returns: here the first
    bucket's call (source "constant", one bucket) is lost."""
    from fsst_ray.pipelines import encode_job

    real = encode_job._bucket_calls
    monkeypatch.setattr(encode_job, "_bucket_calls", lambda *args: real(*args)[1:])
    with pytest.raises(RuntimeError, match="source constant: its buckets hold 0 rows"):
        encode_dataset(tokens_ds, str(tmp_path / "enc"), chunk_tokens=1 << 14, bucket_tokens=1 << 15)


def test_chunk_bytes_independent_of_blocks(ray_session, tmp_path):
    """The same rows encoded as one block and as 23 shuffled blocks give
    byte-identical chunk files and equal manifest entries, also for a
    bucket of more than 1M tokens (rows are ordered by doc_id per
    bucket, not by arrival). The two-source encode stages exactly one
    file per input block."""
    import ray.data as rd

    from fsst_ray.stages.serialize import tokens_from_values

    rng = np.random.default_rng(13)
    n_tok = rng.integers(200, 2000, size=1400).astype(np.int32)
    values = rng.integers(0, 5000, size=int(n_tok.sum())).astype(np.int32)
    src = np.where(np.arange(len(n_tok)) % 5 == 0, "small", "big")
    rows = pa.table(
        {
            "doc_id": pa.array([f"doc-{i:06d}" for i in range(len(n_tok))]),
            "tokens": tokens_from_values(values, n_tok),
            "n_tok": pa.array(n_tok),
            "source": pa.array(src),
        }
    )
    seen = {}
    for name, blocks in (
        ("one", [rows]),
        ("shuffled", [rows.take(pa.array(b)) for b in np.array_split(rng.permutation(rows.num_rows), 23)]),
    ):
        out = str(tmp_path / name)
        res = encode_dataset(rd.from_arrow(blocks), out, chunk_tokens=1 << 14, bucket_tokens=1 << 22)
        assert res.metrics["pass2"]["staged_files"] == len(blocks)
        seen[name] = _chunk_bytes(out), mf.load_manifest(out)
    files, entries = seen["one"]
    assert max(e["tokens"] for e in entries.values()) > 1 << 20, entries
    assert res.bucket_plan == {"big": 1, "small": 1}
    assert seen["shuffled"][0] == files
    assert seen["shuffled"][1] == entries


def test_pass2_executors_agree(ray_session, tmp_path, monkeypatch):
    """An encode plus an append write the same chunk files and manifest
    entries whether pass 2 encodes its buckets in the driver (the
    rewrite bound forced up; no per-bucket Ray task may start) or as one
    Ray task per bucket (bound forced to 0), and say which ran."""
    import pathlib

    import ray.data as rd

    from fsst_ray import append_dataset
    from fsst_ray.pipelines import executor

    src = tokens_table(SCALE)
    idx = np.arange(src.num_rows)
    base, extra = (src.take(pa.array(idx[idx % 2 == r])) for r in (0, 1))

    def refuse(fn):
        raise AssertionError("Ray task started below the rewrite bound")

    seen = {}
    for name, bound in (("driver", 1 << 40), ("ray", 0)):
        out = str(tmp_path / name)
        with monkeypatch.context() as m:
            m.setattr(executor, "_DRIVER_REWRITE_BYTES", bound)
            if name == "driver":
                m.setattr(executor, "_task", refuse)
            results = [
                encode_dataset(rd.from_arrow(base), out, chunk_tokens=1 << 14, bucket_tokens=1 << 15),
                append_dataset(rd.from_arrow(extra), out),
            ]
        for res in results:
            assert res.metrics["pass2"]["executor"] == name
            assert res.metrics["pass2"]["staged_bytes"] > 0
            assert res.metrics["pass2"]["staged_files"] == 1
        assert not (pathlib.Path(out) / "_staging").exists()
        seen[name] = (
            _chunk_bytes(out),
            mf.load_manifest(out),
            [(r.metrics["pass2"]["staged_bytes"], r.metrics["pass2"]["staged_files"]) for r in results],
        )
    assert seen["driver"] == seen["ray"]


def test_read_parquet_bundled_path_list_include_paths(ray_session, tmp_path):
    """The multi-leg streaming shape (tools/bigrun.py): a path LIST read
    as ONE ReadParquet operator, with include_paths exposing each row's
    source file so a leg prefix can be derived — the replacement for
    union-of-reads, which defeats streaming backpressure (UnionOperator
    does not pace input branches against the consumer)."""
    import pyarrow.compute as pc

    from fsst_ray.sources.tokens import read_parquet_bundled

    src = ensure_tokens_parquet(SCALE)
    files = sorted(__import__("pathlib").Path(src).glob("**/*.parquet"))
    legs = []
    for leg in range(3):
        d = tmp_path / f"leg{leg}"
        d.mkdir()
        for f in files:
            (d / f.name).symlink_to(f)
        legs.append(str(d))

    ds = read_parquet_bundled(legs, columns=["doc_id"], include_paths=True)
    t = pa.concat_tables(
        [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    )
    one_leg = read_parquet_bundled(src, columns=["doc_id"]).count()
    assert t.num_rows == 3 * one_leg
    m = pc.extract_regex(t["path"], r"/leg(?P<leg>\d+)/")
    legcol = pc.struct_field(m, "leg")
    counts = pc.value_counts(legcol).to_pylist()
    assert sorted(c["values"] for c in counts) == ["0", "1", "2"]
    assert all(c["counts"] == one_leg for c in counts)
    # prefixed doc_ids are globally unique across legs (the bigrun
    # invariant: leg 0 unprefixed, legs >0 get "L<leg>:")
    prefix = pc.if_else(
        pc.equal(legcol, "0"),
        pa.scalar(""),
        pc.binary_join_element_wise("L", legcol, ":", ""),
    )
    doc = pc.binary_join_element_wise(
        prefix, pc.cast(t["doc_id"], pa.string()), ""
    )
    assert len(pc.unique(doc)) == t.num_rows


def test_decode_select_point_lookup(tokens_ds, tmp_path):
    """Selective decode returns exactly the requested rows bit-identical
    to the source, and PRUNES: only the bucket files containing hits are
    re-read for payload, and only the hit chunks are decoded."""
    import pyarrow.compute as pc

    from fsst_ray import decode_select

    out = str(tmp_path / "enc_sel")
    encode_dataset(tokens_ds, out, chunk_tokens=1 << 14, bucket_tokens=1 << 15)

    src = tokens_ds.take_all()
    by_id = {r["doc_id"]: r for r in src}
    # ids concentrated in one source so the file-level pruning is visible
    wanted = sorted(d for d in by_id if d.startswith("english"))[:3]
    assert len(wanted) == 3

    stats: dict = {}
    got = pa.concat_tables(
        [
            pa.table(b)
            for b in decode_select(out, wanted, stats=stats).iter_batches(
                batch_format="pyarrow"
            )
        ]
    )
    got = got.sort_by("doc_id")
    assert got["doc_id"].to_pylist() == wanted
    for i, d in enumerate(wanted):
        row = by_id[d]
        assert got["tokens"][i].as_py() == list(row["tokens"]), d
        assert got["n_tok"][i].as_py() == row["n_tok"]
        assert got["source"][i].as_py() == row["source"]

    assert stats["files_read"] < stats["files_total"], stats
    assert stats["chunks_decoded"] < stats["chunks_total"], stats
    # zone maps prune phase A itself: buckets whose [doc_min, doc_max]
    # range can't contain an "english*" id are never index-scanned
    assert stats["files_zone_scanned"] < stats["files_total"], stats
    assert stats["files_zone_scanned"] >= stats["files_read"], stats

    # empty selection: empty result, zero payload files read
    stats2: dict = {}
    empty = decode_select(out, ["no-such-doc"], stats=stats2)
    assert empty.count() == 0
    assert stats2["files_read"] == 0

    # legacy manifests (no zone fields) still scan everything, correctly
    import json

    from fsst_ray.state import manifest as mf

    cp = mf.compact_path(out)
    entries_json = json.loads(cp.read_text())
    for e in entries_json.values():
        e.pop("doc_min", None)
        e.pop("doc_max", None)
    cp.write_text(json.dumps(entries_json))
    stats3: dict = {}
    got3 = pa.concat_tables(
        [
            pa.table(b)
            for b in decode_select(out, wanted, stats=stats3).iter_batches(
                batch_format="pyarrow"
            )
        ]
    ).sort_by("doc_id")
    assert got3["doc_id"].to_pylist() == wanted
    assert stats3["files_zone_scanned"] == stats3["files_total"], stats3


def test_manifest_compaction_overlay_semantics(tmp_path):
    """compact folds per-part files into one; entries written AFTER a
    compaction overlay the compacted map (newest wins); a second
    compaction folds the overlay in."""
    out = str(tmp_path / "m")
    for i in range(5):
        mf.write_part_entry(out, {"part_key": f"p{i}", "status": "done", "v": i})
    assert mf.compact_manifest(out) == 5
    files = list(mf.manifest_dir(out).glob("*.json"))
    assert [p.name for p in files] == [mf._COMPACT_NAME]
    assert {e["v"] for e in mf.load_manifest(out).values()} == set(range(5))

    # post-compaction write overlays (a resume repairing p2)
    mf.write_part_entry(out, {"part_key": "p2", "status": "done", "v": 99})
    loaded = mf.load_manifest(out)
    assert len(loaded) == 5
    assert loaded["p2"]["v"] == 99

    assert mf.compact_manifest(out) == 5
    assert mf.load_manifest(out)["p2"]["v"] == 99
    assert len(list(mf.manifest_dir(out).glob("*.json"))) == 1


def test_decode_ntok_range_prunes_and_matches(tokens_ds, tmp_path):
    """Length-range selective decode returns exactly the in-range rows
    bit-identical to the source, decodes only hit chunks, and skips
    whole files with no hit chunk for tail selections."""
    from fsst_ray import decode_ntok_range

    out = str(tmp_path / "enc_range")
    encode_dataset(tokens_ds, out, chunk_tokens=1 << 14, bucket_tokens=1 << 15)

    src = sorted(tokens_ds.take_all(), key=lambda r: r["doc_id"])
    ntoks = sorted(int(r["n_tok"]) for r in src)
    lo = ntoks[int(len(ntoks) * 0.98)]  # ~p98 tail: selective
    hi = 1 << 30
    want = [r for r in src if lo <= r["n_tok"] <= hi]
    assert 0 < len(want) < len(src)

    stats: dict = {}
    got = pa.concat_tables(
        [
            pa.table(b)
            for b in decode_ntok_range(out, lo, hi, stats=stats).iter_batches(
                batch_format="pyarrow"
            )
        ]
    ).sort_by("doc_id")
    assert got.num_rows == len(want)
    for i, row in enumerate(want):
        assert got["doc_id"][i].as_py() == row["doc_id"]
        assert got["tokens"][i].as_py() == list(row["tokens"])
        assert got["n_tok"][i].as_py() == row["n_tok"]
    # chunk-level pruning engages (chunks are small here, so the tail
    # range must skip most of them); file-level skip when a bucket has
    # no hit chunk at all
    assert stats["chunks_decoded"] < stats["chunks_total"], stats
    assert stats["files_read"] <= stats["files_total"], stats

    # empty range: empty result, zero payload files read
    stats2: dict = {}
    empty = decode_ntok_range(out, 1 << 29, 1 << 30, stats=stats2)
    assert empty.count() == 0
    assert stats2["files_read"] == 0


@pytest.fixture
def tombstoned_corpus(tokens_ds, tmp_path):
    """An encoded corpus with one deleted english id; returns (out, the
    source table, the dead id)."""
    from fsst_ray.state.tombstones import delete_docs

    out = str(tmp_path / "enc_exec")
    encode_dataset(tokens_ds, out, chunk_tokens=1 << 14, bucket_tokens=1 << 15)
    src = tokens_table(SCALE)
    dead = "english-000000001"
    delete_docs(out, [dead])
    return out, src, dead


def _selections(out, src, dead):
    """name -> (run(stats) -> Dataset, the expected rows sorted by
    doc_id), covering both selective decodes on hits and on nothing."""
    import pyarrow.compute as pc

    from fsst_ray import decode_ntok_range, decode_select

    live = src.filter(pc.not_equal(src["doc_id"], dead))
    # two sources, an absent id inside english's id range, the dead id
    present = ["english-000000000", "english-000000002", "random-000000003"]
    ids = present + ["english-000000000~", dead]
    ntoks = sorted(src["n_tok"].to_pylist())
    lo = ntoks[int(len(ntoks) * 0.98)]

    def want(mask):
        return live.filter(mask).sort_by("doc_id")

    return {
        "ids": (
            lambda st: decode_select(out, ids, stats=st),
            want(pc.is_in(live["doc_id"], pa.array(present))),
        ),
        "no_ids": (lambda st: decode_select(out, [], stats=st), src.slice(0, 0)),
        "range": (
            lambda st: decode_ntok_range(out, lo, 1 << 30, stats=st),
            want(pc.greater_equal(live["n_tok"], lo)),
        ),
        "no_range": (
            lambda st: decode_ntok_range(out, 1 << 29, 1 << 30, stats=st),
            src.slice(0, 0),
        ),
    }


def _collect(ds) -> pa.Table:
    from fsst_ray.sources.tokens import TOKENS_SCHEMA

    return pa.concat_tables(
        [TOKENS_SCHEMA.empty_table()]
        + [pa.table(b) for b in ds.iter_batches(batch_format="pyarrow")]
    ).sort_by("doc_id")


def _refuse_ray_jobs(m) -> None:
    """Within monkeypatch context `m`, make every way the per-file
    executor could start Ray work raise: Ray Data reads and item lists,
    and any new Ray remote function (its cached tasks are dropped).
    `ray.data.from_arrow`, which wraps a driver result as a Dataset,
    runs Ray Data's own cached metadata task, so that task is built
    before `ray.remote` is refused."""
    import ray
    import ray.data

    from fsst_ray.pipelines import executor

    ray.data.from_arrow(pa.table({"x": [0]}))
    executor._task.cache_clear()

    def refuse(*args, **kwargs):
        raise AssertionError("Ray job started below the driver bound")

    for fn in ("read_parquet", "from_items", "read_parquet_bulk"):
        m.setattr(ray.data, fn, refuse)
    m.setattr(ray, "remote", refuse)


def test_selective_decode_executors_agree(tombstoned_corpus, monkeypatch):
    """The driver executor (scan bytes at or below _DRIVER_READ_BYTES)
    and the Ray executor return the same rows and the same stats,
    apart from `executor`, for decode_select and decode_ntok_range.
    Below the bound the driver reads the files itself: Ray Data reads
    and new Ray tasks are refused while the bound is forced up."""
    from fsst_ray.pipelines import executor

    out, src, dead = tombstoned_corpus
    for name, (run, want) in _selections(out, src, dead).items():
        seen = {}
        for bound in (1 << 40, 0):
            with monkeypatch.context() as m:
                m.setattr(executor, "_DRIVER_READ_BYTES", bound)
                if bound:
                    _refuse_ray_jobs(m)
                stats: dict = {}
                got = _collect(run(stats))
            assert got.equals(want), (name, bound)
            seen[bound] = stats
        driver, ray_side = seen[1 << 40], seen[0]
        assert driver.pop("executor") == "driver", name
        # nothing to scan is zero bytes: at or below any bound
        scans = ray_side["files_zone_scanned"] > 0
        assert ray_side.pop("executor") == ("ray" if scans else "driver"), name
        assert driver == ray_side, name
        if name == "no_ids":
            # an empty request scans no index at all
            assert driver["files_zone_scanned"] == 0, driver
            assert driver["bytes_zone_scanned"] == 0, driver
        if name.startswith("no_"):
            assert driver["files_read"] == 0, driver
        else:
            assert driver["files_read"] > 0, driver


@pytest.fixture(scope="module")
def appended_corpus(tokens_ds, tmp_path_factory):
    """Base encode of the even rows plus one fresh append of the odd
    rows, with every 7th id deleted; returns (out, the live rows sorted
    by doc_id, the append's EncodeResult). Copy it before changing it."""
    import pyarrow.compute as pc
    import ray.data as rd

    from fsst_ray import append_dataset
    from fsst_ray.state.tombstones import delete_docs

    src = tokens_table(SCALE)
    idx = np.arange(src.num_rows)
    out = str(tmp_path_factory.mktemp("appended") / "enc")
    encode_dataset(
        rd.from_arrow(src.take(pa.array(idx[idx % 2 == 0]))),
        out,
        chunk_tokens=1 << 14,
        bucket_tokens=1 << 15,
    )
    res = append_dataset(rd.from_arrow(src.take(pa.array(idx[idx % 2 == 1]))), out)
    dead = src["doc_id"].to_pylist()[::7]
    delete_docs(out, dead)
    live = src.filter(pc.invert(pc.is_in(src["doc_id"], pa.array(dead))))
    return out, live.sort_by("doc_id"), res


def test_append_reports_pass1_time(appended_corpus):
    """An append runs pass 1 itself, so its timings report that cost
    rather than encode_dataset's near-zero time to take the plan."""
    _, _, res = appended_corpus
    assert res.metrics["pass1"]["route"] == "scan"
    assert res.metrics["timings"]["pass1_train"] > 0


def _chunk_bytes(out) -> dict:
    return {f.name: f.read_bytes() for f in mf.chunks_dir(out).glob("*.parquet")}


def test_rewrite_jobs_executors_agree(appended_corpus, tmp_path, monkeypatch):
    """decode_source, decode_generation, purge_deletes and
    compact_corpus give the same rows, results, manifest entries and
    chunk-file bytes whether the per-file executor runs them in the
    driver (bound forced up) or as Ray tasks (bound forced to 0). The
    driver side starts no Ray Data job and no Ray task."""
    import shutil

    import pyarrow.compute as pc

    from fsst_ray import compact_corpus, decode_generation, decode_source, purge_deletes
    from fsst_ray.pipelines import executor

    base, live, _ = appended_corpus
    seen = {}
    for name, bound in (("driver", 1 << 40), ("ray", 0)):
        out = str(tmp_path / name)
        shutil.copytree(base, out)
        got = {}
        with monkeypatch.context() as m:
            m.setattr(executor, "_DRIVER_READ_BYTES", bound)
            m.setattr(executor, "_DRIVER_REWRITE_BYTES", bound)
            if name == "driver":
                _refuse_ray_jobs(m)
            for key, run in (
                ("source", lambda st: decode_source(out, ["english"], stats=st)),
                ("gen0", lambda st: decode_generation(out, 0, stats=st)),
                ("gen1", lambda st: decode_generation(out, 1, stats=st)),
                ("none", lambda st: decode_source(out, ["nope"], stats=st)),
            ):
                stats: dict = {}
                got[key] = (_collect(run(stats)), stats)
            got["purge"] = purge_deletes(out)
            got["compact"] = compact_corpus(out, target_bytes=512 << 20)
        got["rows"] = _collect(decode_dataset(out))
        got["entries"] = mf.load_manifest(out)
        got["files"] = _chunk_bytes(out)
        seen[name] = got

    driver, ray_side = seen["driver"], seen["ray"]
    for key in ("source", "gen0", "gen1", "none"):
        (d_rows, d_stats), (r_rows, r_stats) = driver[key], ray_side[key]
        assert d_rows.equals(r_rows), key
        assert d_stats.pop("executor") == "driver", key
        # nothing to read is zero bytes: at or below any bound
        reads = r_stats["files_read"] > 0
        assert r_stats.pop("executor") == ("ray" if reads else "driver"), key
        assert d_stats == r_stats, key
        assert (d_stats["bytes_read"] > 0) == reads, key
    assert driver["source"][0].equals(
        live.filter(pc.equal(live["source"], "english"))
    )
    assert driver["gen1"][0].equals(live)
    assert 0 < driver["gen0"][0].num_rows < live.num_rows
    assert driver["none"][0].num_rows == 0
    for job in ("purge", "compact"):
        assert driver[job].pop("executor") == "driver", job
        assert ray_side[job].pop("executor") == "ray", job
        assert driver[job] == ray_side[job], job
    assert driver["purge"]["purged_rows"] > 0
    assert driver["compact"]["groups"] > 0
    assert driver["entries"] == ray_side["entries"]
    assert driver["files"] == ray_side["files"]
    assert driver["rows"].equals(live) and ray_side["rows"].equals(live)


def test_append_dataset_incremental_ingest(tokens_ds, tmp_path):
    """Append encodes only the new rows into generation-tagged buckets:
    old bucket files untouched, trained states reused for known sources
    (new sources get append-trained states), and decode / select see
    the union corpus bit-identical."""
    import json
    import pathlib

    import pyarrow.compute as pc
    import ray.data as rd

    from fsst_ray import append_dataset, decode_select

    full = pa.concat_tables(
        pa.table(b) for b in tokens_ds.iter_batches(batch_format="pyarrow")
    )
    # disjoint halves by row parity; half B also carries a NEW source
    idx = np.arange(full.num_rows)
    half_a = full.take(pa.array(idx[idx % 2 == 0]))
    half_b = full.take(pa.array(idx[idx % 2 == 1]))
    nb = half_b.num_rows
    new_src = pc.if_else(
        pa.array(np.arange(nb) % 3 == 0),
        pa.scalar("appended-src"),
        half_b["source"].combine_chunks()
        if isinstance(half_b["source"], pa.ChunkedArray)
        else half_b["source"],
    )
    half_b = half_b.set_column(
        half_b.schema.get_field_index("source"), "source", new_src
    )

    out = str(tmp_path / "enc_append")
    encode_dataset(
        rd.from_arrow(half_a), out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )
    base_files = {
        f.name: f.stat().st_mtime_ns
        for f in pathlib.Path(mf.chunks_dir(out)).glob("*.parquet")
    }
    base_states, _, _, _ = mf.load_plan(out)

    res = append_dataset(rd.from_arrow(half_b), out)
    assert res.metrics["generation"] == 1

    # old bucket files untouched, appended buckets generation-tagged
    after = {
        f.name: f.stat().st_mtime_ns
        for f in pathlib.Path(mf.chunks_dir(out)).glob("*.parquet")
    }
    for name, mtime in base_files.items():
        assert after[name] == mtime, f"base bucket {name} was rewritten"
    new_files = set(after) - set(base_files)
    assert new_files and all("g1-" in n for n in new_files), new_files

    # states reused for known sources; new source got its own
    sidecar = json.loads(mf.append_plan_path(out, 1).read_text())
    assert sidecar["completed"] is True
    app_states, _, _, _ = mf.load_plan(out, path=mf.append_plan_path(out, 1))
    for src, st in app_states.items():
        if src in base_states:
            assert st["fsst"] == base_states[src]["fsst"], src
    assert "appended-src" in app_states

    # union decode is bit-identical to old + new input
    union = pa.concat_tables([half_a, half_b])
    got = pa.concat_tables(
        pa.table(b)
        for b in decode_dataset(out).iter_batches(batch_format="pyarrow")
    )
    assert _sorted_rows(got) == _sorted_rows(union)

    # selective decode spans generations
    want_ids = sorted(
        [half_a["doc_id"][0].as_py(), half_b["doc_id"][0].as_py()]
    )
    sel = pa.concat_tables(
        pa.table(b)
        for b in decode_select(out, want_ids).iter_batches(batch_format="pyarrow")
    ).sort_by("doc_id")
    assert sel["doc_id"].to_pylist() == want_ids

    # an incomplete generation blocks a fresh append but resumes
    mf.save_plan(
        out, app_states, {}, {}, sidecar["config"],
        path=mf.append_plan_path(out, 2),
        extra={"generation": 2, "completed": False},
    )
    with pytest.raises(ValueError, match="incomplete"):
        append_dataset(rd.from_arrow(half_b.slice(0, 4)), out)


def test_append_reuses_states_trained_by_earlier_appends(ray_session, tmp_path):
    """A source first seen in append g1 is trained there; append g2 of
    more of its rows trains nothing and encodes with g1's table."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq
    import ray.data as rd

    from fsst_ray import append_dataset

    src = tokens_table(SCALE)
    eng = src.filter(pc.equal(src["source"], "english"))

    def as_source(t, name, prefix):
        t = t.set_column(t.schema.get_field_index("source"), "source", pa.array([name] * t.num_rows))
        ids = pc.binary_join_element_wise(prefix, t["doc_id"], "")
        return t.set_column(t.schema.get_field_index("doc_id"), "doc_id", ids)

    out = str(tmp_path / "enc_states")
    # plain or fsst only, so B's chunks show which table encoded them
    encode_dataset(
        rd.from_arrow(as_source(eng.slice(0, 40), "A", "a-")), out,
        chunk_tokens=1 << 14, bucket_tokens=1 << 15, codecs=("plain", "fsst"),
    )
    g1 = append_dataset(rd.from_arrow(as_source(eng.slice(40, 80), "B", "b1-")), out)
    assert g1.metrics["pass1"]["sources_trained"] == ["B"]
    blob = mf.load_plan(out, path=mf.append_plan_path(out, 1))[0]["B"]["fsst"]
    assert mf.corpus_states(out)["B"]["fsst"] == blob

    g2 = append_dataset(rd.from_arrow(as_source(eng.slice(120, 80), "B", "b2-")), out)
    assert g2.metrics["pass1"]["sources_trained"] == []
    payloads = [
        p
        for f in mf.chunks_dir(out).glob("B_g2-*.parquet")
        for c, p in zip(*pq.read_table(f, columns=["codec", "payload"]).to_pydict().values())
        if c == "fsst"
    ]
    # an fsst payload: 10-byte frame, u32 state length, the state blob
    assert payloads and all(p[14 : 14 + len(blob)] == blob for p in payloads)


def test_append_resume_finishes_crashed_generation(tokens_ds, tmp_path):
    """A crashed append (plan saved, buckets absent or partial) resumed
    with resume=True finishes ITS generation rather than starting a new
    one, and the union decodes bit-identical."""
    import json

    import ray.data as rd

    from fsst_ray import append_dataset

    full = pa.concat_tables(
        pa.table(b) for b in tokens_ds.iter_batches(batch_format="pyarrow")
    )
    idx = np.arange(full.num_rows)
    half_a = full.take(pa.array(idx[idx % 2 == 0]))
    half_b = full.take(pa.array(idx[idx % 2 == 1]))
    union = pa.concat_tables([half_a, half_b])

    out = str(tmp_path / "enc_resume_app")
    encode_dataset(
        rd.from_arrow(half_a), out, chunk_tokens=1 << 14, bucket_tokens=1 << 15
    )

    # simulate the crash: run the plan/train half of append by hand
    # (exactly what append_dataset persists BEFORE encoding), leaving
    # completed=False and no generation buckets on disk
    from fsst_ray.stages.encoder import build_bucket_plan
    from fsst_ray.stages.trainer import train_states

    _, _, _, config = mf.load_plan(out)
    states, mass, _ = train_states(rd.from_arrow(half_b), base_states=mf.corpus_states(out))
    bucket_plan = build_bucket_plan(mass, config["bucket_tokens"])
    mf.save_plan(
        out, states, bucket_plan, mass, config,
        path=mf.append_plan_path(out, 1),
        extra={"generation": 1, "completed": False},
    )

    def decoded():
        return pa.concat_tables(
            pa.table(b) for b in decode_dataset(out).iter_batches(batch_format="pyarrow")
        )

    res = append_dataset(rd.from_arrow(half_b), out, resume=True)
    assert res.metrics["generation"] == 1  # finished g1, did not open g2
    assert res.metrics["pass1"] == {"route": "resumed", "sources_trained": []}
    plan_file = mf.append_plan_path(out, 1)
    assert json.loads(plan_file.read_text())["completed"] is True
    assert _sorted_rows(decoded()) == _sorted_rows(union)

    # a crash part-way through the bucket encodes: g1 incomplete, some
    # of its bucket files lost
    plan = json.loads(plan_file.read_text())
    mf.write_json_atomic(plan_file, {**plan, "completed": False})
    g1 = sorted(mf.chunks_dir(out).glob("*_g1-*.parquet"))
    for f in g1[::2]:
        f.unlink()
    res = append_dataset(rd.from_arrow(half_b), out, resume=True)
    assert res.metrics["generation"] == 1
    assert sorted(mf.chunks_dir(out).glob("*_g1-*.parquet")) == g1
    assert json.loads(plan_file.read_text())["completed"] is True
    assert _sorted_rows(decoded()) == _sorted_rows(union)


def _drop_routing(plan_file, **changes) -> None:
    """Rewrite a saved plan as a version before the routing field wrote it."""
    import json

    plan = json.loads(plan_file.read_text())
    del plan["routing"]
    mf.write_json_atomic(plan_file, {**plan, **changes})


def test_resume_refuses_plan_without_routing(ray_session, tmp_path):
    """A partial encode or append generation whose plan lacks the
    routing field had its done buckets cut by an earlier rule; resuming
    it raises rather than mixing two routings."""
    import json

    import ray.data as rd

    from fsst_ray import append_dataset

    src = tokens_table(0.05)
    idx = np.arange(src.num_rows)
    base, extra = (src.take(pa.array(idx[idx % 2 == r])) for r in (0, 1))
    out = str(tmp_path / "enc")
    kw = dict(chunk_tokens=1 << 14, bucket_tokens=1 << 15)
    encode_dataset(rd.from_arrow(base), out, **kw)
    append_dataset(rd.from_arrow(extra), out)
    for plan_file in (mf.plan_path(out), mf.append_plan_path(out, 1)):
        assert json.loads(plan_file.read_text())["routing"] == "h64-mulshift-v1"

    _drop_routing(mf.append_plan_path(out, 1), completed=False)
    with pytest.raises(ValueError, match="an earlier rule"):
        append_dataset(rd.from_arrow(extra), out, resume=True)

    fresh = str(tmp_path / "fresh")
    encode_dataset(rd.from_arrow(base), fresh, **kw)
    _drop_routing(mf.plan_path(fresh))
    with pytest.raises(ValueError, match="an earlier rule"):
        encode_dataset(rd.from_arrow(base), fresh, resume=True, **kw)


def test_resume_refuses_changed_input(ray_session, tmp_path):
    """A resume re-scans its input and raises when the mass differs from
    the saved plan's, instead of mixing old and new rows."""
    import ray.data as rd

    src = tokens_table(0.05)
    out = str(tmp_path / "enc")
    kw = dict(chunk_tokens=1 << 14, bucket_tokens=1 << 15)
    encode_dataset(rd.from_arrow(src), out, **kw)
    with pytest.raises(ValueError, match="resume input differs"):
        encode_dataset(rd.from_arrow(src.slice(1)), out, resume=True, **kw)
