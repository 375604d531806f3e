"""Inverted index: build/decode roundtrip, partition invariance,
bucket pruning, AND-query semantics, loud bound guards."""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fsst_ray.functions.invindex import (
    _encode_bucket_rows,
    and_query,
    build_inverted_index,
    decode_postings,
    index_stats,
)

SF = "/root/testdata/sf0.001"


def _ref_pairs(tbl: pa.Table) -> dict[str, list[int]]:
    """Pure-python reference: term -> sorted distinct doc ids."""
    out: dict[str, set[int]] = {}
    for doc_id, text in zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist()):
        for w in text.split(" "):
            out.setdefault(w, set()).add(doc_id)
    return {t: sorted(s) for t, s in out.items()}


@pytest.fixture(scope="module")
def built(ray_session, tmp_path_factory):
    import ray.data as rd

    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    d = str(tmp_path_factory.mktemp("invindex"))
    meta = build_inverted_index(docs, d, n_buckets=8)
    return d, meta


def test_roundtrip_vs_reference(built):
    d, meta = built
    ref = _ref_pairs(pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]))
    got: dict[str, list[int]] = {}
    for b in meta["buckets_written"]:
        t = pq.read_table(pathlib.Path(d) / f"bucket={b:05d}.parquet")
        for i in range(len(t)):
            ids = decode_postings(
                t["df"][i].as_py(), t["first_doc"][i].as_py(), t["body"][i].as_py()
            )
            got[t["term"][i].as_py()] = ids.tolist()
    assert got == ref
    assert meta["n_terms"] == len(ref)
    assert meta["n_postings"] == sum(len(v) for v in ref.values())


def test_partition_invariance(built, ray_session, tmp_path):
    import ray.data as rd

    d, meta = built
    docs = rd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    d2 = str(tmp_path / "repart")
    meta2 = build_inverted_index(docs.repartition(7), d2, n_buckets=8)
    assert meta2 == meta
    for b in meta["buckets_written"]:
        a = pq.read_table(pathlib.Path(d) / f"bucket={b:05d}.parquet")
        c = pq.read_table(pathlib.Path(d2) / f"bucket={b:05d}.parquet")
        assert a.equals(c)  # bit-identical files incl. vbyte bodies


def test_index_stats_matches_reference(built, ray_session):
    d, _ = built
    ref = _ref_pairs(pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]))
    st = index_stats(d).to_pandas().set_index("term")
    assert len(st) == len(ref)
    for t, ids in ref.items():
        assert st.loc[t, "df"] == len(ids)
        assert st.loc[t, "doc_id_sum"] == sum(ids)


def test_and_query_semantics(built):
    d, _ = built
    ref = _ref_pairs(pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]))
    terms = sorted(ref)[:3]
    want = sorted(set(ref[terms[0]]).intersection(*[set(ref[t]) for t in terms[1:]]))
    got = and_query(d, terms)["doc_id"].to_pylist()
    assert got == want
    # duplicate terms in the request behave as a set
    assert and_query(d, [terms[0], terms[0]])["doc_id"].to_pylist() == ref[terms[0]]
    # an absent term empties the conjunction
    assert len(and_query(d, [terms[0], "zz_never_a_word"])) == 0
    with pytest.raises(ValueError):
        and_query(d, [])


def test_and_query_prunes_buckets(built, monkeypatch):
    """A 1-term query must read exactly one bucket file."""
    d, meta = built
    import fsst_ray.functions.invindex as mod

    ref = _ref_pairs(pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"]))
    term = sorted(ref)[0]
    reads: list[str] = []
    real = pq.read_table

    def spy(path, *a, **k):
        reads.append(str(path))
        return real(path, *a, **k)

    monkeypatch.setattr(mod.pq, "read_table", spy)
    got = and_query(d, [term])["doc_id"].to_pylist()
    assert got == ref[term]
    assert len(reads) == 1


def test_delta_bound_raises():
    g = pa.table(
        {
            "term": pa.array(["t", "t"]),
            "doc_id": pa.array([0, 1 << 33], type=pa.int64()),
            "bucket": pa.array([0, 0], type=pa.int64()),
        }
    )
    with pytest.raises(ValueError, match="gap"):
        _encode_bucket_rows(g)


def test_decode_postings_df_guard():
    with pytest.raises(ValueError):
        decode_postings(0, 0, b"")


def test_wide_ids_roundtrip():
    """first_doc carries full int64 width; only gaps are int32-bounded."""
    base = (1 << 60) + 7
    ids = np.array([base, base + 3, base + (1 << 30)], dtype=np.int64)
    g = pa.table(
        {
            "term": pa.array(["w"] * 3),
            "doc_id": pa.array(ids),
            "bucket": pa.array([0] * 3, type=pa.int64()),
        }
    )
    rows = _encode_bucket_rows(g)
    out = decode_postings(
        rows["df"][0].as_py(), rows["first_doc"][0].as_py(), rows["body"][0].as_py()
    )
    assert out.tolist() == sorted(ids.tolist())


def test_meta_and_missing_meta(built, tmp_path):
    d, meta = built
    on_disk = json.loads((pathlib.Path(d) / "_meta.json").read_text())
    assert on_disk == meta
    with pytest.raises(FileNotFoundError):
        index_stats(str(tmp_path / "nope"))


def test_plan_bounded_dispatch(built, ray_session):
    """The only groupby in the build is over <= n_buckets groups; the
    stats path has no all-to-all at all."""
    d, _ = built
    plan = str(index_stats(d).__repr__())
    assert "Sort" not in plan and "Aggregate" not in plan


def test_distinct_pairs_null_text_has_no_words():
    """A null text adds no (term, doc) pair and does not shift the
    words of the rows after it (np.repeat by the split lengths), also
    at the batch edges and in a sliced batch."""
    from fsst_ray.functions.invindex import _distinct_pairs

    tbl = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13, 14, 15], pa.int64()),
            "text": pa.array([None, "a b a", None, "b c", "", None]),
        }
    )
    for t in (tbl, tbl.slice(1), tbl.slice(2, 3)):
        got = _distinct_pairs(t)
        pairs = sorted(zip(got["doc_id"].to_pylist(), got["term"].to_pylist()))
        live = [(d, x) for d, x in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()) if x is not None]
        want = sorted({(d, w) for d, x in live for w in x.split(" ")})
        assert pairs == want
    assert _distinct_pairs(tbl.slice(5)).num_rows == 0
