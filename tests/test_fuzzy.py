"""Edit-distance-1 fuzzy pairs: randomized parity vs a pure-python
Levenshtein reference, branch coverage, guards, global uniqueness."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pyarrow as pa
import pytest

from fsst_ray.functions.fuzzy import (
    _byte_matrix,
    _deletion_rows,
    _lev1_verify,
    fuzzy_pairs,
)


def _lev(a: str, b: str) -> int:
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _ref_pairs(vals: list[str]) -> list[tuple[str, str]]:
    vs = sorted(set(vals))
    return sorted(
        (a, b)
        for a, b in itertools.combinations(vs, 2)
        if abs(len(a) - len(b)) <= 1 and _lev(a, b) <= 1
    )


def _run(ray_session, vals: list[str], **kw) -> list[tuple[str, str]]:
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"v": pa.array(vals, type=pa.string())}))
    df = fuzzy_pairs(ds.repartition(5), "v", **kw).to_pandas()
    return sorted(map(tuple, df[["v_a", "v_b"]].values.tolist()))


def test_randomized_parity_and_uniqueness(ray_session):
    random.seed(11)
    vals = [
        "".join(random.choice("abc") for _ in range(random.randint(0, 5)))
        for _ in range(400)
    ]
    got = _run(ray_session, vals, n_buckets=8)
    assert got == _ref_pairs(vals)
    # a verified pair's shared variant is unique => no global dedupe
    # pass is needed; this asserts that argument holds end-to-end
    assert len(got) == len(set(got))


def test_branch_cases(ray_session):
    vals = [
        "cat", "cut",          # substitution
        "cats",                # insertion at end vs cat
        "scat",                # insertion at front vs cat
        "ct",                  # deletion vs cat/cut
        "aab", "ab",           # repeated-char deletion (variant dedupe)
        "xy", "yx",            # false candidate: share variants, d=2
        "", "q",               # empty vs 1-char (d=1)
        "zzz",                 # isolated
    ]
    got = _run(ray_session, vals, n_buckets=4)
    assert got == _ref_pairs(vals)
    assert ("xy", "yx") not in got and ("", "q") in got


def test_duplicate_rows_and_multiblock(ray_session):
    vals = ["abc", "abd"] * 50 + ["abcd"] * 7
    got = _run(ray_session, vals)
    assert got == _ref_pairs(vals)


def test_real_part_words(ray_session):
    """Real-data cross-length case: part-name words at sf0.001 contain
    cold/old (deletion) and red/rod (substitution)."""
    import ray.data as rd
    import pyarrow.compute as pc

    parts = rd.read_parquet("/root/testdata/sf0.001/part.parquet", columns=["p_name"])

    def words(b: pa.Table) -> pa.Table:
        flat = pc.split_pattern(b["p_name"].combine_chunks(), pattern=" ").flatten()
        return pa.table({"v": flat})

    df = fuzzy_pairs(parts.map_batches(words, batch_format="pyarrow"), "v").to_pandas()
    got = set(map(tuple, df[["v_a", "v_b"]].values.tolist()))
    assert ("cold", "old") in got and ("red", "rod") in got


def test_non_ascii_raises(ray_session):
    with pytest.raises(Exception, match="ASCII"):
        _run(ray_session, ["naïve", "naive"])


def test_null_raises(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"v": pa.array(["a", None], type=pa.string())}))
    with pytest.raises(Exception, match="null"):
        fuzzy_pairs(ds, "v").to_pandas()


def test_max_len_guard(ray_session):
    with pytest.raises(Exception, match="max_len"):
        _run(ray_session, ["x" * 40], max_len=10)


def test_flood_guard(ray_session):
    # 60 one-char values (with repeats deduped to ~26 distinct) all
    # share the "" deletion variant -> quadratic candidates
    vals = [c for c in "abcdefghijklmnopqrstuvwxyz"]
    with pytest.raises(Exception, match="max_bucket_pairs"):
        _run(ray_session, vals, max_bucket_pairs=10)


def test_lev1_verify_unit():
    vals = ["cat", "cut", "cats", "ct", "xy", "yx", ""]
    arr = pa.array(vals, type=pa.string())
    mat, lens = _byte_matrix(arr)
    ia, ib = [], []
    for i, j in itertools.combinations(range(len(vals)), 2):
        if abs(lens[i] - lens[j]) <= 1:
            ia.append(i)
            ib.append(j)
    ok = _lev1_verify(mat, lens, np.array(ia), np.array(ib))
    for k in range(len(ia)):
        assert ok[k] == (_lev(vals[ia[k]], vals[ib[k]]) <= 1)


def test_deletion_rows_dedupes_repeated_chars():
    t = pa.table({"v": pa.array(["aaab"])})
    rows = _deletion_rows(t, "v", max_len=16)
    variants = rows["variant"].to_pylist()
    assert sorted(variants) == ["aaab", "aaa", "aab"][::-1] or sorted(variants) == sorted(
        ["aaab", "aaa", "aab"]
    )
    assert len(variants) == len(set(variants))


def test_plan_bounded_dispatch(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"v": pa.array(["ab", "ac"])}))
    plan = repr(fuzzy_pairs(ds, "v"))
    # one Sort (the bounded-bucket groupby exchange), no Aggregate
    assert "Aggregate" not in plan


# ---------------- ngram_span_dedup ----------------


def _span_ref(docs: list[tuple[int, str]], k: int, t: int):
    """Pure-python reference for duplicate n-gram span masking."""
    occ: dict[tuple, list[tuple[int, int]]] = {}
    words = {d: s.split(" ") for d, s in docs}
    for d, ws in sorted(words.items()):
        for i in range(len(ws) - k + 1):
            occ.setdefault(tuple(ws[i : i + k]), []).append((d, i))
    masked: dict[int, set[int]] = {d: set() for d, _ in docs}
    for g, lst in occ.items():
        if len(lst) >= t:
            for d, i in sorted(lst)[1:]:
                masked[d].update(range(i, i + k))
    out = {}
    for d, ws in words.items():
        kept = [w for j, w in enumerate(ws) if j not in masked[d]]
        out[d] = (len(ws), len(ws) - len(kept), " ".join(kept))
    return out


def test_ngram_span_dedup_reference_parity(ray_session):
    import ray.data as rd
    from fsst_ray.functions.dedup import ngram_span_dedup

    random.seed(3)
    vocab = [f"w{i}" for i in range(30)]
    docs = []
    for d in range(60):
        ws = [random.choice(vocab) for _ in range(random.randint(1, 40))]
        docs.append((d, " ".join(ws)))
    # plant repeats: a shared 12-word span in three docs, and a
    # self-repeat within one doc
    span = " ".join(random.choice(vocab) for _ in range(12))
    docs[5] = (5, docs[5][1] + " " + span)
    docs[17] = (17, span + " " + docs[17][1])
    docs[40] = (40, span)
    docs[50] = (50, span + " xsep " + span)
    t = pa.table(
        {
            "doc_id": pa.array([d for d, _ in docs], type=pa.int64()),
            "text": pa.array([s for _, s in docs]),
        }
    )
    for k in (3, 8):
        got = (
            ngram_span_dedup(rd.from_arrow(t).repartition(7), k=k)
            .to_pandas()
            .sort_values("doc_id")
        )
        ref = _span_ref(docs, k, 2)
        for r in got.itertuples():
            assert (r.n_words, r.n_masked, r.text_dedup) == ref[r.doc_id], (
                k,
                r.doc_id,
            )


def test_ngram_span_dedup_first_occurrence_kept(ray_session):
    import ray.data as rd
    from fsst_ray.functions.dedup import ngram_span_dedup

    t = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["a b c d", "a b c d"]),
        }
    )
    got = (
        ngram_span_dedup(rd.from_arrow(t), k=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.loc[0, "text_dedup"] == "a b c d" and got.loc[0, "n_masked"] == 0
    assert got.loc[1, "text_dedup"] == "" and got.loc[1, "n_masked"] == 4


def test_ngram_span_dedup_short_docs_and_guards(ray_session):
    import ray.data as rd
    from fsst_ray.functions.dedup import ngram_span_dedup

    t = pa.table(
        {
            "doc_id": pa.array([1, 2], type=pa.int64()),
            "text": pa.array(["a b", "a b"]),  # shorter than k -> untouched
        }
    )
    got = ngram_span_dedup(rd.from_arrow(t), k=5).to_pandas()
    assert got["n_masked"].tolist() == [0, 0]
    with pytest.raises(ValueError, match="min_count"):
        ngram_span_dedup(rd.from_arrow(t), k=2, min_count=1)
    big = pa.table(
        {
            "doc_id": pa.array([1 << 50], type=pa.int64()),
            "text": pa.array(["a b c a b c"]),
        }
    )
    with pytest.raises(Exception, match="pack"):
        ngram_span_dedup(rd.from_arrow(big), k=3).to_pandas()


def test_ngram_span_dedup_cap(ray_session):
    import ray.data as rd
    from fsst_ray.functions.dedup import ngram_span_dedup

    t = pa.table(
        {
            "doc_id": pa.array(range(30), type=pa.int64()),
            "text": pa.array(["p q r s t u"] * 30),
        }
    )
    with pytest.raises(ValueError, match="max_dup_occurrences"):
        ngram_span_dedup(rd.from_arrow(t), k=3, max_dup_occurrences=5)


def test_byte_matrix_refuses_nulls():
    """A null value has no edit distance to anything: `_byte_matrix`
    refuses it before its np.repeat by value lengths."""
    with pytest.raises(ValueError, match="null values are not comparable"):
        _byte_matrix(pa.array(["ab", None, "cd"]))
    with pytest.raises(ValueError, match="null values are not comparable"):
        _byte_matrix(pa.chunked_array([["ab"], [None]]))
