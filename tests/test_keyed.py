"""The keyed-aggregate helpers (`fsst_ray/keyed.py`): group boundaries,
the sorted fold, exact integer reductions and sorted membership."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from fsst_ray.keyed import (
    group_ids,
    group_rank,
    group_sizes,
    group_starts,
    max_by,
    position_sums,
    segment_min,
    segment_sum,
    sorted_fold,
    sorted_isin,
    sum_by,
)

BIG = 1 << 53  # float64 stops representing every integer here


def test_group_starts_int_string_and_several_keys():
    assert group_starts(np.array([1, 1, 2, 2, 2, 7])).tolist() == [0, 2, 5]
    s = np.array(["a", "a", "b", "c", "c"], dtype=object)
    assert group_starts(s).tolist() == [0, 2, 3]
    # a group ends where ANY key changes
    k2 = np.array([0, 1, 1, 1, 1])
    assert group_starts(s, k2).tolist() == [0, 1, 2, 3]
    assert group_starts(np.array([5])).tolist() == [0]
    assert group_starts(np.array([], dtype=np.int64)).tolist() == []


def test_group_sizes_ids_and_rank():
    starts = group_starts(np.array([3, 3, 3, 4, 9, 9]))
    assert group_sizes(starts, 6).tolist() == [3, 1, 2]
    assert group_ids(starts, 6).tolist() == [0, 0, 0, 1, 2, 2]
    assert group_rank(starts, 6).tolist() == [0, 1, 2, 0, 0, 1]
    empty = group_starts(np.array([], dtype=np.int64))
    assert group_ids(empty, 0).tolist() == [] and group_rank(empty, 0).tolist() == []


def test_segment_sum_empty_rows_and_all_empty():
    v = np.arange(1, 8)
    # empty rows at the head, middle and tail
    assert segment_sum(v, [0, 0, 3, 3, 7, 7]).tolist() == [0, 6, 0, 22, 0]
    # every segment empty, with no values at all
    assert segment_sum(np.array([], np.int64), [0, 0, 0]).tolist() == [0, 0]
    # no segments
    assert segment_sum(np.array([], np.int64), [0]).tolist() == []
    # offsets that stop short of the values only sum their own rows
    assert segment_sum(v, [0, 2]).tolist() == [3]
    # bool and narrow ints widen to int64
    out = segment_sum(np.array([True, True, False]), [0, 3])
    assert out.dtype == np.int64 and out.tolist() == [2]
    # 2-D values sum along axis 0
    m = np.array([[1, -1], [2, -2], [4, -4]], dtype=np.int32)
    assert segment_sum(m, [0, 2, 2, 3]).tolist() == [[3, -3], [0, 0], [4, -4]]


def test_segment_sum_exact_above_2_53_and_uint64_wraps():
    v = np.array([BIG, 1, 1, BIG], dtype=np.int64)
    assert segment_sum(v, [0, 2, 4]).tolist() == [BIG + 1, BIG + 1]
    u = np.array([2**64 - 1, 2], dtype=np.uint64)
    out = segment_sum(u, [0, 2])
    assert out.dtype == np.uint64 and int(out[0]) == 1  # mod 2^64


def test_segment_min_fills_empty_with_dtype_max():
    out = segment_min(np.array([5, 2, 9], dtype=np.int64), [0, 2, 2, 3])
    assert out.tolist() == [2, np.iinfo(np.int64).max, 9]
    u = segment_min(np.array([7], dtype=np.uint64), [0, 0, 1])
    assert u.dtype == np.uint64 and u.tolist() == [2**64 - 1, 7]


def test_sum_by_exact_above_2_53():
    inv = np.array([0, 1, 0, 1, 2])
    vals = np.array([BIG, 3, 1, BIG, 0], dtype=np.int64)
    got = sum_by(inv, vals, 4)
    assert got.tolist() == [BIG + 1, BIG + 3, 0, 0]
    # the float64 path this replaces rounds the same totals
    assert np.bincount(inv, weights=vals).astype(np.int64)[0] != BIG + 1
    assert max_by(inv, vals, 4).tolist() == [BIG, BIG, 0, np.iinfo(np.int64).min]


def test_position_sums_and_its_int64_guard():
    # rows [1, 2], [], [3, 4]: 1*1 + 2*2, 0, 3*1 + 4*2
    assert position_sums(np.array([1, 2, 3, 4]), [0, 2, 2, 4]).tolist() == [5, 0, 11]
    assert position_sums(np.array([], np.int64), [0, 0]).tolist() == [0]
    # the largest row length whose bound m * L * (L + 1) / 2 fits int64
    m = (1 << 31) - 1
    cap = (1 << 63) - 1
    longest = int(np.sqrt(2 * cap // m))
    while m * longest * (longest + 1) // 2 > cap:
        longest -= 1
    ok = position_sums(np.full(longest, m, np.int64), [0, longest])
    assert int(ok[0]) == m * longest * (longest + 1) // 2
    with pytest.raises(ValueError, match="position_sums"):
        position_sums(np.full(longest + 1, m, np.int64), [0, longest + 1])
    with pytest.raises(ValueError, match="position_sums"):
        position_sums(np.full(longest + 1, -m, np.int64), [0, longest + 1])


def test_tokens_summary_partials_refuses_a_wrapping_row():
    """The roundtrip checksum's (token + 1) * position term shares the
    position_sums guard: a row whose term could pass int64 raises."""
    from fsst_ray.stages.decoder import tokens_summary_partials

    n = 100_000  # 2^31 * n(n+1)/2 passes 2^63
    big = pa.table(
        {
            "tokens": pa.array([np.full(n, 2**31 - 2, np.int32)], pa.list_(pa.int32())),
            "source": ["a"],
        }
    )
    with pytest.raises(ValueError, match="position_sums"):
        tokens_summary_partials(big)
    small = pa.table(
        {
            "tokens": pa.array([[0, 1], [], [2]], pa.list_(pa.int32())),
            "source": ["a", "a", "b"],
        }
    )
    out = tokens_summary_partials(small).to_pydict()
    assert out == {
        "source": ["a", "b"],
        "n_docs": [2, 1],
        "total_tokens": [2, 1],
        "checksum": [1 * 1 + 2 * 2, 3 * 1],
    }


def test_sorted_isin_empty_and_structured():
    s = np.array([2, 5, 9])
    assert sorted_isin(s, np.array([9, 1, 5, 10])).tolist() == [True, False, True, False]
    assert sorted_isin(np.array([], np.int64), np.array([1])).tolist() == [False]
    assert sorted_isin(s, np.array([], np.int64)).tolist() == []
    dt = np.dtype([("d", np.int64), ("i", np.int32)])
    keys = np.array([(1, 0), (1, 2), (3, 1)], dtype=dt)
    probe = np.array([(1, 2), (1, 1), (4, 0)], dtype=dt)
    assert sorted_isin(keys, probe).tolist() == [True, False, False]


def test_sorted_fold_empty_block_never_reaches_fn(ray_session):
    """One key over four blocks makes the range sort cut empty
    partitions. None of them reaches fn, and every block of the result
    holds rows and fn's output schema; a fold that leaves no row gives
    `empty`."""
    import ray
    import ray.data as rd

    def fn(block):
        assert block.num_rows, "fn called on an empty block"
        return pa.table({"k": block["k"], "n": pa.array(np.ones(block.num_rows, np.int64))})

    tbl = pa.table({"k": np.ones(40, np.int64), "v": np.arange(40)})
    ds = rd.from_arrow([tbl.slice(i * 10, 10) for i in range(4)])
    assert any(b.num_rows == 0 for b in ray.get(ds.sort("k").to_arrow_refs()))
    blocks = ray.get(sorted_fold(ds, "k", fn).to_arrow_refs())
    assert sum(b.num_rows for b in blocks) == 40
    assert all(b.num_rows and b.schema.names == ["k", "n"] for b in blocks)

    schema_only = fn(tbl.slice(0, 1)).slice(0, 0)
    none_left = sorted_fold(ds, "k", lambda b: schema_only, schema_only)
    assert [b.schema for b in ray.get(none_left.to_arrow_refs())] == [schema_only.schema]


def test_sorted_fold_folds_whole_groups_across_blocks(ray_session):
    """Equal keys land in one block, so a per-block group count is the
    global count, for string and int keys alike; an empty input folds
    to no rows."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    keys = rng.integers(0, 50, size=3000)
    tbl = pa.table({"k": keys, "s": pa.array([f"key{k:02d}" for k in keys])})

    def count(col):
        def fn(block):
            k = block[col].to_numpy(zero_copy_only=False)
            k = k[np.argsort(k, kind="stable")]
            starts = group_starts(k)
            return pa.table({col: k[starts], "n": group_sizes(starts, len(k))})

        return fn

    want = dict(zip(*np.unique(keys, return_counts=True)))
    for col in ("k", "s"):
        got = sorted_fold(rd.from_arrow(tbl).repartition(7), col, count(col)).to_pandas()
        assert got[col].is_unique, f"a {col} group straddled two blocks"
        got_counts = {
            (int(k) if col == "k" else int(k[3:])): int(n)
            for k, n in zip(got[col], got["n"])
        }
        assert got_counts == want
    empty = rd.from_arrow(tbl.slice(0, 0))
    assert sorted_fold(empty, "k", count("k")).count() == 0


def test_rollup_aggregate_sums_exactly_above_2_53(ray_session):
    """A converted `bincount(weights=)` site: rollup's per-batch partial
    sum of cents carries the total to the output. Float64 accumulation
    rounded 2^51 * 100 + 1 cents down by one."""
    import ray.data as rd

    from fsst_ray.functions.analytics import rollup_aggregate

    tbl = pa.table({"g": ["a", "a", "b"], "value": [float(2**51), 0.01, 1.0]})
    out = rollup_aggregate(rd.from_arrow(tbl), ["g"], "value").to_pylist()
    by_group = {r["g"]: r["sum_cents"] for r in out}
    assert by_group["a"] == 2**51 * 100 + 1
    assert by_group[None] == 2**51 * 100 + 1 + 100


# ---- int64 guards on products that feed a packed key or an exact sum ----


def test_rollup_combo_pack_refuses_past_int64():
    """rollup's mixed-radix key pack holds while the product of the
    columns' distinct counts stays below 2^63."""
    from fsst_ray.functions.analytics import _combos

    n = 1 << 21
    a = np.arange(n, dtype=np.int64)
    values, inv = _combos([a, a, a % (n - 1)])  # (2^21)^2 * (2^21 - 1) < 2^63
    assert len(values[0]) == n and inv.max() == n - 1
    with pytest.raises(ValueError, match="int64 pack"):
        _combos([a, a, a])  # (2^21)^3 == 2^63


def test_grouped_quantiles_rank_product_guard(ray_session):
    """rank = (n * q_num + q_den - 1) // q_den stays in int64 while
    (n + 1) * q_den does; past that it raises instead of wrapping."""
    import ray.data as rd

    from fsst_ray.functions.analytics import grouped_quantiles

    ds = rd.from_arrow(pa.table({"k": [1, 2], "v": [10, 20]}))
    ok = grouped_quantiles(ds, "k", "v", [("q", 1, (1 << 62) - 1)]).to_pandas()
    assert sorted(ok["q"]) == [10, 20]
    # Ray wraps the worker's ValueError; match its message
    with pytest.raises(Exception, match="q_den"):
        grouped_quantiles(ds, "k", "v", [("q", 1, 1 << 62)]).materialize()


def test_ngram_span_dedup_second_pass_doc_pack_guard(ray_session):
    """The masking pass packs doc_id << 20 for EVERY doc, including
    ones too short to emit a gram; a doc_id at 2^43 raises instead of
    aliasing another doc's spans."""
    import ray.data as rd

    from fsst_ray.functions.dedup import ngram_span_dedup

    def corpus(short_id):
        return rd.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([1, 2, short_id], type=pa.int64()),
                    "text": pa.array(["a b c d", "a b c d", "x"]),
                }
            )
        )

    got = ngram_span_dedup(corpus((1 << 43) - 1), k=4).to_pandas()
    assert sorted(got["n_masked"]) == [0, 0, 4]
    with pytest.raises(Exception, match="43-bit"):
        ngram_span_dedup(corpus(1 << 43), k=4).materialize()


def test_pair_key_pack_refuses_ids_past_32_bits():
    """The (doc_a << 32 | doc_b) pair key of the Jaccard and recall
    operators holds ids in [0, 2^32); past that it raises (it was an
    assert, which `python -O` strips)."""
    from fsst_ray.functions.dedup import _pair_keys

    top = (1 << 32) - 1
    ok = _pair_keys(pa.table({"doc_a": [top, 0], "doc_b": [1, top]}))
    assert ok.tolist() == [(top << 32) | 1, top]
    for a, b in ((1 << 32, 0), (0, 1 << 32), (-1, 0)):
        with pytest.raises(ValueError, match="32 bits"):
            _pair_keys(pa.table({"doc_a": [a], "doc_b": [b]}))
