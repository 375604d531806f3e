"""Keyed aggregation: the one copy of every per-key fold primitive.

Group boundaries over sorted keys, the range-sort-then-fold-each-block
map, exact integer reductions per key and per list row, and sorted
membership all live here; the engine (`state/`, `stages/`) and the
operator suite import them instead of re-deriving them.

Every signed integer sum is exact in int64: `np.bincount(weights=)`
accumulates in float64 and rounds once a total passes 2^53, so no caller
uses it for sums. Such sums wrap only past 2^63; the one product that
feeds them here (`position_sums`) checks its bound and raises. uint64
hash digests sum mod 2^64 on purpose.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_INT64 = np.iinfo(np.int64)


def group_starts(*sorted_cols: np.ndarray) -> np.ndarray:
    """Index of the first row of each group of equal keys.

    The rows are sorted on the columns together (lexicographically), so
    a group ends wherever any column changes. `!=` rather than `np.diff`
    keeps string (object) keys working. No rows give no groups."""
    first = np.zeros(len(sorted_cols[0]), dtype=bool)
    first[:1] = True
    for col in sorted_cols:
        first[1:] |= col[1:] != col[:-1]
    return np.flatnonzero(first)


def group_sizes(starts: np.ndarray, n: int) -> np.ndarray:
    """Row count of each group, from its starts and the total rows n."""
    return np.diff(np.append(starts, n))


def group_ids(starts: np.ndarray, n: int) -> np.ndarray:
    """Group number (0-based) of each of the n sorted rows."""
    return np.repeat(np.arange(len(starts)), group_sizes(starts, n))


def group_rank(starts: np.ndarray, n: int) -> np.ndarray:
    """Position (0-based) of each of the n sorted rows inside its group."""
    return np.arange(n) - np.repeat(starts, group_sizes(starts, n))


def sorted_fold(ds, key, fn, empty: pa.Table | None = None):
    """Range-sort `ds` on `key`, then call `fn` once per sorted block.

    Ray Data's range sort cuts partitions at key values, so equal keys
    never straddle a block boundary: each block holds every row of its
    keys and `fn` folds whole groups locally, with no per-group Python
    call and no second exchange. `fn` gets a pyarrow Table and returns
    one (or a generator of them).

    Every block of the result holds rows and `fn`'s output schema. Ray
    Data (2.49) passes an empty block through `map_batches` without
    calling `fn`, so an empty range partition would keep the sort's
    schema; the fold therefore runs here and only its non-empty blocks
    make the result. The sort is a barrier either way, so this holds
    the folded blocks in the object store instead of streaming them.
    With no row left, the result is `empty` when given."""
    import ray.data as rd

    def per_block(block: pa.Table):
        return fn(block) if block.num_rows else block

    folded = ds.sort(key).map_batches(
        per_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True
    )
    blocks = [b for bundle in folded.iter_internal_ref_bundles() for b in bundle.blocks]
    kept = [ref for ref, meta in blocks if meta.num_rows != 0]
    if kept:
        return rd.from_arrow_refs(kept)
    if empty is not None:
        return rd.from_arrow(empty)
    return rd.from_arrow_refs([ref for ref, _ in blocks]) if blocks else folded


def _scatter(ufunc, inv: np.ndarray, values: np.ndarray, n: int, fill) -> np.ndarray:
    out = np.full(n, fill, dtype=np.int64)
    ufunc.at(out, inv, values)
    return out


def sum_by(inv: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Exact int64 sum of integer `values` per group id `inv` in [0, n)."""
    return _scatter(np.add, inv, values, n, 0)


def max_by(inv: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """int64 max of `values` per group id; int64 min for empty groups."""
    return _scatter(np.maximum, inv, values, n, _INT64.min)


def _widen(values) -> np.ndarray:
    """bool and integers narrower than 64 bits as int64, so a sum cannot
    wrap early; 64-bit integers and floats as they are."""
    values = np.asarray(values)
    if values.dtype.kind == "b" or (values.dtype.kind in "iu" and values.itemsize < 8):
        return values.astype(np.int64)
    return values


def _segments(ufunc, values: np.ndarray, offsets: np.ndarray, fill) -> np.ndarray:
    """ufunc-reduce values[offsets[i]:offsets[i+1]] for every segment i
    (along axis 0), `fill` for an empty one. `reduceat` alone cannot
    express an empty segment and needs every index < len(values), so it
    only sees the non-empty starts: the non-empty segments tile the
    values between them, so each reduces exactly its own rows."""
    offsets = np.asarray(offsets, dtype=np.int64)
    values = values[: offsets[-1]]
    out = np.full((len(offsets) - 1, *values.shape[1:]), fill, dtype=values.dtype)
    nonempty = offsets[:-1] < offsets[1:]
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(values, offsets[:-1][nonempty], axis=0)
    return out


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Sum of each list row values[offsets[i]:offsets[i+1]] (0 for an
    empty row). bool and signed integers sum exactly in int64; uint64
    sums mod 2^64. 2-D values sum along axis 0. For sorted groups pass
    `np.append(starts, n)` as the offsets."""
    return _segments(np.add, _widen(values), offsets, 0)


def segment_min(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Min of each segment of integer values; the dtype's max for an
    empty one."""
    values = _widen(values)
    return _segments(np.minimum, values, offsets, np.iinfo(values.dtype).max)


def position_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per list row, sum_i values[i] * i with i the 1-based position in
    the row: the order-sensitive checksum term the roundtrip queries
    recompute in SQL. The products and row sums are int64, and a row
    of L values each at most M in magnitude sums to at most
    M * L * (L + 1) / 2, so a batch where that bound reaches 2^63
    raises ValueError instead of wrapping."""
    offsets = np.asarray(offsets, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)[offsets[0] : offsets[-1]]
    lens = np.diff(offsets)
    if len(values):
        m = max(int(values.max()), -int(values.min()))
        longest = int(lens.max())
        if m * longest * (longest + 1) // 2 > _INT64.max:
            raise ValueError(
                f"position_sums: a {longest}-value row of magnitude up to "
                f"{m} can pass int64"
            )
    pos = np.arange(1, len(values) + 1) - np.repeat(offsets[:-1] - offsets[0], lens)
    return segment_sum(values * pos, offsets - offsets[0])


def sorted_isin(sorted_vals: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Membership of each x in a SORTED array: searchsorted, clip and
    one equality test; the broadcast-lookup primitive every map-side
    filter shares. Correct on empty inputs."""
    if len(sorted_vals) == 0 or len(x) == 0:
        return np.zeros(len(x), dtype=bool)
    pos = np.clip(np.searchsorted(sorted_vals, x), 0, len(sorted_vals) - 1)
    return sorted_vals[pos] == x


def list_any(lists, flat_mask) -> np.ndarray:
    """Per row of an Arrow list column: whether any of its values is
    marked in `flat_mask`, a bool mask (numpy or Arrow) over the
    column's flattened values. A null or empty list holds no value, so
    it is False."""
    import pyarrow.compute as pc

    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    parents = pc.list_parent_indices(lists).to_numpy(zero_copy_only=False)
    out = np.zeros(len(lists), dtype=bool)
    out[parents[np.asarray(flat_mask, dtype=bool)]] = True
    return out
