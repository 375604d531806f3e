"""Semi-structured (JSON) field extraction over string columns.

Event streams routinely carry a free-form JSON properties column; the
100-TB-safe shape for using it is map-side extraction (vectorized JSON
path match per batch — polars' Rust kernel, no per-row Python
json.loads) followed by whatever relational shape the caller needs.
Nothing here shuffles: extraction is a pure projection, and the demo
rollup pre-aggregates per batch so its final groupby is
event-type-sized.

Oracle story: DuckDB's json_extract_string over the same strings; the
extracted values are integers so aggregates compare exactly.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..keyed import max_by, sum_by


def json_int_field(ds, col: str, path: str, out_col: str):
    """Append `out_col` (int64, null where the path is absent/null or
    not an integer) extracted from the JSON-string column `col` via a
    JSONPath like "$.k". Vectorized per batch (polars json_path_match +
    strict-less integer cast); the rest of the batch passes through
    untouched."""
    import polars as pl

    def extract(batch: pa.Table) -> pa.Table:
        s = batch[col]
        s = s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s
        vals = (
            pl.from_arrow(s)
            .str.json_path_match(path)
            .cast(pl.Int64, strict=False)
            .to_arrow()
            .cast(pa.int64())
        )
        return batch.append_column(out_col, vals)

    return ds.map_batches(extract, batch_format="pyarrow")


def props_int_rollup(ds, group_col: str, json_col: str, path: str):
    """Per-`group_col` rollup of an integer JSON field: (group, n,
    n_present, sum_val, max_val). Map-side partials (one np.unique +
    bincount/`sum_by`/`max_by` pass per batch) keep the shuffle group-sized;
    null extractions count toward n but not the aggregates (groups
    with no present value emit sum 0 / max NULL, matching the SQL
    convention COALESCE(SUM(x),0) / MAX(x))."""
    group_type = ds.schema().base_schema.field(group_col).type
    extracted = json_int_field(ds, json_col, path, "_jx")

    def partials(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        g = batch[group_col].to_numpy(zero_copy_only=False)
        jx = batch["_jx"]
        jx = jx.combine_chunks() if isinstance(jx, pa.ChunkedArray) else jx
        present = ~pc.is_null(jx).to_numpy(zero_copy_only=False)
        uniq, inv = np.unique(g, return_inverse=True)
        k = len(uniq)
        n = np.bincount(inv, minlength=k).astype(np.int64)
        npres = np.bincount(inv[present], minlength=k).astype(np.int64)
        # drop_null preserves order, so vi aligns with inv[present] —
        # values stay int64 end-to-end (no float round trip)
        vi = jx.drop_null().to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                group_col: pa.array(uniq),
                "n": pa.array(n),
                "n_present": pa.array(npres),
                "sum_val": pa.array(sum_by(inv[present], vi, k)),
                "max_val": pa.array(max_by(inv[present], vi, k)),
            }
        )

    agg = (
        extracted.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby(group_col)
        .aggregate(
            *_sum_max_aggs(group_col)
        )
    )

    imin = np.iinfo(np.int64).min

    def finish(batch: pa.Table) -> pa.Table:
        if batch.num_columns == 0 or batch.num_rows == 0:
            # Ray's aggregate emits EMPTY ZERO-COLUMN blocks when output
            # partitions outnumber groups (the session-8 rollup lesson)
            return pa.table(
                {
                    group_col: pa.array([], group_type),
                    "n": pa.array([], pa.int64()),
                    "n_present": pa.array([], pa.int64()),
                    "sum_val": pa.array([], pa.int64()),
                    "max_val": pa.array([], pa.int64()),
                }
            )
        batch = batch.rename_columns(
            [group_col, "n", "n_present", "sum_val", "max_val"]
        )
        mx = batch["max_val"].to_numpy(zero_copy_only=False)
        # a group whose every extraction was null carries the sentinel —
        # surface SQL's MAX-over-empty as NULL
        mask = mx == imin
        if mask.any():
            batch = batch.set_column(
                batch.schema.get_field_index("max_val"),
                "max_val",
                pa.array(np.where(mask, 0, mx), mask=mask, type=pa.int64()),
            )
        return batch

    return agg.map_batches(finish, batch_format="pyarrow")


def _sum_max_aggs(group_col: str):
    from ray.data.aggregate import Max, Sum

    return (
        Sum("n"),
        Sum("n_present"),
        Sum("sum_val"),
        Max("max_val"),
    )
