"""Exact column profiling — the data-quality summary a pipeline runs
before trusting a new drop: per column (n, n_null, n_distinct,
min_repr, max_repr) in ONE streaming pass over the table.

Shape: every batch emits, per column, (a) one stats partial row
(n, n_null, min, max as strings) and (b) its DISTINCT values as
(column, value-string) rows deduped map-side — so the exchange is
bounded by the sum of per-column cardinalities, never row count.
Aggregation is one pair-sized dedup groupby + one column-sized stats
fold. That makes this the EXACT profiler for columns whose value space
is bounded (ids at test scale, enums, sources, langs); for
unbounded-cardinality columns at 100 TB the approximate siblings are
the right tool (`hll_registers` / `kmv_distinct` — sketch-sized
exchanges), which is why n_distinct here is documented as the
exact-mode path, mirroring the token_histogram vs heavy_hitters
split.

Values are compared and rendered as STRINGS (int64 via str(), strings
verbatim), matching DuckDB's CAST(x AS VARCHAR) for integers and
binary collation MIN/MAX for ASCII strings — the oracle recomputes
every cell. Only int-like and string columns are accepted (loud
ValueError otherwise): float repr differs across engines.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..keyed import group_starts, sorted_fold

_INT_TYPES = {pa.int8(), pa.int16(), pa.int32(), pa.int64()}


def profile_table(ds, columns: list[str]):
    """Profile `columns` of `ds`; returns one row per column:
    (column, n, n_null, n_distinct, min_repr, max_repr). min/max over
    non-null values; all-null columns emit empty-string reprs."""
    if not columns:
        raise ValueError("profile_table: columns must be non-empty")

    schema = ds.schema().base_schema
    for c in columns:
        t = schema.field(c).type
        if t not in _INT_TYPES and t != pa.string() and t != pa.large_string():
            raise ValueError(
                f"profile_table: column {c!r} has type {t} — only integer "
                "and string columns profile exactly cross-engine (float "
                "repr differs); cast or exclude it"
            )

    def partials(batch: pa.Table):
        stats_cols = {"column": [], "n": [], "n_null": [], "vmin": [], "vmax": []}
        distinct_tables = []
        for c in columns:
            col = batch[c]
            col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            n = len(col)
            nn = col.null_count
            valid = col.drop_null()
            if pa.types.is_integer(col.type):
                sval = pc.cast(valid, pa.string())
            else:
                sval = valid if valid.type == pa.string() else pc.cast(valid, pa.string())
            if len(valid):
                # min/max computed on the NATIVE type (integer order !=
                # string order), rendered as strings
                mn = pc.min(valid).as_py()
                mx = pc.max(valid).as_py()
                vmin, vmax = str(mn), str(mx)
            else:
                vmin = vmax = ""
            stats_cols["column"].append(c)
            stats_cols["n"].append(n)
            stats_cols["n_null"].append(nn)
            stats_cols["vmin"].append(vmin)
            stats_cols["vmax"].append(vmax)
            uniq = pc.unique(sval)
            distinct_tables.append(
                pa.table(
                    {
                        "kind": pa.array(["d"] * len(uniq), pa.string()),
                        "column": pa.array([c] * len(uniq), pa.string()),
                        "value": uniq.cast(pa.string()),
                        "n": pa.array(np.zeros(len(uniq), np.int64)),
                        "n_null": pa.array(np.zeros(len(uniq), np.int64)),
                    }
                )
            )
        stats = pa.table(
            {
                "kind": pa.array(["s"] * len(columns), pa.string()),
                "column": pa.array(stats_cols["column"], pa.string()),
                # stats rows carry min/max through the value field as
                # "min\x00max" (values never contain \x00 — asserted by
                # the string cast of ints; callers with \x00 in string
                # columns would need an escape, documented limitation)
                "value": pa.array(
                    [
                        a + "\x00" + b
                        for a, b in zip(stats_cols["vmin"], stats_cols["vmax"])
                    ],
                    pa.string(),
                ),
                "n": pa.array(np.array(stats_cols["n"], np.int64)),
                "n_null": pa.array(np.array(stats_cols["n_null"], np.int64)),
            }
        )
        yield stats
        for t in distinct_tables:
            yield t

    rows = ds.map_batches(partials, batch_format="pyarrow")

    # one range sort on (column) co-locates each column's rows; the
    # per-block pass folds stats rows (sum n/n_null, min/max of reprs
    # parsed from the packed field) and counts distinct values
    def fold(block: pa.Table) -> pa.Table:
        cols = block["column"].to_numpy(zero_copy_only=False)
        kinds = block["kind"].to_numpy(zero_copy_only=False)
        vals = block["value"].to_numpy(zero_copy_only=False)
        ns = block["n"].to_numpy(zero_copy_only=False)
        nnull = block["n_null"].to_numpy(zero_copy_only=False)
        out = {k: [] for k in ("column", "n", "n_null", "n_distinct", "min_repr", "max_repr")}
        order = np.argsort(cols, kind="stable")
        bounds = np.append(group_starts(cols[order]), len(order))
        for s, e in zip(bounds[:-1], bounds[1:]):
            idx = order[s:e]
            name = cols[idx[0]]
            smask = kinds[idx] == "s"
            srow = idx[smask]
            drow = idx[~smask]
            n = int(ns[srow].sum())
            nn = int(nnull[srow].sum())
            # distinct values were deduped per batch; dedup across
            # batches here (the column's whole value set is co-located)
            nd = len(np.unique(vals[drow])) if len(drow) else 0
            mins = []
            maxs = []
            for v in vals[srow]:
                a, _, b = v.partition("\x00")
                if a or b:
                    mins.append(a)
                    maxs.append(b)
            # numeric columns need numeric min/max ordering; reprs of
            # ints compare correctly as ints, so parse when possible
            def _key(x):
                try:
                    return (0, int(x), "")
                except ValueError:
                    return (1, 0, x)

            vmin = min(mins, key=_key) if mins else ""
            vmax = max(maxs, key=_key) if maxs else ""
            out["column"].append(name)
            out["n"].append(n)
            out["n_null"].append(nn)
            out["n_distinct"].append(nd)
            out["min_repr"].append(vmin)
            out["max_repr"].append(vmax)
        return pa.table(
            {
                "column": pa.array(out["column"], pa.string()),
                "n": pa.array(np.array(out["n"], np.int64)),
                "n_null": pa.array(np.array(out["n_null"], np.int64)),
                "n_distinct": pa.array(np.array(out["n_distinct"], np.int64)),
                "min_repr": pa.array(out["min_repr"], pa.string()),
                "max_repr": pa.array(out["max_repr"], pa.string()),
            }
        )

    return sorted_fold(rows, "column", fold)
