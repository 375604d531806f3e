"""Analytic (window / ranking) functions over distributed tables.

Two operator classes Ray Data has no built-in for, expressed with the
partitioning shapes that survive 100 TB:

- ``running_totals``: SQL `SUM(...) OVER (PARTITION BY k ORDER BY ...)`
  / `ROW_NUMBER()`. ONE range exchange (`sort("user_id")` — Ray's sort
  routes every row of a key to exactly one output block), then a single
  vectorized pass per BLOCK: lexsort by (user, ts, event_id), group
  boundaries via `!=` on adjacent users, per-group cumsum reset by
  subtracting the running sum at each group start. No per-group Python
  dispatch — `groupby(k).map_groups(fn)` would invoke `fn` once per
  user (10^8 Python calls on tiny tables at 10^8 users; VERDICT r4
  item 2). The partitioning assumption (documented, same as
  ``session_windows``): one partition key's rows fit in a worker's
  heap — true for per-user event streams, not for a global ORDER BY
  (that is ``shuffle_order``'s prefix-scan job).
- ``top_n_per_group``: SQL `ROW_NUMBER() OVER (PARTITION BY g ORDER BY
  ...) <= n`. Map-side per-batch candidate pruning (each block keeps at
  most n rows per group, vectorized) bounds the shuffle to
  n x groups x blocks rows; the per-group finalist step then ranks at
  most n x blocks rows per group. Nothing corpus-sized is shuffled or
  collected.

The running sum is computed over integer cents (floor(value * 100) as
int64) so the cumulative aggregate is associative-exact and the DuckDB
windowed-SUM oracle (segment-tree association) matches bit-for-bit —
a float running sum would differ in the last ulp between scan orders.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..keyed import (
    group_ids,
    group_rank,
    group_sizes,
    group_starts,
    segment_min,
    segment_sum,
    sorted_fold,
    sum_by,
)

_RUNNING_EMPTY = pa.table(
    {
        "event_id": pa.array([], type=pa.int64()),
        "user_id": pa.array([], type=pa.int64()),
        "rn": pa.array([], type=pa.int64()),
        "cum_cents": pa.array([], type=pa.int64()),
    }
)


def running_totals(ds):
    """Per-user running event rank and cumulative value-cents over the
    events stream, ordered by (ts, event_id): the distributed form of

        ROW_NUMBER() / SUM(cents) OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id)

    Returns a Dataset with (event_id, user_id, rn, cum_cents).

    Shape (the `funnel_stages` pattern, analytics.py ~line 200): a
    map-side projection to 4 int64 columns, ONE `sort("user_id")`
    exchange (each user lands wholly in one block — Ray's range
    partitioner sends all rows equal to a boundary key to one side),
    then ONE vectorized pass per block over all its users. Sorting on
    user_id ONLY is deliberate: a multi-key sort could split one user's
    rows across two range partitions at a (user, ts) boundary, so the
    within-user (ts, event_id) order is restored per block by lexsort.
    """

    def project(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        ts = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
        ts_us = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
        val = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": pc.cast(batch["event_id"], pa.int64()),
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "ts_us": pa.array(ts_us),
                "cents": pa.array(np.floor(val * 100.0).astype(np.int64)),
            }
        )

    def per_block(block: pa.Table) -> pa.Table:
        users = block["user_id"].to_numpy(zero_copy_only=False)
        ts_us = block["ts_us"].to_numpy(zero_copy_only=False)
        eid = block["event_id"].to_numpy(zero_copy_only=False)
        cents = block["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts_us, users))
        u, c = users[order], cents[order]
        rank = group_rank(group_starts(u), len(u))
        cs = np.cumsum(c)
        # the block's running sum just BEFORE each row's group starts
        head = np.arange(len(u)) - rank
        return pa.table(
            {
                "event_id": pa.array(eid[order]),
                "user_id": pa.array(u),
                "rn": pa.array(rank + 1),
                "cum_cents": pa.array(cs - (cs[head] - c[head])),
            }
        )

    projected = ds.map_batches(project, batch_format="pyarrow")
    return sorted_fold(projected, "user_id", per_block, _RUNNING_EMPTY)


def _prune_topn(sources: np.ndarray, order_rank: np.ndarray, n: int) -> np.ndarray:
    """Row indices of the first n rows per source under the given sort.

    ``order_rank`` is a lexsort permutation whose FIRST key groups by
    source; within a source the remaining keys give the ranking order.
    Vectorized: group boundaries via !=, per-row rank via arange minus
    its group start.
    """
    s = sources[order_rank]
    return order_rank[group_rank(group_starts(s), len(s)) < n]


def top_n_per_group(ds, n: int = 3):
    """Top n documents per source by (n_chars DESC, doc_id ASC), with a
    1-based rank column: (source, doc_id, n_chars, rnk).

    Stage 1 prunes each block to <= n rows per source map-side (no
    shuffle yet); stage 2 groups the surviving n x groups x blocks
    candidates by source and ranks the finalists. Exact: a global top-n
    row is a top-n row of its own block.
    """

    def prune(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch.select(["source", "doc_id", "n_chars"])
        src = batch["source"].to_numpy(zero_copy_only=False)
        doc = batch["doc_id"].to_numpy(zero_copy_only=False)
        nch = batch["n_chars"].to_numpy(zero_copy_only=False)
        codes = np.unique(src, return_inverse=True)[1]
        order = np.lexsort((doc, -nch, codes))
        keep = np.sort(_prune_topn(codes, order, n))
        return pa.table(
            {
                "source": pa.array(src[keep], type=pa.string()),
                "doc_id": pa.array(doc[keep], type=pa.int64()),
                "n_chars": pa.array(nch[keep], type=pa.int64()),
            }
        )

    def finalize(group: pa.Table) -> pa.Table:
        doc = group["doc_id"].to_numpy(zero_copy_only=False)
        nch = group["n_chars"].to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, -nch))[:n]
        k = len(order)
        return pa.table(
            {
                "source": group["source"].take(pa.array(order)),
                "doc_id": pa.array(doc[order], type=pa.int64()),
                "n_chars": pa.array(nch[order], type=pa.int64()),
                "rnk": pa.array(np.arange(1, k + 1, dtype=np.int64)),
            }
        )

    return (
        ds.map_batches(prune, batch_format="pyarrow")
        .groupby("source")
        .map_groups(finalize, batch_format="pyarrow")
    )


_TS_INF = np.iinfo(np.int64).max


def funnel_stages(
    events_ds,
    steps: tuple[str, ...] = ("view", "click", "purchase"),
    window_us: int | None = None,
):
    """Ordered-sequence funnel per user: stage k is reached when a
    `steps[k]` event exists AT OR AFTER the user's earliest completion
    of stage k-1 (t_k = min ts of steps[k] with t_{k-1} <= ts, and
    ts <= t_{k-1} + window_us when a conversion window is set). Returns
    one row per user who has ANY event: (user_id, stage,
    t1_us..tK_us nullable epoch-micros).

    Shape: map-side projection keeps only step-typed rows plus one
    per-block distinct-user sentinel row (so stage-0 users survive);
    ONE hash exchange on user_id; then a block-level pass computes
    every user's whole funnel with K masked `segment_min` sweeps —
    no per-user Python, loop only over the K steps."""
    import pyarrow.compute as pc

    step_list = list(steps)
    value_set = pa.array(step_list, pa.string())

    def project(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(batch["event_type"], value_set=value_set)
        sub = batch.filter(keep)
        users = batch["user_id"].to_numpy(zero_copy_only=False)
        uniq = np.unique(users)
        ts = sub["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        ts_us = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": pa.array(
                    np.concatenate(
                        [sub["user_id"].to_numpy(zero_copy_only=False), uniq]
                    ).astype(np.int64)
                ),
                "ts_us": pa.array(
                    np.concatenate([ts_us, np.zeros(len(uniq), np.int64)])
                ),
                "etype": pa.concat_arrays(
                    [
                        (
                            sub["event_type"].combine_chunks()
                            if isinstance(sub["event_type"], pa.ChunkedArray)
                            else sub["event_type"]
                        ),
                        pa.array([""] * len(uniq), pa.string()),
                    ]
                ),
            }
        )

    def per_block(block: pa.Table) -> pa.Table:
        users = block["user_id"].to_numpy(zero_copy_only=False)
        ts = block["ts_us"].to_numpy(zero_copy_only=False)
        et = block["etype"].to_numpy(zero_copy_only=False)
        starts = group_starts(users)
        gid = group_ids(starts, len(users))
        bounds = np.append(starts, len(users))
        prev = np.full(len(starts), -1, dtype=np.int64)  # -inf: ts >= 0 always
        cols = {"user_id": pa.array(users[starts].astype(np.int64))}
        stage = np.zeros(len(starts), dtype=np.int64)
        for k, s in enumerate(step_list):
            ok = (et == s) & (ts >= prev[gid]) & (prev[gid] != _TS_INF)
            if window_us is not None and k > 0:
                ok &= ts <= prev[gid] + window_us
            arr = np.where(ok, ts, _TS_INF)
            tk = segment_min(arr, bounds)
            stage += (tk != _TS_INF).astype(np.int64)
            cols[f"t{k + 1}_us"] = pa.array(tk, mask=tk == _TS_INF)
            prev = tk
        cols["stage"] = pa.array(stage)
        order = ["user_id", "stage"] + [f"t{k + 1}_us" for k in range(len(step_list))]
        return pa.table({c: cols[c] for c in order})

    projected = events_ds.map_batches(project, batch_format="pyarrow")
    return sorted_fold(projected, "user_id", per_block)


def retention_cohorts(events_ds, week_s: int = 7 * 24 * 3600):
    """Cohort retention matrix: users grouped by their first-activity
    week (the cohort); for every later week in which a cohort member
    was active, one (cohort_week, week_offset, n_users) cell.

    Shape: a map pass projects DISTINCT (user_id, epoch_week) pairs per
    block (np.unique — bounded by users x weeks, far below event rows);
    ONE hash exchange on user_id; a block-level pass derives each
    user's cohort (min week — first element per sorted group) and emits
    (cohort, offset) pairs; map-side partial counts then reduce through
    a matrix-sized groupby (weeks x weeks cells). The event stream is
    never shuffled."""
    import pyarrow.compute as pc

    def project(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        if isinstance(ts, pa.ChunkedArray):
            ts = ts.combine_chunks()
        week = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False) // (
            week_s * 1_000_000
        )
        users = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # packed (user, week) key: 43-bit user + 20-bit week — assert
        # loudly rather than silently corrupting the matrix for
        # snowflake-scale ids or pre-1970 timestamps
        if len(users):
            # ValueError, not assert: survives `python -O` — silent
            # key-pack corruption would miscount whole cohort cells
            if not (users.min() >= 0 and users.max() < (1 << 43)):
                raise ValueError("user_id exceeds 43-bit pack")
            if not (week.min() >= 0 and week.max() < (1 << 20)):
                raise ValueError("week exceeds 20-bit pack")
        key = np.unique(users * np.int64(1 << 20) + week)
        return pa.table(
            {
                "user_id": pa.array(key >> np.int64(20)),
                "week": pa.array(key & np.int64((1 << 20) - 1)),
            }
        )

    def cells(block: pa.Table) -> pa.Table:
        users = block["user_id"].to_numpy(zero_copy_only=False)
        weeks = block["week"].to_numpy(zero_copy_only=False)
        # per-block projections are distinct only within their block —
        # the same (user, week) pair can arrive from several blocks, so
        # dedupe after the exchange (all of a user's rows co-locate)
        key = np.unique(users * np.int64(1 << 20) + weeks)
        users, weeks = key >> np.int64(20), key & np.int64((1 << 20) - 1)
        starts = group_starts(users)
        cohort = weeks[starts][group_ids(starts, len(users))]  # per-user min week
        # distinct (user, week) pairs in, so each (cohort, offset) pair
        # appears once per user: count directly
        key = cohort * np.int64(1 << 20) + (weeks - cohort)
        uniq, cnt = np.unique(key, return_counts=True)
        return pa.table(
            {
                "cohort_week": pa.array(uniq >> np.int64(20)),
                "week_offset": pa.array(uniq & np.int64((1 << 20) - 1)),
                "n_users": pa.array(cnt.astype(np.int64)),
            }
        )

    pairs = events_ds.map_batches(
        project, batch_size=None, batch_format="pyarrow"
    )
    per_block = sorted_fold(pairs, "user_id", cells)
    # matrix-sized reduce: weeks x weeks cells regardless of corpus size
    agg = per_block.groupby(["cohort_week", "week_offset"]).sum("n_users")
    return agg.map_batches(
        lambda t: pa.table(
            {
                "cohort_week": t["cohort_week"],
                "week_offset": t["week_offset"],
                "n_users": pc.cast(t["sum(n_users)"], pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def pivot_counts(ds, key: str, pivot: str, categories: list[str]):
    """Long -> wide pivot: one row per `key` with an int64 count column
    per category — SQL `COUNT(*) FILTER (WHERE pivot = c)` for a FIXED,
    known category set.

    Shape: a map-side partial pass collapses each block to
    (distinct keys of the block) x (k category columns) via ONE
    bincount over a packed (key-code, category-code) — the exchange
    moves already-wide partial rows (key-cardinality x blocks, never
    event rows), and the reduce is Ray's built-in hash-aggregate sum
    (no map_groups dispatch at all). A pivot value outside
    `categories` raises loudly (ValueError, not assert — the
    textstats.py:426 rule): the wide schema must be fixed up front;
    pivoting an unbounded domain is a groupby, not a pivot.
    """
    cats = list(dict.fromkeys(categories))
    if not cats:
        raise ValueError("pivot_counts: categories must be non-empty")
    if key in cats or pivot in cats:
        raise ValueError("pivot_counts: a category name collides with a column name")
    k = len(cats)
    cat_pos = {c: i for i, c in enumerate(cats)}

    def partial(batch: pa.Table) -> pa.Table:
        if len(batch) == 0:
            return pa.table(
                {
                    key: pa.array([], pa.int64()),
                    **{c: pa.array([], pa.int64()) for c in cats},
                }
            )
        keys = batch[key].to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch[pivot]
        enc = pc.dictionary_encode(
            col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        )
        dict_vals = enc.dictionary.to_pylist()  # per-batch distinct, small
        unseen = [v for v in dict_vals if v not in cat_pos]
        if unseen:
            raise ValueError(
                f"pivot_counts: {pivot} value(s) {unseen[:5]!r} not in the "
                "declared categories"
            )
        lut = np.array([cat_pos[v] for v in dict_vals], dtype=np.int64)
        cat_idx = lut[enc.indices.to_numpy(zero_copy_only=False)]
        uk, inv = np.unique(keys, return_inverse=True)
        counts = np.bincount(inv * k + cat_idx, minlength=len(uk) * k).reshape(
            len(uk), k
        )
        return pa.table(
            {
                key: pa.array(uk),
                **{
                    c: pa.array(counts[:, i].astype(np.int64))
                    for i, c in enumerate(cats)
                },
            }
        )

    # sum_per_key, not groupby().sum(): key cardinality scales with the
    # corpus (users), the high-cardinality aggregate trap (graph.py)
    from fsst_ray.functions.graph import sum_per_key

    return sum_per_key(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        key,
        cats,
    )


_DELTAS_EMPTY = pa.table(
    {
        "event_id": pa.array([], pa.int64()),
        "user_id": pa.array([], pa.int64()),
        "prev_event_id": pa.array([], pa.int64()),
        "gap_us": pa.array([], pa.int64()),
    }
)


def event_deltas(ds):
    """Per-user LAG: for every event (ordered by ts, event_id within
    the user), the previous event's id and the µs gap to it — the
    distributed form of

        LAG(event_id) / ts - LAG(ts) OVER (PARTITION BY user_id
                                           ORDER BY ts, event_id)

    Each user's FIRST event gets NULL prev_event_id / gap_us (SQL LAG
    default). Returns (event_id, user_id, prev_event_id, gap_us).

    Shape: identical to `running_totals` — map-side int64 projection,
    ONE sort("user_id") range exchange (whole user per block), one
    lexsort + shift-compare pass per block; the lag is `arr[:-1]`
    masked at group starts, no per-group dispatch. All-integer output
    so the DuckDB LAG oracle matches exactly.
    """

    def project(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        ts = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
        return pa.table(
            {
                "event_id": pc.cast(batch["event_id"], pa.int64()),
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "ts_us": pc.cast(ts, pa.int64()),
            }
        )

    def per_block(block: pa.Table) -> pa.Table:
        users = block["user_id"].to_numpy(zero_copy_only=False)
        ts_us = block["ts_us"].to_numpy(zero_copy_only=False)
        eid = block["event_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts_us, users))
        u = users[order]
        t = ts_us[order]
        e = eid[order]
        n = len(u)
        prev_e = np.empty(n, dtype=np.int64)
        gap = np.empty(n, dtype=np.int64)
        prev_e[1:] = e[:-1]
        gap[1:] = t[1:] - t[:-1]
        prev_e[0] = gap[0] = 0  # masked below
        mask = pa.array(group_rank(group_starts(u), n) > 0)  # not a user's first
        return pa.table(
            {
                "event_id": pa.array(e),
                "user_id": pa.array(u),
                "prev_event_id": pc.if_else(
                    mask, pa.array(prev_e), pa.scalar(None, pa.int64())
                ),
                "gap_us": pc.if_else(mask, pa.array(gap), pa.scalar(None, pa.int64())),
            }
        )

    projected = ds.map_batches(project, batch_format="pyarrow")
    return sorted_fold(projected, "user_id", per_block, _DELTAS_EMPTY)


def _combos(arrs: list[np.ndarray]) -> tuple[list[np.ndarray], np.ndarray]:
    """Distinct row combinations of several key columns: (the key values
    of each combination, per column; each row's combination index).
    Combinations pack mixed-radix into one int64, which holds while the
    product of the columns' distinct counts stays below 2^63
    (ValueError otherwise)."""
    uniqs, combo, radix = [], np.zeros(len(arrs[0]), dtype=np.int64), 1
    for a in arrs:
        u, code = np.unique(a, return_inverse=True)
        radix *= len(u)
        if radix >= 1 << 63:
            raise ValueError("group key combinations exceed the int64 pack")
        uniqs.append(u)
        combo = combo * len(u) + code
    uc, inv = np.unique(combo, return_inverse=True)
    values = []
    for u in reversed(uniqs):
        values.append(u[uc % len(u)])
        uc = uc // len(u)
    return values[::-1], inv


def rollup_aggregate(ds, group_cols: list[str], value_col: str,
                     max_groups: int = 1 << 20,
                     grouping_sets: list[list[str]] | None = None) -> pa.Table:
    """SQL `GROUP BY ROLLUP(c1, .., cn)`: the hierarchical aggregate —
    (sum_cents, n) at every prefix level of `group_cols`, subtotal rows
    carrying NULL in the rolled-up positions, plus the grand total.

    Distributed shape: ONE map-side partial pass (np.unique over packed
    per-batch group codes -> per-combo partial sums, so the exchange
    moves at most |distinct combos| rows per block, never event rows),
    ONE Ray hash-aggregate at the FINEST level, then every coarser
    level is derived from the finest aggregate driver-side — the
    finest table is bounded by the group-combination cardinality
    (guarded by `max_groups`, loud ValueError), so no second corpus
    pass and no per-level shuffle. The value is quantized to integer
    cents (floor(value * 100), the running_totals convention) so sums
    are associative-exact and the DuckDB ROLLUP oracle matches
    bit-for-bit.

    NULL values in `group_cols` are rejected (ValueError): the output
    encodes roll-up positions as NULL, so an input NULL would be
    indistinguishable from a subtotal row (SQL disambiguates with
    GROUPING(); this operator keeps the driver compare integer-only
    instead).
    """
    cols = list(group_cols)

    def partial(batch: pa.Table) -> pa.Table:
        arrs = []
        for c in cols:
            col = batch[c]
            if col.null_count:
                raise ValueError(
                    f"rollup_aggregate: NULL in group column {c!r} would be "
                    "ambiguous with subtotal rows"
                )
            arrs.append(col.to_numpy(zero_copy_only=False))
        val = batch[value_col].to_numpy(zero_copy_only=False)
        cents = np.floor(val * 100.0).astype(np.int64)
        values, inv = _combos(arrs)
        return pa.table(
            {
                **{c: pa.array(v, type=pa.string()) for c, v in zip(cols, values)},
                "sum_cents": pa.array(sum_by(inv, cents, len(values[0]))),
                "n": pa.array(np.bincount(inv).astype(np.int64)),
            }
        )

    finest_ds = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(cols)
        .sum(["sum_cents", "n"])
    )
    import ray as _ray

    # drop Ray's empty zero-column aggregate blocks (emitted when the
    # aggregate has more output partitions than groups — seen at
    # num_cpus=8 on a 9-group input; concat would fail on the schema)
    tabs = [
        t
        for t in (_ray.get(r) for r in finest_ds.to_arrow_refs())
        if t.num_columns
    ]
    if not tabs:
        finest = pa.table(
            {
                **{c: pa.array([], type=pa.string()) for c in cols},
                "sum_cents": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
            }
        )
    else:
        finest = pa.concat_tables(tabs).rename_columns(
            cols + ["sum_cents", "n"]
        )
    if finest.num_rows > max_groups:
        raise ValueError(
            f"rollup_aggregate: {finest.num_rows} group combinations exceed "
            f"max_groups={max_groups}"
        )
    # coarser grouping sets from the finest aggregate (driver-side,
    # bounded): default ROLLUP = strict prefixes; `grouping_sets`
    # overrides (cube_aggregate passes every proper subset)
    if grouping_sets is None:
        grouping_sets = [cols[:lvl] for lvl in range(len(cols) - 1, -1, -1)]
    levels = [finest]
    sums = finest["sum_cents"].to_numpy(zero_copy_only=False)
    ns = finest["n"].to_numpy(zero_copy_only=False)
    for keep in grouping_sets:
        if keep:
            values, inv = _combos(
                [finest[c].to_numpy(zero_copy_only=False) for c in keep]
            )
            n_rows = len(values[0])
            ls, ln = sum_by(inv, sums, n_rows), sum_by(inv, ns, n_rows)
            cols_out = {c: pa.array(v, type=pa.string()) for c, v in zip(keep, values)}
        else:
            cols_out = {}
            ls = np.array([int(sums.sum())], dtype=np.int64)
            ln = np.array([int(ns.sum())], dtype=np.int64)
            n_rows = 1
        levels.append(
            pa.table(
                {
                    **{
                        c: (
                            cols_out[c]
                            if c in keep
                            else pa.nulls(n_rows, type=pa.string())
                        )
                        for c in cols
                    },
                    "sum_cents": pa.array(ls),
                    "n": pa.array(ln),
                }
            )
        )
    return pa.concat_tables(levels)


def cube_aggregate(ds, group_cols: list[str], value_col: str,
                   max_groups: int = 1 << 20) -> pa.Table:
    """SQL `GROUP BY CUBE(c1, .., cn)`: `rollup_aggregate` over every
    proper subset of `group_cols` instead of only prefixes — one
    corpus pass and one finest-level aggregate either way; the 2^n - 1
    extra grouping sets are all derived from the bounded finest table
    driver-side."""
    cols = list(group_cols)
    subsets = []
    for m in range((1 << len(cols)) - 2, -1, -1):
        subsets.append([c for i, c in enumerate(cols) if m & (1 << i)])
    return rollup_aggregate(
        ds, cols, value_col, max_groups=max_groups, grouping_sets=subsets
    )


_MOVING_EMPTY = pa.table(
    {
        "event_id": pa.array([], type=pa.int64()),
        "user_id": pa.array([], type=pa.int64()),
        "win_cents": pa.array([], type=pa.int64()),
        "win_n": pa.array([], type=pa.int64()),
    }
)


def moving_sums(ds, k: int = 4):
    """Frame-bounded moving window per user: the distributed form of

        SUM(cents) OVER (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN k-1 PRECEDING AND CURRENT ROW)

    plus win_n, the frame's row count (= min(row_number, k)). The
    unbounded-preceding sibling is `running_totals`; this is the
    sliding-frame window kind (moving averages, burst detection).

    Shape: identical to running_totals — ONE `sort("user_id")` range
    exchange, then ONE vectorized pass per block: lexsort by
    (user, ts, event_id), block cumsum, and each row subtracts the
    cumsum at index max(i - k, group_start - 1); no per-group Python
    dispatch. Integer cents keep the sum associative-exact so the
    DuckDB frame-window oracle matches bit-for-bit.
    """
    if k < 1:
        raise ValueError(f"moving_sums: k must be >= 1, got {k}")

    def project(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        ts = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
        ts_us = pc.cast(ts, pa.int64()).to_numpy(zero_copy_only=False)
        val = batch["value"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "event_id": pc.cast(batch["event_id"], pa.int64()),
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "ts_us": pa.array(ts_us),
                "cents": pa.array(np.floor(val * 100.0).astype(np.int64)),
            }
        )

    def per_block(block: pa.Table) -> pa.Table:
        users = block["user_id"].to_numpy(zero_copy_only=False)
        ts_us = block["ts_us"].to_numpy(zero_copy_only=False)
        eid = block["event_id"].to_numpy(zero_copy_only=False)
        cents = block["cents"].to_numpy(zero_copy_only=False)
        order = np.lexsort((eid, ts_us, users))
        u = users[order]
        rank = group_rank(group_starts(u), len(u))
        cs = np.cumsum(cents[order])
        idx = np.arange(len(u), dtype=np.int64)
        lo = idx - np.minimum(rank + 1, k)  # cumsum index BEFORE frame
        prev = np.where(lo >= 0, cs[np.maximum(lo, 0)], 0)
        return pa.table(
            {
                "event_id": pa.array(eid[order]),
                "user_id": pa.array(u),
                "win_cents": pa.array(cs - prev),
                "win_n": pa.array(np.minimum(rank + 1, k)),
            }
        )

    projected = ds.map_batches(project, batch_format="pyarrow")
    return sorted_fold(projected, "user_id", per_block, _MOVING_EMPTY)


def unpivot(ds, id_col: str, value_cols: list[str],
            var_name: str = "name", value_name: str = "value"):
    """Wide -> long unpivot (the inverse of `pivot_counts`): each input
    row (id, v1, .., vk) becomes k rows (id, name=ci, value=vi) — SQL
    `UNPIVOT`. Pure map-side reshape, zero shuffle: per batch, one
    int64 value matrix transpose-ravel + an np.tile'd name column; the
    k-column Python loop is bounded by the declared schema width, never
    by rows. Output value dtype is int64 (count matrices); NULL values
    are rejected loudly rather than silently dropped (SQL UNPIVOT
    excludes NULL rows — an easy silent-row-loss trap)."""
    cols = list(dict.fromkeys(value_cols))
    if not cols:
        raise ValueError("unpivot: value_cols must be non-empty")
    if id_col in cols or var_name in cols or value_name == id_col:
        raise ValueError("unpivot: output column name collision")
    k = len(cols)

    def explode(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        mats = []
        for c in cols:
            col = batch[c]
            if col.null_count:
                raise ValueError(f"unpivot: NULL in value column {c!r}")
            mats.append(col.to_numpy(zero_copy_only=False).astype(np.int64))
        vals = np.stack(mats, axis=1).ravel() if n else np.empty(0, np.int64)
        return pa.table(
            {
                id_col: pa.array(np.repeat(ids, k)),
                var_name: pa.array(
                    np.tile(np.array(cols, dtype=object), n), type=pa.string()
                ),
                value_name: pa.array(vals),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


def moment_stats(ds, x_col: str, y_col: str, group_col: str,
                 x_bound: int, y_bound: int):
    """Per-group exact second-moment sums for two integer columns:
    (group, n, sum_x, sum_y, sum_xy, sum_x2, sum_y2) — the sufficient
    statistics of mean/variance/covariance/Pearson-r, kept as BIGINTs
    so the distributed merge is associative-exact and the DuckDB
    oracle matches bit-for-bit (float moment sums differ in the last
    ulp between reduction orders; the float correlation itself lives
    in `corr_from_moments`, pytest-verified).

    Shape: ONE map-side partial pass (np.unique groups + exact `sum_by`
    per block) -> ONE group-cardinality groupby-sum; nothing
    corpus-sized shuffles.

    Exactness guard: callers declare |x| <= x_bound and |y| <= y_bound
    (violations raise per batch), and after the merge every group is
    checked to satisfy n * max(bounds)^2 < 2^62 — when that holds, NO
    intermediate sum could have wrapped int64, so the check is sound
    even though the wrap itself would be silent. Oversized corpora
    must rescale or shard (documented, loud ValueError)."""
    if x_bound < 1 or y_bound < 1:
        raise ValueError("moment_stats: bounds must be >= 1")
    term = max(x_bound, y_bound) ** 2

    def partial(batch: pa.Table) -> pa.Table:
        g = batch[group_col].to_numpy(zero_copy_only=False)
        x = batch[x_col].to_numpy(zero_copy_only=False).astype(np.int64)
        y = batch[y_col].to_numpy(zero_copy_only=False).astype(np.int64)
        if len(x) and (np.abs(x).max() > x_bound or np.abs(y).max() > y_bound):
            raise ValueError(
                f"moment_stats: |{x_col}| or |{y_col}| exceeds the declared "
                f"bounds ({x_bound}, {y_bound})"
            )
        u, inv = np.unique(g, return_inverse=True)
        def bc(w):
            return pa.array(sum_by(inv, w, len(u)))
        return pa.table(
            {
                group_col: pa.array(u, type=pa.string()),
                "n": pa.array(np.bincount(inv).astype(np.int64)),
                "sum_x": bc(x),
                "sum_y": bc(y),
                "sum_xy": bc(x * y),
                "sum_x2": bc(x * x),
                "sum_y2": bc(y * y),
            }
        )

    stat_cols = ["n", "sum_x", "sum_y", "sum_xy", "sum_x2", "sum_y2"]
    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(group_col)
        .sum(stat_cols)
    )

    def finalize(t: pa.Table) -> pa.Table:
        if t.num_columns != 1 + len(stat_cols):  # Ray's empty pass-through block
            return pa.table(
                {
                    group_col: pa.array([], type=pa.string()),
                    **{c: pa.array([], type=pa.int64()) for c in stat_cols},
                }
            )
        t = t.rename_columns([group_col] + stat_cols)
        n = t["n"].to_numpy(zero_copy_only=False)
        if len(n) and int(n.max()) * term >= (1 << 62):
            raise ValueError(
                "moment_stats: n * bound^2 >= 2^62 — int64 exactness can no "
                "longer be guaranteed; rescale the inputs or shard the corpus"
            )
        return t

    return agg.map_batches(finalize, batch_format="pyarrow")


def corr_from_moments(stats: pa.Table) -> dict[str, float]:
    """Pearson r per group from a moment_stats table — the float step,
    pytest-verified against np.corrcoef rather than oracle-compared."""
    out = {}
    for r in stats.to_pylist():
        n, sx, sy, sxy, sx2, sy2 = (
            r["n"], r["sum_x"], r["sum_y"], r["sum_xy"], r["sum_x2"], r["sum_y2"]
        )
        cov = n * sxy - sx * sy
        vx = n * sx2 - sx * sx
        vy = n * sy2 - sy * sy
        key = [v for k, v in r.items() if k not in
               ("n", "sum_x", "sum_y", "sum_xy", "sum_x2", "sum_y2")][0]
        out[key] = float(cov / np.sqrt(vx * vy)) if vx > 0 and vy > 0 else float("nan")
    return out


def group_concat(ds, key: str, val_col: str, order_cols: list[str], sep: str = ","):
    """Distributed ordered string aggregation — SQL
    `string_agg(val, sep ORDER BY order_cols) GROUP BY key`.
    Returns (key, n, concat) with one row per key.

    Shape (the running_totals sorted-block pattern): ONE range sort on
    the key co-locates each group, then one vectorized pass per block —
    lexsort by (order_cols..., key), group boundaries via adjacent-key
    `!=`, and the per-group join built as a single Arrow
    `ListArray.from_arrays(offsets, sorted_values)` + `pc.binary_join`:
    zero per-group Python, zero per-row string concatenation in Python.
    Callers should make (key, *order_cols) unique for a deterministic
    result (ties would leave sibling order unspecified, same caveat as
    SQL string_agg). Partitioning assumption (documented): one key's
    rows fit a worker's block.
    """
    if not order_cols:
        raise ValueError("group_concat: order_cols must be non-empty")

    def per_block(block: pa.Table) -> pa.Table:
        keys = block[key].to_numpy(zero_copy_only=False)
        order_arrays = [
            block[c].to_numpy(zero_copy_only=False) for c in order_cols
        ]
        # lexsort: last key is primary -> (order_cols reversed, then key)
        order = np.lexsort(tuple(reversed(order_arrays)) + (keys,))
        k = keys[order]
        bounds = np.append(group_starts(k), len(k))
        vals = block[val_col]
        vals = vals.combine_chunks() if isinstance(vals, pa.ChunkedArray) else vals
        lists = pa.ListArray.from_arrays(
            pa.array(bounds, pa.int32()), vals.take(pa.array(order))
        )
        return pa.table(
            {
                key: pa.array(k[bounds[:-1]]),
                "n": pa.array(np.diff(bounds)),
                "concat": pc.binary_join(lists, sep),
            }
        )

    return sorted_fold(ds, key, per_block)


def grouped_quantiles(ds, key: str, val_col: str, qs: list[tuple[str, int, int]]):
    """Exact per-group discrete quantiles — SQL
    `quantile_disc(val, q) GROUP BY key` (PERCENTILE_DISC semantics:
    the 1-based rank `ceil(n*q)` element of the sorted group, probed
    against DuckDB and pinned by the oracle query). `qs` is a list of
    (label, q_num, q_den) rational quantiles so the rank computation is
    pure integer — `rank = ceil(n*qn/qd) = (n*qn + qd - 1) // qd` — and
    bit-exact cross-engine.

    Returns (key, n, <label>...) with one row per key; val_col must be
    integer-typed (the events queries use value-cents, the established
    exactness convention).

    Shape: the running_totals sorted-block pattern — one range sort on
    the key, one lexsort + per-group gather pass per block; each
    quantile is ONE vectorized `starts + clip(rank-1)` index gather
    over all groups at once. Zero per-group dispatch.
    """
    if not qs:
        raise ValueError("grouped_quantiles: qs must be non-empty")
    for label, qn, qd in qs:
        if qd <= 0 or not (0 <= qn <= qd):
            raise ValueError(f"grouped_quantiles: bad quantile {label}: {qn}/{qd}")

    max_den = max(qd for _, _, qd in qs)

    def per_block(block: pa.Table) -> pa.Table:
        keys = block[key].to_numpy(zero_copy_only=False)
        vals = block[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((vals, keys))
        k, v = keys[order], vals[order]
        starts = group_starts(k)
        sizes = group_sizes(starts, len(k))
        # the rank products below stay in int64 while (n + 1) * q_den does
        if (int(sizes.max()) + 1) * max_den >= 1 << 63:
            raise ValueError("grouped_quantiles: group size x q_den exceeds int64")
        cols = {
            key: pa.array(k[starts]),
            "n": pa.array(sizes.astype(np.int64)),
        }
        for label, qn, qd in qs:
            rank = (sizes * qn + qd - 1) // qd  # ceil(n*q), 1-based
            idx = starts + np.clip(rank - 1, 0, sizes - 1)
            cols[label] = pa.array(v[idx])
        return pa.table(cols)

    return sorted_fold(ds, key, per_block)


def grouped_mode(ds, key: str, val_col: str):
    """Per-key most-frequent value (SQL mode with DETERMINISTIC tie
    semantics: highest count, then smallest value). Returns
    (key, mode_val, cnt).

    Shape: map-side (key, val) partial counts (one lexsort pass per
    batch — duplicate-heavy batches shrink before the exchange), then
    ONE range sort on the key and a single vectorized block pass that
    folds pair counts (segment sums) AND picks each key's mode in
    place — no Ray hash aggregate anywhere: pair cardinality scales
    with the corpus, and the built-in groupby pays ~8 µs/group (the
    sum_per_key lesson, graph.py). Exchange bounded by distinct
    (key, value) pairs per block, never row count."""

    def partials(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        v = batch[val_col].to_numpy(zero_copy_only=False)
        # np.unique over a 2-column record view is fiddly across dtypes;
        # lexsort + boundary diff is the established generic pattern
        order = np.lexsort((v, k))
        starts = group_starts(k[order], v[order])
        sub = batch.select([key, val_col]).take(pa.array(order[starts]))
        return sub.append_column("cnt", pa.array(group_sizes(starts, len(order))))

    paired = ds.map_batches(partials, batch_format="pyarrow", batch_size=None)

    def pick_block(block: pa.Table) -> pa.Table:
        k = block[key].to_numpy(zero_copy_only=False)
        v = block[val_col].to_numpy(zero_copy_only=False)
        c = block["cnt"].to_numpy(zero_copy_only=False).astype(np.int64)
        # fold partial counts of identical (key, val) pairs from
        # different input blocks: all rows of a key are co-located, so
        # one lexsort + segment sum gives global pair counts
        order = np.lexsort((v, k))
        ks, vs = k[order], v[order]
        starts = group_starts(ks, vs)
        csum = segment_sum(c[order], np.append(starts, len(order)))
        pk, pv = ks[starts], vs[starts]
        # per-key mode: order pairs by (key, cnt DESC, val ASC), first
        # pair per key boundary wins
        order2 = np.lexsort((pv, -csum, pk))
        sel = order2[group_starts(pk[order2])]
        idx = pa.array(order[starts][sel])
        return pa.table(
            {
                key: block[key].take(idx),
                "mode_val": block[val_col].take(idx),
                "cnt": pa.array(csum[sel]),
            }
        )

    return sorted_fold(paired, key, pick_block)


def grouped_mad(ds, key: str, val_col: str, broadcast_rows: int = 50_000_000):
    """Per-key robust statistics: (key, n, median, mad) where median =
    PERCENTILE_DISC(0.5) and mad = PERCENTILE_DISC(0.5) of
    |x - median| — the outlier-robust location/scale pair (Hampel's
    median absolute deviation), exact over integer values so the
    two-level SQL oracle matches bit-for-bit.

    Shape: two sorted-block quantile passes (the grouped_quantiles
    machinery) with the group-sized median table broadcast between
    them via ray.put (the kmeans/decontaminate convention; loud
    ValueError above `broadcast_rows` — at that group cardinality a
    second key-sorted exchange carrying the median along would replace
    the broadcast). Deviations are computed map-side; the corpus
    streams twice and never shuffles beyond the two quantile sorts."""
    import ray

    med = grouped_quantiles(ds, key, val_col, [("med", 1, 2)]).materialize()
    if med.count() > broadcast_rows:
        raise ValueError(
            f"grouped_mad: {med.count()} groups exceed broadcast_rows="
            f"{broadcast_rows}; use a key-sorted exchange variant"
        )
    blocks = [t for t in ray.get(med.to_arrow_refs()) if t.num_rows]
    if blocks:
        mt = pa.concat_tables([t.select([key, "med"]) for t in blocks])
        mk = mt[key].to_numpy(zero_copy_only=False)
        mv = mt["med"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(mk, kind="stable")
        ref = ray.put((mk[order], mv[order]))
    else:
        ref = ray.put((np.empty(0, np.int64), np.empty(0, np.int64)))

    def deviations(batch: pa.Table) -> pa.Table:
        mk, mv = ray.get(ref)
        k = batch[key].to_numpy(zero_copy_only=False)
        v = batch[val_col].to_numpy(zero_copy_only=False).astype(np.int64)
        pos = np.searchsorted(mk, k)
        med_of = mv[pos]  # every key has a median by construction
        return pa.table(
            {
                key: batch[key],
                "dev": pa.array(np.abs(v - med_of)),
                "median": pa.array(med_of),
            }
        )

    dev = ds.map_batches(deviations, batch_format="pyarrow")
    out = grouped_quantiles(dev, key, "dev", [("mad", 1, 2)])

    def attach_median(batch: pa.Table) -> pa.Table:
        mk, mv = ray.get(ref)
        k = batch[key].to_numpy(zero_copy_only=False)
        med_of = mv[np.searchsorted(mk, k)] if len(mk) else np.empty(0, np.int64)
        return pa.table(
            {
                key: batch[key],
                "n": batch["n"],
                "median": pa.array(med_of.astype(np.int64)),
                "mad": batch["mad"],
            }
        )

    return out.map_batches(attach_median, batch_format="pyarrow")
