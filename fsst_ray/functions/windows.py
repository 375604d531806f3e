"""Windowed aggregates over the events stream table.

Ray Data has no event-time windowing; windows are computed as grouped
aggregates over a derived window-start key (tumbling), or per-key
map_groups over ts-sorted groups (sliding / session). Ordering
assumption: rows within one user_id group fit in memory and are sorted
inside the group function — no global sort.

Window starts are emitted as epoch seconds (BIGINT) so oracle
comparisons are integer-exact.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..keyed import group_sizes, group_starts, sorted_fold, sum_by


def tumbling_counts(ds, hours: int = 1):
    """(event_type, window_start epoch s, n) via grouped aggregate.
    Returns a Dataset."""

    def add_window(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        arr = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
        epoch = pc.cast(arr, pa.int64())  # µs since epoch
        width = hours * 3600 * 1_000_000
        start = pc.multiply(pc.divide(epoch, width), width)
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": pc.divide(start, 1_000_000),
            }
        )

    out = (
        ds.map_batches(add_window, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .count()
    )

    def finish(batch: pa.Table) -> pa.Table:
        ws = batch["window_start"]
        arr = ws.combine_chunks() if isinstance(ws, pa.ChunkedArray) else ws
        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": pc.cast(arr, pa.int64()),
                "n": pc.cast(
                    batch["count()"].combine_chunks()
                    if isinstance(batch["count()"], pa.ChunkedArray)
                    else batch["count()"],
                    pa.int64(),
                ),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def hopping_counts(ds, width_hours: int = 2, hop_hours: int = 1):
    """(event_type, window_start epoch s, n) for overlapping hopping
    windows: each event lands in width/hop windows, emitted map-side
    (vectorized repeat — the flat_map shape without per-row Python),
    then a grouped count. Returns a Dataset.

    width must be a multiple of hop; windows are hop-aligned.
    """
    assert width_hours % hop_hours == 0, "width must be a multiple of hop"
    n_win = width_hours // hop_hours
    hop_s = hop_hours * 3600

    def expand(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        arr = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
        epoch_s = pc.cast(arr, pa.int64()).to_numpy(zero_copy_only=False) // 1_000_000
        # last hop-aligned start covering the event, then n_win hops back
        last = (epoch_s // hop_s) * hop_s
        starts = last[:, None] - hop_s * np.arange(n_win, dtype=np.int64)[None, :]
        idx = np.repeat(np.arange(batch.num_rows), n_win)
        return pa.table(
            {
                "event_type": pc.take(batch["event_type"], pa.array(idx)),
                "window_start": pa.array(starts.reshape(-1), type=pa.int64()),
            }
        )

    out = (
        ds.map_batches(expand, batch_format="pyarrow")
        .groupby(["event_type", "window_start"])
        .count()
    )

    def finish(batch: pa.Table) -> pa.Table:
        def col(name):
            c = batch[name]
            return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c

        return pa.table(
            {
                "event_type": batch["event_type"],
                "window_start": pc.cast(col("window_start"), pa.int64()),
                "n": pc.cast(col("count()"), pa.int64()),
            }
        )

    return out.map_batches(finish, batch_format="pyarrow")


def session_windows(ds, gap_minutes: int = 30):
    """Per-user session windows (gap-based): (user_id, session_start
    epoch s, n_events).

    Shape (the `funnel_stages` pattern; VERDICT r4 item 2): project to
    (user_id, ts_us), ONE `sort("user_id")` range exchange (every row
    of a user lands in exactly one block), then ONE vectorized pass per
    BLOCK: lexsort by (user, ts); a session starts wherever the user
    changes OR the within-user gap exceeds gap_us; session sizes via
    boundary diffs. No per-user Python dispatch — the previous
    `groupby(user_id).map_groups` form invoked the group fn once per
    user (10^8 calls at 10^8 users). Assumes one user's events fit a
    worker block (documented, same as running_totals)."""
    gap_us = gap_minutes * 60 * 1_000_000

    _EMPTY = pa.table(
        {
            "user_id": pa.array([], type=pa.int64()),
            "session_start": pa.array([], type=pa.int64()),
            "n_events": pa.array([], type=pa.int64()),
        }
    )

    def project(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        arr = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
        return pa.table(
            {
                "user_id": pc.cast(batch["user_id"], pa.int64()),
                "ts_us": pc.cast(arr, pa.int64()),
            }
        )

    def per_block(block: pa.Table) -> pa.Table:
        users = block["user_id"].to_numpy(zero_copy_only=False)
        ts_us = block["ts_us"].to_numpy(zero_copy_only=False)
        order = np.lexsort((ts_us, users))
        u = users[order]
        t = ts_us[order]
        # a session starts at each user's first event and after each gap
        new = np.zeros(len(u), dtype=bool)
        new[group_starts(u)] = True
        new[1:] |= np.diff(t) > gap_us
        starts = np.flatnonzero(new)
        return pa.table(
            {
                "user_id": pa.array(u[starts]),
                "session_start": pa.array(t[starts] // 1_000_000, type=pa.int64()),
                "n_events": pa.array(group_sizes(starts, len(u)), type=pa.int64()),
            }
        )

    # return the Dataset itself — materializing/sorting all sessions on
    # the driver belongs to tests/oracles, not the operator
    projected = ds.map_batches(project, batch_format="pyarrow")
    return sorted_fold(projected, "user_id", per_block, _EMPTY)


def tumbling_distinct_users(ds, hours: int = 1):
    """(window_start epoch s, n_users): COUNT(DISTINCT user_id) per
    tumbling window — the distinct-aggregate window kind
    (tumbling_counts is the plain-count sibling).

    Shape: a map-side per-batch np.unique collapses each block to its
    distinct (window, user) pairs, then ONE pair-sized range sort on
    window_start and a single lexsort boundary pass per block performs
    corpus-wide pair dedup AND the per-window distinct count together.
    The corpus never shuffles, and no Ray aggregate ever keys on the
    pair space (distinct pairs scale with users x windows — the
    high-cardinality trap, graph.py:sum_per_key)."""
    width = hours * 3600 * 1_000_000

    def pairs(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        arr = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
        epoch = pc.cast(arr, pa.int64()).to_numpy(zero_copy_only=False)
        win = (epoch // width) * (width // 1_000_000)
        uid = batch["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        # per-batch distinct (window, user)
        m = np.unique(np.stack([win, uid], axis=1), axis=0)
        return pa.table(
            {
                "window_start": pa.array(m[:, 0]),
                "user_id": pa.array(m[:, 1]),
            }
        )

    # corpus-wide pair dedup + per-window count in ONE pass: range-sort
    # on window_start co-locates each window, then per block a lexsort
    # boundary pass counts distinct users per window directly — no
    # pair-cardinality Ray aggregate (distinct pairs scale with
    # users x windows: the high-cardinality trap, graph.py:sum_per_key)
    def distinct_per_window(block: pa.Table) -> pa.Table:
        win = block["window_start"].to_numpy(zero_copy_only=False)
        uid = block["user_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((uid, win))
        w, u = win[order], uid[order]
        wd = w[group_starts(w, u)]
        win_starts = group_starts(wd)
        return pa.table(
            {
                "window_start": pa.array(wd[win_starts].astype(np.int64)),
                "n_users": pa.array(group_sizes(win_starts, len(wd))),
            }
        )

    agg = sorted_fold(
        ds.map_batches(pairs, batch_format="pyarrow", batch_size=None),
        "window_start",
        distinct_per_window,
    )
    return agg.map_batches(
        lambda t: (
            t.rename_columns(["window_start", "n_users"])
            if t.num_columns == 2
            else pa.table(
                {
                    "window_start": pa.array([], pa.int64()),
                    "n_users": pa.array([], pa.int64()),
                }
            )
        ),
        batch_format="pyarrow",
    )


def value_histogram(ds, bin_width: int = 5):
    """(event_type, bin, n): equi-width histogram of `value` per event
    type — bin = floor(value / bin_width), so negative values floor
    toward -inf exactly like SQL's FLOOR. ONE map-side bincount-style
    partial per block (np.unique over packed (type, bin)) + ONE
    histogram-sized groupby-sum; zero corpus shuffle."""
    if bin_width < 1:
        raise ValueError(f"value_histogram: bin_width must be >= 1, got {bin_width}")

    def partial(batch: pa.Table) -> pa.Table:
        et = batch["event_type"].to_numpy(zero_copy_only=False)
        v = batch["value"].to_numpy(zero_copy_only=False)
        b = np.floor(v / bin_width).astype(np.int64)
        ut, code = np.unique(et, return_inverse=True)
        ub, bcode = np.unique(b, return_inverse=True)
        combo = code.astype(np.int64) * len(ub) + bcode
        uc, cnt = np.unique(combo, return_counts=True)
        return pa.table(
            {
                "event_type": pa.array(ut[uc // len(ub)], type=pa.string()),
                "bin": pa.array(ub[uc % len(ub)]),
                "n": pa.array(cnt.astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby(["event_type", "bin"])
        .sum("n")
    )
    return agg.map_batches(
        lambda t: (
            t.rename_columns(["event_type", "bin", "n"])
            if t.num_columns == 3
            else pa.table(
                {
                    "event_type": pa.array([], pa.string()),
                    "bin": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ),
        batch_format="pyarrow",
    )


def time_of_week_matrix(ds):
    """Calendar seasonality matrix: (dow, hour, n) event counts by
    day-of-week x hour-of-day — the engine's calendar-function family
    (epoch-bucket windows cover durations; this covers CALENDAR
    positions). Pure integer arithmetic from epoch-µs so the oracle's
    EXTRACT(dow/hour) matches exactly: epoch day 0 (1970-01-01) was a
    Thursday and DuckDB's dow is 0=Sunday, so
    dow = (epoch_days + 4) % 7. Valid for non-negative timestamps
    (pre-1970 would need floor division care — guarded loudly).

    Shape: one map-side bincount over packed (dow*24 + hour) per batch
    (168 cells), one 168-row aggregate. The corpus never shuffles."""
    width_us = 3600 * 1_000_000

    def partials(batch: pa.Table) -> pa.Table:
        ts = batch["ts"]
        arr = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
        us = pc.cast(arr, pa.int64()).to_numpy(zero_copy_only=False)
        if len(us) and int(us.min()) < 0:
            raise ValueError(
                "time_of_week_matrix: pre-1970 timestamps unsupported"
            )
        hours_total = us // width_us
        hour = (hours_total % 24).astype(np.int64)
        days = hours_total // 24
        dow = ((days + 4) % 7).astype(np.int64)
        cell = dow * 24 + hour
        cnt = np.bincount(cell, minlength=168).astype(np.int64)
        nz = np.flatnonzero(cnt)
        return pa.table(
            {
                "dow": pa.array(nz // 24),
                "hour": pa.array(nz % 24),
                "n": pa.array(cnt[nz]),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby(["dow", "hour"])
        .sum("n")
    )
    return agg.map_batches(
        lambda t: (
            t.rename_columns(["dow", "hour", "n"])
            if t.num_columns == 3
            else pa.table(
                {
                    "dow": pa.array([], pa.int64()),
                    "hour": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                }
            )
        ),
        batch_format="pyarrow",
    )


def _civil_from_days(days: np.ndarray):
    """Vectorized proleptic-Gregorian (year, month) from epoch days —
    Howard Hinnant's published civil_from_days algorithm, pure int64
    (valid across eras, so pre-1970 is fine here)."""
    z = days.astype(np.int64) + 719468
    era = np.floor_divide(z, 146097)
    doe = z - era * 146097
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    y = yoe + era * 400
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    m = np.where(mp < 10, mp + 3, mp - 9)
    y = y + (m <= 2)
    return y, m


def monthly_order_stats(ds, ts_col: str = "o_orderdate",
                        amount_col: str = "o_totalprice"):
    """Calendar-month rollup: (year, month, n, sum_cents) — real civil
    calendar conversion (variable month lengths, leap years) done
    vectorized from epoch days, so the oracle's EXTRACT(year/month)
    matches exactly; amounts in integer cents (the lineitem_pricing
    convention). Map-side partials collapse each batch to its month
    set; one month-cardinality aggregate."""

    def partials(batch: pa.Table) -> pa.Table:
        ts = batch[ts_col]
        arr = ts.combine_chunks() if isinstance(ts, pa.ChunkedArray) else ts
        us = pc.cast(arr, pa.int64()).to_numpy(zero_copy_only=False)
        days = np.floor_divide(us, 86_400_000_000)
        y, m = _civil_from_days(days)
        cents = np.floor(
            batch[amount_col].to_numpy(zero_copy_only=False) * 100.0
        ).astype(np.int64)
        key = y * 12 + (m - 1)
        uniq, inv = np.unique(key, return_inverse=True)
        return pa.table(
            {
                "year": pa.array(uniq // 12),
                "month": pa.array(uniq % 12 + 1),
                "n": pa.array(np.bincount(inv).astype(np.int64)),
                "sum_cents": pa.array(sum_by(inv, cents, len(uniq))),
            }
        )

    agg = (
        ds.map_batches(partials, batch_format="pyarrow", batch_size=None)
        .groupby(["year", "month"])
        .sum(["n", "sum_cents"])
    )
    return agg.map_batches(
        lambda t: (
            t.rename_columns(["year", "month", "n", "sum_cents"])
            if t.num_columns == 4
            else pa.table(
                {
                    "year": pa.array([], pa.int64()),
                    "month": pa.array([], pa.int64()),
                    "n": pa.array([], pa.int64()),
                    "sum_cents": pa.array([], pa.int64()),
                }
            )
        ),
        batch_format="pyarrow",
    )
