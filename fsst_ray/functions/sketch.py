"""Distributed mergeable sketches: KMV cardinality and Misra-Gries
heavy hitters.

KMV (k-minimum-values / bottom-k) is the classic distinct-count sketch
(Bar-Yossef et al., "Counting distinct elements in a data stream"):
keep the k smallest hash values of the key set; the k-th minimum
estimates the distinct count as (k-1) * HASH_SPACE / kth_min. Bottom-k
sets are trivially mergeable (union -> bottom-k), which is what makes
the sketch distributed: each batch emits at most k (group, hash) rows,
the shuffle is k x groups sized regardless of corpus size, and the
merge is associative.

Unlike most sketches KMV here is DETERMINISTIC given the hash — and the
hash is DuckDB's own (`hash(key)`, the murmur64 finalizer already used
by corpus_split/stratified_sample) — so the oracle can recompute the
sketch EXACTLY with window functions: every output row, including the
approximate estimate, is hash-checkable. When a group's true distinct
count is under k the merged sketch holds every hash and the estimate
degrades to the exact count (standard KMV behavior, matched by the
oracle's CASE).

`heavy_hitters` (bottom of file) is the frequent-items counterpart:
Misra-Gries counter summaries merged through an arbitrary tree
(Agarwal et al., "Mergeable Summaries", PODS 2012), then made EXACT by
a candidate-only recount — see its docstring.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..keyed import group_starts, sum_by
from .curate import _murmur64

_HASH_SPACE = 1 << 63  # hashes are (murmur64 >> 1): uniform on [0, 2^63)


def kmv_distinct(ds, key_col: str, group_col: str, k: int = 16):
    """(group, n_hashes, kth_min, est_distinct) per group: bottom-k
    distinct-count sketch of `key_col` within each `group_col` value.

    Map side: per batch, distinct (group, hash) pairs reduced to the
    group's bottom-k — at most k rows per group leave a batch. Reduce
    side: groupby(group) merges by union -> unique -> bottom-k.
    est_distinct is exact integer arithmetic ((k-1) * 2^63 // kth_min,
    done in Python ints to avoid int64 overflow) so both engines
    compute the identical BIGINT.
    """

    def partial(batch: pa.Table) -> pa.Table:
        g = batch[group_col].to_numpy(zero_copy_only=False)
        key = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hv = (_murmur64(key) >> np.uint64(1)).astype(np.int64)
        out_g, out_h = [], []
        for grp in np.unique(g):
            hu = np.unique(hv[g == grp])
            bot = np.sort(hu)[:k] if len(hu) > k else hu
            out_g.append(np.full(len(bot), grp))
            out_h.append(bot)
        return pa.table(
            {
                group_col: pa.array(
                    np.concatenate(out_g) if out_g else np.empty(0, object),
                    type=pa.string(),
                ),
                "hv": pa.array(
                    np.concatenate(out_h) if out_h else np.empty(0, np.int64),
                    type=pa.int64(),
                ),
            }
        )

    def finalize(group: pa.Table) -> pa.Table:
        u = np.unique(group["hv"].to_numpy(zero_copy_only=False))
        m = min(k, len(u))
        kth = int(u[m - 1])  # np.unique returns sorted
        est = len(u) if len(u) < k else (k - 1) * _HASH_SPACE // kth
        return pa.table(
            {
                group_col: group[group_col].slice(0, 1),
                "n_hashes": pa.array([m], type=pa.int64()),
                "kth_min": pa.array([kth], type=pa.int64()),
                "est_distinct": pa.array([int(est)], type=pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(group_col)
        .map_groups(finalize, batch_format="pyarrow")
    )


# ---------------- Misra-Gries heavy hitters (exact via recount) --------

def _mg_compress(values: pa.Array, counts: np.ndarray, m: int):
    """Compress a counter set to <= m entries, Misra-Gries style: find
    the (m+1)-th largest count t, drop every counter <= t and subtract
    t from the survivors. Returns (values, counts, t) with t == 0 when
    nothing was dropped. The decrement accounting is the whole sketch:
    one compression lowers ANY value's effective counter by at most t
    (survivors by exactly t, dropped counters were <= t, absent values
    by 0), so summing every t along an arbitrary merge tree gives a
    global undercount bound U with  est(v) <= true(v) <= est(v) + U
    and, crucially, every value with true(v) > U still owns a counter
    somewhere (Agarwal et al., "Mergeable Summaries", PODS 2012)."""
    if len(counts) <= m:
        return values, counts, 0
    t = int(np.partition(counts, -(m + 1))[-(m + 1)])
    keep = counts > t
    return values.filter(pa.array(keep)), counts[keep] - t, t


def _counter_table(vcol: str, values: pa.Array, counts: np.ndarray, dec: int) -> pa.Table:
    """Counter rows plus ONE null-value sentinel row carrying the
    summary's accumulated decrement (split-safe: Ray may split or
    coalesce summary rows across merge blocks arbitrarily — counters
    just add by value and sentinel decrements just add, so any
    partitioning of the rows preserves the invariant)."""
    out_vals = pa.concat_arrays([values, pa.array([None], type=values.type)])
    out_cnt = np.concatenate([counts, [dec]]).astype(np.int64)
    return pa.table({vcol: out_vals, "cnt": pa.array(out_cnt, type=pa.int64())})


def heavy_hitters(
    ds,
    values_fn,
    vcol: str,
    value_type: pa.DataType,
    k: int = 20,
    capacity: int = 1024,
    merge_partitions: int = 8,
):
    """EXACT top-k most frequent values of an unbounded-cardinality
    stream with only sketch-sized exchanges — the scale-path sibling of
    `token_histogram`, whose shuffle is vocabulary-sized (fine for a
    tokenizer vocab, wrong for raw words / n-grams at 100 TB).

    Three stages, none corpus-sized:
    1. map: per-batch exact value counts (`pc.value_counts`) compressed
       to `capacity` Misra-Gries counters; each batch emits <= capacity
       counter rows + one sentinel row carrying its decrement.
    2. tree merge: summaries repartitioned into `merge_partitions`
       blocks; each block sums counters by value (`pa.Table.group_by`)
       and re-compresses. The driver folds the <= partitions x
       (capacity+1) surviving rows WITHOUT further compression and
       accumulates the global undercount bound U = sum of every
       decrement. Mergeable-summaries guarantee: every value with true
       count > U is among the candidates.
    3. exact recount: the candidate values broadcast via `ray.put`; a
       second pass counts ONLY candidates per batch (`pc.index_in` +
       bincount — nothing else leaves the map task), bucket-combined
       exactly like token_histogram's merge.

    The top-k by (count DESC, value ASC) is then PROVABLY exact iff the
    k-th exact count > U (no non-candidate can reach it); otherwise a
    loud ValueError says to raise `capacity`. U == 0 means no
    compression ever fired (candidates == all distinct values) and the
    result is exact trivially. Everything is deterministic, so the
    DuckDB GROUP BY / ORDER BY / LIMIT oracle reproduces it bit-for-bit.

    `values_fn(batch) -> pa.Array` extracts the flat value stream
    (typed `value_type`; nulls dropped here). `vcol` names the output
    value column; `value_type` pins the output schema even on an empty
    corpus. Returns a pa.Table (vcol, cnt), min(k, n_distinct) rows.
    """
    import ray

    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if capacity < 1:
        raise ValueError(f"capacity must be >= 1, got {capacity}")

    def partial(batch: pa.Table) -> pa.Table:
        vals = values_fn(batch).drop_null()
        if len(vals) == 0:
            return _counter_table(vcol, vals, np.array([], np.int64), 0)
        vc = pc.value_counts(vals)
        v = vc.field("values")
        c = vc.field("counts").to_numpy(zero_copy_only=False).astype(np.int64)
        v, c, dec = _mg_compress(v, c, capacity)
        return _counter_table(vcol, v, c, dec)

    def merge_block(block: pa.Table) -> pa.Table:
        null_mask = pc.is_null(block[vcol])
        dec_in = int(pc.sum(pc.filter(block["cnt"], null_mask)).as_py() or 0)
        real = block.filter(pc.invert(null_mask))
        if real.num_rows:
            comb = real.group_by(vcol).aggregate([("cnt", "sum")])
            v = comb[vcol].combine_chunks()
            c = comb["cnt_sum"].to_numpy(zero_copy_only=False).astype(np.int64)
            v, c, dec_new = _mg_compress(v, c, capacity)
        else:
            v = pa.array([], type=value_type)
            c = np.array([], np.int64)
            dec_new = 0
        return _counter_table(vcol, v, c, dec_in + dec_new)

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(merge_partitions)
        .map_batches(merge_block, batch_size=None, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )
    undercount = 0
    counters: dict = {}
    for r in merged:
        val = r[vcol]
        cnt = int(r["cnt"])
        if val is None:
            undercount += cnt
        else:
            counters[val] = counters.get(val, 0) + cnt
    # candidate set: NO driver compression — keeping every surviving
    # counter only widens the candidate set under the same U
    if not counters and undercount > 0:
        raise ValueError(
            "heavy_hitters: every counter was compressed away "
            f"(undercount bound {undercount}); raise capacity={capacity}"
        )
    cand_list = sorted(counters)
    # recount ONLY the candidates, exactly
    cand_arr = pa.array(cand_list, type=value_type)
    cand_ref = ray.put(cand_arr)
    n_cand = len(cand_list)

    def recount(batch: pa.Table) -> pa.Table:
        vals = values_fn(batch).drop_null()
        cand_vals = ray.get(cand_ref)
        idx = pc.index_in(vals, value_set=cand_vals)
        idx = pc.filter(idx, pc.is_valid(idx))
        hits = np.bincount(
            idx.to_numpy(zero_copy_only=False).astype(np.int64), minlength=n_cand
        ) if len(idx) else np.zeros(n_cand, np.int64)
        nz = np.flatnonzero(hits)
        return pa.table(
            {
                "idx": pa.array(nz.astype(np.int64), type=pa.int64()),
                "cnt": pa.array(hits[nz].astype(np.int64), type=pa.int64()),
                "part": pa.array((nz % merge_partitions).astype(np.int64), type=pa.int64()),
            }
        )

    def combine(group: pa.Table) -> pa.Table:
        idx = group["idx"].to_numpy(zero_copy_only=False)
        cnt = group["cnt"].to_numpy(zero_copy_only=False)
        sums = sum_by(idx, cnt, n_cand)
        nz = np.flatnonzero(sums)
        return pa.table(
            {
                "idx": pa.array(nz.astype(np.int64), type=pa.int64()),
                "cnt": pa.array(sums[nz], type=pa.int64()),
            }
        )

    exact = np.zeros(n_cand, dtype=np.int64)
    if n_cand:
        rows = (
            ds.map_batches(recount, batch_format="pyarrow")
            .groupby("part")
            .map_groups(combine, batch_format="pyarrow")
            .take_all()
        )
        for r in rows:
            exact[int(r["idx"])] += int(r["cnt"])
    tbl = pa.table({vcol: cand_arr, "cnt": pa.array(exact, type=pa.int64())})
    order = pc.sort_indices(
        tbl, sort_keys=[("cnt", "descending"), (vcol, "ascending")]
    )
    topk = tbl.take(order[: min(k, tbl.num_rows)])
    if undercount > 0:
        kth = (
            int(topk["cnt"][topk.num_rows - 1].as_py()) if topk.num_rows else 0
        )
        if topk.num_rows < k or kth <= undercount:
            raise ValueError(
                "heavy_hitters: cannot prove the top-k exact — k-th "
                f"candidate count {kth} <= undercount bound {undercount} "
                f"(candidates {n_cand}, k {k}); raise capacity={capacity}"
            )
    return topk


def _token_values(batch: pa.Table) -> pa.Array:
    """Flat int64 token stream of a tokens-table batch."""
    from ..stages.serialize import tokens_views

    values, _ = tokens_views(batch)
    return pa.array(values.astype(np.int64), type=pa.int64())


def _word_values(batch: pa.Table) -> pa.Array:
    """Flat word stream of a documents batch (string_split parity)."""
    from .textstats import _word_lists

    flat = _word_lists(batch).flatten()
    return flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat


def token_heavy_hitters(ds, k: int = 20, capacity: int = 1024, merge_partitions: int = 8):
    """Exact top-k token ids of a tokens corpus via the MG sketch."""
    return heavy_hitters(
        ds, _token_values, "token", pa.int64(),
        k=k, capacity=capacity, merge_partitions=merge_partitions,
    )


def word_heavy_hitters(ds, k: int = 20, capacity: int = 1024, merge_partitions: int = 8):
    """Exact top-k words of a documents corpus via the MG sketch."""
    return heavy_hitters(
        ds, _word_values, "word", pa.string(),
        k=k, capacity=capacity, merge_partitions=merge_partitions,
    )


# ---------------- HyperLogLog registers (oracle-exact) -----------------

_HLL_P = 8  # 2^8 = 256 registers per group


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized 64-bit popcount (SWAR; numpy<2 has no bitwise_count)."""
    x = x.astype(np.uint64)
    x = x - ((x >> np.uint64(1)) & np.uint64(0x5555555555555555))
    x = (x & np.uint64(0x3333333333333333)) + (
        (x >> np.uint64(2)) & np.uint64(0x3333333333333333)
    )
    x = (x + (x >> np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    with np.errstate(over="ignore"):
        return (x * np.uint64(0x0101010101010101)) >> np.uint64(56)


def hll_registers(ds, key_col: str, group_col: str, p: int = _HLL_P):
    """(group, bucket, register): HyperLogLog register table for the
    distinct count of `key_col` within each `group_col` value (Flajolet
    et al., "HyperLogLog: the analysis of a near-optimal cardinality
    estimation algorithm", AofA 2007).

    Emits the REGISTERS, not the float estimate: registers are pure
    integer functions of DuckDB's own `hash(key)` (the murmur64
    finalizer _murmur64 mirrors bit-for-bit, the kmv/corpus_split
    convention), so the oracle recomputes every row exactly — bucket =
    hash >> (64-p), rank = (64-p) - msb(w) with msb computed by bit
    smearing + popcount (no float log2: w spans 2^56 > 2^53, where
    float64 integers lose exactness). The estimate itself is float
    math, so it lives in the pytest (alpha_m * m^2 / sum(2^-M), within
    the published ~1.04/sqrt(m) band), keeping the driver compare
    integer-only.

    Distributed shape: registers are max-mergeable, so each batch emits
    at most groups x 2^p partial rows (one per touched (group, bucket))
    and ONE groupby-max reduces them — the shuffle is sketch-sized,
    never corpus-sized, the same property kmv_distinct rides.
    """
    shift = 64 - p
    wmask = np.uint64((1 << shift) - 1)

    def partial(batch: pa.Table) -> pa.Table:
        g = batch[group_col].to_numpy(zero_copy_only=False)
        key = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hv = _murmur64(key)
        bucket = (hv >> np.uint64(shift)).astype(np.int64)
        w = hv & wmask
        # msb+1 via smear+popcount (0 for w==0), identical to the SQL
        s = w.copy()
        for sh in (1, 2, 4, 8, 16, 32):
            s |= s >> np.uint64(sh)
        msb1 = _popcount64(s).astype(np.int64)
        rank = shift - msb1 + 1  # w==0 -> shift+1, the HLL convention
        ug, gcode = np.unique(g, return_inverse=True)
        combo = gcode.astype(np.int64) * (1 << p) + bucket
        # max rank per touched (group, bucket): sort by (combo, rank
        # DESC) and keep each combo's first row — no Python per group
        order = np.lexsort((-rank, combo))
        first = order[group_starts(combo[order])]
        sc, sr = combo[first], rank[first]
        return pa.table(
            {
                group_col: pa.array(ug[sc // (1 << p)], type=pa.string()),
                "bucket": pa.array(sc % (1 << p), type=pa.int64()),
                "register": pa.array(sr, type=pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby([group_col, "bucket"])
        .max("register")
    )
    return agg.map_batches(
        lambda t: t.rename_columns([group_col, "bucket", "register"]),
        batch_format="pyarrow",
    )


def hll_estimate(registers: "pa.Table", p: int = _HLL_P) -> dict[str, float]:
    """Driver-side estimate from a (group, bucket, register) table:
    alpha_m * m^2 / (zeros + sum 2^-M) with the small-range linear
    counting correction — float math, so pytest-verified against exact
    distinct counts rather than oracle-compared."""
    import collections

    m = 1 << p
    alpha = 0.7213 / (1 + 1.079 / m)  # published constant for m >= 128
    groups = collections.defaultdict(dict)
    g = registers["register"]
    for grp, b, r in zip(
        registers[registers.schema.names[0]].to_pylist(),
        registers["bucket"].to_pylist(),
        g.to_pylist(),
    ):
        groups[grp][b] = r
    out = {}
    for grp, regs in groups.items():
        denom = (m - len(regs)) * 1.0  # untouched buckets contribute 2^-0
        denom += sum(2.0 ** -r for r in regs.values())
        est = alpha * m * m / denom
        zeros = m - len(regs)
        if est <= 2.5 * m and zeros > 0:
            est = m * np.log(m / zeros)  # linear counting correction
        out[grp] = float(est)
    return out


# ---------------- Count-Min registers (oracle-exact) -------------------

_CM_W_BITS = 8  # 256 buckets per hash row
_CM_DEPTH = 4


def cm_registers(ds, key_col: str, group_col: str,
                 depth: int = _CM_DEPTH, w_bits: int = _CM_W_BITS):
    """(group, hash_row, bucket, register): Count-Min sketch of the
    `key_col` frequency distribution within each `group_col` value
    (Cormode & Muthukrishnan, "An improved data stream summary: the
    count-min sketch and its applications", J. Algorithms 2005).

    The register table IS the sketch: register[g][r][b] = COUNT of
    rows in group g whose key hashes to bucket b under hash row r.
    Registers are SUM-mergeable (unlike HLL's max-merge), so each
    batch emits at most groups x depth x 2^w_bits partial rows and ONE
    groupby-sum reduces them — the shuffle is sketch-sized, never
    corpus-sized (the kmv/hll property).

    Hash family: Kirsch-Mitzenmacher double hashing over DuckDB's own
    integer hash (the corpus_split/kmv/hll convention), so the oracle
    recomputes every register exactly with no engine-private constants:

        a      = hash(key)        % width
        step   = (hash(hash(key)) % width) | 1      -- odd => full-cycle
        bucket_r = (a + r * step) % width,  r = 0..depth-1

    All-integer output; the float point-estimate (min over rows, the
    CM upper bound) lives in `cm_estimate` and is pytest-verified
    against exact counts instead of oracle-compared.
    """
    width = 1 << w_bits
    mask = np.uint64(width - 1)

    def partial(batch: pa.Table) -> pa.Table:
        g = batch[group_col].to_numpy(zero_copy_only=False)
        key = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        h1 = _murmur64(key)
        a = (h1 & mask).astype(np.int64)
        step = ((_murmur64(h1.view(np.int64)) & mask) | np.uint64(1)).astype(np.int64)
        ug, gcode = np.unique(g, return_inverse=True)
        # combo = ((gcode * depth) + r) * width + bucket_r for all rows
        # at once; one np.unique gives the per-register partial counts
        r = np.arange(depth, dtype=np.int64)[:, None]
        bucket = (a[None, :] + r * step[None, :]) % width
        combo = (gcode[None, :].astype(np.int64) * depth + r) * width + bucket
        uc, counts = np.unique(combo.ravel(), return_counts=True)
        return pa.table(
            {
                group_col: pa.array(ug[uc // (depth * width)], type=pa.string()),
                "hash_row": pa.array((uc // width) % depth),
                "bucket": pa.array(uc % width),
                "register": pa.array(counts.astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None)
        .groupby([group_col, "hash_row", "bucket"])
        .sum("register")
    )
    return agg.map_batches(
        lambda t: t.rename_columns([group_col, "hash_row", "bucket", "register"]),
        batch_format="pyarrow",
    )


def cm_estimate(registers: "pa.Table", group_col: str, keys,
                depth: int = _CM_DEPTH, w_bits: int = _CM_W_BITS) -> dict:
    """Point-frequency estimates from a (group, hash_row, bucket,
    register) table: est(g, key) = min over rows r of register at
    bucket_r(key). The classic CM guarantee holds: est >= true count,
    and est <= true + eps * N with probability 1 - delta — pytest-
    verified against exact counts rather than oracle-compared."""
    width = 1 << w_bits
    mask = np.uint64(width - 1)
    regs: dict = {}
    for grp, r, b, v in zip(
        registers[group_col].to_pylist(),
        registers["hash_row"].to_pylist(),
        registers["bucket"].to_pylist(),
        registers["register"].to_pylist(),
    ):
        regs[(grp, r, b)] = v
    keys_arr = np.asarray(keys, dtype=np.int64)
    h1 = _murmur64(keys_arr)
    a = (h1 & mask).astype(np.int64)
    step = ((_murmur64(h1.view(np.int64)) & mask) | np.uint64(1)).astype(np.int64)
    groups = sorted({g for g, _, _ in regs})
    out = {}
    for grp in groups:
        for i, k in enumerate(keys_arr.tolist()):
            est = min(
                regs.get((grp, r, int((a[i] + r * step[i]) % width)), 0)
                for r in range(depth)
            )
            out[(grp, k)] = int(est)
    return out
