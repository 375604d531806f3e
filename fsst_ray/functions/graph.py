"""Distributed graph connected components over an edge-list Dataset.

The dedup operators emit verified near-duplicate PAIRS; turning pairs
into clusters is a transitive closure, which `minhash_dedup` today
solves with a driver-side union-find (fine while the edge list is
orders of magnitude smaller than the corpus, see dedup.py's module
note). At 100 TB the edge list itself can be billions of rows, so this
module provides the distributed alternative: alternating
large-star / small-star contraction (Kiveris, Lattanzi, Mirrokni,
Rastogi, Vassilvitskii — "Connected Components in MapReduce and
Beyond", SoCC 2014). Each round is two groupby-shaped shuffles of the
EDGE LIST ONLY (never the corpus), converges in O(log^2 n) rounds
(O(log n) observed), and ends with every node holding an edge to its
component's minimum node id — the same labels union-find produces.

Scale notes (100 TB):
- Per round: two `sort`-based group exchanges over (int64, int64)
  edges + one bounded metadata collection (one summary row per block)
  for the convergence signature. Nothing corpus-sized moves.
- Partitioning assumption (documented per the custom-operator rule):
  a node's incident edge group must fit in one worker's block — after
  convergence the component root's degree equals the component size,
  so the largest COMPONENT (not the graph) bounds per-group memory.
  Dedup clusters are small in practice; a hash-to-min variant would
  lift this if ever needed.
- Group processing is vectorized (np.unique + slice emission) via the
  same sorted-boundary streaming helper the dedup module uses — zero
  per-edge Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from fsst_ray.functions.dedup import _sorted_group_map_streaming, min_per_key
from fsst_ray.keyed import (
    group_ids,
    group_starts,
    segment_sum,
    sorted_fold,
    sorted_isin,
)

_EDGE_SCHEMA = pa.schema([("k", pa.int64()), ("n", pa.int64())])
_EDGE_EMPTY = pa.table({"k": pa.array([], pa.int64()), "n": pa.array([], pa.int64())})


def _bounded_snapshot(ds, rows_per_block: int = 1 << 18, max_blocks: int = 64):
    """Materialize a loop-carried dataset AND neutralize the two
    exponential hazards of iterative Dataset algorithms (both measured
    here before this helper existed):

    1. block multiplication — a range sort/groupby emits one output
       block per input block, so a dataset that re-enters an exchange
       every round multiplies its block count (~2.6x/round observed:
       1,600 near-empty blocks by round 7 of a 20-edge BFS). Fixed by
       a size-proportional repartition.
    2. logical-plan growth — MaterializedDataset keeps its upstream
       plan; loop-carried datasets that reference each other grow the
       plan ~3x/round until DRIVER-SIDE PLANNING dominates (35 s gaps
       between 0.1 s executions). Fixed by re-rooting the dataset at
       its block refs via from_arrow_refs (zero-copy — the same refs
       are reused, nothing moves through the store).
    """
    import ray.data as rd

    m = ds.materialize()
    target = max(1, min(max_blocks, m.count() // rows_per_block + 1))
    if m.num_blocks() > 2 * target:
        m = m.repartition(target).materialize()
    refs = m.to_arrow_refs()
    return rd.from_arrow_refs(refs) if refs else m


def sum_per_key(ds, key: str, value_cols: list[str]):
    """Vectorized `groupby(key).sum(value_cols)` for UNBOUNDED key
    cardinality: a `sorted_fold` with ONE argsort + segment-sum pass
    per block. Ray's built-in hash aggregate pays ~8 µs/group
    (measured: ~33 s at 4M groups) — the high-cardinality trap
    token_histogram first hit; this shape pays the sort alone. Output
    columns: key + value_cols, exact int64 sums."""

    def fold(block: pa.Table) -> pa.Table:
        keys = block[key].to_numpy(zero_copy_only=False)
        order = np.argsort(keys, kind="stable")
        k = keys[order]
        bounds = np.append(group_starts(k), len(k))
        cols = {key: pa.array(k[bounds[:-1]])}
        for c in value_cols:
            v = block[c].to_numpy(zero_copy_only=False).astype(np.int64)
            cols[c] = pa.array(segment_sum(v[order], bounds))
        return pa.table(cols)

    return sorted_fold(ds, key, fold)


def _canon_edges(doc_a: str, doc_b: str):
    """Batch fn: arbitrary pair rows -> canonical (k=max, n=min) int64
    edges, self-loops dropped."""

    def fn(batch: pa.Table) -> pa.Table:
        a = batch[doc_a].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch[doc_b].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        return pa.table(
            {"k": pa.array(np.maximum(a, b)), "n": pa.array(np.minimum(a, b))}
        )

    return fn


def _symmetrize(batch: pa.Table) -> pa.Table:
    """Both orientations of every edge (large-star groups on each
    endpoint)."""
    k = batch["k"].to_numpy(zero_copy_only=False)
    n = batch["n"].to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "k": pa.array(np.concatenate([k, n])),
            "n": pa.array(np.concatenate([n, k])),
        }
    )


def _star_group(large: bool, chunk: int = 1 << 20):
    """Vectorized per-group star step. Group = one node u with its
    (possibly duplicated) neighbor list; dedup with np.unique, then:

    large-star:  m = min(neighbors + u); emit (v, m) for v > u
    small-star:  neighbors all < u;  m = min(neighbors);
                 emit (v, m) for v in neighbors + {u}, v != m

    Emitted edges are always (bigger, smaller) — already canonical.
    """

    def gen(group: pa.Table):
        u = int(group["k"][0].as_py())
        vs = np.unique(group["n"].to_numpy(zero_copy_only=False))
        if large:
            m = min(int(vs[0]), u)
            out = vs[np.searchsorted(vs, u, side="right") :]
        else:
            m = int(vs[0])
            out = np.concatenate([vs[1:], np.array([u], dtype=np.int64)])
        for s in range(0, len(out), chunk):
            part = out[s : s + chunk]
            yield pa.table(
                {
                    "k": pa.array(part.astype(np.int64)),
                    "n": pa.array(np.full(len(part), m, dtype=np.int64)),
                }
            )

    return gen


def _star_round(edges, large: bool):
    src = (
        edges.map_batches(_symmetrize, batch_format="pyarrow") if large else edges
    )
    return _sorted_group_map_streaming(src, "k", _star_group(large), _EDGE_EMPTY)


def _edge_sig(edges) -> tuple[int, int]:
    """(count, order-insensitive hash-sum) of the edge multiset,
    computed distributed; the driver collects ONE summary row per
    block. Used only for fixpoint detection — at the fixpoint the
    round output is the deduplicated star set, which is bit-stable
    round over round, so consecutive equal signatures == converged."""

    def summarize(batch: pa.Table) -> pa.Table:
        k = batch["k"].to_numpy(zero_copy_only=False).astype(np.uint64)
        n = batch["n"].to_numpy(zero_copy_only=False).astype(np.uint64)
        x = (k << np.uint64(32)) ^ n
        # splitmix64 finalizer — order-insensitive via wrapping sum
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
        return pa.table(
            {
                "cnt": pa.array([len(k)], pa.int64()),
                "hsum": pa.array([int(x.sum(dtype=np.uint64))], pa.uint64()),
            }
        )

    rows = edges.map_batches(
        summarize, batch_size=None, batch_format="pyarrow"
    ).take_all()
    cnt = sum(r["cnt"] for r in rows)
    hsum = sum(r["hsum"] for r in rows) & ((1 << 64) - 1)
    return cnt, hsum


def connected_components(
    pairs, doc_a: str = "doc_a", doc_b: str = "doc_b", max_rounds: int = 64
):
    """Labels Dataset (doc_id, cluster_id) for every node that appears
    in `pairs`; cluster_id = the minimum node id of its component.
    Nodes absent from `pairs` (singletons) are the caller's to add —
    see `assign_components`.

    Alternates large-star / small-star until the small-star output's
    (count, hash-sum) signature repeats. Both steps preserve
    connectivity and only ever point nodes at smaller ids, so the
    fixpoint is the forest of single-level stars rooted at each
    component's minimum (SoCC 2014, Thms 1-3).
    """
    edges = pairs.map_batches(_canon_edges(doc_a, doc_b), batch_format="pyarrow")
    prev = None
    for _ in range(max_rounds):
        edges = _star_round(edges, large=True)
        edges = _star_round(edges, large=False).materialize()
        sig = _edge_sig(edges)
        if sig == prev:
            break
        prev = sig
    else:
        raise RuntimeError(f"connected_components: no fixpoint in {max_rounds} rounds")

    def leaf_and_root(batch: pa.Table) -> pa.Table:
        # star edge (child, root) labels the child; every edge also
        # re-asserts the root's identity row (deduped by min_per_key)
        k = batch["k"].to_numpy(zero_copy_only=False)
        n = batch["n"].to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate([k, n])),
                "cluster_id": pa.array(np.concatenate([n, n])),
            }
        )

    labels = edges.map_batches(leaf_and_root, batch_format="pyarrow")
    return min_per_key(labels, "doc_id", "cluster_id")


def assign_components(
    ds, pairs, max_rounds: int = 64, broadcast_bytes: int = 256 << 20
):
    """Full-corpus cluster assignment: (doc_id, cluster_id) for EVERY
    row of `ds` — component-minimum for nodes in `pairs`, identity for
    the rest. The distributed replacement for `minhash_dedup`'s driver
    union-find + broadcast remap.

    Two shapes, picked by the measured label size (labels = one row per
    node of a non-trivial component, min-per-key'd by
    `connected_components`):

    - labels <= `broadcast_bytes` (the common dedup regime — duplicate
      components are a fraction of the corpus): `ray.put` the sorted
      (doc_id, cluster_id) arrays once and assign per corpus batch via
      searchsorted lookup. ZERO corpus shuffle — strictly cheaper than
      pushing a corpus-sized identity projection through an exchange.
    - larger: one min-per-key exchange over the identity projection +
      labels. The `Dataset.union` here feeds a materializing sort (the
      exchange buffers its whole input regardless), so the BIGRUN_r4
      union-pacing hazard — branches racing ahead of a STREAMING
      consumer and defeating backpressure — does not apply: the store
      holds at most the 16-byte/row projection the sort must hold
      anyway, and spills under its cap. Documented here because the
      default path no longer unions at all.
    """
    import ray

    labels = connected_components(pairs, max_rounds=max_rounds).materialize()
    if labels.size_bytes() <= broadcast_bytes:
        blocks = [t for t in ray.get(labels.to_arrow_refs()) if t.num_rows]
        if blocks:
            lt = pa.concat_tables([t.select(["doc_id", "cluster_id"]) for t in blocks])
            keys = lt["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            vals = lt["cluster_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        else:  # no non-trivial components: every row keeps its own id
            keys = vals = np.empty(0, np.int64)
        order = np.argsort(keys)
        ref = ray.put((keys[order], vals[order]))

        def assign(batch: pa.Table) -> pa.Table:
            k, v = ray.get(ref)
            ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            cluster = ids.copy()
            hit = sorted_isin(k, ids)
            if hit.any():
                cluster[hit] = v[np.searchsorted(k, ids[hit])]
            return pa.table(
                {"doc_id": pa.array(ids), "cluster_id": pa.array(cluster)}
            )

        return ds.map_batches(assign, batch_format="pyarrow")

    def identity(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table({"doc_id": pa.array(ids), "cluster_id": pa.array(ids)})

    ident = ds.map_batches(identity, batch_format="pyarrow")
    return min_per_key(ident.union(labels), "doc_id", "cluster_id")


def minhash_dedup_cc(ds, jaccard_threshold: float = 0.7, max_rounds: int = 64):
    """`minhash_dedup` with the union-find replaced by distributed
    connected components — the shape that survives an edge list too
    big for the driver. Same output contract: (doc_id, cluster_id),
    cluster_id = min doc_id of the near-duplicate component."""
    from fsst_ray.functions.dedup import minhash_pairs

    return assign_components(
        ds, minhash_pairs(ds, jaccard_threshold), max_rounds=max_rounds
    )


def pagerank(
    edges_ds,
    src: str = "src",
    dst: str = "dst",
    iterations: int = 5,
    scale: int = 10**9,
    damping_num: int = 85,
    damping_den: int = 100,
):
    """Distributed PageRank over a directed edge-list Dataset, in EXACT
    fixed-point integer arithmetic so every iteration is bit-reproducible
    and SQL-recomputable (the kmeans_codes convention: floor division at
    each step, no floats anywhere).

    Semantics (the classic power iteration, no dangling-mass
    redistribution — dangling nodes simply leak their damped mass, the
    common "PageRank without teleport renormalization" variant):

        r_0(v)     = scale
        r_{t+1}(v) = floor(scale * (den-num) / den)
                     + sum over in-edges (u,v) of
                       floor(r_t(u) * num / (den * outdeg(u)))

    Parallel edges each contribute (multigraph semantics); self-loops
    feed a node's own next rank. Returns (node, rank_fp) int64 rows,
    rank_fp = r_iterations scaled by `scale`.

    Shape (per iteration — everything edge-/node-sized, the corpus
    never appears):
    - distribute: edges tagged (key=src) union rank rows (key=node),
      ONE range sort on the key (equal keys never straddle a block
      boundary), then one vectorized pass per block — each group's
      single rank row (side 0 sorts first) prices all its out-edges at
      once, emitting (node=dst, contrib) per edge plus a zero-contrib
      carrier row per node that keeps outdeg flowing. Zero per-node
      Python dispatch (the min_per_key / funnel_stages shape).
    - collect: ONE node-sized hash aggregate summing (contrib, outdeg).
    Partitioning assumption (documented): one node's out-edges fit one
    worker's block — bounded by max out-degree, not graph size (the
    same bound connected_components carries for in-groups).

    Overflow bound: sum of all ranks never exceeds n_nodes * scale
    (mass is conserved-or-leaked), and the widest intermediate is
    rank * damping_num in the contribution, so every product fits int64
    iff n_nodes * scale * damping_num < 2**63 — checked in Python ints
    with a loud ValueError.
    """
    if iterations < 1:
        raise ValueError("pagerank: iterations must be >= 1")
    if scale % damping_den != 0:
        raise ValueError(
            f"pagerank: scale must be divisible by damping_den={damping_den} "
            "so the teleport base is exact"
        )
    base = scale * (damping_den - damping_num) // damping_den

    def degree_partials(batch: pa.Table) -> pa.Table:
        s = batch[src].to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        both = np.concatenate([s, d])
        uniq, inv = np.unique(both, return_inverse=True)
        deg = np.bincount(inv[: len(s)], minlength=len(uniq))
        return pa.table(
            {
                "node": pa.array(uniq),
                "outdeg": pa.array(deg.astype(np.int64)),
            }
        )

    # sum_per_key, not groupby().sum(): node cardinality scales with
    # the graph (the high-cardinality aggregate trap, see sum_per_key)
    nodes = sum_per_key(
        edges_ds.map_batches(degree_partials, batch_format="pyarrow"),
        "node",
        ["outdeg"],
    ).materialize()
    n_nodes = nodes.count()
    if int(n_nodes) * int(scale) * int(damping_num) >= 1 << 63:
        raise ValueError(
            f"pagerank: n_nodes ({n_nodes}) * scale ({scale}) * damping_num "
            f"({damping_num}) risks int64 overflow; lower scale"
        )
    if n_nodes == 0:
        return nodes.map_batches(
            lambda t: pa.table(
                {
                    "node": pa.array([], pa.int64()),
                    "rank_fp": pa.array([], pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )

    def init_ranks(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            "rank", pa.array(np.full(batch.num_rows, scale, dtype=np.int64))
        )

    ranks = nodes.map_batches(init_ranks, batch_format="pyarrow")

    def tag_edges(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "_key": batch[src].cast(pa.int64()),
                "_side": pa.array(np.ones(n, dtype=np.int8)),
                "dst": batch[dst].cast(pa.int64()),
                "outdeg": pa.nulls(n, pa.int64()),
                "rank": pa.nulls(n, pa.int64()),
            }
        )

    def tag_ranks(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "_key": batch["node"].cast(pa.int64()),
                "_side": pa.array(np.zeros(n, dtype=np.int8)),
                "dst": pa.nulls(n, pa.int64()),
                "outdeg": batch["outdeg"].cast(pa.int64()),
                "rank": batch["rank"].cast(pa.int64()),
            }
        )

    def price_block(block: pa.Table) -> pa.Table:
        keys = block["_key"].to_numpy(zero_copy_only=False)
        side = block["_side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, keys))
        k, s = keys[order], side[order]
        starts = group_starts(k)
        if not (s[starts] == 0).all():
            raise ValueError(
                "pagerank: edge group without a rank row — an edge source "
                "is missing from the node table (exchange invariant broken)"
            )
        gid = group_ids(starts, len(k))
        import pyarrow.compute as _pc

        # fill_null BEFORE to_numpy: a nullable int64 column converts to
        # float64 (NaN for nulls), silently corrupting values > 2^53 —
        # ranks reach n*scale and dst ids can be full-width hashes
        rank_all = _pc.fill_null(block["rank"], 0).to_numpy(zero_copy_only=False)
        deg_all = _pc.fill_null(block["outdeg"], 0).to_numpy(zero_copy_only=False)
        # one rank row per group, first in group order
        g_rank = rank_all[order[starts]].astype(np.int64)
        g_deg = deg_all[order[starts]].astype(np.int64)
        emask = s == 1  # edge rows, in sorted coordinates
        if emask.any():
            eg = gid[emask]
            # outdeg > 0 for any group that has edge rows by construction
            contrib = (g_rank[eg] * damping_num) // (damping_den * g_deg[eg])
            e_dst = (
                _pc.fill_null(block["dst"], 0)
                .to_numpy(zero_copy_only=False)[order[emask]]
            ).astype(np.int64)
        else:
            contrib = np.empty(0, np.int64)
            e_dst = np.empty(0, np.int64)
        # carrier row per node: keeps (node, outdeg) in the aggregate so
        # the next iteration's rank table is complete without a second
        # exchange against the node table
        node_ids = k[starts].astype(np.int64)
        return pa.table(
            {
                "node": pa.array(np.concatenate([e_dst, node_ids])),
                "contrib": pa.array(
                    np.concatenate([contrib, np.zeros(len(node_ids), np.int64)])
                ),
                "outdeg": pa.array(
                    np.concatenate([np.zeros(len(e_dst), np.int64), g_deg])
                ),
            }
        )

    tagged_edges = edges_ds.map_batches(tag_edges, batch_format="pyarrow")
    for _ in range(iterations):
        tagged = tagged_edges.union(
            ranks.map_batches(tag_ranks, batch_format="pyarrow")
        )
        # collect = sum_per_key (sorted-block segment sums), NOT Ray's
        # hash aggregate: measured 501 -> 103.5 s over 3 iterations at
        # 24M edges / 8M nodes when this was groupby().sum()
        summed = sum_per_key(
            sorted_fold(tagged, "_key", price_block), "node", ["contrib", "outdeg"]
        )

        def refresh(batch: pa.Table) -> pa.Table:
            c = batch["contrib"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {
                    "node": batch["node"].cast(pa.int64()),
                    "outdeg": batch["outdeg"].cast(pa.int64()),
                    "rank": pa.array(base + c),
                }
            )

        # bounded snapshot, not bare materialize: the loop-carried rank
        # table otherwise accretes blocks and plan per iteration (see
        # _bounded_snapshot; measured 0.49 -> 0.59 s/iter drift by
        # iteration 32 on a 50-node graph before this)
        ranks = _bounded_snapshot(summed.map_batches(refresh, batch_format="pyarrow"))

    return ranks.map_batches(
        lambda t: pa.table(
            {"node": t["node"], "rank_fp": t["rank"]}
        ),
        batch_format="pyarrow",
    )


def hop_distance(edges_ds, seeds: list[int], src: str = "src", dst: str = "dst",
                 max_hops: int = 32):
    """Distributed multi-source BFS over a directed edge list: minimum
    hop count from ANY seed to each reachable node (seeds = 0).
    Returns a (node, hops) int64 Dataset for reachable nodes only.

    Shape (frontier expansion, the pagerank exchange family): per
    round, the current frontier unions the edge list, ONE range sort on
    the node key, one vectorized pass per block emits each frontier
    node's out-neighbors (deduped per block); an `existence_join`
    anti-join against the settled set keeps only strictly-NEW nodes, so
    every node is expanded exactly once and total expand work is
    O(edges) summed over all rounds. The settled set lives as a
    DATASET the whole time (grown by union + per-round materialize, the
    connected_components pacing) — the driver sees only per-round
    counts, never node lists, so the reachable set can be corpus-sized.
    Round count = seed eccentricity (loud error past `max_hops`).
    Partitioning assumption: one node's out-edges fit a worker's block
    (the connected_components bound).

    Loop-carried datasets go through `_bounded_snapshot` (see its
    docstring): settled/frontier re-enter an exchange every round and
    reference each other, the exact double-hazard (block multiplication
    + logical-plan growth) that helper neutralizes.
    (connected_components never hits this: its one loop-carried dataset
    shrinks and is reassigned through a single chain.)"""
    import ray.data as rd

    from fsst_ray.functions.relational import existence_join

    if not seeds:
        raise ValueError("hop_distance: seeds must be non-empty")
    if max_hops < 0:
        raise ValueError("hop_distance: max_hops must be >= 0")

    _bounded = _bounded_snapshot

    def tag_edges(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "_key": batch[src].cast(pa.int64()),
                "_side": pa.array(np.ones(batch.num_rows, dtype=np.int8)),
                "dst": batch[dst].cast(pa.int64()),
            }
        )

    tagged_edges = edges_ds.map_batches(tag_edges, batch_format="pyarrow")

    seed_arr = np.unique(np.asarray(sorted(set(int(s) for s in seeds)), dtype=np.int64))
    settled = rd.from_arrow(
        pa.table(
            {
                "node": pa.array(seed_arr),
                "hops": pa.array(np.zeros(len(seed_arr), np.int64)),
            }
        )
    ).materialize()
    frontier = settled

    def tag_frontier(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        return pa.table(
            {
                "_key": batch["node"].cast(pa.int64()),
                "_side": pa.array(np.zeros(n, dtype=np.int8)),
                "dst": pa.nulls(n, pa.int64()),
            }
        )

    def expand(block: pa.Table) -> pa.Table:
        empty = pa.table({"node": pa.array([], pa.int64())})
        keys = block["_key"].to_numpy(zero_copy_only=False)
        side = block["_side"].to_numpy(zero_copy_only=False)
        order = np.lexsort((side, keys))
        k, s = keys[order], side[order]
        starts = group_starts(k)
        gid = group_ids(starts, len(k))
        in_frontier = np.zeros(len(starts), dtype=bool)
        in_frontier[gid[s == 0]] = True
        emask = (s == 1) & in_frontier[gid]
        if not emask.any():
            return empty
        import pyarrow.compute as _pc

        # fill_null first: nullable int64 -> float64 would corrupt
        # full-width (>2^53) node ids, e.g. hashed doc ids
        d = (
            _pc.fill_null(block["dst"], 0)
            .to_numpy(zero_copy_only=False)[order[emask]]
        )
        return pa.table({"node": pa.array(np.unique(d).astype(np.int64))})

    def new_nodes(frontier, settled, hops: int):
        """Out-neighbors of `frontier` not yet in `settled`, labeled `hops`."""
        tagged = tagged_edges.union(
            frontier.map_batches(tag_frontier, batch_format="pyarrow")
        )
        cand = sorted_fold(tagged, "_key", expand)

        def label(batch: pa.Table) -> pa.Table:
            return batch.append_column(
                "hops", pa.array(np.full(batch.num_rows, hops, dtype=np.int64))
            )

        # distinct candidates (blocks may repeat a dst across blocks);
        # round-frontier-sized; materialized so existence_join can read
        # a concrete schema (an all-empty materialized dataset reports
        # schema None, so the empty round must return BEFORE the join)
        cand = _bounded(min_per_key(cand.map_batches(label, batch_format="pyarrow"),
                                    "node", "hops"))
        if cand.count() == 0:
            return cand
        return _bounded(existence_join(cand, settled, "node", "node", how="anti"))

    for hops in range(1, max_hops + 1):
        frontier = new_nodes(frontier, settled, hops)
        if frontier.count() == 0:
            break
        settled = _bounded(settled.union(frontier))
    else:
        # the BFS may have finished exactly at max_hops: only an
        # unsettled node one hop further is an error
        if new_nodes(frontier, settled, max_hops + 1).count() != 0:
            raise RuntimeError(
                f"hop_distance: frontier non-empty after max_hops={max_hops}"
            )

    return settled


def chain_edges(ds, run_mod: int = 8, run_keep: int = 5, skip_mod: int = 64,
                skip_len: int = 16):
    """Deterministic multi-hop test graph over a doc_id column:
    consecutive runs (d, d+1) when d % run_mod < run_keep, plus skip
    links (d, d+skip_len) when d % skip_mod == 0 — components whose
    closure needs several hops, SQL-reproducible for the oracle."""

    def fn(batch: pa.Table) -> pa.Table:
        d = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        runs = d[d % run_mod < run_keep]
        skips = d[d % skip_mod == 0]
        return pa.table(
            {
                "doc_a": pa.array(np.concatenate([runs, skips])),
                "doc_b": pa.array(
                    np.concatenate([runs + 1, skips + skip_len])
                ),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")
