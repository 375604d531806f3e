"""Distributed connected components (large-star/small-star): fixpoint
labels must equal a reference union-find on every graph shape that
stresses the algorithm — long paths (worst-case diameter), hub stars
(hot groups), random graphs, and the minhash integration."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest


def _uf_labels(edges: list[tuple[int, int]]) -> dict[int, int]:
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: find(x) for x in parent}


def _pairs_ds(edges: list[tuple[int, int]]):
    import ray.data as rd

    a = pa.array([e[0] for e in edges], pa.int64())
    b = pa.array([e[1] for e in edges], pa.int64())
    return rd.from_arrow(pa.table({"doc_a": a, "doc_b": b}))


def _cc_labels(edges, **kw) -> dict[int, int]:
    from fsst_ray.functions.graph import connected_components

    out = connected_components(_pairs_ds(edges), **kw).to_pandas()
    assert out["doc_id"].is_unique
    return dict(zip(out["doc_id"], out["cluster_id"]))


@pytest.mark.parametrize(
    "edges",
    [
        [(0, 1)],
        [(5, 3), (3, 5), (9, 9), (2, 7)],  # dupes + self-loop + reversal
        [(i, i + 1) for i in range(200)],  # 201-node path, diameter 200
        [(0, i) for i in range(1, 300)],  # hub star, hot group
        [(i + 1, 0) for i in range(299)],  # reversed hub star
        [(2 * i, 2 * i + 2) for i in range(50)]
        + [(2 * i + 1, 2 * i + 3) for i in range(50)],  # two interleaved paths
    ],
    ids=["single", "dupes", "path200", "star", "rstar", "evens_odds"],
)
def test_cc_matches_union_find(edges, ray_session):
    want = _uf_labels(edges)
    got = _cc_labels(edges)
    # union-find keeps self-loop-only nodes; CC drops self-loops — align
    nodes = {a for a, b in edges if a != b} | {b for a, b in edges if a != b}
    assert got == {n: want[n] for n in nodes}


def test_cc_random_graphs(ray_session):
    rng = np.random.default_rng(1234)
    for trial in range(3):
        n = 400
        m = int(rng.integers(100, 600))
        edges = [
            (int(a), int(b))
            for a, b in zip(rng.integers(0, n, m), rng.integers(0, n, m))
        ]
        want = _uf_labels([e for e in edges if e[0] != e[1]])
        got = _cc_labels(edges)
        assert got == want, f"trial {trial}"


def test_cc_path_converges_in_log_rounds(ray_session):
    # a 256-node path must close in O(log n) star rounds, not O(n)
    edges = [(i, i + 1) for i in range(255)]
    got = _cc_labels(edges, max_rounds=20)
    assert set(got.values()) == {0}
    assert len(got) == 256


def test_assign_components_covers_singletons(ray_session):
    import ray.data as rd

    from fsst_ray.functions.graph import assign_components

    docs = rd.from_arrow(pa.table({"doc_id": pa.array(range(10), pa.int64())}))
    out = assign_components(docs, _pairs_ds([(3, 7), (7, 9)])).to_pandas()
    got = dict(zip(out["doc_id"], out["cluster_id"]))
    want = {i: i for i in range(10)} | {7: 3, 9: 3}
    assert got == want


@pytest.fixture(scope="module")
def planted_docs(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(77)
    vocab = [f"w{i}" for i in range(200)]
    rows = []
    for i in range(40):
        words = [vocab[j] for j in rng.integers(0, 200, size=60)]
        rows.append({"doc_id": i, "text": " ".join(words)})
    base0 = rows[0]["text"].split(" ")
    base1 = rows[1]["text"].split(" ")
    rows.append({"doc_id": 100, "text": " ".join(base0[:-1] + ["zzz"])})
    rows.append({"doc_id": 101, "text": " ".join(base0)})
    rows.append({"doc_id": 102, "text": " ".join(base1[:-2] + ["yyy", "xxx"])})
    table = pa.Table.from_pylist(
        rows, schema=pa.schema([("doc_id", pa.int64()), ("text", pa.string())])
    )
    return rd.from_arrow(table)


def test_minhash_dedup_cc_matches_union_find_path(ray_session, planted_docs):
    """The CC-backed minhash dedup must produce the identical label
    table to the driver union-find path on the planted corpus."""
    from fsst_ray.functions.dedup import minhash_dedup
    from fsst_ray.functions.graph import minhash_dedup_cc

    want = (
        minhash_dedup(planted_docs, jaccard_threshold=0.6)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    got = (
        minhash_dedup_cc(planted_docs, jaccard_threshold=0.6)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert got.equals(want)


def test_chain_edges_deterministic(ray_session):
    import ray.data as rd

    from fsst_ray.functions.graph import chain_edges

    docs = rd.from_arrow(pa.table({"doc_id": pa.array(range(100), pa.int64())}))
    out = chain_edges(docs).to_pandas()
    runs = {(d, d + 1) for d in range(100) if d % 8 < 5}
    skips = {(d, d + 16) for d in range(100) if d % 64 == 0}
    assert set(zip(out["doc_a"], out["doc_b"])) == runs | skips


def test_cc_empty_edge_list(ray_session):
    import ray.data as rd

    from fsst_ray.functions.graph import assign_components, connected_components

    empty = rd.from_arrow(
        pa.table({"doc_a": pa.array([], pa.int64()), "doc_b": pa.array([], pa.int64())})
    )
    assert connected_components(empty).count() == 0
    docs = rd.from_arrow(pa.table({"doc_id": pa.array(range(5), pa.int64())}))
    out = assign_components(docs, empty).to_pandas()
    assert dict(zip(out["doc_id"], out["cluster_id"])) == {i: i for i in range(5)}


# ---------------- Hypothesis: algorithm-level fixpoint property ----------------


def _simulate_cc(edges: list[tuple[int, int]], max_rounds: int = 64) -> dict[int, int]:
    """Run the exact per-group star steps (the same _star_group
    generator the Ray pipeline uses) on an in-memory edge set — pure
    algorithm check, no Ray."""
    from fsst_ray.functions.graph import _star_group

    cur = {(max(a, b), min(a, b)) for a, b in edges if a != b}
    if not cur:
        return {}
    prev = None
    for _ in range(max_rounds):
        for large in (True, False):
            grouped: dict[int, list[int]] = {}
            if large:
                for k, n in cur:
                    grouped.setdefault(k, []).append(n)
                    grouped.setdefault(n, []).append(k)
            else:
                for k, n in cur:
                    grouped.setdefault(k, []).append(n)
            nxt = set()
            fn = _star_group(large)
            for k in grouped:
                g = pa.table(
                    {
                        "k": pa.array([k] * len(grouped[k]), pa.int64()),
                        "n": pa.array(grouped[k], pa.int64()),
                    }
                )
                for chunk in fn(g):
                    nxt.update(
                        zip(chunk["k"].to_pylist(), chunk["n"].to_pylist())
                    )
            cur = nxt
        if cur == prev:
            break
        prev = set(cur)
    else:
        raise AssertionError("no fixpoint")
    labels = {}
    for k, n in cur:
        labels[k] = n
        labels.setdefault(n, n)
    return labels


def test_star_steps_property_vs_union_find():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @settings(max_examples=200, deadline=None)
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 60), st.integers(0, 60)), max_size=120
        )
    )
    def prop(edges):
        want = _uf_labels([e for e in edges if e[0] != e[1]])
        assert _simulate_cc(edges) == want

    prop()


def test_minhash_dedup_size_gate_paths_identical(ray_session, planted_docs):
    """driver_edge_limit=0 forces the distributed-CC branch inside
    minhash_dedup itself; labels must be bit-identical to the
    union-find fast path (VERDICT r4 item 4: the gate, not the caller,
    picks the closure)."""
    from fsst_ray.functions.dedup import minhash_dedup

    want = (
        minhash_dedup(planted_docs, jaccard_threshold=0.6)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    got = (
        minhash_dedup(planted_docs, jaccard_threshold=0.6, driver_edge_limit=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert got.equals(want)


def test_assign_components_exchange_path_matches_broadcast(ray_session):
    """broadcast_bytes=0 forces the min-per-key exchange fallback; the
    default broadcast-lookup path must agree with it row-for-row."""
    import ray.data as rd

    from fsst_ray.functions.graph import assign_components

    docs = rd.from_arrow(pa.table({"doc_id": pa.array(range(20), pa.int64())}))
    pairs = _pairs_ds([(1, 5), (5, 9), (12, 13)])
    a = assign_components(docs, pairs).to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = (
        assign_components(docs, pairs, broadcast_bytes=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert a.equals(b)
    got = dict(zip(a["doc_id"], a["cluster_id"]))
    assert got == {i: i for i in range(20)} | {5: 1, 9: 1, 13: 12}


# ---------------------------------------------------------------------------
# pagerank


def _ref_pagerank(edges, iterations, scale=10**9, num=85, den=100):
    """Pure-python fixed-point reference: identical floor arithmetic."""
    outdeg: dict[int, int] = {}
    nodes: set[int] = set()
    for s, d in edges:
        outdeg[s] = outdeg.get(s, 0) + 1
        nodes.add(s)
        nodes.add(d)
    base = scale * (den - num) // den
    r = {v: scale for v in nodes}
    for _ in range(iterations):
        nr = {v: base for v in nodes}
        for s, d in edges:
            nr[d] += (r[s] * num) // (den * outdeg[s])
        r = nr
    return r


def _edges_ds(edges, nparts=1):
    import ray.data as rd

    t = pa.table(
        {
            "src": pa.array([e[0] for e in edges], pa.int64()),
            "dst": pa.array([e[1] for e in edges], pa.int64()),
        }
    )
    ds = rd.from_arrow(t)
    return ds.repartition(nparts) if nparts > 1 else ds


@pytest.mark.parametrize(
    "edges,iters",
    [
        ([(0, 1)], 1),  # one edge, one dangling sink
        ([(0, 1), (1, 0)], 5),  # 2-cycle
        ([(0, 0), (0, 1), (0, 1)], 3),  # self-loop + parallel edges
        ([(i, i + 1) for i in range(30)], 6),  # chain
        ([(i, 0) for i in range(1, 50)], 4),  # hub sink (hot in-group)
        ([(0, i) for i in range(1, 50)], 4),  # hub source (hot out-group)
    ],
    ids=["edge", "cycle2", "multi", "chain", "hubsink", "hubsrc"],
)
def test_pagerank_matches_reference(edges, iters, ray_session):
    from fsst_ray.functions.graph import pagerank

    out = pagerank(_edges_ds(edges), iterations=iters).to_pandas()
    assert out["node"].is_unique
    got = dict(zip(out["node"], out["rank_fp"]))
    assert got == _ref_pagerank(edges, iters)


def test_pagerank_random_graphs_partitioned(ray_session):
    rng = np.random.default_rng(77)
    for trial in range(3):
        n = 120
        m = int(rng.integers(80, 400))
        edges = [
            (int(a), int(b))
            for a, b in zip(rng.integers(0, n, m), rng.integers(0, n, m))
        ]
        out = pagerank_out = None
        from fsst_ray.functions.graph import pagerank

        out = pagerank(_edges_ds(edges, nparts=7), iterations=4).to_pandas()
        got = dict(zip(out["node"], out["rank_fp"]))
        assert got == _ref_pagerank(edges, 4), f"trial {trial}"


def test_pagerank_plan_has_no_map_groups(ray_session):
    from fsst_ray.functions.graph import pagerank

    ds = pagerank(_edges_ds([(i % 17, (i * 3) % 17) for i in range(60)]), iterations=2)
    ds = ds.materialize()
    assert "MapGroups" not in ds.stats()


def test_pagerank_guards(ray_session):
    from fsst_ray.functions.graph import pagerank

    with pytest.raises(ValueError, match="iterations"):
        pagerank(_edges_ds([(0, 1)]), iterations=0)
    with pytest.raises(ValueError, match="divisible"):
        pagerank(_edges_ds([(0, 1)]), scale=10**9 + 1)
    with pytest.raises(ValueError, match="overflow"):
        pagerank(_edges_ds([(0, 1)]), scale=(1 << 62) // 100 * 100)
    # 2 nodes * 1e17 < 2^62, but rank * damping_num reaches 1.7e19 > 2^63
    with pytest.raises(ValueError, match="overflow"):
        pagerank(_edges_ds([(0, 1)]), scale=10**17)


def test_pagerank_empty_edges(ray_session):
    from fsst_ray.functions.graph import pagerank

    out = pagerank(_edges_ds([]).filter(lambda r: False)).to_pandas()
    assert len(out) == 0


# ---------------------------------------------------------------------------
# hop_distance (multi-source BFS)


def _ref_bfs(edges, seeds):
    from collections import deque

    adj: dict[int, list[int]] = {}
    for s, d in edges:
        adj.setdefault(s, []).append(d)
    dist = {int(v): 0 for v in seeds}
    q = deque(sorted(dist))
    while q:
        u = q.popleft()
        for v in adj.get(u, []):
            if v not in dist:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


@pytest.mark.parametrize(
    "edges,seeds",
    [
        ([(0, 1), (1, 2), (2, 3)], [0]),  # chain, directed
        ([(0, 1), (1, 2), (2, 3)], [2]),  # chain, unreachable prefix
        ([(0, 1), (1, 0)], [0]),  # cycle back to a settled node
        ([(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)], [0]),  # diamond + back edge
        ([(i, i + 1) for i in range(20)] + [(5, 15)], [0, 19]),  # multi-seed
        ([(0, 0)], [0]),  # self-loop only
    ],
    ids=["chain", "midseed", "cycle", "diamond", "multiseed", "selfloop"],
)
def test_hop_distance_matches_bfs(edges, seeds, ray_session):
    from fsst_ray.functions.graph import hop_distance

    out = hop_distance(_edges_ds(edges), seeds).to_pandas()
    assert out["node"].is_unique
    assert dict(zip(out["node"], out["hops"])) == _ref_bfs(edges, seeds)


def test_hop_distance_random_graphs(ray_session):
    from fsst_ray.functions.graph import hop_distance

    rng = np.random.default_rng(2026)
    for trial in range(3):
        n = 100
        m = int(rng.integers(60, 300))
        edges = [
            (int(a), int(b))
            for a, b in zip(rng.integers(0, n, m), rng.integers(0, n, m))
        ]
        seeds = [int(x) for x in rng.integers(0, n, 3)]
        out = hop_distance(_edges_ds(edges, nparts=6), seeds).to_pandas()
        assert dict(zip(out["node"], out["hops"])) == _ref_bfs(edges, seeds), trial


def test_hop_distance_guards(ray_session):
    from fsst_ray.functions.graph import hop_distance

    with pytest.raises(ValueError, match="seeds"):
        hop_distance(_edges_ds([(0, 1)]), [])
    with pytest.raises(RuntimeError, match="max_hops"):
        hop_distance(_edges_ds([(i, i + 1) for i in range(10)]), [0], max_hops=3)


def test_hop_distance_eccentricity_equal_to_max_hops(ray_session):
    """A BFS that finishes exactly at max_hops is complete, not an error;
    one hop short still raises."""
    from fsst_ray.functions.graph import hop_distance

    path = [(0, 1), (1, 2)]
    out = hop_distance(_edges_ds(path), [0], max_hops=2).to_pandas()
    assert dict(zip(out["node"], out["hops"])) == {0: 0, 1: 1, 2: 2}
    with pytest.raises(RuntimeError, match="max_hops"):
        hop_distance(_edges_ds(path), [0], max_hops=1)


def test_pagerank_and_bfs_survive_full_width_ids(ray_session):
    """Node ids above 2^53: a nullable-int64 -> float64 numpy
    conversion would silently round them (the tagged union makes
    dst/rank columns nullable); fill_null-before-to_numpy keeps them
    exact. Regression for the session-9 review find."""
    from fsst_ray.functions.graph import hop_distance, pagerank

    base = (1 << 60) + 12345678901234567  # not representable in f64
    edges = [(base, base + 1), (base + 1, base + 3), (base + 3, base)]
    out = hop_distance(_edges_ds(edges), [base]).to_pandas()
    got = dict(zip(out["node"], out["hops"]))
    assert got == {base: 0, base + 1: 1, base + 3: 2}

    pr = pagerank(_edges_ds(edges), iterations=3).to_pandas()
    assert dict(zip(pr["node"], pr["rank_fp"])) == _ref_pagerank(edges, 3)
