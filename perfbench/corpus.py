"""Seeded synthetic corpus in the engine's input schema.

The eight row families have the shapes of the engine's own generator
(fsst_ray/sources/tokens.py), but this file owns its generator: a change
to the engine's generator must not change what the benchmark feeds the
engine, and the engine sees only the parquet files written here.

Every array is drawn from numpy's default generator seeded with
(GEN_VERSION, seed, family, chunk), so one seed always gives the same
rows. The pareto lengths of `cyclic-large` are drawn by stratified
sampling: each seed gets the same length distribution in another
order, which keeps token mass and bytes per token steady across seeds
while one bucket still dwarfs the others.
"""

from __future__ import annotations

import pathlib
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

GEN_VERSION = 1
CHUNK_ROWS = 4000
SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)


def _english(rng, n):
    lens = np.clip(rng.normal(256, 64, n).astype(np.int64), 16, 512)
    return (rng.zipf(1.3, size=int(lens.sum())) % 50_000).astype(np.int32), lens


def _empty(rng, n):
    lens = (np.arange(n) % 2).astype(np.int64)
    return rng.integers(0, 100, size=int(lens.sum())).astype(np.int32), lens


def _zeros(rng, n):
    lens = rng.integers(1, 40, size=n).astype(np.int64) * 6
    vals = np.tile(np.array([0, 1, 2, 3, 4, 0], dtype=np.int32), int(lens.sum()) // 6)
    vals[np.repeat(rng.random(n) < 0.5, lens)] = 0
    return vals, lens


def _cyclic_large(rng, n):
    motif = rng.integers(0, 1000, size=64).astype(np.int32)
    q = (rng.permutation(n) + rng.random(n)) / n  # stratified pareto(1) quantiles
    reps = np.clip((q / (1.0 - q) * 64).astype(np.int64), 8, 1024)
    return np.tile(motif, int(reps.sum())), reps * 64


def _highbyte(rng, n):
    lens = rng.integers(32, 256, size=n).astype(np.int64)
    return rng.integers(1 << 24, 1 << 31, size=int(lens.sum())).astype(np.int32), lens


def _constant(rng, n):
    lens = rng.integers(16, 128, size=n).astype(np.int64)
    return np.full(int(lens.sum()), 7, dtype=np.int32), lens


def _smallrange(rng, n):
    lens = rng.integers(32, 256, size=n).astype(np.int64)
    return rng.integers(1000, 1064, size=int(lens.sum())).astype(np.int32), lens


def _random(rng, n):
    lens = rng.integers(1, 512, size=n).astype(np.int64)
    return rng.integers(0, 1 << 31, size=int(lens.sum())).astype(np.int32), lens


# family -> (rows per unit of scale, generator); one unit is ~1.7M tokens
FAMILIES = {
    "english": (2000, _english),
    "empty": (100, _empty),
    "zeros": (500, _zeros),
    "cyclic-large": (50, _cyclic_large),
    "highbyte": (1000, _highbyte),
    "constant": (500, _constant),
    "smallrange": (1000, _smallrange),
    "random": (1000, _random),
}


def family_table(seed: int, family: str, chunk: int, n: int, id_prefix: str) -> pa.Table:
    """Rows [chunk*CHUNK_ROWS, +n) of one family, ids '{family}-{prefix}{i:09d}'."""
    rng = np.random.default_rng([GEN_VERSION, seed, zlib.crc32(family.encode()), chunk])
    vals, lens = FAMILIES[family][1](rng, n)
    offsets = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(lens, out=offsets[1:])
    base = chunk * CHUNK_ROWS
    return pa.table(
        {
            "doc_id": [f"{family}-{id_prefix}{base + i:09d}" for i in range(n)],
            "tokens": pa.ListArray.from_arrays(pa.array(offsets), pa.array(vals)),
            "n_tok": pa.array(lens.astype(np.int32)),
            "source": [family] * n,
        },
        schema=SCHEMA,
    )


def corpus_tables(seed: int, scale: float, id_prefix: str = "") -> list[pa.Table]:
    """The whole corpus as one table per (family, chunk)."""
    out = []
    for family, (per_unit, _) in FAMILIES.items():
        total = max(int(per_unit * scale), 1)
        for chunk, lo in enumerate(range(0, total, CHUNK_ROWS)):
            out.append(family_table(seed, family, chunk, min(CHUNK_ROWS, total - lo), id_prefix))
    return out


def write_corpus(tables: list[pa.Table], out: pathlib.Path) -> pathlib.Path:
    """One zstd parquet file per table."""
    out.mkdir(parents=True)
    for i, t in enumerate(tables):
        pq.write_table(t, out / f"part-{i:04d}.parquet", compression="zstd")
    return out
