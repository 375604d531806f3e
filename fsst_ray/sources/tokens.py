"""Deterministic synthetic corpus of pre-tokenized training sequences.

Schema is exactly the input_hint shape from BASELINE.json:
    doc_id: string, tokens: list<int32>, n_tok: int32, source: string

Row families mirror the reference's correctness cases (see FIXTURES.md;
reference /root/reference/tests/correctness.rs): english (zipf),
empty, zeros, cyclic-large (deliberately skewed), highbyte, constant,
smallrange, random. Fixed seeds per (family, chunk) — no wall clock —
so any scale regenerates bit-identically, chunk-parallel.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TOKENS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("tokens", pa.list_(pa.int32())),
        ("n_tok", pa.int32()),
        ("source", pa.string()),
    ]
)

# family -> (rows at scale=1, generator)
_BASE_SEED = 0x5F5F42


def _rng(family: str, chunk: int) -> np.random.Generator:
    import zlib

    return np.random.default_rng([_BASE_SEED, zlib.crc32(family.encode()), chunk])


def _gen_english(rng, n_rows):
    lens = np.clip(rng.normal(256, 64, n_rows).astype(np.int64), 16, 512)
    total = int(lens.sum())
    vals = (rng.zipf(1.3, size=total) % 50_000).astype(np.int32)
    return vals, lens


def _gen_empty(rng, n_rows):
    lens = np.where(np.arange(n_rows) % 2 == 0, 0, 1).astype(np.int64)
    vals = rng.integers(0, 100, size=int(lens.sum())).astype(np.int32)
    return vals, lens


def _gen_zeros(rng, n_rows):
    lens = rng.integers(6, 240, size=n_rows).astype(np.int64)
    lens = (lens // 6) * 6
    pat = np.array([0, 1, 2, 3, 4, 0], dtype=np.int32)
    vals = np.tile(pat, int(lens.sum()) // 6).copy()
    # half the rows: long pure-zero runs (vectorized row mask)
    zero_rows = rng.random(n_rows) < 0.5
    vals[np.repeat(zero_rows, lens)] = 0
    return vals, lens


def _gen_cyclic_large(rng, n_rows):
    motif = rng.integers(0, 1000, size=64).astype(np.int32)
    reps = np.clip((rng.pareto(1.0, n_rows) * 64).astype(np.int64), 8, 1024)
    lens = reps * 64  # up to 65,536 tokens: the skew driver
    vals = np.tile(motif, int(reps.sum()))
    return vals, lens


def _gen_highbyte(rng, n_rows):
    lens = rng.integers(32, 256, size=n_rows).astype(np.int64)
    vals = rng.integers(1 << 24, 1 << 31, size=int(lens.sum())).astype(np.int32)
    return vals, lens


def _gen_constant(rng, n_rows):
    lens = rng.integers(16, 128, size=n_rows).astype(np.int64)
    vals = np.full(int(lens.sum()), 7, dtype=np.int32)
    return vals, lens


def _gen_smallrange(rng, n_rows):
    lens = rng.integers(32, 256, size=n_rows).astype(np.int64)
    vals = rng.integers(1000, 1064, size=int(lens.sum())).astype(np.int32)
    return vals, lens


def _gen_random(rng, n_rows):
    lens = rng.integers(1, 512, size=n_rows).astype(np.int64)
    vals = rng.integers(0, 1 << 31, size=int(lens.sum())).astype(np.int32)
    return vals, lens


FAMILIES = {
    "english": (2000, _gen_english),
    "empty": (100, _gen_empty),
    "zeros": (500, _gen_zeros),
    "cyclic-large": (50, _gen_cyclic_large),
    "highbyte": (1000, _gen_highbyte),
    "constant": (500, _gen_constant),
    "smallrange": (1000, _gen_smallrange),
    "random": (1000, _gen_random),
}

_GEN_VERSION = 3  # bump to invalidate the /tmp parquet cache
_CHUNK_ROWS = 12_500
# heavy-tailed families get smaller generation chunks (bounded token
# mass per file — file count drives read parallelism)
_CHUNK_ROWS_BY_FAMILY = {"cyclic-large": 500}


def _family_chunk(family: str, chunk: int, n_rows: int, row_base: int) -> pa.Table:
    rng = _rng(family, chunk)
    vals, lens = FAMILIES[family][1](rng, n_rows)
    offsets = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    assert offsets[-1] < 2**31, "chunk too large for list<int32> offsets"
    tokens = pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32), type=pa.int32()),
        pa.array(vals, type=pa.int32()),
    )
    doc_ids = pa.array([f"{family}-{row_base + i:09d}" for i in range(n_rows)], type=pa.string())
    return pa.table(
        {
            "doc_id": doc_ids,
            "tokens": tokens,
            "n_tok": pa.array(lens.astype(np.int32), type=pa.int32()),
            "source": pa.array([family] * n_rows, type=pa.string()),
        },
        schema=TOKENS_SCHEMA,
    )


def _family_plan(family: str, scale: float) -> list[tuple[int, int, int]]:
    """[(chunk_idx, n_rows, row_base)] for the family at the given scale."""
    total = max(int(FAMILIES[family][0] * scale), 1)
    plan = []
    base = 0
    chunk = 0
    while base < total:
        n = min(_CHUNK_ROWS_BY_FAMILY.get(family, _CHUNK_ROWS), total - base)
        plan.append((chunk, n, base))
        base += n
        chunk += 1
    return plan


def tokens_table(scale: float = 1.0) -> pa.Table:
    """In-memory table (small scales only — tests and oracles)."""
    tables = []
    for family in FAMILIES:
        for chunk, n, base in _family_plan(family, scale):
            tables.append(_family_chunk(family, chunk, n, base))
    return pa.concat_tables(tables)


def ensure_tokens_parquet(scale: float = 1.0, base_dir: str | None = None) -> str:
    """Write (once, cached) the corpus as one parquet file per family
    chunk so reads parallelize; returns the directory path."""
    base_dir = base_dir or os.environ.get("FSST_RAY_DATA_DIR", "/tmp/fsst_ray_tokens")
    out = pathlib.Path(base_dir) / f"v{_GEN_VERSION}_scale_{scale:g}"
    marker = out / "_SUCCESS"
    if marker.exists():
        return str(out)
    tmp = out.with_name(out.name + ".tmp")
    if tmp.exists():
        import shutil

        shutil.rmtree(tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    jobs = [
        (family, chunk, n, base)
        for family in FAMILIES
        for chunk, n, base in _family_plan(family, scale)
    ]
    if len(jobs) > 8:
        # chunks are independently seeded — generate in parallel
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(16, os.cpu_count() or 4)) as pool:
            list(pool.map(_write_chunk_job, [(str(tmp), *j) for j in jobs], chunksize=1))
    else:
        for j in jobs:
            _write_chunk_job((str(tmp), *j))
    os.replace(tmp, out)
    marker.touch()
    return str(out)


def _write_chunk_job(args) -> None:
    tmp, family, chunk, n, base = args
    table = _family_chunk(family, chunk, n, base)
    pq.write_table(
        table, pathlib.Path(tmp) / f"{family}-{chunk:05d}.parquet", compression="zstd"
    )


# target bytes per read task: smaller explodes the task count on corpora
# of many files, larger starves pipelining and inflates per-task memory
READ_BLOCK_BYTES = 256 << 20


def read_parquet_bundled(
    path: str | list[str], columns: list[str] | None = None, **read_kwargs
):
    """read_parquet with small files bundled into ~CPU-sized blocks.

    Ray's default is one block per file; a corpus of many small files
    then pays per-task read overhead ~5x the actual parquet decode
    (measured: 2.1 GB in 177 files reads in 2.8 s default vs 0.6 s
    bundled at 32 CPUs). Blocks = max(2x CPUs for pipelining,
    bytes/256 MB so a block stays object-store friendly).

    `path` may be a list of files/directories (sized together as one
    read); extra kwargs (e.g. include_paths=True) pass through to
    ray.data.read_parquet.
    """
    import ray
    import ray.data as rd

    paths = path if isinstance(path, list) else [path]
    files: list[pathlib.Path] = []
    for one in paths:
        p = pathlib.Path(one)
        files += [p] if p.is_file() else sorted(p.glob("**/*.parquet"))
    nbytes = sum(f.stat().st_size for f in files)
    cpus = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    blocks = max(2 * cpus, -(-nbytes // READ_BLOCK_BYTES))
    return rd.read_parquet(
        path,
        file_extensions=["parquet"],
        columns=columns,
        override_num_blocks=blocks,
        **read_kwargs,
    )


def read_tokens_dataset(scale: float = 1.0, base_dir: str | None = None):
    """Ray Dataset over the cached parquet corpus."""
    path = ensure_tokens_parquet(scale, base_dir)
    return read_parquet_bundled(path)
