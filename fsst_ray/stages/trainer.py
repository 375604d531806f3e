"""Pass 1: per-source sampling, token mass and symbol-table training.

The reference trains one table per corpus from a <=16 KiB pseudo-random
sample (make_sample, reference src/builder.rs:535-584). Here every
source trains its own table on its lowest-priority row chunks
(priority = stable hash of doc_id), up to the FSST_SAMPLEMAX byte
budget. One rule cuts each row's chunk (`sample_spans`), one rule
applies the budget (`_budget_prefix`), and one per-source step trains
(`train_source_group`, run in the driver: the C trainer takes a few
milliseconds per source, less than a Ray task costs to schedule).

Every block emits its sources' token mass and the budget prefix of its
own candidates; the driver folds that stream and keeps only each
source's running prefix. Because prefix(A + B) == prefix(prefix(A) + B)
(a candidate inside the global prefix has block-cumulative bytes <= its
global-cumulative bytes), the sample is the global prefix under any
split of rows into blocks, and the driver holds O(sources x 32 KiB).

Two reads can feed the fold; `train_states` picks one by on-disk size:
- scan: one read of the whole input, which cuts the chunks block-side;
- pruned (parquet inputs of at least PRUNED_PASS1_MIN_BYTES): a
  projected (doc_id, n_tok, source) read applies the same rules without
  token bytes, then a doc_id-filtered read fetches only the kept rows.
Both give bit-identical states and mass.
"""

from __future__ import annotations

import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.fsst_codec import train_with_ratio
from ..keyed import group_sizes, group_starts, sum_by
from ..kernel.fsst import FSST_SAMPLELINE, FSST_SAMPLEMAX, fsst_hash
from .serialize import tokens_views

# below this on-disk size, one full scan is cheaper than the pruned two
# reads (the sampled docs would touch ~every row group of a small corpus)
PRUNED_PASS1_MIN_BYTES = 4 << 30


def _corpus_bytes(input_path: str) -> int:
    p = pathlib.Path(input_path)
    if p.is_file():
        return p.stat().st_size
    return sum(f.stat().st_size for f in p.glob("**/*.parquet"))


def _doc_priorities(doc_ids: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Stable u64 priority per doc_id (vectorized via polars hash)."""
    import polars as pl

    s = pl.from_arrow(doc_ids if not isinstance(doc_ids, pa.ChunkedArray) else doc_ids.combine_chunks())
    return s.hash(seed=4637947).to_numpy().astype(np.uint64)


def sample_spans(n_tok: np.ndarray, priority: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sample chunk as (byte offset in the row, byte length):
    chunk number fsst_hash(priority) of the row's FSST_SAMPLELINE-byte
    chunks, as make_sample cuts a line. A pure function of (n_tok,
    priority), so the pruned read applies it without token bytes.
    Empty rows get length 0."""
    row_len = 4 * n_tok.astype(np.int64)
    n_chunks = np.maximum(1 + (row_len - 1) // FSST_SAMPLELINE, 1)
    lo = FSST_SAMPLELINE * (fsst_hash(priority) % n_chunks.astype(np.uint64)).astype(np.int64)
    return lo, np.minimum(FSST_SAMPLELINE, row_len - lo)


def _budget_prefix(codes: np.ndarray, priority: np.ndarray, size: np.ndarray) -> np.ndarray:
    """Indices of each source's candidates (`codes` numbers the
    sources) in ascending priority, kept while the source's bytes
    before them are below FSST_SAMPLEMAX."""
    if len(codes) == 0:
        return np.zeros(0, np.int64)
    order = np.lexsort((priority, codes))
    codes, size = codes[order], size[order]
    before = np.cumsum(size) - size
    starts = group_starts(codes)
    before -= np.repeat(before[starts], group_sizes(starts, len(codes)))
    return order[before < FSST_SAMPLEMAX]


def _source_codes(source: pa.ChunkedArray | pa.Array) -> tuple[pa.Array, np.ndarray]:
    """(names, codes): the distinct source names in sorted order, and
    each row's index into them. One dictionary encode numbers the rows;
    only the few distinct names are sorted."""
    if isinstance(source, pa.ChunkedArray):
        source = source.combine_chunks()
    enc = pc.dictionary_encode(source.cast(pa.string()))
    order = pc.array_sort_indices(enc.dictionary).to_numpy()
    rank = np.empty(len(order), np.int64)
    rank[order] = np.arange(len(order))
    return enc.dictionary.take(order), rank[enc.indices.to_numpy()]


def _block(batch: pa.Table, n_tok: np.ndarray):
    """One block's mass rows (one per source) followed by its budget
    prefix of sample rows, without a payload column; plus the kept
    rows' indices and chunk spans."""
    priority = _doc_priorities(batch["doc_id"])
    names, inv = _source_codes(batch["source"])
    lo, size = sample_spans(n_tok, priority)
    rows = np.flatnonzero(size)
    keep = rows[_budget_prefix(inv[rows], priority[rows], size[rows])]
    mass = sum_by(inv, n_tok, len(names))
    m, zeros = len(names), np.zeros(len(keep), np.int64)
    head = pa.table(
        {
            "source": pa.concat_arrays([names, names.take(inv[keep])]),
            "priority": np.concatenate([np.zeros(m, np.uint64), priority[keep]]),
            "is_mass": np.arange(m + len(keep)) < m,
            "mass": np.concatenate([mass, zeros]),
            "rows": np.concatenate([np.bincount(inv, minlength=m).astype(np.int64), zeros]),
        }
    )
    return head, keep, lo[keep], size[keep]


def sample_and_mass_batch(batch: pa.Table) -> pa.Table:
    """Per-source token-mass rows plus the block's sample-chunk rows."""
    values, offsets = tokens_views(batch)
    head, keep, lo, size = _block(batch, np.diff(offsets))
    raw = values.astype("<i4", copy=False).view(np.uint8)
    starts = 4 * offsets[keep] + lo
    chunks = [b""] * (head.num_rows - len(keep))
    chunks += [raw[a : a + n].tobytes() for a, n in zip(starts, size)]
    return head.add_column(3, "chunk", pa.array(chunks, pa.large_binary()))


def _doc_candidates_batch(batch: pa.Table) -> pa.Table:
    """sample_and_mass_batch on the (doc_id, n_tok, source) projection:
    sample rows carry their doc_id and chunk length, not chunk bytes."""
    n_tok = batch["n_tok"].to_numpy(zero_copy_only=False).astype(np.int64)
    head, keep, _, size = _block(batch, n_tok)
    pad = head.num_rows - len(keep)
    doc_ids = batch["doc_id"].combine_chunks().take(pa.array(keep, pa.int64()))
    return head.append_column(
        "doc_id", pa.concat_arrays([pa.nulls(pad, pa.string()), doc_ids.cast(pa.string())])
    ).append_column("chunk_len", pa.array(np.r_[np.zeros(pad, np.int64), size]))


def _sizes(samples: pa.Table) -> np.ndarray:
    if "chunk_len" in samples.column_names:
        return samples["chunk_len"].to_numpy()
    return pc.binary_length(samples["chunk"]).to_numpy()


def _keep_budget(samples: pa.Table) -> pa.Table:
    codes = _source_codes(samples["source"])[1]
    return samples.take(_budget_prefix(codes, samples["priority"].to_numpy(), _sizes(samples)))


def _fold(blocks) -> tuple[dict[str, dict], pa.Table | None]:
    """Driver reduce of a candidate stream: per-source mass, and the
    sample rows of each source's running budget prefix."""
    mass: dict[str, dict] = {}
    kept = None
    for t in blocks:
        head = t.filter(t["is_mass"])
        for s, n, r in zip(*(head[c].to_pylist() for c in ("source", "mass", "rows"))):
            m = mass.setdefault(s, {"tokens": 0, "rows": 0})
            m["tokens"] += n
            m["rows"] += r
        samples = t.filter(pc.invert(t["is_mass"]))
        kept = _keep_budget(samples if kept is None else pa.concat_tables([kept, samples]))
    return dict(sorted(mass.items())), kept


def train_source_group(group: pa.Table) -> pa.Table:
    """Reduce one source's sample+mass rows to (source, state, mass, rows)."""
    samples = _keep_budget(group.filter(pc.invert(group["is_mass"])))
    state = train_with_ratio(samples["chunk"].to_pylist())
    return pa.table(
        {
            "source": pa.array([group["source"][0].as_py()], type=pa.string()),
            "state": pa.array([state["fsst"]], type=pa.large_binary()),
            "ratio": pa.array([state["ratio"]], type=pa.float64()),
            "mass": pa.array([pc.sum(group["mass"]).as_py() or 0], type=pa.int64()),
            "rows": pa.array([pc.sum(group["rows"]).as_py() or 0], type=pa.int64()),
        }
    )


def _group(source: str, mass: dict, kept: pa.Table | None) -> pa.Table:
    """train_source_group's input for one source of a fold."""
    head = pa.table(
        {
            "source": pa.array([source], pa.string()),
            "priority": pa.array([0], pa.uint64()),
            "is_mass": [True],
            "chunk": pa.array([b""], pa.large_binary()),
            "mass": pa.array([mass["tokens"]], pa.int64()),
            "rows": pa.array([mass["rows"]], pa.int64()),
        }
    )
    if kept is None:
        return head
    return pa.concat_tables([head, kept.filter(pc.equal(kept["source"], source))])


def train_states(ds, input_path: str | None = None, base_states: dict | None = None):
    """Run pass 1 over `ds` (read from `input_path`, when given).
    Returns ({source: {"fsst", "ratio"}}, {source: {"tokens", "rows"}},
    {"route": "scan" | "pruned", "sources_trained": [...]}). Sources in
    `base_states` keep that state; only the others are trained."""
    import ray.data as rd

    base_states = base_states or {}
    pruned = input_path is not None and _corpus_bytes(input_path) >= PRUNED_PASS1_MIN_BYTES
    if pruned:
        ds = rd.read_parquet(
            input_path, columns=["doc_id", "n_tok", "source"], file_extensions=["parquet"]
        )
    fn = _doc_candidates_batch if pruned else sample_and_mass_batch
    blocks = ds.map_batches(fn, batch_format="pyarrow", batch_size=None)
    mass, kept = _fold(blocks.iter_batches(batch_format="pyarrow", batch_size=None))
    train = [s for s in mass if s not in base_states]
    if pruned and train:
        # swap the kept doc_ids for their chunks: a prefix of the
        # fetched rows is all of them, so the second fold keeps them all
        wanted = kept.filter(pc.is_in(kept["source"], pa.array(train, pa.string())))["doc_id"]
        fetched = rd.read_parquet(
            input_path,
            columns=["doc_id", "tokens", "source"],
            filter=pc.field("doc_id").isin(wanted.combine_chunks()),
            file_extensions=["parquet"],
        ).map_batches(sample_and_mass_batch, batch_format="pyarrow", batch_size=None)
        kept = _fold(fetched.iter_batches(batch_format="pyarrow", batch_size=None))[1]
    states = {s: base_states.get(s) for s in mass}
    for s in train:
        r = train_source_group(_group(s, mass[s], kept))
        states[s] = {"fsst": r["state"][0].as_py(), "ratio": r["ratio"][0].as_py()}
    return states, mass, {"route": "pruned" if pruned else "scan", "sources_trained": train}
