"""Pass 1: the one scan of the input. It samples, counts token mass,
stages every row for pass 2, and trains the symbol tables.

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

The same map (`scan_batch`, one Ray Data job per encode) also writes
each block once under the encode's staging directory, as an lz4 Arrow
IPC file with rows sorted by (source, doc-id hash `h`), and returns one
index row per record batch. Bucket b of a source's n buckets is the
hash range cut by `encoder.hash_bucket`, so any bucket plan chosen after
the scan is a contiguous slice of every block file.
"""

from __future__ import annotations

import os
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..codecs.fsst_codec import train_with_ratio
from ..keyed import group_sizes, group_starts, sum_by
from ..kernel import native
from ..kernel.fsst import FSST_SAMPLELINE, FSST_SAMPLEMAX, fsst_hash
from .serialize import tokens_views

# a staged record batch holds one source's rows, at most this many rows
# and about this many token bytes, so a bucket's slice of a block file
# decompresses at most two partial batches beyond its own rows
STAGE_BATCH_ROWS = 1 << 14
STAGE_BATCH_BYTES = 1 << 18

# sample_and_mass_batch's columns
SAMPLE_COLUMNS = ["source", "priority", "is_mass", "chunk", "mass", "rows"]

# scan_batch's index rows, one per staged record batch
INDEX_SCHEMA = pa.schema(
    [
        ("source", pa.string()),
        ("rows", pa.int64()),
        ("path", pa.string()),
        ("batch", pa.int64()),
        ("h_lo", pa.uint64()),
        ("h_hi", pa.uint64()),
        ("nbytes", pa.int64()),
    ]
)


def _doc_priorities(doc_ids: pa.ChunkedArray | pa.Array) -> np.ndarray:
    """Stable u64 priority per doc_id (vectorized via polars hash)."""
    import polars as pl

    s = pl.from_arrow(doc_ids if not isinstance(doc_ids, pa.ChunkedArray) else doc_ids.combine_chunks())
    return s.hash(seed=4637947).to_numpy().astype(np.uint64)


def sample_spans(n_tok: np.ndarray, priority: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's sample chunk as (byte offset in the row, byte length):
    chunk number fsst_hash(priority) of the row's FSST_SAMPLELINE-byte
    chunks, as make_sample cuts a line. A pure function of (n_tok,
    priority). Empty rows get length 0."""
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


def _candidates(batch: pa.Table, values, offsets, names: pa.Array, inv: np.ndarray) -> pa.Table:
    """One block's mass rows (one per source) followed by its budget
    prefix of sample rows; `names` and `inv` number its sources."""
    n_tok = np.diff(offsets)
    priority = _doc_priorities(batch["doc_id"])
    lo, size = sample_spans(n_tok, priority)
    rows = np.flatnonzero(size)
    keep = rows[_budget_prefix(inv[rows], priority[rows], size[rows])]
    m, zeros = len(names), np.zeros(len(keep), np.int64)
    raw = values.astype("<i4", copy=False).view(np.uint8)
    starts = 4 * offsets[keep] + lo[keep]
    chunks = [b""] * m + [raw[a : a + n].tobytes() for a, n in zip(starts, size[keep])]
    return pa.table(
        {
            "source": pa.concat_arrays([names, names.take(inv[keep])]),
            "priority": np.concatenate([np.zeros(m, np.uint64), priority[keep]]),
            "is_mass": np.arange(m + len(keep)) < m,
            "chunk": pa.array(chunks, pa.large_binary()),
            "mass": np.concatenate([sum_by(inv, n_tok, m), zeros]),
            "rows": np.concatenate([np.bincount(inv, minlength=m).astype(np.int64), zeros]),
        }
    )


def sample_and_mass_batch(batch: pa.Table) -> pa.Table:
    """Per-source token-mass rows plus the block's sample-chunk rows."""
    values, offsets = tokens_views(batch)
    return _candidates(batch, values, offsets, *_source_codes(batch["source"]))


def _batch_cuts(inv: np.ndarray, row_bytes: np.ndarray) -> list[tuple[int, int]]:
    """(first, end) rows of each staged record batch over rows sorted by
    source code `inv`: cut at every source boundary, at
    STAGE_BATCH_ROWS rows and once STAGE_BATCH_BYTES would be passed
    (a larger row is a batch of its own)."""
    cum = np.concatenate([[0], np.cumsum(row_bytes)])
    starts = group_starts(inv).tolist()
    cuts = []
    for lo, hi in zip(starts, starts[1:] + [len(inv)]):
        while lo < hi:
            fit = int(np.searchsorted(cum, cum[lo] + STAGE_BATCH_BYTES, "right")) - 1
            end = max(lo + 1, min(lo + STAGE_BATCH_ROWS, fit, hi))
            cuts.append((lo, end))
            lo = end
    return cuts


def _stage_block(batch: pa.Table, n_tok: np.ndarray, names: pa.Array, inv: np.ndarray, staging: str) -> pa.Table:
    """Write the block once, rows sorted by (source, h) with `h` as
    column "_h", as one lz4 Arrow IPC file under `staging`; returns its
    index rows, one per record batch: source, rows, path, batch, first
    and last h, and on-disk bytes.

    The file is named by its content (the sum of its hashes and its row
    count) and written tmp+rename, so a retried task rewrites the same
    file. lz4 IPC: at 4 CPUs on a 1.73B-token corpus it staged
    1.85 B/token in 41 s where uncompressed parquet took 2.5 B/token
    and 76 s, and it reads back faster."""
    h = native.doc_hash64(batch["doc_id"])
    order = np.lexsort((h, inv))
    h, inv = h[order], inv[order]
    rows = batch.take(pa.array(order)).append_column("_h", pa.array(h)).combine_chunks()
    cuts = _batch_cuts(inv, 4 * n_tok[order])
    path = pathlib.Path(staging) / f"{int(h.sum(dtype=np.uint64)):016x}-{len(h)}.arrow"
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    nbytes = []
    record = rows.to_batches()[0]
    options = pa.ipc.IpcWriteOptions(compression="lz4")
    with pa.OSFile(str(tmp), "wb") as sink, pa.ipc.new_file(sink, rows.schema, options=options) as w:
        for lo, end in cuts:
            at = sink.tell()
            w.write_batch(record.slice(lo, end - lo))
            nbytes.append(sink.tell() - at)
    os.replace(tmp, path)
    first, end = (np.array(c, np.int64) for c in zip(*cuts))
    return pa.table(
        {
            "source": names.take(inv[first]),
            "rows": end - first,
            "path": [str(path)] * len(cuts),
            "batch": np.arange(len(cuts)),
            "h_lo": h[first],
            "h_hi": h[end - 1],
            "nbytes": nbytes,
        },
        schema=INDEX_SCHEMA,
    )


def scan_batch(batch: pa.Table, *, staging: str | None = None, fault_dir: str | None = None) -> pa.Table:
    """The map of pass 1: sample_and_mass_batch's rows and, when
    `staging` is given, the block staged there (`_stage_block`) and its
    index rows (INDEX_SCHEMA; null on the other rows, as the sample
    columns are on them)."""
    values, offsets = tokens_views(batch)
    names, inv = _source_codes(batch["source"])
    out = _candidates(batch, values, offsets, names, inv)
    if staging is None:
        return out
    index = _stage_block(batch, np.diff(offsets), names, inv, staging)
    # fault injection (tests only): once the block is staged, kill this
    # worker once; Ray reruns the task, which rewrites the same file
    if fault_dir:
        try:
            (pathlib.Path(fault_dir) / "route_killed").touch(exist_ok=False)
            os._exit(1)  # simulated worker death (not an exception)
        except FileExistsError:
            pass
    return pa.concat_tables([out, index], promote_options="default")


def _keep_budget(samples: pa.Table) -> pa.Table:
    codes = _source_codes(samples["source"])[1]
    sizes = pc.binary_length(samples["chunk"]).to_numpy()
    return samples.take(_budget_prefix(codes, samples["priority"].to_numpy(), sizes))


def _fold(blocks, index: list | None = None) -> tuple[dict[str, dict], pa.Table | None]:
    """Driver reduce of a candidate stream: per-source mass, and the
    sample rows of each source's running budget prefix. Index rows
    (scan_batch's, with a path) go to `index` when given."""
    mass: dict[str, dict] = {}
    kept = None
    for t in blocks:
        if t.num_rows == 0:
            continue  # Ray Data passes an empty block on without the map
        if "path" in t.column_names:
            staged = pc.is_valid(t["path"])
            if index is not None:
                index.append(t.filter(staged).select(INDEX_SCHEMA.names))
            t = t.filter(pc.invert(staged)).select(SAMPLE_COLUMNS)
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


def scan(ds, staging: str | None = None, fault_dir: str | None = None):
    """Pass 1's one Ray Data job over `ds` and the driver fold. Returns
    ({source: {"tokens", "rows"}}, the kept sample rows, and the index
    rows (INDEX_SCHEMA) of the block files staged under `staging`, none
    when it is not given)."""
    blocks = ds.map_batches(
        scan_batch,
        batch_format="pyarrow",
        batch_size=None,
        fn_kwargs={"staging": staging, "fault_dir": fault_dir},
    )
    index: list[pa.Table] = []
    mass, kept = _fold(blocks.iter_batches(batch_format="pyarrow", batch_size=None), index)
    return mass, kept, pa.concat_tables([INDEX_SCHEMA.empty_table(), *index])


def train_sources(mass: dict, kept: pa.Table | None, base_states: dict | None = None):
    """A state for every source of `mass`: a source in `base_states`
    keeps that state, the others train on their kept sample rows.
    Returns ({source: {"fsst", "ratio"}}, the sources trained)."""
    base_states = base_states or {}
    train = [s for s in mass if s not in base_states]
    states = {s: base_states.get(s) for s in mass}
    for s in train:
        r = train_source_group(_group(s, mass[s], kept))
        states[s] = {"fsst": r["state"][0].as_py(), "ratio": r["ratio"][0].as_py()}
    return states, train


def train_states(ds, base_states: dict | None = None):
    """Pass 1 over `ds` without staging. Returns ({source: {"fsst",
    "ratio"}}, {source: {"tokens", "rows"}}, {"route": "scan",
    "sources_trained": [...]})."""
    mass, kept, _ = scan(ds)
    states, train = train_sources(mass, kept, base_states)
    return states, mass, {"route": "scan", "sources_trained": train}
