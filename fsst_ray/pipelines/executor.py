"""Where per-file corpus work runs: in the driver or as Ray tasks.

Every corpus job that fans out over files -- both phases of a
selective read, the per-source and per-generation decodes, purge,
compaction and pass 2's per-bucket encode of staged slices -- maps
one plain module-level function over its files here. Extra arguments
are passed as keyword arguments, never captured. When the files total
at most a byte bound on disk (one `os.stat` each), the driver calls the
function on each file in turn and no Ray job starts, so a small job
costs its compute, not Ray's fixed cost per job. Above the bound, one
Ray task runs per file: `map_files` runs them at once and returns their
results, `map_files_to_dataset` returns a lazy Ray Data map that streams
them. The function, its arguments and its results are the same either
way: callers never branch on the executor, they only record it.

The full-corpus scan (`decode_job.decode_dataset`) and the map side
of an encode (pass 1's `trainer.scan_batch`, which also stages the
input) stay Ray Data maps over the input: in the driver they would hold
the whole corpus in one process.
"""

from __future__ import annotations

import functools
import os

import pyarrow as pa

# Both bounds follow one rule, from tools/executor_crossover.py
# (EXECUTOR_CROSSOVER.json: 16M-token buckets, Ray local mode on a
# 4-core VM). Each job ran with warm Ray workers and with cold ones (a
# fresh Ray instance, as the first job of a CLI command meets them).
# Take the job of its kind that gains most from Ray, at 4 CPUs with
# cold workers. The crossover is the size at which that job stops
# running faster in the driver. The bound is the largest power of two
# at most half of it: more CPUs speed up only the Ray side. Below the
# bound the driver gives up at most about one worker start-up to warm
# workers. At 1 CPU the driver won every read and every rewrite below
# 10 MiB, and Ray tasks ran no rewrite more than 15 % faster above it.
# 32 CPUs were not measured.

# Reads (selective, per-source and per-generation decodes). A range
# over every n_tok decodes every chunk, the driver's worst case. Cold,
# it took 2.61 s in the driver against 3.04 s on Ray at 89.5 MiB, and
# 6.10 against 4.78 s at 302 MiB, so it crosses near 140 MiB. Warm,
# Ray won from between 30 and 90 MiB. Point lookups ran faster in the
# driver at every size up to 302 MiB, warm or cold. A driver-side read
# still builds its Dataset on Ray, so cold workers cost both sides.
_DRIVER_READ_BYTES = 64 << 20

# Rewrites (purge, compaction and pass 2's bucket encodes). Purge
# crosses first. Measured when it decoded, filtered and re-encoded
# every chunk of each zone-hit file: cold, it took 0.82 s in the driver
# against 0.93 s on Ray at 29.7 MiB, and 3.23 against 1.81 s at
# 89.5 MiB, so it crossed near 34 MiB. Purge now re-encodes only the
# chunks that hold a dead row and copies the rest; the crossover was
# not re-measured since. Compaction only concatenates chunk rows and crosses
# near 220 MiB cold (0.55 against 1.00 s at 98 MiB, 1.37 against
# 1.05 s at 311 MiB). Warm Ray tasks tied or beat the driver on both
# jobs at every size from 0.1 MiB up. Pass 2's bucket encodes, timed as
# whole appends and sized by their staged input, cross near 74 MiB
# cold (3.24 s in the driver against 5.14 s on Ray at 28.5 MiB, 6.83
# against 6.22 s at 85.1 MiB); alone they would give 32 MiB, but purge
# crosses first, so they share this bound.
_DRIVER_REWRITE_BYTES = 16 << 20


def _nbytes(files) -> int:
    """On-disk bytes of one call's input: a chunk-file path, or the
    list of paths a compaction merge group reads."""
    if isinstance(files, (list, tuple)):
        return sum(os.stat(f).st_size for f in files)
    return os.stat(files).st_size


def _plan(files, bound: int, sizes=None) -> dict:
    """The one driver-or-Ray rule: how a job over `files` runs
    ({"executor": "driver"|"ray", "bytes_read": on-disk bytes}), each
    call sized by `sizes` when given, else by its files on disk."""
    nbytes = sum(sizes) if sizes is not None else sum(_nbytes(f) for f in files)
    return {"executor": "driver" if nbytes <= bound else "ray", "bytes_read": nbytes}


@functools.lru_cache(maxsize=None)
def _task(fn):
    """`fn` as a Ray task, built and exported once per function."""
    import ray

    return ray.remote(num_cpus=1)(fn)


def map_files(fn, files, each=None, *, rewrite=False, sizes=None, **kwargs) -> tuple[list, dict]:
    """`[fn(files[i], **each[i], **kwargs) for i ...]` and how it ran
    ({"executor": "driver"|"ray", "bytes_read": on-disk bytes}).
    `each` holds per-file keyword arguments (default: none); `rewrite`
    jobs (purge, compaction, bucket encodes) use the rewrite bound.
    `sizes` gives each call's bytes when it reads only part of its
    files (a bucket encode reads some record batches of each)."""
    run = _plan(files, _DRIVER_REWRITE_BYTES if rewrite else _DRIVER_READ_BYTES, sizes)
    each = [{}] * len(files) if each is None else each
    if run["executor"] == "driver":
        return [fn(f, **e, **kwargs) for f, e in zip(files, each)], run
    import ray

    # one object-store copy of each shared argument, not one per task
    shared = {k: ray.put(v) for k, v in kwargs.items()}
    task = _task(fn)
    return ray.get([task.remote(f, **e, **shared) for f, e in zip(files, each)]), run


def _call_on_path(batch: pa.Table, fn, kwargs) -> pa.Table:
    """One Ray Data batch holds one file's path: `fn` of that path."""
    return fn(batch["path"][0].as_py(), **kwargs)


def map_files_to_dataset(fn, files, empty: pa.Table, **kwargs):
    """A Dataset of the Arrow tables `fn(path, **kwargs)` returns per
    file (`empty` fixes the schema when there are none) and how it ran.
    At or below the read bound the driver concatenates the tables into
    one block. Above it the Dataset is a lazy Ray Data map of `fn` over
    the paths, one block per file: nothing runs until it is consumed,
    and Ray Data's backpressure bounds the decoded blocks in flight, so
    neither the driver nor the object store holds every file at once."""
    import ray.data as rd

    run = _plan(files, _DRIVER_READ_BYTES)
    if run["executor"] == "driver":
        tables = [fn(f, **kwargs) for f in files]
        return rd.from_arrow(pa.concat_tables([empty, *tables])), run
    paths = rd.from_items([{"path": f} for f in files], override_num_blocks=len(files))
    rows = paths.map_batches(
        _call_on_path,
        batch_size=1,
        batch_format="pyarrow",
        fn_kwargs={"fn": fn, "kwargs": kwargs},
    )
    return rows, run
