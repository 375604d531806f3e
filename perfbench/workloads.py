"""The three workloads. Each runs against the engine's public API on a
corpus made from `--seed`, checks every output against the generator's
rows, and returns its samples.

Set-up is the same for all three: start Ray, write the corpus, then
ingest it (encode, then decode with checksum verification) three times
into fresh directories, keeping the last. The first ingest pays the
cold start of Ray's worker processes, so the median ingest is the warm
one; set-up time is the Ray start, the corpus write and the median
ingest. point_lookup and churn run against the kept corpus; bulk_encode
repeats the ingest in its timed loop.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from . import cluster, corpus

SCALE = 10.0  # ~17.3M tokens: the engine's own sizing note for one core
SETUP_INGESTS = 3
# full decodes per timed ingest or churn cycle: a read takes ~0.4 s, so
# one sample per operation is too few for a steady median
READS = 3
LOOKUP_IDS = 4  # ids per decode_select request, drawn from one source
CHURN_APPEND_SCALE = 0.5  # appended rows per cycle, in corpus scale units
CHURN_DELETES = 200
_MASK64 = (1 << 64) - 1


def checksum(tables) -> dict:
    """The engine's order-insensitive content checksum (checksum_batch),
    taken in this process over generator tables."""
    from fsst_ray.stages.decoder import checksum_batch

    rows = tokens = total = 0
    for t in tables:
        if t.num_rows:
            part = checksum_batch(t).to_pylist()[0]
            rows += part["rows"]
            tokens += part["tokens"]
            total = (total + part["checksum"]) & _MASK64
    return {"rows": rows, "tokens": tokens, "checksum": total}


def minus(a: dict, b: dict) -> dict:
    return {
        "rows": a["rows"] - b["rows"],
        "tokens": a["tokens"] - b["tokens"],
        "checksum": (a["checksum"] - b["checksum"]) & _MASK64,
    }


def plus(a: dict, b: dict) -> dict:
    return minus(a, {k: -v for k, v in b.items()})


@dataclasses.dataclass
class Outcome:
    """Samples of one run. An operation counts once in `attempted`, and
    once in `failed` if it raised or any of its checks failed."""

    attempted: int = 0
    failed: int = 0
    op_s: list = dataclasses.field(default_factory=list)
    write: list = dataclasses.field(default_factory=list)  # (tokens, seconds)
    read: list = dataclasses.field(default_factory=list)  # (tokens, seconds)
    bytes_per_token: list = dataclasses.field(default_factory=list)
    info: dict = dataclasses.field(default_factory=dict)

    def op(self, name: str, fn, *args):
        """Run one operation; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as e:
            print(f"check failed in {name}: {e}", file=sys.stderr)
        except Exception:
            print(f"{name} raised:\n{traceback.format_exc()}", file=sys.stderr)
        self.failed += 1
        return None


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def mtok_s(pairs) -> float:
    """Median per-call throughput in Mtok/s."""
    return statistics.median(tok / s for tok, s in pairs) / 1e6


class Corpus:
    """The generator's rows and an id -> row index, for checks."""

    def __init__(self, seed: int, scale: float, work):
        self.tables = corpus.corpus_tables(seed, scale)
        self.path = corpus.write_corpus(self.tables, work / "input")
        self.table = pa.concat_tables(self.tables)
        self.ids = self.table["doc_id"].to_numpy(zero_copy_only=False)
        self.sources = self.table["source"].to_numpy(zero_copy_only=False)
        self.checksum = checksum(self.tables)
        self._pos = {d: i for i, d in enumerate(self.ids)}

    def rows(self, ids) -> pa.Table:
        return self.table.take(pa.array([self._pos[d] for d in ids], pa.int64()))


def collect(ds) -> pa.Table:
    """A Dataset's rows as one Arrow table (no per-value Python objects)."""
    import ray

    blocks = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows]
    return pa.concat_tables(blocks) if blocks else corpus.SCHEMA.empty_table()


def tokens_equal(got: pa.Table, want: pa.Table) -> bool:
    """Same rows (any order), token for token."""
    if got.num_rows != want.num_rows:
        return False
    g = got.sort_by("doc_id").select(["doc_id", "tokens", "n_tok", "source"])
    w = want.sort_by("doc_id").select(["doc_id", "tokens", "n_tok", "source"])
    return g.cast(w.schema).equals(w)


def verified_reads(out_dir: str, want: dict, reads: int) -> list[float]:
    """decode_dataset + dataset_checksum, `reads` times; each must match."""
    import fsst_ray
    from fsst_ray.stages.decoder import dataset_checksum

    seconds = []
    for _ in range(reads):
        t0 = time.perf_counter()
        got = dataset_checksum(fsst_ray.decode_dataset(out_dir))
        seconds.append(time.perf_counter() - t0)
        expect(got == want, f"decoded checksum {got} != expected {want}")
    return seconds


def ingest(out_dir: str, input_path: str, want: dict, outcome: Outcome, reads: int):
    """encode_dataset, then decode_dataset + dataset_checksum (`reads`
    times); checks the decoded checksum and the manifest's token count
    against the input. One sample is the encode plus the first read."""
    import fsst_ray
    from fsst_ray.sources.tokens import read_parquet_bundled

    t0 = time.perf_counter()
    result = fsst_ray.encode_dataset(
        read_parquet_bundled(input_path), out_dir, input_path=input_path
    )
    t1 = time.perf_counter()
    expect(result.metrics["tokens"] == want["tokens"], "manifest tokens != input tokens")
    read_s = verified_reads(out_dir, want, reads)
    outcome.op_s.append(t1 - t0 + read_s[0])
    outcome.write.append((want["tokens"], t1 - t0))
    outcome.read.extend((want["tokens"], s) for s in read_s)
    outcome.bytes_per_token.append(result.metrics["bytes_out"] / result.metrics["tokens"])
    outcome.info.setdefault("encode_timings", []).append(result.metrics["timings"])
    return result


class Session:
    """Set-up shared by the workloads (see module docstring)."""

    def __init__(self, seed: int, work):
        self.seed, self.work = seed, work
        t0 = time.perf_counter()
        self.cluster = cluster.Cluster()
        t1 = time.perf_counter()
        try:
            self._set_up(t0, t1)
        except BaseException:
            self.cluster.close()
            raise

    def _set_up(self, t0: float, t1: float):
        seed, work = self.seed, self.work
        self.corpus = Corpus(seed, SCALE, work)
        t2 = time.perf_counter()
        self.setup = Outcome()
        ingests = []
        for i in range(SETUP_INGESTS):
            out = work / f"base{i}"
            s = time.perf_counter()
            done = self.setup.op(
                "setup ingest", ingest, str(out), str(self.corpus.path), self.corpus.checksum, self.setup, 1
            )
            ingests.append(time.perf_counter() - s)
            if done is None:
                raise SystemExit("set-up ingest failed")
            self.result = done
            if i + 1 < SETUP_INGESTS:
                shutil.rmtree(out)
        self.base = str(out)
        self.setup_s = (t1 - t0) + (t2 - t1) + statistics.median(ingests)
        self.info = {
            "ray_start_s": t1 - t0,
            "corpus_write_s": t2 - t1,
            "setup_ingest_s": ingests,
            "corpus_rows": self.corpus.checksum["rows"],
            "corpus_tokens": self.corpus.checksum["tokens"],
            "corpus_parquet_bytes": cluster.dir_bytes(self.corpus.path),
            "encoded_bytes": self.result.metrics["bytes_out"],
            "encoded_parts": self.result.metrics["parts"],
            "encoded_chunks": self.result.metrics["chunks"],
            "chunk_codecs": self.result.metrics["codecs"],
        }

    def close(self) -> list[int]:
        return self.cluster.close()


def bulk_encode(s: Session, seconds: float) -> Outcome:
    """Repeat the full two-pass encode plus a verified full decode."""
    o = Outcome()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < 2:
        out = s.work / f"bulk{i}"
        o.op("bulk ingest", ingest, str(out), str(s.corpus.path), s.corpus.checksum, o, READS)
        shutil.rmtree(out, ignore_errors=True)
        i += 1
    return o


# sources of one block of lookup requests: in proportion to row count,
# rounded, with every source at least once. Fixing the block keeps the
# request mix, and so the latency median, the same from seed to seed.
LOOKUP_BLOCK = (
    ["english"] * 4
    + ["highbyte", "smallrange", "random"] * 2
    + ["zeros", "constant", "empty", "cyclic-large"]
)


def lookup_requests(c: Corpus, rng: np.random.Generator):
    """Endless seeded requests: blocks of LOOKUP_BLOCK in seeded order;
    each request asks for LOOKUP_IDS ids of its source and, every other
    request, one id that sorts inside the source's id range but does not
    exist."""
    members = {s: np.flatnonzero(c.sources == s) for s in set(LOOKUP_BLOCK)}
    n = 0
    while True:
        for src in rng.permutation(LOOKUP_BLOCK):
            pick = rng.choice(members[src], size=LOOKUP_IDS, replace=False)
            present = [str(c.ids[i]) for i in pick]
            absent = [present[0] + "~"] if n % 2 else []
            n += 1
            yield present, absent


def select_checked(out_dir: str, c: Corpus, present, absent, stats: dict) -> float:
    import fsst_ray

    t0 = time.perf_counter()
    got = collect(fsst_ray.decode_select(out_dir, present + absent, stats=stats))
    elapsed = time.perf_counter() - t0
    expect(tokens_equal(got, c.rows(present)), "looked-up rows differ from the generator's")
    return elapsed


def point_lookup(s: Session, seconds: float) -> Outcome:
    """Closed loop, one client: decode_select of a few seeded ids. Runs
    whole blocks of LOOKUP_BLOCK, so every run has the same request mix."""
    o = Outcome()
    o.write = s.setup.write[1:]  # the first set-up encode pays the cold start
    o.read = s.setup.read
    o.bytes_per_token = s.setup.bytes_per_token
    o.info["encode_timings"] = s.setup.info["encode_timings"]
    o.info["select_stats"] = []
    rng = np.random.default_rng([s.seed, 1])
    requests = lookup_requests(s.corpus, rng)
    deadline = time.perf_counter() + seconds
    n = 0
    while time.perf_counter() < deadline or n % len(LOOKUP_BLOCK):
        present, absent = next(requests)
        stats: dict = {}
        elapsed = o.op("lookup", select_checked, s.base, s.corpus, present, absent, stats)
        if elapsed is not None:
            o.op_s.append(elapsed)
            o.info["select_stats"].append(stats)
        n += 1
    return o


def churn(s: Session, seconds: float) -> Outcome:
    """Repeat: append new rows, delete a seeded id set, select (deleted ids
    must not return), purge, compact, and verify a full decode against
    the expected live set. Works on a copy of the set-up corpus, so every
    call starts from the same state."""
    o = Outcome()
    rng = np.random.default_rng([s.seed, 2])
    out = s.work / "churn"
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(s.base, out)
    state = {"ck": s.corpus.checksum, "ids": list(s.corpus.ids), "rows": {"": s.corpus.table}}
    deadline = time.perf_counter() + seconds
    cycle = 0
    while time.perf_counter() < deadline or cycle < 2:
        o.op("churn cycle", churn_cycle, s, str(out), cycle, rng, state, o)
        cycle += 1
    o.info["cycles"] = cycle
    return o


def churn_cycle(s: Session, out: str, cycle: int, rng, state: dict, o: Outcome) -> None:
    import fsst_ray
    from fsst_ray.sources.tokens import read_parquet_bundled
    from fsst_ray.state import manifest as mf

    prefix = f"c{cycle:03d}-"
    new = corpus.corpus_tables(s.seed * 1009 + 1 + cycle, CHURN_APPEND_SCALE, id_prefix=prefix)
    new_path = str(corpus.write_corpus(new, s.work / f"append{cycle}"))
    new_ck = checksum(new)
    state["rows"][prefix] = pa.concat_tables(new)
    candidates = state["ids"] + state["rows"][prefix]["doc_id"].to_pylist()
    victims = sorted(str(v) for v in rng.choice(np.array(candidates), CHURN_DELETES, replace=False))
    want = minus(plus(state["ck"], new_ck), checksum([_rows_by_id(state["rows"], victims)]))
    dead = set(victims)
    probe = [str(v) for v in rng.choice(np.array(state["ids"]), 3, replace=False) if v not in dead]
    # the expected state moves on even if the engine fails this cycle
    state["ck"] = want
    state["ids"] = [d for d in candidates if d not in dead]
    cdir = mf.chunks_dir(out)
    steps, stats = {}, {}

    def step(name, fn, *args, **kw):
        t0 = time.perf_counter()
        result = fn(*args, **kw)
        steps[name] = time.perf_counter() - t0
        return result

    step("append", fsst_ray.append_dataset, read_parquet_bundled(new_path), out, input_path=new_path)
    step("delete", fsst_ray.delete_docs, out, victims)
    stats["tombstone_files"] = len(list((pathlib.Path(out) / "tombstones").glob("*.parquet")))
    got = step("select", lambda: collect(fsst_ray.decode_select(out, victims[:8] + probe, stats=stats)))
    files = _files(cdir)
    stats["purge"] = step("purge", fsst_ray.purge_deletes, out)
    purged = _files(cdir)
    stats["compact"] = step("compact", fsst_ray.compact_corpus, out)
    compacted = _files(cdir)
    read_s = verified_reads(out, want, READS)
    steps["verify"] = read_s[0]
    on_disk = cluster.dir_bytes(cdir)
    shutil.rmtree(new_path, ignore_errors=True)
    expect(not set(got["doc_id"].to_pylist()) & dead, "select returned a deleted id")
    expect(tokens_equal(got, _rows_by_id(state["rows"], probe)), "select after delete lost live rows")
    o.op_s.append(sum(steps.values()))
    o.write.append((new_ck["tokens"], steps["append"]))
    o.read.extend((want["tokens"], s) for s in read_s)
    o.bytes_per_token.append(on_disk / want["tokens"])
    stats["bytes"] = {
        "live": on_disk,
        "purge_written": _written(files, purged),
        "compact_written": _written(purged, compacted),
    }
    o.info.setdefault("steps", []).append(steps)
    o.info.setdefault("stats", []).append(stats)


def _files(cdir) -> dict:
    """name -> (size, mtime) of the chunk files."""
    return {f.name: (f.stat().st_size, f.stat().st_mtime_ns) for f in pathlib.Path(cdir).glob("*.parquet")}


def _written(before: dict, after: dict) -> int:
    """Bytes of the files that are new or rewritten in `after`."""
    return sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))


def _rows_by_id(tables: dict, ids) -> pa.Table:
    parts = []
    for t in tables.values():
        mask = pc.is_in(t["doc_id"], value_set=pa.array(ids, pa.string()))
        parts.append(t.filter(mask))
    return pa.concat_tables(parts)


WORKLOADS = {"bulk_encode": bulk_encode, "point_lookup": point_lookup, "churn": churn}
