"""Per-partition lineage manifests: the resume/checkpoint unit.

Layout under an encode output directory:
    out_dir/_plan.json              pass-1 result: codec states (b64),
                                    bucket plan, config, input lineage
    out_dir/manifest/<part>.json    one entry per encode bucket: status,
                                    counts, bytes, codec histogram, file
    out_dir/chunks/<part>.parquet   the encoded chunks (atomic rename)
    out_dir/append_plan_g<N>.json   append generation N's plan: states of
                                    the sources it trained, its buckets

Every chunk file is written by `write_chunk_file`, and every entry is
`entry_from_chunks` of its file's index columns, so an entry always
describes the bytes on disk, whichever job wrote them.

A rerun with resume=True re-scans the input, loads _plan.json instead of
training, and re-encodes only the missing buckets — idempotent because
bucket assignment is a pure function of (doc_id, plan) and files are
written via tmp+rename. Every plan records the routing rule its buckets
were cut by (ROUTING); a resume refuses a plan cut by another.
"""

from __future__ import annotations

import base64
import json
import os
import pathlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq


def sanitize_part(part_key: str) -> str:
    return "".join(c if (c.isalnum() or c in "-_.=") else "_" for c in part_key)


def plan_path(out_dir: str) -> pathlib.Path:
    return pathlib.Path(out_dir) / "_plan.json"


def manifest_dir(out_dir: str) -> pathlib.Path:
    return pathlib.Path(out_dir) / "manifest"


def chunks_dir(out_dir: str) -> pathlib.Path:
    return pathlib.Path(out_dir) / "chunks"


def write_json_atomic(path: pathlib.Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(obj, sort_keys=True))
    os.replace(tmp, path)


# the bucket routing rule of every plan this version saves: bucket b of
# a source's n holds the rows whose native.doc_hash64(doc_id) = h has
# (h * n) >> 64 == b (stages/encoder.hash_bucket)
ROUTING = "h64-mulshift-v1"


def save_plan(out_dir: str, states: dict[str, dict], bucket_plan: dict[str, int],
              mass: dict[str, dict], config: dict, path=None, extra: dict | None = None) -> None:
    write_json_atomic(
        path or plan_path(out_dir),
        {
            "states": {
                s: {"fsst_b64": base64.b64encode(st["fsst"]).decode(), "ratio": st["ratio"]}
                for s, st in states.items()
            },
            "bucket_plan": bucket_plan,
            "mass": mass,
            "config": config,
            "routing": ROUTING,
            **(extra or {}),
        },
    )


def load_plan(out_dir: str, path=None):
    obj = json.loads((path or plan_path(out_dir)).read_text())
    states = {
        s: {"fsst": base64.b64decode(st["fsst_b64"]), "ratio": st["ratio"]}
        for s, st in obj["states"].items()
    }
    return states, obj["bucket_plan"], obj["mass"], obj["config"]


def append_plan_path(out_dir: str, gen: int) -> pathlib.Path:
    return pathlib.Path(out_dir) / f"append_plan_g{gen}.json"


def append_generations(out_dir: str) -> list[int]:
    gens = []
    for p in pathlib.Path(out_dir).glob("append_plan_g*.json"):
        m = re.fullmatch(r"append_plan_g(\d+)\.json", p.name)
        if m:
            gens.append(int(m.group(1)))
    return sorted(gens)


def corpus_states(out_dir: str) -> dict:
    """The corpus's codec states: the base plan's, overlaid with every
    append generation's in order. A source first seen in an append
    exists only in that generation's plan file; later appends and
    purges encode it with that table."""
    states, _, _, _ = load_plan(out_dir)
    states = dict(states)
    for gen in append_generations(out_dir):
        gstates, _, _, _ = load_plan(out_dir, path=append_plan_path(out_dir, gen))
        for src, st in gstates.items():
            states.setdefault(src, st)
    return states


# the chunk-file columns an entry is derived from (no payload)
ENTRY_COLUMNS = ["n_rows", "n_values", "bytes_in", "bytes_out", "codec", "doc_id"]


def entry_from_chunks(key: str, file: str, chunks) -> dict:
    """The manifest entry of chunk file `file` holding `chunks` (any
    table with the ENTRY_COLUMNS) as part `key`. `doc_min`/`doc_max` is
    the file's doc-id zone map for selective decode; an emptied file
    gets "" for both (below any real doc_id, so it never hits), since
    absent fields mean always-scan."""
    def total(name):
        return int(pc.sum(chunks[name]).as_py() or 0)

    codecs: dict[str, int] = {}
    for c in chunks["codec"].to_pylist():
        codecs[c] = codecs.get(c, 0) + 1
    doc_lists = chunks["doc_id"]
    if isinstance(doc_lists, pa.ChunkedArray):
        doc_lists = doc_lists.combine_chunks()
    flat = doc_lists.flatten()
    mm = pc.min_max(flat) if len(flat) else None
    return {
        "part_key": key,
        "file": file,
        "status": "done",
        "rows": total("n_rows"),
        "chunks": chunks.num_rows,
        "tokens": total("n_values"),
        "bytes_in": total("bytes_in"),
        "bytes_out": total("bytes_out"),
        "codecs": codecs,
        "doc_min": mm["min"].as_py() if mm else "",
        "doc_max": mm["max"].as_py() if mm else "",
    }


def write_chunk_file(chunks, path, key: str) -> dict:
    """Write chunk rows to `path` as part `key` and return its entry:
    the one chunk-file writer of encode, purge and compaction. Sets
    `part_key`, renumbers `chunk_seq` from 0 and writes uncompressed
    parquet through `<file>.tmp` and a rename, so a reader sees the old
    file or the new one, never a partial one."""
    path = pathlib.Path(path)
    n = chunks.num_rows
    chunks = chunks.set_column(
        chunks.schema.get_field_index("part_key"), "part_key", pa.array([key] * n, pa.string())
    )
    chunks = chunks.set_column(
        chunks.schema.get_field_index("chunk_seq"), "chunk_seq", pa.array(range(n), pa.int32())
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    pq.write_table(chunks, tmp, compression="none")
    os.replace(tmp, path)
    return entry_from_chunks(key, path.name, chunks)


def zone_may_hit(entry: dict, wanted_sorted) -> bool:
    """Whether the file of `entry` can hold an id of `wanted_sorted` (a
    sorted array of doc ids) by its [doc_min, doc_max] zone map. An
    entry without zone fields may hold any id; an empty request hits
    nothing."""
    if len(wanted_sorted) == 0:
        return False
    dmin, dmax = entry.get("doc_min"), entry.get("doc_max")
    if dmin is None or dmax is None:
        return True
    i = int(np.searchsorted(wanted_sorted, dmin, side="left"))
    return i < len(wanted_sorted) and wanted_sorted[i] <= dmax


def write_part_entry(out_dir: str, entry: dict) -> None:
    write_json_atomic(
        manifest_dir(out_dir) / f"{sanitize_part(entry['part_key'])}.json", entry
    )


_COMPACT_NAME = "_compact.json"


def compact_path(out_dir: str) -> pathlib.Path:
    return manifest_dir(out_dir) / _COMPACT_NAME


def compact_manifest(out_dir: str) -> int:
    """Fold the per-part entry files into ONE compacted manifest file
    and remove them. Per-part JSONs are the write-side unit (each encode
    task commits its entry independently, atomic rename, no coordination)
    — but the read side (`load_manifest`) globs the directory, which at
    100-TB scale means ~10^6 driver-side file opens per resume / decode
    / stats call. Compaction runs once at job completion; entries
    written AFTER a compaction (e.g. a resume repairing a lost bucket)
    overlay the compacted map on load, newest wins, so the two layers
    stay consistent without locking. Returns the entry count."""
    mdir = manifest_dir(out_dir)
    if not mdir.exists():
        return 0
    entries = load_manifest(out_dir)
    if not entries:
        return 0
    write_json_atomic(compact_path(out_dir), entries)
    for p in mdir.glob("*.json"):
        if p.name != _COMPACT_NAME:
            p.unlink()
    return len(entries)


def load_manifest(out_dir: str) -> dict[str, dict]:
    mdir = manifest_dir(out_dir)
    if not mdir.exists():
        return {}
    entries: dict[str, dict] = {}
    cp = mdir / _COMPACT_NAME
    if cp.exists():
        entries.update(json.loads(cp.read_text()))
    # per-part entries written after the last compaction win
    for p in sorted(mdir.glob("*.json")):
        if p.name == _COMPACT_NAME:
            continue
        entry = json.loads(p.read_text())
        entries[entry["part_key"]] = entry
    return entries


def completed_parts(out_dir: str) -> set[str]:
    return {
        key
        for key, entry in load_manifest(out_dir).items()
        if entry.get("status") == "done"
        and (chunks_dir(out_dir) / f"{sanitize_part(key)}.parquet").exists()
    }


def summarize(entries: dict[str, dict]) -> dict:
    total = {
        "parts": len(entries),
        "chunks": 0,
        "rows": 0,
        "tokens": 0,
        "bytes_in": 0,
        "bytes_out": 0,
        "codecs": {},
    }
    for entry in entries.values():
        total["chunks"] += entry["chunks"]
        total["rows"] += entry["rows"]
        total["tokens"] += entry["tokens"]
        total["bytes_in"] += entry["bytes_in"]
        total["bytes_out"] += entry["bytes_out"]
        for codec, n in entry["codecs"].items():
            total["codecs"][codec] = total["codecs"].get(codec, 0) + n
    if total["tokens"]:
        total["bytes_per_token"] = total["bytes_out"] / total["tokens"]
        total["compression_ratio"] = total["bytes_in"] / max(total["bytes_out"], 1)
    return total


def summarize_by_source(entries: dict[str, dict]) -> dict[str, dict]:
    """Per-source rollup of the manifest (part keys are
    '{source}:[g{N}-|c{N}-]{bucket}'), including how many append
    generations / compactions the source's files span — the operational
    signal for when to run `compact`."""
    out: dict[str, dict] = {}
    for key, entry in entries.items():
        src, _, rest = key.partition(":")
        s = out.setdefault(
            src,
            {
                "parts": 0,
                "chunks": 0,
                "rows": 0,
                "tokens": 0,
                "bytes_in": 0,
                "bytes_out": 0,
                "generations": set(),
            },
        )
        s["parts"] += 1
        for f in ("chunks", "rows", "tokens", "bytes_in", "bytes_out"):
            s[f] += entry[f]
        m = re.match(r"([gc]\d+)-", rest)
        s["generations"].add(m.group(1) if m else "g0")
    for s in out.values():
        s["generations"] = sorted(s["generations"])
        if s["tokens"]:
            s["bytes_per_token"] = s["bytes_out"] / s["tokens"]
            s["compression_ratio"] = s["bytes_in"] / max(s["bytes_out"], 1)
    return {k: out[k] for k in sorted(out)}


def manifest_sidecars(out_dir: str) -> list[pathlib.Path]:
    """The per-part entry files currently on disk (excluding the
    compacted map) — snapshot this BEFORE load_manifest when a later
    consolidation will delete sidecars, so entries written concurrently
    in between survive as overlays."""
    mdir = manifest_dir(out_dir)
    if not mdir.exists():
        return []
    return [p for p in mdir.glob("*.json") if p.name != _COMPACT_NAME]


def consolidate_manifest(out_dir: str, entries: dict, sidecars: list) -> None:
    """Write the full entry map as _compact.json and remove ONLY the
    given sidecar files (the ones whose content the map includes): a
    sidecar written after the snapshot overlays the new map on the next
    load (newest wins), so concurrent appends are never lost."""
    write_json_atomic(compact_path(out_dir), entries)
    for p in sidecars:
        try:
            p.unlink()
        except FileNotFoundError:
            pass
