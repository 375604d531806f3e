"""Encoded-corpus compaction: fold generation-fragmented bucket files
into larger ones.

Incremental append (`encode_job.append_dataset`) deliberately never
rewrites old files, so a corpus that has absorbed many appends
accumulates one small file set per generation — more files than the
read path wants (decode parallelism quantizes per file; manifests,
zone maps and phase-A scans all scale with file count). Compaction is
the operational counterpart: merge each source's completed bucket
files into ~target-size files, rewriting ONLY encoded bytes (chunk
payload rows are self-describing and independent, so a merged file is
a concatenation with re-keyed part_key / renumbered chunk_seq — no
decode, no re-encode, no retraining).

Crash safety (a compaction interrupted anywhere must never lose or
duplicate rows — `decode` enumerates chunk files by directory glob):

1. the PLAN — merge groups, their new keys and file names, and the
   constituents each new file supersedes — is journaled to
   `compaction_g{N}.json` BEFORE any file is touched;
2. each merge task writes its file through `mf.write_chunk_file`
   (`<file>.tmp`, then a rename to the final name: invisible to decode
   until this instant, reads glob `*.parquet`), then unlinks its
   constituents and returns the merged file's entry — the only
   non-atomic window is between the rename and the unlinks, and the
   journal records exactly which constituents every new file
   supersedes;
3. the manifest rewrite (drop constituent entries, add merged ones,
   one `_compact.json` write) happens last; the journal is then marked
   completed.

`repair_compaction` replays an incomplete journal: a group whose new
file exists is finished by `_merge_group` (constituents unlinked, its
entry derived from the landed file's index columns and installed); a
group whose new file is missing is rolled back (tmp removed, originals
untouched). `compact_corpus` runs the repair first, so re-running
compaction after any crash converges. After a compaction the original
per-bucket part keys no longer exist, so a base-encode `--resume` is
refused (the corpus was complete — that's a compaction precondition);
appends keep working, each new generation is untouched by earlier
compactions and is itself compactable later.

Scale: each merge group is an independent call of `_merge_group` over
its own files (file IO bound, no shuffle), run by the per-file
executor (executor.py): in the driver when the groups' files total at
most its bound on disk, one Ray task per group above it. The driver
handles only manifest-entry-sized metadata either way.
"""

from __future__ import annotations

import json
import os
import pathlib

from ..state import manifest as mf
from . import executor

_JOURNAL_GLOB = "compaction_g*.json"


def _journal_path(out_dir: str, gen: int) -> pathlib.Path:
    return pathlib.Path(out_dir) / f"compaction_g{gen}.json"


def compaction_generations(out_dir: str) -> list[int]:
    out = []
    for p in pathlib.Path(out_dir).glob(_JOURNAL_GLOB):
        try:
            out.append(int(p.stem.split("_g")[1]))
        except (IndexError, ValueError):
            continue
    return sorted(out)


def has_compaction(out_dir: str) -> bool:
    return bool(compaction_generations(out_dir))


def plan_compaction(out_dir: str, target_bytes: int = 512 << 20) -> dict:
    """Greedy per-source packing of completed bucket files into merge
    groups of ~target_bytes (encoded). Only groups of >= 2 files are
    worth a rewrite. Returns the journal dict (not yet written)."""
    entries = mf.load_manifest(out_dir)
    gen = (compaction_generations(out_dir) or [0])[-1] + 1
    by_source: dict[str, list[dict]] = {}
    for key in sorted(entries):
        e = entries[key]
        if e.get("status") != "done":
            continue
        src = key.split(":", 1)[0]
        by_source.setdefault(src, []).append(e)
    groups = []
    seq = 0
    for src in sorted(by_source):
        pend: list[dict] = []
        pend_bytes = 0

        def flush(pend=None):
            nonlocal seq
            if pend and len(pend) >= 2:
                new_key = f"{src}:c{gen}-{seq:05d}"
                new_file = f"{mf.sanitize_part(new_key)}.parquet"
                groups.append(
                    {
                        "new_key": new_key,
                        "new_file": new_file,
                        "old_keys": [e["part_key"] for e in pend],
                        "old_files": [e["file"] for e in pend],
                    }
                )
                seq += 1

        for e in by_source[src]:
            if pend and pend_bytes + e["bytes_out"] > target_bytes:
                flush(pend)
                pend, pend_bytes = [], 0
            pend.append(e)
            pend_bytes += e["bytes_out"]
        flush(pend)
    return {"generation": gen, "completed": False, "groups": groups}


def _merge_group(old_paths: list, new_path, new_key: str) -> dict:
    """Concatenate one merge group's chunk files into `new_path` under
    `new_key`, then unlink them; returns the merged file's entry. Chunk
    payload rows are independent, so only the identity columns
    (part_key, chunk_seq) are rewritten. When `new_path` already exists
    (a crashed compaction's landed file) only its index columns are
    read for the entry."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    new_path = pathlib.Path(new_path)
    if new_path.exists():
        entry = mf.entry_from_chunks(
            new_key, new_path.name, pq.read_table(new_path, columns=mf.ENTRY_COLUMNS)
        )
    else:
        tables = []
        for p in old_paths:
            if not os.path.exists(p):
                raise FileNotFoundError(
                    f"compaction constituent missing: {p} (corpus modified "
                    "since the plan was journaled?)"
                )
            tables.append(pq.read_table(p))
        t = pa.concat_tables(tables, promote_options="none")
        entry = mf.write_chunk_file(t, new_path, new_key)
    for p in old_paths:
        if os.path.exists(p):
            os.unlink(p)
    return entry


def _install_manifest(out_dir: str, groups: list, merged: list) -> None:
    """Replace each group's constituent entries by its merged entry
    (`merged[i]` is the entry of `groups[i]`'s new file)."""
    # sidecars snapshotted BEFORE the load: an entry a concurrent
    # append writes after this point survives consolidation and
    # overlays the new map on the next load (newest wins)
    sidecars = mf.manifest_sidecars(out_dir)
    entries = mf.load_manifest(out_dir)
    for g, entry in zip(groups, merged):
        for k in g["old_keys"]:
            entries.pop(k, None)
        entries[g["new_key"]] = entry
    mf.consolidate_manifest(out_dir, entries, sidecars)


def repair_compaction(out_dir: str) -> dict | None:
    """Converge an interrupted compaction: groups whose new file landed
    are completed (constituents unlinked, entry installed); groups
    whose new file is missing are rolled back (tmp removed). Idempotent;
    no-op when every journal is completed."""
    gens = compaction_generations(out_dir)
    if not gens:
        return None
    jp = _journal_path(out_dir, gens[-1])
    journal = json.loads(jp.read_text())
    if journal.get("completed"):
        return None
    cdir = mf.chunks_dir(out_dir)
    done_groups, merged = [], []
    for g in journal["groups"]:
        new_path = cdir / g["new_file"]
        if new_path.exists():
            merged.append(_merge_group([str(cdir / f) for f in g["old_files"]], new_path, g["new_key"]))
            done_groups.append(g)
        else:
            # the tmp of a crashed write (`.ctmp` from earlier versions)
            for tmp in cdir.glob(f"{g['new_file']}.*tmp"):
                tmp.unlink()
    journal["groups"] = done_groups
    _install_manifest(out_dir, done_groups, merged)
    journal["completed"] = True
    mf.write_json_atomic(jp, journal)
    return {"repaired_groups": len(done_groups)}


def _assert_corpus_complete(out_dir: str, bucket_plan: dict) -> None:
    """Compaction precondition: every encode/append that ever started
    must have FINISHED. Compacting a partially-encoded corpus would
    destroy the part keys its resume needs, so a later resume would
    re-encode and silently duplicate rows (or, for the base encode, be
    refused with buckets permanently missing)."""
    gens = mf.append_generations(out_dir)
    if gens:
        latest = json.loads(mf.append_plan_path(out_dir, gens[-1]).read_text())
        if not latest.get("completed"):
            raise ValueError(
                f"append generation g{gens[-1]} is incomplete — finish it "
                "(encode --append --resume) before compacting"
            )
    if not compaction_generations(out_dir):
        # never-compacted corpus: the base bucket keys must all exist
        # (after a compaction they are legitimately replaced by c-keys,
        # and that first compaction already verified them)
        done = {
            k for k, e in mf.load_manifest(out_dir).items()
            if e.get("status") == "done"
        }
        expected = {
            f"{src}:{i:05d}"
            for src, n in bucket_plan.items()
            for i in range(n)
        }
        missing = expected - done
        if missing:
            raise ValueError(
                f"base encode incomplete ({len(missing)} buckets missing, "
                f"e.g. {sorted(missing)[:3]}) — finish it (encode --resume) "
                "before compacting"
            )


def compact_corpus(out_dir: str, target_bytes: int = 512 << 20) -> dict:
    """Run a full compaction pass (see module docstring). Returns a
    metrics dict; a corpus with nothing to merge is a no-op."""
    _, bucket_plan, _, config = mf.load_plan(out_dir)
    # guards corpora on disk: earlier versions could also write the
    # retired groupby and streaming modes
    if config["mode"] not in ("bucketed", "bucketed_groupby"):
        raise ValueError(
            "compaction requires a bucketed corpus (streaming outputs have no "
            "per-bucket manifest entries to merge)"
        )
    _assert_corpus_complete(out_dir, bucket_plan)
    repair_compaction(out_dir)
    journal = plan_compaction(out_dir, target_bytes=target_bytes)
    if not journal["groups"]:
        return {"generation": None, "groups": 0, "files_removed": 0}
    jp = _journal_path(out_dir, journal["generation"])
    mf.write_json_atomic(jp, journal)

    cdir = mf.chunks_dir(out_dir)
    groups = journal["groups"]
    merged, run = executor.map_files(
        _merge_group,
        [[str(cdir / f) for f in g["old_files"]] for g in groups],
        [{"new_path": str(cdir / g["new_file"]), "new_key": g["new_key"]} for g in groups],
        rewrite=True,
    )

    _install_manifest(out_dir, groups, merged)
    journal["completed"] = True
    mf.write_json_atomic(jp, journal)
    return {
        "generation": journal["generation"],
        "groups": len(groups),
        "files_removed": sum(len(g["old_files"]) for g in groups),
        "files_written": len(groups),
        "executor": run["executor"],
    }


def assert_readable(out_dir: str) -> None:
    """Read-path guard: an interrupted compaction leaves a window where
    the chunks directory holds BOTH a merged file and its constituents
    (glob decode would double-count) or the manifest references deleted
    files (selective decode would 404). Reads must refuse until the
    journal is replayed — `compact_corpus` repairs first, so running
    `python -m fsst_ray compact` (or `repair_compaction`) converges."""
    gens = compaction_generations(out_dir)
    if not gens:
        return
    journal = json.loads(_journal_path(out_dir, gens[-1]).read_text())
    if not journal.get("completed"):
        raise ValueError(
            f"interrupted compaction g{gens[-1]} detected — run "
            "`python -m fsst_ray compact` (repairs the journal first) "
            "before decoding"
        )
