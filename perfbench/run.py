"""Benchmark entry point.

    python3 perfbench/run.py --workload bulk_encode --seed 1 --seconds 15 --trace 0

Prints a JSON line of run details, then as its last line the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see README.md). Exits non-zero, without a result, when it cannot run
the engine from this checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from perfbench import cluster  # noqa: E402

SHM = pathlib.Path("/dev/shm")


def end_to_end(session, outcome, peak_rss: int, native_s: float) -> dict:
    from perfbench.workloads import mtok_s

    ops = outcome.op_s
    values = {
        "setup_s": (session.setup_s + native_s, "s"),
        "op_p50_ms": (1e3 * statistics.median(ops), "ms"),
        "write_mtok_s": (mtok_s(outcome.write), "Mtok/s"),
        "bytes_per_token": (statistics.median(outcome.bytes_per_token), "B/token"),
        "peak_rss_mb": (peak_rss / 2**20, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


# workload-specific names of the end-to-end metrics, printed with the run details
WORKLOAD_NAMES = {
    "bulk_encode": {
        "write_mtok_s": "encode_mtok_s",
        "read_mtok_s": "decode_mtok_s",
        "bytes_per_token": "bytes_per_token",
    },
    "point_lookup": {"op_p50_ms": "lookup_p50_ms"},
    "churn": {"op_p50_ms": "churn_cycle_ms", "bytes_per_token": "churn_bytes_per_token"},
}


def remove_stale_runs(runs: pathlib.Path) -> None:
    """Work dirs of earlier runs that were killed before their clean-up."""
    for d in runs.glob("*"):
        if not cluster.pid_alive(d.name):
            shutil.rmtree(d, ignore_errors=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cluster.check_environment()
    # a terminated run still shuts Ray down and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    cluster.prepare_process_env()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    cluster.redirect_native_build()
    native_s = cluster.require_native_kernel()

    runs = cluster.WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    remove_stale_runs(runs)
    work = runs / str(os.getpid())
    work.mkdir()
    shm_before = cluster.dir_bytes(SHM)
    try:
        session = workloads.Session(args.seed, work)
        try:
            if args.trace:
                from perfbench import trace

                outcome, metrics, report = trace.run(args.workload, session, args.seconds)
            else:
                with cluster.RssSampler() as rss:
                    outcome = workloads.WORKLOADS[args.workload](session, args.seconds)
                if not outcome.op_s:
                    raise SystemExit("no operation succeeded; nothing to report")
                metrics = end_to_end(session, outcome, rss.peak, native_s)
                # printed, not gated: too noisy for the largest allowed bound
                values = {k: m["value"] for k, m in metrics.items()}
                values["read_mtok_s"] = workloads.mtok_s(outcome.read)
                report = {name: values[key] for key, name in WORKLOAD_NAMES[args.workload].items()}
                report["read_mtok_s"] = values["read_mtok_s"]
        finally:
            killed = session.close()
        leftover = [p.name for p in cluster.WORK.joinpath("r").glob("session_*")]
        shm_growth = cluster.dir_bytes(SHM) - shm_before
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = session.setup.attempted + outcome.attempted + 1
    failed = session.setup.failed + outcome.failed
    if killed or leftover or shm_growth > 1 << 20:
        print(
            f"clean-up check failed: killed {killed}, sessions {leftover}, /dev/shm grew {shm_growth} B",
            file=sys.stderr,
        )
        failed += 1
    ops = sorted(outcome.op_s)
    report.update(
        fail_ratio=failed / attempted,
        ops=len(ops),
        # the highest percentile with at least ten samples beyond it
        op_tail_ms={f"p{100 * (len(ops) - 10) // len(ops)}": 1e3 * ops[-11]} if len(ops) > 10 else {},
    )
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "engine": cluster.engine_settings(session.info["corpus_parquet_bytes"]),
        "native_load_s": native_s,
        "setup": session.info,
        "run": outcome.info,
        "named_metrics": report,
        "op_ms": [round(1e3 * x, 1) for x in outcome.op_s],
    }
    print(json.dumps(details, default=str))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
