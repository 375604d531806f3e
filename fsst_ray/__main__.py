"""CLI: encode / decode / verify a tokens corpus.

    python -m fsst_ray encode  --input DIR --output DIR
                               [--chunk-tokens N] [--bucket-tokens N] [--resume]
                               [--append]   # incremental ingest into --output
                               [--upsert]   # replace-or-insert into --output
                               [--upsert --resume]  # finish an interrupted upsert
    python -m fsst_ray decode  --input ENCODED_DIR --output DIR
    python -m fsst_ray select  --encoded ENCODED_DIR --doc-ids ID[,ID...]
    python -m fsst_ray bpe     --input DOCS_PARQUET --merges 64 [--output merges.json]
                               [--ntok-range LO:HI] [--source S[,S...]]
                               [--output DIR]
    python -m fsst_ray compact --encoded ENCODED_DIR [--target-mb M]
    python -m fsst_ray delete  --encoded ENCODED_DIR --doc-ids ID[,ID...]
    python -m fsst_ray purge   --encoded ENCODED_DIR   # materialize deletes
    python -m fsst_ray verify  --input DIR --encoded ENCODED_DIR
    python -m fsst_ray stats   --encoded ENCODED_DIR [--by-source]
    python -m fsst_ray build-corpus --input DOCS_PARQUET --output DIR
                               [--min-quality Q] [--mix-budget N] [--resume]
                               # curate -> near-dedup -> decontaminate ->
                               # mix -> source-partitioned parquet

Owns its Ray session (scripts only — library code never calls ray.init).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv=None):
    parser = argparse.ArgumentParser(prog="fsst_ray")
    parser.add_argument(
        "command",
        choices=["encode", "decode", "select", "verify", "stats", "compact", "bpe",
                 "delete", "purge", "build-corpus"],
    )
    parser.add_argument(
        "--doc-ids", help="comma-separated doc ids (select): pruned point lookup"
    )
    parser.add_argument(
        "--ntok-range",
        help="LO:HI inclusive n_tok range (select): pruned length-range decode",
    )
    parser.add_argument(
        "--max-generation",
        type=int,
        default=None,
        help="select: decode rows ingested at append generation <= N "
             "(time travel; base encode = 0; refuses compacted corpora)",
    )
    parser.add_argument(
        "--source",
        help="comma-separated sources (select): manifest-pruned per-source decode",
    )
    parser.add_argument("--input", help="input parquet dir (tokens schema) / encoded dir")
    parser.add_argument("--output", help="output dir")
    parser.add_argument("--encoded", help="encoded dir (verify/stats)")
    parser.add_argument("--chunk-tokens", type=int, default=1 << 19)
    parser.add_argument("--bucket-tokens", type=int, default=16 << 20)
    parser.add_argument("--resume", action="store_true")
    parser.add_argument(
        "--append",
        action="store_true",
        help="encode: incremental ingest into an EXISTING encoded corpus "
        "(reuses trained states; generation-tagged buckets)",
    )
    parser.add_argument(
        "--upsert",
        action="store_true",
        help="encode: replace-or-insert the input rows into an EXISTING "
        "corpus (delete+purge existing ids, then append)",
    )
    parser.add_argument(
        "--target-mb",
        type=int,
        default=512,
        help="compact: target merged file size (encoded MB)",
    )
    parser.add_argument(
        "--by-source",
        action="store_true",
        help="stats: per-source rollup incl. generation fragmentation",
    )
    parser.add_argument(
        "--min-quality",
        type=int,
        default=60,
        help="build-corpus: curate quality threshold",
    )
    parser.add_argument(
        "--mix-budget",
        type=int,
        default=None,
        help="build-corpus: per-source char budget (token-budget mixing)",
    )
    parser.add_argument(
        "--merges", type=int, default=64,
        help="bpe: number of merges to train",
    )
    parser.add_argument(
        "--text-col", default="text", help="bpe: text column of the input parquet"
    )
    parser.add_argument("--num-cpus", type=int, default=None)
    args = parser.parse_args(argv)

    if args.command == "stats":
        from fsst_ray.state import manifest as mf

        entries = mf.load_manifest(args.encoded or args.input)
        if args.by_source:
            print(json.dumps(mf.summarize_by_source(entries), indent=2))
        else:
            print(json.dumps(mf.summarize(entries), indent=2))
        return 0

    ray = _init_ray(args.num_cpus)
    try:
        import ray.data as rd

        if args.command == "encode":
            from fsst_ray import encode_dataset

            from fsst_ray.sources.tokens import read_parquet_bundled

            ds = read_parquet_bundled(args.input)
            if args.upsert:
                from fsst_ray import upsert_docs
                from fsst_ray.state.tombstones import resume_upsert

                if args.resume:
                    res = resume_upsert(args.output)
                    print(json.dumps(res if res is not None
                                     else {"resumed": False,
                                           "reason": "no upsert journal pending"}))
                    return 0
                print(json.dumps(upsert_docs(ds, args.output)))
                return 0
            if args.append:
                from fsst_ray import append_dataset

                result = append_dataset(
                    ds, args.output, resume=args.resume, input_path=args.input
                )
            else:
                result = encode_dataset(
                    ds,
                    args.output,
                    chunk_tokens=args.chunk_tokens,
                    bucket_tokens=args.bucket_tokens,
                    resume=args.resume,
                    input_path=args.input,
                )
            print(json.dumps(result.metrics, indent=2, default=str))
        elif args.command == "decode":
            from fsst_ray import decode_dataset

            decode_dataset(args.input).write_parquet(args.output)
            print(json.dumps({"decoded_to": args.output}))
        elif args.command == "select":
            from fsst_ray import decode_generation, decode_ntok_range, decode_select

            stats: dict = {}
            if args.max_generation is not None:
                sel = decode_generation(
                    args.encoded or args.input, args.max_generation, stats=stats
                )
            elif args.source:
                from fsst_ray import decode_source

                sel = decode_source(
                    args.encoded or args.input,
                    [s for s in args.source.split(",") if s],
                    stats=stats,
                )
            elif args.ntok_range:
                lo, hi = (int(v) for v in args.ntok_range.split(":"))
                sel = decode_ntok_range(
                    args.encoded or args.input, lo, hi, stats=stats
                )
            else:
                sel = decode_select(
                    args.encoded or args.input,
                    [d for d in (args.doc_ids or "").split(",") if d],
                    stats=stats,
                )
            if args.output:
                sel.write_parquet(args.output)
                print(json.dumps({"selected_to": args.output, **stats}))
            else:
                rows = sel.take_all()
                print(
                    json.dumps(
                        {
                            "rows": [
                                {
                                    "doc_id": r["doc_id"],
                                    "n_tok": int(r["n_tok"]),
                                    "source": r["source"],
                                }
                                for r in rows
                            ],
                            **stats,
                        }
                    )
                )
        elif args.command == "delete":
            from fsst_ray.state.tombstones import delete_docs

            ids = [d for d in (args.doc_ids or "").split(",") if d]
            print(json.dumps(delete_docs(args.encoded or args.input, ids)))
        elif args.command == "purge":
            from fsst_ray.state.tombstones import purge_deletes

            print(json.dumps(purge_deletes(args.encoded or args.input)))
        elif args.command == "build-corpus":
            from fsst_ray.pipelines.train_corpus import build_training_corpus

            print(
                json.dumps(
                    build_training_corpus(
                        args.input,
                        args.output,
                        min_quality=args.min_quality,
                        mix_budget=args.mix_budget,
                        resume=args.resume,
                    )
                )
            )
        elif args.command == "bpe":
            import pathlib as _pl

            import ray.data as _rd

            from fsst_ray.functions.bpe import bpe_train

            docs = _rd.read_parquet(args.input, columns=[args.text_col])
            merges = bpe_train(docs, text_col=args.text_col, n_merges=args.merges)
            rows = [
                {
                    "rank": r["rank"],
                    "l_sym": r["l_sym"],
                    "r_sym": r["r_sym"],
                    "new_token": r["new_token"],
                    "pair_count": r["pair_count"],
                }
                for r in merges.to_pylist()
            ]
            if args.output:
                _pl.Path(args.output).parent.mkdir(parents=True, exist_ok=True)
                _pl.Path(args.output).write_text(json.dumps(rows))
                print(json.dumps({"merges": len(rows), "out": args.output}))
            else:
                print(json.dumps(rows))
        elif args.command == "compact":
            from fsst_ray import compact_corpus

            metrics = compact_corpus(
                args.encoded or args.input,
                target_bytes=args.target_mb << 20,
            )
            print(json.dumps(metrics))
        elif args.command == "verify":
            from fsst_ray import verify_roundtrip

            from fsst_ray.sources.tokens import read_parquet_bundled

            ds = read_parquet_bundled(args.input)
            v = verify_roundtrip(ds, args.encoded)
            print(json.dumps(v))
            return 0 if v["match"] else 1
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
