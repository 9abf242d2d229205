"""Command-line entry point.

Subcommands: generate, train, evaluate, benchmark, export-embeddings.
Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .benchmark import (
    evaluate_model,
    load_or_generate,
    run_benchmark,
    sample_eval_triplets,
)
from .config import ExperimentConfig, default_config
from .data import save_dataset
from .errors import ConfigurationError, DisembedError
from .model import embed, forward_rows
from .reports import render_table1, render_table2, render_table3
from .trainer import load_model, save_curves, save_model, train


def _load_config(args) -> ExperimentConfig:
    if args.config:
        config = ExperimentConfig.from_json(args.config)
    else:
        config = default_config()
    if args.seed is not None:
        config = config.with_seed(args.seed)
    if args.out is not None:
        config.output_dir = args.out
    return config


def _outdir(config: ExperimentConfig) -> Path:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    config = _load_config(args)
    if config.synthetic is None:
        raise ConfigurationError("generate requires a synthetic spec in the config")
    out = _outdir(config)
    train_ds, valid_ds, test_ds = load_or_generate(config)
    counts = {}
    for name, ds in (("train", train_ds), ("valid", valid_ds), ("test", test_ds)):
        save_dataset(ds, out / f"{name}.tsv")
        counts[name] = len(ds)
    manifest = {
        "seed": config.seed,
        "spec": config.synthetic.to_dict(),
        "fractions": list(config.fractions),
        "counts": counts,
    }
    with open(out / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(f"wrote {counts} to {out}")
    return 0


def cmd_train(args) -> int:
    config = _load_config(args)
    if not (0 <= args.variant_index < len(config.variants)):
        raise ConfigurationError(
            f"variant index {args.variant_index} out of range "
            f"(config has {len(config.variants)})"
        )
    variant = config.variants[args.variant_index]
    out = _outdir(config)
    train_ds, valid_ds, _ = load_or_generate(config)
    result = train(variant, config.space, train_ds, valid_ds)
    prefix = out / f"model_{variant.name.replace('+', '_')}"
    save_model(prefix, result.model)
    save_curves(out / f"curves_{variant.name.replace('+', '_')}.csv", result.curves)
    print(
        f"trained {variant.name}: {result.epochs} epochs, "
        f"best valid loss {result.best_valid_loss:.4f}, saved to {prefix}.*"
    )
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args)
    model = load_model(args.model)
    out = _outdir(config)
    train_ds, _, test_ds = load_or_generate(config)
    eval_triplets = sample_eval_triplets(
        test_ds, config.triplets_per_notion, config.seed
    )
    report = evaluate_model(model, train_ds, test_ds, config.eval_ks, eval_triplets)
    report.training_time_ratio = 1.0
    d = report.to_dict()
    with open(out / "evaluation.json", "w", encoding="utf-8") as fh:
        json.dump(d, fh, indent=2, sort_keys=True)
    print(render_table1([d], config.eval_ks))
    return 0


def cmd_benchmark(args) -> int:
    config = _load_config(args)
    out = _outdir(config)
    result = run_benchmark(config)
    notions = [n.name for n in config.space.notions]
    t1 = render_table1(result["reports"], config.eval_ks)
    t2 = render_table2(result["reports"], notions)
    t3 = render_table3(result["reports"])
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    for name, text in (("table1.txt", t1), ("table2.txt", t2), ("table3.txt", t3)):
        with open(out / name, "w", encoding="utf-8") as fh:
            fh.write(text)
    print(t1)
    print(t2)
    print(t3)
    failed = [r for r in result["reports"] if r.get("error")]
    if failed:
        print(f"{len(failed)} variant(s) failed; see report.json", file=sys.stderr)
    return 0


def cmd_export_embeddings(args) -> int:
    from .data import load_dataset

    model = load_model(args.model)
    dataset = load_dataset(args.data, model.space)
    space_arg = args.space
    if space_arg == "full":
        E = embed(model.net, dataset.features, model.variant.normalization)
    else:
        block = model.space.block_slice(space_arg)
        E = forward_rows(model.net, dataset.features)[:, block]
    out_path = args.out or "embeddings.tsv"
    with open(out_path, "w", encoding="utf-8") as fh:
        for item_id, track_id, row in zip(dataset.ids, dataset.track_ids, E):
            coords = "\t".join(f"{x:.17g}" for x in row)
            fh.write(f"{item_id}\t{track_id}\t{coords}\n")
    print(f"wrote {len(dataset)} x {E.shape[1]} embeddings to {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disembed",
        description="Disentangled multi-label embedding learning benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--seed", type=int, default=None, help="global seed override")
        p.add_argument("--out", default=None, help="output directory")

    p = sub.add_parser("generate", help="write synthetic dataset files")
    common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train a single variant")
    common(p)
    p.add_argument("--variant-index", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model")
    common(p)
    p.add_argument("--model", required=True, help="model file prefix")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("benchmark", help="run the full variant benchmark")
    common(p)
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("export-embeddings", help="dump embeddings as TSV")
    p.add_argument("--model", required=True, help="model file prefix")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--space", default="full", help="'full' or a notion name")
    p.add_argument("--out", default=None, help="output TSV path")
    p.set_defaults(func=cmd_export_embeddings)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DisembedError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
