"""Train-then-evaluate orchestration over a variant list."""

from __future__ import annotations

import logging

import numpy as np

from . import autodiff as ad
from .config import ExperimentConfig
from .data import Dataset, generate_splits, load_dataset
from .errors import DisembedError
from .evaluation import (
    EvalReport,
    auc_tags,
    build_prototypes,
    retrieval_recall,
    training_time_ratio,
    triplet_accuracy,
)
from .model import class_scores, embed
from .sampling import TripletSampler
from .trainer import TrainedModel, TrainResult, train

log = logging.getLogger(__name__)


def load_or_generate(config: ExperimentConfig):
    """(train, valid, test) datasets from files or the synthetic generator."""
    if config.dataset_paths is not None:
        paths = config.dataset_paths
        return tuple(
            load_dataset(paths[k], config.space) for k in ("train", "valid", "test")
        )
    return generate_splits(config.synthetic, fractions=config.fractions)


def sample_eval_triplets(
    test_ds: Dataset, per_notion: int, seed: int
) -> tuple[dict, list]:
    """Fixed tag triplets per notion plus track triplets from the test split."""
    sampler = TripletSampler(test_ds)
    by_notion = {}
    for i, notion in enumerate(test_ds.space.notions):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11, i]))
        by_notion[notion.name] = [
            sampler.sample_tag_triplet(rng, notion=notion.name)
            for _ in range(per_notion)
        ]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 12]))
    tracks = [sampler.sample_track_triplet(rng) for _ in range(per_notion)]
    return by_notion, tracks


def evaluate_model(
    model: TrainedModel,
    train_ds: Dataset,
    test_ds: Dataset,
    ks,
    eval_triplets: tuple[dict, list],
) -> EvalReport:
    """All four tasks for one trained model (ratio filled in by the caller)."""
    variant = model.variant
    report = EvalReport(variant=variant.to_dict())

    E_test = embed(model.net, test_ds.features)
    report.recall_at = retrieval_recall(E_test, test_ds.labels, ks)

    if variant.family == "triplet":
        protos = build_prototypes(
            embed(model.net, train_ds.features), train_ds.labels
        )
        U, P = (ad.l2_normalize(M).values for M in (E_test, protos))
        scores = U @ P.T
    else:
        scores = class_scores(
            model.net, model.bank, test_ds.features, variant.score_variant()
        )
    report.auc = auc_tags(scores, test_ds.labels)

    by_notion, track_triplets = eval_triplets
    E_pre = model.net.full_embedding(test_ds.features).values
    accs = {}
    for notion, triplets in by_notion.items():
        accs[("full", notion)] = triplet_accuracy(E_pre, triplets, mode="full")
        if variant.disentanglement:
            accs[("sub", notion)] = triplet_accuracy(
                E_pre,
                triplets,
                mode="sub",
                space=model.space,
                disentangled=True,
            )
    accs[("full", "overall")] = float(
        np.mean([accs[("full", n)] for n in by_notion])
    )
    if variant.disentanglement:
        accs[("sub", "overall")] = float(
            np.mean([accs[("sub", n)] for n in by_notion])
        )
    accs[("full", "track")] = triplet_accuracy(E_pre, track_triplets, mode="full")
    report.triplet_accuracy = accs
    return report


def run_benchmark(config: ExperimentConfig) -> dict:
    """Train every variant, evaluate all tasks, and assemble the report set.

    A failed variant is recorded in its report; the rest continue.
    """
    train_ds, valid_ds, test_ds = load_or_generate(config)
    eval_triplets = sample_eval_triplets(
        test_ds, config.triplets_per_notion, config.seed
    )

    def run_one(variant) -> EvalReport:
        try:
            result: TrainResult = train(variant, config.space, train_ds, valid_ds)
            report = evaluate_model(
                result.model, train_ds, test_ds, config.eval_ks, eval_triplets
            )
            report.wall_seconds = result.seconds
            report.epochs = result.epochs
            return report
        except DisembedError as exc:
            log.error("variant %s failed: %s", variant.name, exc)
            return EvalReport(variant=variant.to_dict(), error=str(exc))

    reports = [run_one(v) for v in config.variants]

    timings = {
        v.name: r.wall_seconds
        for v, r in zip(config.variants, reports)
        if r.error is None and r.wall_seconds and r.wall_seconds > 0
    }
    if timings:
        ratios = training_time_ratio(timings)
        for v, r in zip(config.variants, reports):
            if v.name in ratios:
                r.training_time_ratio = ratios[v.name]
    return {
        "config": config.to_dict(),
        "reports": [r.to_dict() for r in reports],
    }
