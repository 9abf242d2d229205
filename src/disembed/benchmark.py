"""Train-then-evaluate orchestration over a variant list: one training and
one evaluation per distinct computation, one report row per variant."""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from . import trainer
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
from .labelspace import LabelSpace
from .model import class_scores, embed
from .sampling import TripletBatch, checked_sampler
from .trainer import TrainedModel, TrainResult, VariantConfig

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
) -> tuple[dict[str, TripletBatch], TripletBatch]:
    """Fixed tag triplets per notion plus track triplets from the test split."""
    notions = [n.name for n in test_ds.space.notions]
    sampler = checked_sampler(test_ds, "test", notions, tracks=True)
    by_notion = {}
    for i, notion in enumerate(notions):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11, i]))
        by_notion[notion] = sampler.tag_triplets(rng, per_notion, notion)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 12]))
    return by_notion, sampler.track_triplets(rng, per_notion)


def train(
    variant: VariantConfig,
    space: LabelSpace,
    train_ds: Dataset,
    valid_ds: Dataset,
    shared: TrainResult | None = None,
) -> TrainResult:
    """``trainer.train`` for one report row.

    ``shared`` is the result of an earlier variant with the same
    ``computation_key()``; it is returned for ``variant`` as it is, and
    nothing is trained again.  Every row that has a training result passes
    through here, so a per-variant hook on this name (``bench/probes.py``)
    sees each row's epochs.
    """
    if shared is not None:
        return shared
    return trainer.train(variant, space, train_ds, valid_ds)


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
    """Train every distinct computation once, evaluate all tasks, and assemble
    one report per variant.

    Variants with equal ``computation_key()`` (``proxy+norm`` and
    ``classification+norm``) train the same parameters on the same stream,
    so only the first is trained and evaluated.  Each later one gets a copy of
    its report, timing and error included, with its own ``variant`` and
    ``shared_with`` naming the first.  A failed variant is recorded in its
    report; the rest continue.
    """
    train_ds, valid_ds, test_ds = load_or_generate(config)
    eval_triplets = sample_eval_triplets(
        test_ds, config.triplets_per_notion, config.seed
    )

    def run_one(variant) -> tuple[EvalReport, TrainResult | None]:
        """The variant's report, and its training result without the model
        (None if training raised), so no model outlives its evaluation."""
        result = None
        try:
            trained = train(variant, config.space, train_ds, valid_ds)
            result = replace(trained, model=None)
            report = evaluate_model(
                trained.model, train_ds, test_ds, config.eval_ks, eval_triplets
            )
            report.wall_seconds = trained.seconds
            report.cpu_seconds = trained.cpu_seconds
            report.epochs = trained.epochs
        except DisembedError as exc:
            log.error("variant %s failed: %s", variant.name, exc)
            report = EvalReport(variant=variant.to_dict(), error=str(exc))
        return report, result

    # key -> (first variant's name, its report, its model-less result)
    done: dict[tuple, tuple[str, EvalReport, TrainResult | None]] = {}
    reports = []
    for variant in config.variants:
        key = variant.computation_key()
        if key in done:
            name, first, result = done[key]
            if result is not None:
                train(variant, config.space, train_ds, valid_ds, shared=result)
            reports.append(
                replace(first, variant=variant.to_dict(), shared_with=name)
            )
        else:
            report, result = run_one(variant)
            done[key] = variant.name, report, result
            reports.append(report)

    # keyed by row: rows may share a name but not a config (lr, epochs, ...)
    timings = {
        i: r.wall_seconds
        for i, r in enumerate(reports)
        if r.error is None and r.wall_seconds and r.wall_seconds > 0
    }
    if timings:
        for i, ratio in training_time_ratio(timings).items():
            reports[i].training_time_ratio = ratio
    return {
        "config": config.to_dict(),
        "reports": [r.to_dict() for r in reports],
    }
