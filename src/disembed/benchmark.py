"""Train-then-evaluate orchestration over a variant list: one training and
one evaluation per distinct computation, one report row per variant."""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np

from . import autodiff as ad
from . import streams, trainer
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
    unit_blocks,
)
from .labelspace import LabelSpace
# class_scores stays importable here: bench/probes.py times it by this name;
# the probes time the trainer's score_blocks, not this one
from .model import class_scores, embed, forward_rows, score_blocks
from .sampling import TripletBatch, TripletSampler
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
    sampler = TripletSampler(test_ds, "test")
    by_notion = {notion: sampler.tag_triplets(streams.rng("eval_tags", seed, i),
                                              per_notion, notion)
                 for i, notion in enumerate(notions)}
    rng = streams.rng("eval_tracks", seed)
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
    eval_triplets: tuple[dict[str, TripletBatch], TripletBatch],
) -> EvalReport:
    """All four tasks for one trained model (ratio filled in by the caller)."""
    variant = model.variant
    report = EvalReport(variant=variant.to_dict())
    by_notion, track_triplets = eval_triplets

    def accuracies(U, mode: str) -> dict:
        per_notion = [triplet_accuracy(U, t, mode=mode)
                      for t in by_notion.values()]
        accs = {f"{mode}/{k}": v for k, v in zip(by_notion, per_notion)}
        accs[f"{mode}/overall"] = float(np.mean(per_notion))
        return accs

    # one forward of the test split, over row chunks, and at most two
    # n x d arrays live at once: the pre-normalization rows score the BCE
    # heads and, normalized per notion block, the sub-mode triplets; then
    # their full-width unit rows replace them for R@K, the prototype scores
    # and the full-mode triplets
    E_pre = forward_rows(model.net, test_ds.features)
    if variant.family != "triplet":
        report.auc = auc_tags(score_blocks(
            E_pre, model.bank.values, variant.normalization,
            variant.disentanglement, model.space)[0], test_ds.labels)
    sub = {}
    if variant.disentanglement:
        sub = accuracies(unit_blocks(E_pre, test_ds.space.block_size), "sub")
    U = unit_blocks(E_pre, E_pre.shape[1])
    del E_pre
    report.recall_at = retrieval_recall(U, test_ds.labels, ks)
    if variant.family == "triplet":
        protos = build_prototypes(
            embed(model.net, train_ds.features, variant.normalization),
            train_ds.labels
        )
        report.auc = auc_tags(U @ ad.l2_rows(protos)[0].T, test_ds.labels)
    # the report's key order: full mode, sub mode, then the track triplets
    report.triplet_accuracy = {
        **accuracies(U, "full"),
        **sub,
        "full/track": triplet_accuracy(U, track_triplets, mode="full"),
    }
    return report


def run_benchmark(config: ExperimentConfig) -> dict:
    """Train every distinct computation once, evaluate all tasks, and assemble
    one report per variant.

    Variants with equal ``computation_key()`` (``proxy+norm`` and
    ``classification+norm``; ``proxy+norm+disent`` and
    ``classification+norm+disent``) train the same parameters on the same
    stream, so only the first is trained and evaluated.  Each later one gets
    a copy of its report, timing and error included, with its own ``variant``
    and ``shared_with`` naming the first.  A failed variant is recorded in its
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
