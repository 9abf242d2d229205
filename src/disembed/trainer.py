"""Variant-dispatching training loop: Adam, plateau schedule, early stopping,
and best-validation-epoch restoration.

A training step runs the family's forward, then chains the backward closures
of its layers by hand (``_triplet_loss`` for the triplet family, ``_bce`` for
proxy and classification) and writes the parameter gradients into one flat
vector (``autodiff.grad``) that ``Adam.step`` reads in place.

A triplet step runs one net forward over every row of its batches and one
net backward over the rows of the triplets past the margin only: a triplet
whose hinge is zero has an exactly zero gradient.  Each weight gradient is
then one sum over all of the step's active rows, tag batch first and N, A, P
within a batch.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import Adam, PlateauSchedule
from .data import Dataset
from .errors import ConfigurationError, TrainingDivergedError
from .labelspace import LabelSpace
from .losses import bce_sum, triplet_batch_loss
from .model import (
    BANK_PARAM,
    CentroidBank,
    EmbeddingNet,
    NetConfig,
    check_hidden,
    init_params,
    load_params,
    save_params,
    score_blocks,
)
from .sampling import TripletBatch, batch_iterator, checked_sampler

log = logging.getLogger(__name__)

FAMILIES = ("triplet", "proxy", "classification")


@dataclass
class VariantConfig:
    """One row of the benchmark: learning family plus structural flags.

    Only the eight combinations benchmarked by the framework are legal:
    triplet is always normalized (with optional disentanglement and, on top
    of that, track regularization), proxy is always normalized (optional
    disentanglement), and classification may drop normalization but only
    disentangles when normalized.
    """

    family: str
    normalization: bool = True
    disentanglement: bool = False
    track_reg: bool = False
    margin: float = 0.1
    lr: float = 0.005
    batch_size: int = 64
    max_epochs: int = 300
    seed: int = 0
    track_reg_weight: float = 1.0
    hidden: tuple[int, ...] = (128, 128)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(f"unknown family: {self.family!r}")
        if self.track_reg and not (
            self.family == "triplet" and self.disentanglement
        ):
            raise ConfigurationError(
                "track regularization requires the disentangled triplet family"
            )
        if self.family in ("triplet", "proxy") and not self.normalization:
            raise ConfigurationError(
                f"{self.family} models are always normalized"
            )
        if (
            self.family == "classification"
            and self.disentanglement
            and not self.normalization
        ):
            raise ConfigurationError(
                "disentangled classification requires normalization"
            )
        if self.margin < 0 or self.lr <= 0 or self.batch_size < 1:
            raise ConfigurationError("bad margin / lr / batch size")
        for key in ("margin", "lr", "track_reg_weight"):
            if not math.isfinite(getattr(self, key)):
                raise ConfigurationError(f"{key} must be finite")
        if self.track_reg_weight < 0:
            raise ConfigurationError("track_reg_weight must be >= 0")
        if self.max_epochs < 0:
            raise ConfigurationError("max_epochs must be >= 0")
        self.hidden = tuple(self.hidden)
        check_hidden(self.hidden)

    @property
    def name(self) -> str:
        parts = [self.family]
        if self.normalization:
            parts.append("norm")
        if self.disentanglement:
            parts.append("disent")
        if self.track_reg:
            parts.append("trackreg")
        return "+".join(parts)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["hidden"] = list(self.hidden)
        return d

    def computation_key(self) -> tuple:
        """Configs with equal keys train and evaluate the same computation.

        A proxy model is a normalized classifier: with or without
        disentanglement, ``proxy`` and normalized ``classification`` get the
        same head, init draws, batch stream and score formula, so ``proxy``
        is folded into ``classification``.
        """
        d = asdict(self)
        if self.family == "proxy":
            d["family"] = "classification"
        return tuple(sorted(d.items()))

    @classmethod
    def from_dict(cls, d: dict) -> "VariantConfig":
        d = dict(d)
        if "hidden" in d:
            d["hidden"] = tuple(d["hidden"])
        return cls(**d)


def paper_variants(**overrides) -> list[VariantConfig]:
    """The eight benchmarked variants, in report order."""
    rows = [
        dict(family="triplet", normalization=True),
        dict(family="triplet", normalization=True, disentanglement=True),
        dict(
            family="triplet",
            normalization=True,
            disentanglement=True,
            track_reg=True,
        ),
        dict(family="proxy", normalization=True),
        dict(family="proxy", normalization=True, disentanglement=True),
        dict(family="classification", normalization=False),
        dict(family="classification", normalization=True),
        dict(family="classification", normalization=True, disentanglement=True),
    ]
    return [VariantConfig(**row, **overrides) for row in rows]


@dataclass
class TrainedModel:
    net: EmbeddingNet
    bank: CentroidBank | None
    variant: VariantConfig
    space: LabelSpace


@dataclass
class TrainResult:
    model: TrainedModel
    seconds: float
    epochs: int
    curves: list  # (epoch, train_loss, valid_loss, lr)
    best_valid_loss: float
    cpu_seconds: float  # process CPU time over the span of ``seconds``


def build_model(
    variant: VariantConfig, space: LabelSpace, input_dim: int
) -> TrainedModel:
    net = EmbeddingNet(
        NetConfig(
            input_dim=input_dim,
            embedding_dim=space.embedding_dim,
            hidden=variant.hidden,
            normalize_output=variant.normalization,
        ),
        space,
    )
    bank = None if variant.family == "triplet" else CentroidBank(space)
    init_params(net, bank, variant.seed)
    return TrainedModel(net, bank, variant, space)


def _all_params(model: TrainedModel) -> dict[str, ad.Param]:
    params = dict(model.net.params)
    if model.bank is not None:
        params[BANK_PARAM] = model.bank.weights
    return params


def _triplet_loss(
    variant: VariantConfig, space: LabelSpace, embed_rows, tags, tracks
):
    """The triplet family's loss on one ``TripletBatch`` of tag triplets and,
    with track regularization, one of track triplets.

    ``embed_rows(idx)`` returns the embeddings of dataset rows ``idx`` and
    their backward (``EmbeddingNet.full_embedding``); it is called once, on
    the N, A and P rows of the tag batch followed by the track batch's.  Tag
    triplets are masked to their notion's block when disentangled; with track
    regularization, ``track_reg_weight`` times the unmasked loss of the track
    triplets is added.  Returns the loss and ``backward()``, which runs one
    net backward over the rows of the active triplets alone, each batch's N,
    A and P rows in turn, and yields its ``(name, gradient)`` pieces for
    ``autodiff.grad``.
    """
    masks = space.notion_block_mask[tags.notion] if variant.disentanglement else None
    batches = [(tags, masks, 1.0)]
    if variant.track_reg:
        batches.append((tracks, None, variant.track_reg_weight))
    E, net_backward = embed_rows(np.concatenate(
        [rows for batch, _, _ in batches
         for rows in (batch.negative, batch.anchor, batch.positive)]
    ))
    loss, steps, start = 0.0, [], 0
    for batch, batch_masks, weight in batches:
        B = len(batch)
        EN, EA, EP = (E[start + k * B:start + (k + 1) * B] for k in range(3))
        value, backward = triplet_batch_loss(EA, EP, EN, variant.margin,
                                             batch_masks)
        loss += weight * value
        steps.append((backward, weight, start, B))
        start += 3 * B

    def backward():
        rows, grads = [], []
        for loss_backward, weight, start, B in steps:
            active, gA, gP, gN = loss_backward(weight)
            rows += [start + active, start + B + active, start + 2 * B + active]
            grads += [gN, gA, gP]
        yield from net_backward(np.concatenate(grads), np.concatenate(rows))

    return loss, backward


def _fixed_validation_triplets(
    variant: VariantConfig, valid_ds: Dataset
) -> tuple[TripletBatch, TripletBatch | None]:
    """One tag triplet per validation sample, same seed every epoch so the
    validation loss is comparable across epochs."""
    sampler = checked_sampler(valid_ds, "validation", tracks=variant.track_reg)
    rng = np.random.default_rng(np.random.SeedSequence([variant.seed, 101]))
    tags = sampler.tag_triplets(rng, len(valid_ds))
    tracks = None
    if variant.track_reg:
        tracks = sampler.track_triplets(rng, len(valid_ds))
    return tags, tracks


def validation_loss(
    model: TrainedModel,
    valid_ds: Dataset,
    val_triplets=None,
    val_track_triplets=None,
) -> float:
    """Mean family loss over the validation data (deterministic per model)."""
    if len(valid_ds) == 0:
        raise ConfigurationError("validation split is empty")
    variant = model.variant
    if variant.family == "triplet":
        if val_triplets is None:
            val_triplets, val_track_triplets = _fixed_validation_triplets(
                variant, valid_ds
            )
        E = model.net.full_embedding(valid_ds.features)[0]
        loss, _ = _triplet_loss(variant, model.space, lambda idx: (E[idx], None),
                                val_triplets, val_track_triplets)
        return float(loss)
    # BCE families: mean per-sample loss over the whole split
    return float(_bce(model, valid_ds.features, valid_ds.labels)[0]) / len(valid_ds)


def _bce(model: TrainedModel, X, Y, scale=1.0):
    """Summed BCE of the model's scores for X against labels Y: one score
    call and one loss call over all tags.  Returns the loss and
    ``backward()``, which yields the ``(name, gradient)`` pieces of ``scale``
    times the loss for ``autodiff.grad``."""
    S, score_backward = score_blocks(model.net, model.bank, X,
                                     model.variant.disentanglement)
    loss, bce_backward = bce_sum(S, Y)

    def backward():
        yield from score_backward(bce_backward(scale))

    return loss, backward


def train(
    variant: VariantConfig,
    space: LabelSpace,
    train_ds: Dataset,
    valid_ds: Dataset,
) -> TrainResult:
    """Run the training loop and return the best-validation-epoch model."""
    if len(train_ds) == 0:
        raise ConfigurationError("training split is empty")
    model = build_model(variant, space, train_ds.feature_dim)
    if variant.max_epochs == 0:
        return TrainResult(model, 0.0, 0, [], math.inf, 0.0)

    params = _all_params(model)
    adam = Adam(params, lr=variant.lr)
    sched = PlateauSchedule(lr=variant.lr)
    is_triplet = variant.family == "triplet"
    sampler = (
        checked_sampler(train_ds, "training", tracks=variant.track_reg)
        if is_triplet else None
    )
    val_triplets = val_tracks = None
    if is_triplet:
        val_triplets, val_tracks = _fixed_validation_triplets(variant, valid_ds)

    def embed_rows(idx):
        return model.net.full_embedding(train_ds.features[idx])

    g, slots = ad.packed(params)  # the flat gradient, laid out like adam.flat

    best = math.inf
    best_snapshot = adam.flat.copy()
    curves = []
    epochs_run = 0
    t0, c0 = time.perf_counter(), time.process_time()
    for epoch in range(variant.max_epochs):
        rng = np.random.default_rng(
            np.random.SeedSequence([variant.seed, 3, epoch])
        )
        batch_losses = []
        if is_triplet:
            it = batch_iterator(
                train_ds,
                variant.batch_size,
                "triplet",
                rng,
                sampler=sampler,
                track_reg=variant.track_reg,
            )
            for tag_batch, track_batch in it:
                loss, backward = _triplet_loss(
                    variant, space, embed_rows, tag_batch, track_batch
                )
                ad.grad(slots, backward())
                adam.step(g)
                batch_losses.append(float(loss))
        else:
            for X, Y in batch_iterator(train_ds, variant.batch_size, "sample", rng):
                scale = 1.0 / len(X)
                loss, backward = _bce(model, X, Y, scale)
                ad.grad(slots, backward())
                adam.step(g)
                batch_losses.append(float(loss * scale))
        train_loss = float(np.mean(batch_losses))
        if not math.isfinite(train_loss):
            raise TrainingDivergedError(
                f"training loss diverged at epoch {epoch}", epoch=epoch
            )
        val_loss = validation_loss(model, valid_ds, val_triplets, val_tracks)
        curves.append((epoch, train_loss, val_loss, adam.lr))
        epochs_run = epoch + 1
        if val_loss < best:
            best = val_loss
            best_snapshot = adam.flat.copy()
        try:
            new_lr, stop = sched.update(val_loss)
        except TrainingDivergedError as exc:
            raise TrainingDivergedError(
                f"validation loss diverged at epoch {epoch}", epoch=epoch
            ) from exc
        adam.lr = new_lr
        if stop:
            log.info("%s: early stop at epoch %d", variant.name, epoch)
            break
    seconds = time.perf_counter() - t0
    cpu_seconds = time.process_time() - c0

    adam.flat[:] = best_snapshot
    return TrainResult(model, seconds, epochs_run, curves, best, cpu_seconds)


def save_curves(path, curves) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,valid_loss,lr\n")
        for epoch, tl, vl, lr in curves:
            fh.write(f"{epoch},{tl:.17g},{vl:.17g},{lr:.17g}\n")


# model bundle persistence: <prefix>.params (binary) + <prefix>.json (config)


def _net_meta(net: EmbeddingNet) -> dict:
    c = net.config
    return {
        "input_dim": c.input_dim,
        "embedding_dim": c.embedding_dim,
        "hidden": list(c.hidden),
        "normalize_output": c.normalize_output,
    }


def save_model(prefix, model: TrainedModel) -> None:
    save_params(f"{prefix}.params", _all_params(model))
    meta = {
        "variant": model.variant.to_dict(),
        "net": _net_meta(model.net),
        "space": model.space.to_dict(),
    }
    with open(f"{prefix}.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)


def load_model(prefix) -> TrainedModel:
    """The bundle ``save_model`` wrote at ``prefix``.  The model is built from
    its variant, as ``train`` builds it; invalid JSON, a missing or unknown
    key, a ``net`` block that differs from the variant's net and a malformed
    or mismatched ``.params`` file raise ConfigurationError naming the
    file."""
    path = f"{prefix}.json"
    with open(path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: invalid JSON: {exc}") from exc
    try:
        space = LabelSpace.from_dict(meta["space"])
        variant = VariantConfig.from_dict(meta["variant"])
        saved = dict(meta["net"])
        model = build_model(variant, space, saved["input_dim"])
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing key {exc}") from exc
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    built = _net_meta(model.net)
    for key in sorted(saved.keys() | built.keys()):
        if key not in built:
            raise ConfigurationError(f"{path}: unknown net key {key!r}")
        if key not in saved:
            raise ConfigurationError(f"{path}: missing net key {key!r}")
        if saved[key] != built[key]:
            raise ConfigurationError(
                f"{path}: net key {key!r} is {saved[key]!r}, but variant "
                f"{variant.name} builds {built[key]!r}"
            )
    values = load_params(f"{prefix}.params")
    params = _all_params(model)
    extra = sorted(set(values) - set(params))
    if extra:
        raise ConfigurationError(
            f"{prefix}.params: unexpected parameters {', '.join(map(repr, extra))}"
        )
    for name, p in params.items():
        if name not in values:
            raise ConfigurationError(f"{prefix}.params: missing parameter {name!r}")
        if values[name].shape != p.values.shape:
            raise ConfigurationError(
                f"{prefix}.params: shape mismatch for {name!r}"
            )
        p.values = values[name]
    return model
