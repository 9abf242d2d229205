"""Variant-dispatching training loop: Adam, plateau schedule, early stopping,
and best-validation-epoch restoration.

Every family trains with one step: one net forward (``full_embedding``) of
the step's input rows, then the family's loss of the embedded rows
(``_family_loss``: ``triplet_batch_loss``, or ``score_blocks`` then
``bce_sum`` for proxy and classification).  ``autodiff.grad`` runs the
chained backward closures as it writes the parameter gradients into one flat
vector that ``Adam.step`` reads in place.  Only the batch source differs by
family, and validation applies the same loss to the embedded split.

A triplet step runs one net forward over every row of its batches, one
loss call over all of them, and one net backward over the rows of the
triplets past the margin only: a triplet whose hinge is zero has an exactly
zero gradient.  Each weight gradient is then one sum over all of the step's
active rows, tag batch first and N, A, P within a batch.

A model's shape and normalization are its variant's: ``build_model`` gives
the net the variant's hidden widths and the space's width d, the score
formula reads ``variant.normalization``, and a saved bundle's ``net`` block
is derived from the variant and the space.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import autodiff as ad, streams
from .autodiff import Adam, PlateauSchedule
from .data import Dataset
from .errors import (
    ConfigurationError, DatasetError, TrainingDivergedError, as_count,
    as_float, as_seed, at_least, check_types,
)
from .labelspace import LabelSpace
from .losses import bce_sum, triplet_batch_loss
from .model import (
    BANK_PARAM,
    EmbeddingNet,
    init_params,
    load_params,
    save_params,
    score_blocks,
)
from .sampling import TripletBatch, TripletSampler, batch_iterator

log = logging.getLogger(__name__)

FAMILIES = ("triplet", "proxy", "classification")


def _flag(v) -> bool:
    if not isinstance(v, bool):
        raise TypeError(f"expected true or false, got {v!r}")
    return v


def _family(v) -> str:
    if v not in FAMILIES:
        raise ValueError(f"expected one of {', '.join(FAMILIES)}, got {v!r}")
    return v


# the rule of each VariantConfig field; a value is checked, not
# converted, so a config's report keeps its bytes
_VARIANT_TYPES = {
    "family": _family,
    "normalization": _flag, "disentanglement": _flag, "track_reg": _flag,
    "margin": as_float, "lr": as_float, "track_reg_weight": as_float,
    "batch_size": as_count, "max_epochs": at_least(0), "seed": as_seed,
    "hidden": lambda widths: tuple(map(as_count, widths)),
}


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
        check_types(self, _VARIANT_TYPES, "variant")
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
        for key, op in (("margin", ">="), ("lr", ">"), ("track_reg_weight", ">=")):
            v = getattr(self, key)
            if not 0 <= v < math.inf or (op == ">" and v == 0):
                raise ConfigurationError(
                    f"variant key {key!r}: expected a finite number {op} 0, got {v!r}")
        self.hidden = tuple(self.hidden)

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
    """A variant's net and, for proxy and classification, its (tags, d) bank
    ``C``.  Its shape and normalization are the variant's."""

    net: EmbeddingNet
    bank: ad.Param | None
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
    net = EmbeddingNet(space, input_dim, variant.hidden)
    bank = None
    if variant.family != "triplet":
        bank = ad.Param(np.zeros((space.num_tags, space.embedding_dim)))
    init_params(net, bank, variant.seed)
    return TrainedModel(net, bank, variant, space)


def _all_params(model: TrainedModel) -> dict[str, ad.Param]:
    params = dict(model.net.params)
    if model.bank is not None:
        params[BANK_PARAM] = model.bank
    return params


def _triplet_inputs(
    variant: VariantConfig, space: LabelSpace, tags, tracks
) -> tuple[np.ndarray, np.ndarray | None, list[float]]:
    """What one triplet step passes on: the dataset rows to embed, each
    batch's N, A and P rows in turn (the tag ``TripletBatch`` and, with
    track regularization, the track one), then the tag triplets' notion
    masks (None unless disentangled) and each batch's weight, 1.0 for the
    tags and ``track_reg_weight`` for the tracks: ``triplet_batch_loss``'s
    arguments after the embedding."""
    batches = [tags, tracks] if variant.track_reg else [tags]
    idx = np.concatenate([rows for batch in batches
                          for rows in (batch.negative, batch.anchor, batch.positive)])
    masks = space.notion_block_mask[tags.notion] if variant.disentanglement else None
    return idx, masks, [1.0, variant.track_reg_weight][:len(batches)]


def _fixed_validation_triplets(
    variant: VariantConfig, valid_ds: Dataset
) -> tuple[TripletBatch, TripletBatch | None]:
    """One tag triplet per validation sample from stream ``validation``
    (``disembed.streams``), the same every epoch, so epochs' losses compare."""
    sampler = TripletSampler(valid_ds, "validation")
    rng, n = streams.rng("validation", variant.seed), len(valid_ds)
    tags = sampler.tag_triplets(rng, n)
    return tags, sampler.track_triplets(rng, n) if variant.track_reg else None


def validation_loss(
    model: TrainedModel,
    valid_ds: Dataset,
    val_triplets=None,
    val_track_triplets=None,
) -> float:
    """Mean family loss over the validation data (deterministic per model)."""
    if len(valid_ds) == 0:
        raise DatasetError("validation split is empty")
    variant = model.variant
    F = model.net.full_embedding(valid_ds.features)[0]
    if variant.family != "triplet":  # BCE: the mean per-sample loss
        return float(_family_loss(model, F, (valid_ds.labels, 1.0))[0]) / len(valid_ds)
    if val_triplets is None:
        val_triplets, val_track_triplets = _fixed_validation_triplets(
            variant, valid_ds
        )
    idx, masks, weights = _triplet_inputs(variant, model.space, val_triplets,
                                          val_track_triplets)
    return float(_family_loss(model, F[idx], (masks, weights))[0])


def _family_loss(model: TrainedModel, F, batch):
    """The family's loss of F, rows of ``full_embedding``: the triplet hinge
    for ``batch = (masks, weights)``, or for ``batch = (Y, scale)`` ``scale``
    times the summed BCE of F's scores against labels Y.  Returns the loss and
    ``backward()``, which returns the rows of F that carry gradient (None for
    all rows), their gradient, and the ``(name, gradient)`` pieces of the
    parameters past F: the bank's for BCE."""
    variant = model.variant
    if variant.family == "triplet":
        loss, backward = triplet_batch_loss(F, variant.margin, *batch)
        return loss, lambda: (*backward(), ())  # no pieces past F
    Y, scale = batch
    S, score_backward = score_blocks(F, model.bank.values,
                                     variant.normalization,
                                     variant.disentanglement, model.space)
    loss, bce_backward = bce_sum(S, Y)

    def backward():
        gF, gC = score_backward(bce_backward(scale))
        return None, gF, [(BANK_PARAM, gC)]

    return loss * scale, backward


def _pieces(net_backward, backward):
    """A step's ``(name, gradient)`` pieces for ``autodiff.grad``: the net's
    through the rows ``backward()`` returns, then the pieces past F."""
    rows, gF, extra = backward()
    yield from net_backward(gF, rows)
    yield from extra


def _batches(variant: VariantConfig, space: LabelSpace, train_ds: Dataset,
             sampler, rng):
    """One epoch's steps as ``(inputs, batch)``: the dataset rows to embed
    and ``_family_loss``'s batch."""
    if variant.family != "triplet":
        for X, Y in batch_iterator(train_ds, variant.batch_size, "sample", rng):
            yield X, (Y, 1.0 / len(X))
        return
    it = batch_iterator(train_ds, variant.batch_size, "triplet", rng,
                        sampler=sampler, track_reg=variant.track_reg)
    for tags, tracks in it:
        idx, masks, weights = _triplet_inputs(variant, space, tags, tracks)
        yield train_ds.features[idx], (masks, weights)


def train(
    variant: VariantConfig,
    space: LabelSpace,
    train_ds: Dataset,
    valid_ds: Dataset,
) -> TrainResult:
    """Run the training loop and return the best-validation-epoch model."""
    for split, ds in (("training", train_ds), ("validation", valid_ds)):
        if len(ds) == 0:
            raise DatasetError(f"{split} split is empty")
    model = build_model(variant, space, train_ds.feature_dim)
    if variant.max_epochs == 0:
        return TrainResult(model, 0.0, 0, [], math.inf, 0.0)

    params = _all_params(model)
    adam = Adam(params, lr=variant.lr)
    sched = PlateauSchedule(lr=variant.lr)
    sampler = val_triplets = val_tracks = None
    if variant.family == "triplet":
        sampler = TripletSampler(train_ds, "training")
        val_triplets, val_tracks = _fixed_validation_triplets(variant, valid_ds)

    g, slots = ad.packed(params)  # the flat gradient, laid out like adam.flat

    best = math.inf
    best_snapshot = adam.flat.copy()
    curves = []
    epochs_run = 0
    t0, c0 = time.perf_counter(), time.process_time()
    for epoch in range(variant.max_epochs):
        rng = streams.rng("batches", variant.seed, epoch)
        batch_losses = []
        for inputs, batch in _batches(variant, space, train_ds, sampler, rng):
            F, net_backward = model.net.full_embedding(inputs)
            loss, backward = _family_loss(model, F, batch)
            ad.grad(slots, _pieces(net_backward, backward))
            adam.step(g)
            batch_losses.append(float(loss))
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


def _net_meta(model: TrainedModel) -> dict:
    """The bundle's ``net`` block, as the model's variant and space build
    it."""
    return {
        "input_dim": model.net.input_dim,
        "embedding_dim": model.space.embedding_dim,
        "hidden": list(model.variant.hidden),
        "normalize_output": model.variant.normalization,
    }


def save_model(prefix, model: TrainedModel) -> None:
    save_params(f"{prefix}.params", _all_params(model))
    meta = {
        "variant": model.variant.to_dict(),
        "net": _net_meta(model),
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
        variant = VariantConfig(**meta["variant"])
        saved = dict(meta["net"])
        model = build_model(variant, space, saved["input_dim"])
    except KeyError as exc:
        raise ConfigurationError(f"{path}: missing key {exc}") from exc
    except (ConfigurationError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    built = _net_meta(model)
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
