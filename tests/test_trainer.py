"""Training loop: variant legality, determinism, model selection, persistence."""

import dataclasses
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from disembed import autodiff, trainer
from disembed.benchmark import load_or_generate
from disembed.config import ExperimentConfig, default_config
from disembed.data import SyntheticSpec, generate_splits
from disembed.errors import ConfigurationError, DatasetError
from disembed.model import EmbeddingNet, class_scores, embed
from disembed.trainer import (
    VariantConfig,
    _all_params,
    _fixed_validation_triplets,
    _triplet_inputs,
    build_model,
    load_model,
    paper_variants,
    save_curves,
    save_model,
    train,
    validation_loss,
)

from conftest import from_items, mask, n_hidden


@pytest.fixture(scope="module")
def splits():
    from disembed.labelspace import LabelSpace

    space = LabelSpace(
        [("color", ["red", "blue"]), ("shape", ["round", "square"])],
        embedding_dim=8,
    )
    spec = SyntheticSpec(
        space=space, feature_dim=16, tracks=40, excerpts_per_track=3,
        sigma_within=0.3, sigma_excerpt=0.3, seed=2,
    )
    return space, generate_splits(spec, fractions=(0.7, 0.15, 0.15))


def quick(**kw):
    kw.setdefault("max_epochs", 3)
    kw.setdefault("batch_size", 32)
    kw.setdefault("hidden", (16, 16))
    return VariantConfig(**kw)


# --- variant legality ------------------------------------------------------


def test_the_eight_paper_variants():
    variants = paper_variants()
    assert len(variants) == 8
    assert [v.name for v in variants] == [
        "triplet+norm",
        "triplet+norm+disent",
        "triplet+norm+disent+trackreg",
        "proxy+norm",
        "proxy+norm+disent",
        "classification",
        "classification+norm",
        "classification+norm+disent",
    ]


@pytest.mark.parametrize(
    "kw",
    [
        dict(family="triplet", normalization=False),
        dict(family="proxy", normalization=False),
        dict(family="classification", normalization=False, disentanglement=True),
        dict(family="triplet", track_reg=True),  # track reg needs disent
        dict(family="proxy", disentanglement=True, track_reg=True),
        dict(family="nearest-neighbor"),
        dict(family="triplet", margin=-0.5),
        dict(family="triplet", lr=0.0),
        dict(family="triplet", max_epochs=-1),
        # hidden widths below 1 or not integers (numpy used to overflow or
        # raise on them), or not a list
        dict(family="triplet", hidden=(0,)),
        dict(family="proxy", hidden=(128, 0)),
        dict(family="classification", hidden=(-3,)),
        dict(family="classification", hidden=("8",)),
        dict(family="classification", hidden=(4.0,)),
        dict(family="triplet", hidden=5),
        # a negative weight maximizes the track hinge; a non-finite margin,
        # rate or weight only surfaced as a diverged epoch
        dict(family="triplet", disentanglement=True, track_reg=True,
             track_reg_weight=-1.0),
        dict(family="triplet", disentanglement=True, track_reg=True,
             track_reg_weight=float("nan")),
        dict(family="triplet", margin=float("nan")),
        dict(family="triplet", lr=float("nan")),
        dict(family="proxy", lr=float("inf")),
        # a flag, count or rate of the wrong type: "false" is truthy, and a
        # float batch size or epoch count only failed inside training
        dict(family="classification", normalization="false"),
        dict(family="classification", normalization=0),
        dict(family="triplet", disentanglement=1),
        dict(family="triplet", disentanglement=True, track_reg="yes"),
        dict(family="triplet", batch_size=64.5),
        dict(family="triplet", batch_size=64.0),
        dict(family="triplet", batch_size=True),
        dict(family="proxy", max_epochs=2.0),
        dict(family="proxy", seed=1.5),
        dict(family="proxy", seed=False),
        dict(family="triplet", margin=True),
        dict(family="triplet", margin="0.1"),
        dict(family="proxy", lr=None),
        dict(family="triplet", disentanglement=True, track_reg=True,
             track_reg_weight=True),
    ],
)
def test_illegal_variants_rejected(kw):
    with pytest.raises(ConfigurationError):
        VariantConfig(**kw)


@pytest.mark.parametrize("key, value", [
    ("normalization", "false"), ("batch_size", 64.5), ("max_epochs", 2.0),
    ("seed", 1.5), ("margin", True), ("lr", "0.1"), ("hidden", 5),
    ("hidden", [4.0]),
    # values out of range used to raise "bad margin / lr" or name no key,
    # and an integer past float range an OverflowError traceback
    ("margin", -0.5), ("lr", 0.0), ("lr", float("nan")),
    ("track_reg_weight", -1.0), ("track_reg_weight", float("inf")),
    ("margin", 10**400),
])
def test_variant_type_error_names_the_key(key, value):
    # a config file's variant of the wrong type is rejected when the config
    # is read, with the key in the message, instead of failing in training
    d = default_config(0).to_dict()
    d["variants"] = [dict(family="classification", **{key: value})]
    with pytest.raises(ConfigurationError, match=repr(key)):
        ExperimentConfig.from_dict(d)


def test_variant_values_are_checked_not_converted():
    # an int margin stays an int, so a report of such a config keeps its bytes
    v = VariantConfig(family="triplet", margin=0, lr=1, track_reg_weight=2)
    assert v.to_dict()["margin"] == 0 and type(v.margin) is int


def test_variant_dict_round_trip():
    v = quick(family="triplet", disentanglement=True, track_reg=True, seed=7)
    assert VariantConfig(**v.to_dict()) == v


def test_build_model_head_selection(splits):
    # every variant draws its head H whole, then W0; the bank is the
    # score-based families' alone
    space, _ = splits
    width, d = 16, space.embedding_dim
    bound = 1.0 / np.sqrt(width)
    rng = np.random.default_rng(np.uint64(4))
    H = rng.uniform(-bound, bound, size=(width, d))
    W0 = rng.uniform(-1 / 4, 1 / 4, size=(16, 16))
    for kw in (dict(family="classification", disentanglement=True),
               dict(family="proxy", disentanglement=True),
               dict(family="triplet")):
        m = build_model(quick(seed=4, **kw), space, 16)
        assert np.array_equal(m.net.params["H"].values, H)
        assert np.array_equal(m.net.params["W0"].values, W0)
        assert (m.bank is None) == (kw["family"] == "triplet")


# --- training behaviour ----------------------------------------------------


@pytest.mark.parametrize(
    "kw",
    [
        dict(family="classification", normalization=False),
        dict(family="classification", disentanglement=True),
        dict(family="proxy"),
        dict(family="triplet", disentanglement=True, track_reg=True),
    ],
    ids=["plain", "subdense", "proxy", "trackreg"],
)
def test_training_is_deterministic(splits, kw):
    space, (train_ds, valid_ds, _) = splits
    r1 = train(quick(seed=3, **kw), space, train_ds, valid_ds)
    r2 = train(quick(seed=3, **kw), space, train_ds, valid_ds)
    assert r1.curves == r2.curves
    for name, p in r1.model.net.params.items():
        assert np.array_equal(p.values, r2.model.net.params[name].values)


def test_zero_epochs_returns_initialized_model(splits):
    space, (train_ds, valid_ds, _) = splits
    res = train(quick(family="proxy", max_epochs=0), space, train_ds, valid_ds)
    assert res.epochs == 0 and res.curves == []
    assert res.best_valid_loss == math.inf


def test_best_epoch_restoration(splits):
    # the returned model's validation loss equals the curve minimum
    space, (train_ds, valid_ds, _) = splits
    res = train(
        quick(family="classification", max_epochs=6, lr=0.05),
        space, train_ds, valid_ds,
    )
    vals = [v for _, _, v, _ in res.curves]
    restored = validation_loss(res.model, valid_ds)
    assert restored == pytest.approx(min(vals), abs=1e-9)
    assert res.best_valid_loss == pytest.approx(min(vals), abs=1e-9)


def test_training_reduces_loss(splits):
    space, (train_ds, valid_ds, _) = splits
    res = train(
        quick(family="classification", max_epochs=10, lr=0.02),
        space, train_ds, valid_ds,
    )
    first = res.curves[0][1]
    best = min(c[1] for c in res.curves)
    assert best < first


def test_untrained_bce_validation_near_t_ln2(splits):
    # zero-epoch model has zero weights upstream of random centroids, so all
    # scores are sigmoid(0) = 0.5 and the per-sample BCE is T ln 2
    space, (train_ds, valid_ds, _) = splits
    res = train(quick(family="proxy", max_epochs=0), space, train_ds, valid_ds)
    for p in res.model.net.params.values():
        p.values = np.zeros_like(p.values)
    val = validation_loss(res.model, valid_ds)
    assert val == pytest.approx(space.num_tags * math.log(2.0), rel=1e-9)


def reference_triplet_losses(E, triplets, masks, margin) -> np.ndarray:
    """Per-triplet hinge losses in plain numpy: the reference for the
    triplet family's validation loss."""
    ea = E[[t.anchor for t in triplets]]
    ep = E[[t.positive for t in triplets]]
    en = E[[t.negative for t in triplets]]
    if masks is not None:
        ea, ep, en = ea * masks, ep * masks, en * masks

    def ncos(a, b):
        na = np.maximum(np.linalg.norm(a, axis=1), 1e-12)
        nb = np.maximum(np.linalg.norm(b, axis=1), 1e-12)
        return (a * b).sum(axis=1) / (na * nb)

    return np.maximum(0.0, ncos(ea, en) - ncos(ea, ep) + margin)


def _np_forward(net, X):
    """The dense net's pre-normalization embedding in plain numpy."""
    h = X
    for i in range(n_hidden(net)):
        W, b = net.params[f"W{i}"].values, net.params[f"b{i}"].values
        h = np.maximum(h @ W + b, 0)
    return np.maximum(h @ net.params["H"].values, 0)


@pytest.mark.parametrize("kw", [
    dict(),
    dict(disentanglement=True),
    dict(disentanglement=True, track_reg=True, track_reg_weight=0.7),
], ids=["norm", "disent", "trackreg"])
def test_triplet_validation_loss_matches_numpy_reference(splits, kw):
    space, (train_ds, valid_ds, _) = splits
    for seed in range(5):
        variant = quick(family="triplet", max_epochs=2, seed=seed, **kw)
        model = train(variant, space, train_ds, valid_ds).model
        E = _np_forward(model.net, valid_ds.features)
        assert np.array_equal(E, model.net.full_embedding(valid_ds.features)[0])
        tags, tracks = _fixed_validation_triplets(variant, valid_ds)
        masks = None
        if variant.disentanglement:
            masks = np.stack([mask(space, t.notion) for t in tags])
        ref = reference_triplet_losses(E, tags, masks, variant.margin).mean()
        if variant.track_reg:
            ref += variant.track_reg_weight * reference_triplet_losses(
                E, tracks, None, variant.margin
            ).mean()
        got = validation_loss(model, valid_ds)
        assert abs(got - ref) <= 1e-15 * abs(ref), (seed, got, ref)


@pytest.mark.parametrize("kw", [
    dict(),
    dict(disentanglement=True, track_reg=True),
], ids=["norm", "trackreg"])
def test_triplet_step_runs_one_forward_over_every_row(splits, monkeypatch, kw):
    # one full_embedding call per step over the N, A and P rows of the tag
    # batch (and the track batch's), then the validation forward
    space, (train_ds, valid_ds, _) = splits
    batch_rows, forward_rows = [], []
    iterate, forward = trainer.batch_iterator, EmbeddingNet.full_embedding

    def recording_iterator(*args, **kwargs):
        for tags, tracks in iterate(*args, **kwargs):
            batch_rows.append(
                3 * len(tags) + (0 if tracks is None else 3 * len(tracks)))
            yield tags, tracks

    def recording_forward(net, x):
        forward_rows.append(len(x))
        return forward(net, x)

    monkeypatch.setattr(trainer, "batch_iterator", recording_iterator)
    monkeypatch.setattr(EmbeddingNet, "full_embedding", recording_forward)
    variant = quick(family="triplet", max_epochs=1, **kw)
    train(variant, space, train_ds, valid_ds)
    assert len(batch_rows) > 1
    assert forward_rows == batch_rows + [len(valid_ds)]
    assert batch_rows[0] == (6 if variant.track_reg else 3) * variant.batch_size


@pytest.mark.parametrize("kw", [
    dict(),
    dict(disentanglement=True, track_reg=True),
], ids=["norm", "trackreg"])
def test_all_inactive_triplet_step_has_a_zero_gradient(splits, kw):
    # with margin 0 and every negative equal to its positive, every hinge
    # argument is exactly 0: no triplet is active, and the flat gradient,
    # filled with ones beforehand, is all zeros
    space, (train_ds, valid_ds, _) = splits
    variant = quick(family="triplet", margin=0.0, **kw)
    model = build_model(variant, space, train_ds.feature_dim)
    flat, slots = autodiff.packed(_all_params(model))
    flat[:] = 1.0
    tags, tracks = _fixed_validation_triplets(variant, train_ds)

    def tie(batch):
        if batch is None:
            return None
        return dataclasses.replace(batch, negative=batch.positive)

    idx, masks, weights = _triplet_inputs(variant, space, tie(tags), tie(tracks))
    E, net_backward = model.net.full_embedding(train_ds.features[idx])
    loss, backward = trainer.triplet_batch_loss(E, variant.margin, masks, weights)
    rows, gE = backward()
    autodiff.grad(slots, net_backward(gE, rows))
    assert loss == 0.0
    assert rows.size == 0 and gE.shape == (0, space.embedding_dim)
    assert not flat.any()


@pytest.mark.parametrize("kw", [
    dict(),
    dict(disentanglement=True),
    dict(disentanglement=True, track_reg=True),
], ids=["norm", "disent", "trackreg"])
def test_triplet_step_makes_one_loss_call(splits, monkeypatch, kw):
    # each training step and each validation makes one triplet_batch_loss
    # call, over the rows of all of its batches, with one l2_rows call; each
    # training step back-propagates through one l2_rows_backward call
    space, (train_ds, valid_ds, _) = splits
    calls, batch_sizes = [], []
    iterate, loss = trainer.batch_iterator, trainer.triplet_batch_loss

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    def recording_iterator(*args, **kwargs):
        for tags, tracks in iterate(*args, **kwargs):
            batch_sizes.append(len(tags))
            yield tags, tracks

    def recording_loss(E, margin, masks, weights):
        calls.append(("loss", len(E), masks is not None, tuple(weights)))
        return loss(E, margin, masks, weights)

    monkeypatch.setattr(trainer, "batch_iterator", recording_iterator)
    monkeypatch.setattr(trainer, "triplet_batch_loss", recording_loss)
    for name in ("l2_rows", "l2_rows_backward"):
        monkeypatch.setattr(autodiff, name,
                            counting(name, getattr(autodiff, name)))
    variant = quick(family="triplet", max_epochs=1, track_reg_weight=0.7, **kw)
    train(variant, space, train_ds, valid_ds)
    k = 2 if variant.track_reg else 1
    masked, weights = variant.disentanglement, (1.0, 0.7)[:k]
    assert len(batch_sizes) > 1 and batch_sizes[0] == variant.batch_size
    steps = [call for B in batch_sizes for call in (
        ("loss", 3 * k * B, masked, weights), "l2_rows", "l2_rows_backward")]
    validation = [("loss", 3 * k * len(valid_ds), masked, weights), "l2_rows"]
    assert calls == steps + validation


@pytest.mark.parametrize("kw", [
    dict(family="proxy"),
    dict(family="proxy", disentanglement=True),
    dict(family="classification", normalization=False),
], ids=["proxy", "proxy-disent", "classification"])
def test_bce_step_makes_one_forward_score_and_loss_call(splits, monkeypatch,
                                                        kw):
    # the BCE counterpart of the two triplet step tests above: each training
    # step and each validation makes one full_embedding call over its rows,
    # then one score_blocks and one bce_sum call over the same rows, each
    # patched where the trainer looks it up
    space, (train_ds, valid_ds, _) = splits
    calls, batch_rows = [], []
    iterate = trainer.batch_iterator

    def recording_iterator(*args, **kwargs):
        for X, Y in iterate(*args, **kwargs):
            batch_rows.append(len(X))
            yield X, Y

    def recording(name, fn, rows_arg):
        def wrapper(*args, **kwargs):
            calls.append((name, len(args[rows_arg])))
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(trainer, "batch_iterator", recording_iterator)
    monkeypatch.setattr(EmbeddingNet, "full_embedding",
                        recording("forward", EmbeddingNet.full_embedding, 1))
    monkeypatch.setattr(trainer, "score_blocks",
                        recording("score", trainer.score_blocks, 0))
    monkeypatch.setattr(trainer, "bce_sum", recording("bce", trainer.bce_sum, 0))
    variant = quick(max_epochs=1, **kw)
    train(variant, space, train_ds, valid_ds)
    assert len(batch_rows) > 1 and batch_rows[0] == variant.batch_size
    assert calls == [(name, rows) for rows in batch_rows + [len(valid_ds)]
                     for name in ("forward", "score", "bce")]


@pytest.mark.parametrize("family", ["triplet", "proxy", "classification"])
@pytest.mark.parametrize("split", ["training", "validation"])
def test_empty_split_is_refused_before_any_batch(splits, monkeypatch, family,
                                                 split):
    # every family refuses an empty split, naming it, before its first
    # epoch: a BCE family used to train a whole epoch on an empty validation
    # split before validation_loss raised
    space, (train_ds, valid_ds, _) = splits
    empty = from_items([], space)
    calls = []

    def recording_iterator(*args, **kwargs):
        calls.append(args)
        return iter(())

    monkeypatch.setattr(trainer, "batch_iterator", recording_iterator)
    data = (empty, valid_ds) if split == "training" else (train_ds, empty)
    with pytest.raises(DatasetError, match=f"^{split} split is empty$"):
        train(quick(family=family, max_epochs=1), space, *data)
    assert calls == []


def test_triplet_epoch_slower_than_classification(splits):
    # an epoch of triplet steps costs visibly more than one of BCE batches
    space, (train_ds, valid_ds, _) = splits
    rc = train(quick(family="classification", max_epochs=2), space, train_ds, valid_ds)
    rt = train(quick(family="triplet", max_epochs=2), space, train_ds, valid_ds)
    assert rt.seconds > rc.seconds


# sha256 per paper variant of the float64 bytes of the flat gradient (every
# parameter gradient, in parameter order) of the first three training steps
# on default_config(0) (Adam steps between them) and of the first epoch's
# validation loss, recorded from the primitive autodiff graph of earlier
# versions (the proxy and classification entries again when the score
# sigmoid moved from scipy's expit to numpy's exp, whose last bits differ;
# the triplet entries again when a step's weight gradients became one sum
# over the active rows of one backward instead of one sum per forward).
# Each normalized classifier shares its proxy's digest: the pair is one
# computation.  A change to the forward or backward arithmetic fails it
GRADIENT_DIGESTS = {
    "triplet+norm":
        "5a3708f770981fb470490bbe3c0c9ffca97cd4a674f4270ae1570192f2783fe7",
    "triplet+norm+disent":
        "50aee909306dce3d592cd9bbd994b733bf0e88fc66b2d8f73666d3d056523e91",
    "triplet+norm+disent+trackreg":
        "761b0e16a7fa039c17de1dc0bc4d4a51b9d633b40626cf749cad4e1e0a1115bc",
    "proxy+norm":
        "88b1cf3ca8e2650e5f1d5ec5f12322907953f2ca5ab53397ee33b0588d89f2f7",
    "proxy+norm+disent":
        "479e2517d62a6b06ca158ce24ce07ca27fee44c701f3cfeba589d819dc433b4e",
    "classification":
        "715bb5c6a1caa27e68b82a85cc1a68016185849b4cba99510c607f0df10fe83a",
    "classification+norm":
        "88b1cf3ca8e2650e5f1d5ec5f12322907953f2ca5ab53397ee33b0588d89f2f7",
    "classification+norm+disent":
        "479e2517d62a6b06ca158ce24ce07ca27fee44c701f3cfeba589d819dc433b4e",
}


def test_first_training_gradients_are_pinned(monkeypatch):
    config = default_config(0, max_epochs=1)
    train_ds, valid_ds, _ = load_or_generate(config)
    grad = autodiff.grad
    digests = {}
    for variant in config.variants:
        digest = hashlib.sha256()
        steps = []

        def recording_grad(slots, pieces):
            grad(slots, pieces)
            if len(steps) < 3:
                steps.append(1)
                flat = np.concatenate([g.reshape(-1) for g in slots.values()])
                digest.update(flat.tobytes())

        monkeypatch.setattr(autodiff, "grad", recording_grad)
        result = train(variant, config.space, train_ds, valid_ds)
        assert len(steps) == 3 and result.epochs == 1
        digest.update(np.float64(result.curves[0][2]).tobytes())
        digests[variant.name] = digest.hexdigest()
    moved = [v for v in digests if digests[v] != GRADIENT_DIGESTS.get(v)]
    assert not moved, f"gradients moved for {moved}: {digests}"


# float.hex of each (train_loss, valid_loss, lr) of a tiny run's curves, per
# BCE variant.  The gradient digests see only the first validation loss, so
# this pins the per-step scaling of the training loss and the division of
# the summed validation BCE by the split size over three epochs
BCE_CURVES = {
    "proxy": [
        ("0x1.547c227670dc9p+1", "0x1.48d686075d44fp+1", "0x1.47ae147ae147bp-8"),
        ("0x1.40d793490e335p+1", "0x1.4387cfad5bcabp+1", "0x1.47ae147ae147bp-8"),
        ("0x1.370fda0d2b057p+1", "0x1.3dfde0c261835p+1", "0x1.47ae147ae147bp-8"),
    ],
    "classification": [
        ("0x1.5dadfe2aba650p+1", "0x1.5577778e92fe5p+1", "0x1.47ae147ae147bp-8"),
        ("0x1.4e935b6689c81p+1", "0x1.492f461e57828p+1", "0x1.47ae147ae147bp-8"),
        ("0x1.3936e645cc60fp+1", "0x1.3506b754079a4p+1", "0x1.47ae147ae147bp-8"),
    ],
}


@pytest.mark.parametrize("family", list(BCE_CURVES))
def test_bce_loss_curves_are_pinned(splits, family):
    space, (train_ds, valid_ds, _) = splits
    variant = quick(family=family, normalization=family == "proxy")
    curves = train(variant, space, train_ds, valid_ds).curves
    assert [epoch for epoch, *_ in curves] == [0, 1, 2]
    got = [tuple(float.hex(v) for v in row[1:]) for row in curves]
    assert got == BCE_CURVES[family]


# --- persistence -----------------------------------------------------------


def test_model_save_load_round_trip(splits, tmp_path):
    space, (train_ds, valid_ds, test_ds) = splits
    res = train(
        quick(family="classification", disentanglement=True, seed=5),
        space, train_ds, valid_ds,
    )
    prefix = tmp_path / "model"
    save_model(prefix, res.model)
    back = load_model(prefix)
    assert back.variant == res.model.variant
    X = test_ds.features
    assert np.array_equal(embed(back.net, X, True), embed(res.model.net, X, True))
    assert np.array_equal(back.bank.values, res.model.bank.values)


def test_load_model_rejects_wrong_params(splits, tmp_path):
    space, (train_ds, valid_ds, _) = splits
    res = train(quick(family="proxy", seed=1), space, train_ds, valid_ds)
    prefix = tmp_path / "m"
    save_model(prefix, res.model)
    # swap in a parameter file from a different architecture
    other = train(
        quick(family="proxy", seed=1, hidden=(8, 8)), space, train_ds, valid_ds
    )
    from disembed.model import save_params

    params = dict(other.model.net.params)
    params["C"] = other.model.bank
    save_params(f"{prefix}.params", params)
    with pytest.raises(ConfigurationError):
        load_model(prefix)


def test_load_model_rejects_unexpected_params(splits, tmp_path):
    space, (train_ds, valid_ds, _) = splits
    res = train(quick(family="triplet", max_epochs=1), space, train_ds,
                valid_ds)
    prefix = tmp_path / "m"
    save_model(prefix, res.model)
    from disembed.model import save_params

    params = dict(res.model.net.params)
    params["C"] = np.zeros((space.num_tags, space.embedding_dim))
    params["H9"] = np.zeros((16, 2))
    save_params(f"{prefix}.params", params)
    with pytest.raises(ConfigurationError, match="unexpected parameters 'C', 'H9'"):
        load_model(prefix)


BUNDLE_FAULTS = {
    # saved before every net had one head: "head" is no longer a key
    "old_head_key": lambda meta: meta["net"].update(head="dense"),
    "unknown_net_key": lambda meta: meta["net"].update(depth=3),
    "unknown_variant_key": lambda meta: meta["variant"].update(colour="red"),
    "missing_hidden": lambda meta: meta["net"].pop("hidden"),
    "zero_hidden_width": lambda meta: meta["net"].update(hidden=[16, 0]),
    "missing_variant": lambda meta: meta.pop("variant"),
    "illegal_variant": lambda meta: meta["variant"].update(family="knn"),
    # a net block that contradicts the variant it was saved with
    "net_not_normalized": lambda meta: meta["net"].update(
        normalize_output=False),
    # the width d is the label space's
    "net_embedding_dim_differs": lambda meta: meta["net"].update(
        embedding_dim=16),
    "variant_hidden_differs": lambda meta: meta["variant"].update(hidden=[7]),
    "invalid_json": None,
}


@pytest.mark.parametrize("fault", list(BUNDLE_FAULTS))
def test_load_model_rejects_malformed_bundle(splits, tmp_path, fault):
    space, (train_ds, valid_ds, _) = splits
    res = train(quick(family="proxy", max_epochs=1), space, train_ds, valid_ds)
    prefix = tmp_path / "m"
    save_model(prefix, res.model)
    path = tmp_path / "m.json"
    if BUNDLE_FAULTS[fault] is None:
        path.write_text(path.read_text()[:-3])
    else:
        meta = json.loads(path.read_text())
        BUNDLE_FAULTS[fault](meta)
        path.write_text(json.dumps(meta))
    with pytest.raises(ConfigurationError, match=r"m\.json"):
        load_model(prefix)


# bundles saved by an earlier version, and the sha256 of the embeddings and
# the tag scores of five fixed rows under each: the on-disk format, and what a
# bundle loads as, stay fixed
DATA = pathlib.Path(__file__).parent / "data"
SAVED_BUNDLES = {
    "classification": (
        "b13543b90ec7d289f9f2f316e0925f137c98fc3da0b574338dc1d4ebfb5e5c98",
        "c6dd92f590835b760c639704e30ed81a261638d52b8fbc7238bcc915e36a7a41"),
    "proxy_norm_disent": (
        "a0662ba96843f503db09d0980c5c741ccf7251634e5a4d6e30b076c476a34db2",
        "20857b8fd0662f5b643467e3a1d81abae4fa952494c19df76f7a5166f00b2665"),
}


@pytest.mark.parametrize("name", list(SAVED_BUNDLES))
def test_saved_bundle_loads_to_its_digests(tmp_path, name):
    prefix = DATA / f"bundle_{name}"
    model = load_model(prefix)
    v = model.variant
    X = np.random.default_rng(0).normal(size=(5, 6))
    E = embed(model.net, X, v.normalization)
    S = class_scores(model.net, model.bank, X, v.normalization,
                     v.disentanglement)
    assert (hashlib.sha256(E.tobytes()).hexdigest(),
            hashlib.sha256(S.tobytes()).hexdigest()) == SAVED_BUNDLES[name]
    save_model(tmp_path / "m", model)
    for ext in ("json", "params"):
        assert ((tmp_path / f"m.{ext}").read_bytes()
                == pathlib.Path(f"{prefix}.{ext}").read_bytes())


def test_save_curves_format(tmp_path):
    path = tmp_path / "curves.csv"
    save_curves(path, [(0, 1.5, 2.5, 0.005), (1, 1.25, 2.25, 0.001)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,valid_loss,lr"
    assert lines[1].startswith("0,1.5,2.5,")
    assert len(lines) == 3
