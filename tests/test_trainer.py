"""Training loop: variant legality, determinism, model selection, persistence."""

import hashlib
import math

import numpy as np
import pytest

from disembed import autodiff
from disembed.benchmark import load_or_generate
from disembed.config import default_config
from disembed.data import SyntheticSpec, generate_splits
from disembed.errors import ConfigurationError
from disembed.trainer import (
    VariantConfig,
    _fixed_validation_triplets,
    build_model,
    load_model,
    paper_variants,
    save_curves,
    save_model,
    train,
    validation_loss,
)


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
    ],
)
def test_illegal_variants_rejected(kw):
    with pytest.raises(ConfigurationError):
        VariantConfig(**kw)


def test_score_variant_dispatch():
    assert quick(family="triplet").score_variant() is None
    assert quick(family="proxy").score_variant() == "proxy"
    assert (
        quick(family="proxy", disentanglement=True).score_variant()
        == "proxy-disentangled"
    )
    assert (
        quick(family="classification", normalization=False).score_variant()
        == "classification-plain"
    )
    assert (
        quick(family="classification").score_variant()
        == "classification-normalized"
    )
    assert (
        quick(family="classification", disentanglement=True).score_variant()
        == "classification-disentangled"
    )


def test_variant_dict_round_trip():
    v = quick(family="triplet", disentanglement=True, track_reg=True, seed=7)
    assert VariantConfig.from_dict(v.to_dict()) == v


def test_build_model_head_selection(splits):
    space, _ = splits
    m = build_model(quick(family="classification", disentanglement=True), space, 16)
    assert m.net.config.head == "subdense"
    assert m.bank is not None
    m = build_model(quick(family="triplet"), space, 16)
    assert m.net.config.head == "dense"
    assert m.bank is None


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
    for i in range(net.n_hidden):
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
        graph = model.net.full_embedding(valid_ds.features).values
        assert np.array_equal(E, graph)
        tags, tracks = _fixed_validation_triplets(variant, valid_ds)
        masks = None
        if variant.disentanglement:
            masks = np.stack([space.mask(t.notion).vector for t in tags])
        ref = reference_triplet_losses(E, tags, masks, variant.margin).mean()
        if variant.track_reg:
            ref += variant.track_reg_weight * reference_triplet_losses(
                E, tracks, None, variant.margin
            ).mean()
        got = validation_loss(model, valid_ds)
        assert abs(got - ref) <= 1e-15 * abs(ref), (seed, got, ref)


def test_triplet_epoch_slower_than_classification(splits):
    # an epoch of graph-built triplets costs visibly more than BCE batches
    space, (train_ds, valid_ds, _) = splits
    rc = train(quick(family="classification", max_epochs=2), space, train_ds, valid_ds)
    rt = train(quick(family="triplet", max_epochs=2), space, train_ds, valid_ds)
    assert rt.seconds > rc.seconds


# sha256 per paper variant of the float64 bytes of every parameter gradient
# of the first three training steps on default_config(0) (Adam steps between
# them) and of the first epoch's validation loss, recorded from the primitive
# autodiff graph; a change to the forward or backward arithmetic fails it
GRADIENT_DIGESTS = {
    "triplet+norm":
        "80f69fe8b985283f27922c90844654f1259949079d53b6f25c61842f99f31bb3",
    "triplet+norm+disent":
        "f305c69eb2601c6270638d60bf7a562b1b266326df54d726617e3bdb46cbb3b2",
    "triplet+norm+disent+trackreg":
        "69d1ad490aab86a7986facd407c01e8b4ae9bc64428147a0f4ae0f199638c75c",
    "proxy+norm":
        "e7eef53146716a73a8b538517b85129272d10cca036eafa85f854fa2b90691c5",
    "proxy+norm+disent":
        "7fe8e1c2fb62896a772eaa6ac69aeb19806eba9071d2136a049762d70232c4cb",
    "classification":
        "90551436a3defc34d55d2918e1be99efa66e481030d5b0a5e6e5e86c35e6b0de",
    "classification+norm":
        "e7eef53146716a73a8b538517b85129272d10cca036eafa85f854fa2b90691c5",
    "classification+norm+disent":
        "c82d16174aa231cebf1b6399e052645a2c97d4ab7be50af0034368242168e780",
}


def test_first_training_gradients_are_pinned(monkeypatch):
    config = default_config(0, max_epochs=1)
    train_ds, valid_ds, _ = load_or_generate(config)
    grad = autodiff.grad
    digests = {}
    for variant in config.variants:
        digest = hashlib.sha256()
        steps = []

        def recording_grad(loss, params):
            grads = grad(loss, params)
            if len(steps) < 3:
                steps.append(1)
                for g in grads.values():
                    digest.update(np.asarray(g, dtype=np.float64).tobytes())
            return grads

        monkeypatch.setattr(autodiff, "grad", recording_grad)
        result = train(variant, config.space, train_ds, valid_ds)
        assert len(steps) == 3 and result.epochs == 1
        digest.update(np.float64(result.curves[0][2]).tobytes())
        digests[variant.name] = digest.hexdigest()
    moved = [v for v in digests if digests[v] != GRADIENT_DIGESTS.get(v)]
    assert not moved, f"gradients moved for {moved}: {digests}"


def test_empty_split_rejected(splits):
    from disembed.data import Dataset

    space, (train_ds, valid_ds, _) = splits
    with pytest.raises(ConfigurationError):
        train(quick(family="proxy"), space, Dataset([], space), valid_ds)


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
    from disembed.model import embed

    X = test_ds.features
    assert np.array_equal(embed(back.net, X), embed(res.model.net, X))
    assert np.array_equal(back.bank.weights.values, res.model.bank.weights.values)


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
    params["C"] = other.model.bank.weights
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


def test_save_curves_format(tmp_path):
    path = tmp_path / "curves.csv"
    save_curves(path, [(0, 1.5, 2.5, 0.005), (1, 1.25, 2.25, 0.001)])
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,train_loss,valid_loss,lr"
    assert lines[1].startswith("0,1.5,2.5,")
    assert len(lines) == 3
