"""run_benchmark trains and evaluates each distinct computation once: each
proxy / normalized classification pair shares one run and one report."""

import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from disembed import benchmark, trainer
from disembed import model as model_module
from disembed.autodiff import grad, packed
from disembed.config import ExperimentConfig, default_label_space
from disembed.data import SyntheticSpec, generate_splits
from disembed.errors import TrainingDivergedError
from disembed.evaluation import EvalReport, auc_tags, strip_timing
from disembed.losses import bce_sum
from disembed.model import EmbeddingNet, class_scores, score_blocks
from disembed.reports import render_table1
from disembed.trainer import VariantConfig, build_model, paper_variants

SMALL = dict(max_epochs=2, seed=13, hidden=(32, 32), lr=0.08)


def small_config(*variants) -> ExperimentConfig:
    space = default_label_space()
    return ExperimentConfig(
        space=space,
        synthetic=SyntheticSpec(space=space, tracks=80, excerpts_per_track=3,
                                seed=13),
        variants=list(variants),
        triplets_per_notion=100,
        seed=13,
    )


def proxy_norm(disentanglement=False):
    return VariantConfig(family="proxy", disentanglement=disentanglement,
                         **SMALL)


def classification_norm(disentanglement=False):
    return VariantConfig(family="classification",
                         disentanglement=disentanglement, **SMALL)


# the two pairs that share a run: (proxy_norm(d), classification_norm(d))
TWINS = pytest.mark.parametrize("disentanglement", [False, True],
                                ids=["norm", "disent"])


def counting(monkeypatch, owner, name, replacement=None):
    """Replace ``owner.<name>`` by a wrapper that records the variant name of
    every call, then calls ``replacement`` or the original.  The first
    argument is the variant (``train``) or the model (``evaluate_model``)."""
    fn = replacement or getattr(owner, name)
    calls = []

    def wrapper(first, *args, **kwargs):
        calls.append(getattr(first, "variant", first).name)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


@TWINS
def test_shared_pair_trains_and_evaluates_once(monkeypatch, disentanglement):
    proxy = proxy_norm(disentanglement)
    classifier = classification_norm(disentanglement)
    trained = counting(monkeypatch, trainer, "train")
    rows = counting(monkeypatch, benchmark, "train")
    evaluated = counting(monkeypatch, benchmark, "evaluate_model")
    out = benchmark.run_benchmark(small_config(proxy, classifier))
    assert trained == evaluated == [proxy.name]
    # each row passes through benchmark.train; the twin's call trains nothing
    assert rows == [proxy.name, classifier.name]

    first, twin = out["reports"]
    assert "shared_with" not in first
    assert twin["shared_with"] == proxy.name
    assert twin["variant"] == classifier.to_dict()
    assert twin["timing"] == first["timing"] and twin["epochs"] == first["epochs"]
    assert twin["timing"]["cpu_seconds"] > 0

    alone = benchmark.run_benchmark(small_config(classifier))
    [expected] = alone["reports"]
    del twin["shared_with"]
    assert strip_timing(twin) == strip_timing(expected)


@TWINS
def test_twin_of_a_failed_variant_carries_its_error(monkeypatch,
                                                    disentanglement):
    def diverge(variant, *args):
        raise TrainingDivergedError("training loss diverged at epoch 0", epoch=0)

    proxy = proxy_norm(disentanglement)
    trained = counting(monkeypatch, trainer, "train", diverge)
    rows = counting(monkeypatch, benchmark, "train")
    out = benchmark.run_benchmark(
        small_config(proxy, classification_norm(disentanglement)))
    assert trained == rows == [proxy.name]
    first, twin = out["reports"]
    assert first["error"] == twin["error"] == "training loss diverged at epoch 0"
    assert twin["shared_with"] == proxy.name
    assert twin["timing"]["training_time_ratio"] is None


def test_computation_key_folds_both_proxies():
    for disentanglement in (False, True):
        assert (proxy_norm(disentanglement).computation_key()
                == classification_norm(disentanglement).computation_key())
    apart = [
        (VariantConfig(family="classification", normalization=False),
         VariantConfig(family="classification")),
        (proxy_norm(), classification_norm(True)),
    ]
    for field, value in [("seed", 14), ("lr", 0.01), ("max_epochs", 3),
                         ("batch_size", 32), ("hidden", (32, 16))]:
        apart.append((proxy_norm(),
                      VariantConfig(family="classification",
                                    **{**SMALL, field: value})))
    for a, b in apart:
        assert a.computation_key() != b.computation_key(), (a, b)


@pytest.mark.parametrize("seed", [0, 7])
def test_variants_with_equal_keys_build_and_score_identically(seed):
    """A pair that shares a run must have equal initial parameters, scores
    and gradients, so a later head or init change cannot share unequal runs."""
    space = default_label_space()
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(16, 64))
    Y = (rng.random(size=(16, space.num_tags)) < 0.3).astype(np.float64)
    variants = paper_variants(seed=seed)
    pairs = [(a, b) for a, b in combinations(variants, 2)
             if a.computation_key() == b.computation_key()]
    assert [(a.name, b.name) for a, b in pairs] == [
        ("proxy+norm", "classification+norm"),
        ("proxy+norm+disent", "classification+norm+disent")]

    for a, b in pairs:
        runs = []
        for variant in (a, b):
            model = build_model(variant, space, X.shape[1])
            params = {**model.net.params, "C": model.bank}
            F, net_backward = model.net.full_embedding(X)
            S, score_backward = score_blocks(F, model.bank.values,
                                             variant.normalization,
                                             variant.disentanglement, space)
            gF, gC = score_backward(bce_sum(S, Y)[1](1.0))
            grads = packed(params)[1]
            grad(grads, [*net_backward(gF), ("C", gC)])
            runs.append(({k: p.values for k, p in params.items()}, S, grads))
        (pa, sa, ga), (pb, sb, gb) = runs
        assert pa.keys() == pb.keys() == ga.keys() == gb.keys()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)
        assert np.array_equal(sa, sb)
        assert all(np.array_equal(ga[k], gb[k]) for k in ga)


def test_table1_stars_each_twin_and_names_its_first_row():
    rows = [(proxy_norm(), None), (proxy_norm(True), None),
            (classification_norm(), "proxy+norm"),
            (classification_norm(True), "proxy+norm+disent")]
    reports = [EvalReport(variant=v.to_dict(), recall_at={1: 0.5}, auc=0.75,
                          training_time_ratio=1.25, shared_with=first).to_dict()
               for v, first in rows]
    lines = render_table1(reports, (1,)).splitlines()
    # header and rule, one line per row, then the footnotes under the
    # numbered marks of their rows
    assert [line.split()[3] for line in lines[2:6]] == [
        "1.25", "1.25", "1.25*1", "1.25*2"]
    assert lines[6:] == [
        f"*{i} same run as {first}: trained once, time copied, "
        "not measured again"
        for i, first in ((1, "proxy+norm"), (2, "proxy+norm+disent"))]


def tiny_config(variants) -> ExperimentConfig:
    space = default_label_space()
    return ExperimentConfig(
        space=space,
        synthetic=SyntheticSpec(space=space, tracks=60, excerpts_per_track=3,
                                seed=13),
        variants=variants,
        triplets_per_notion=50,
        seed=13,
    )


def ratios_and_walls(out) -> tuple[list, list]:
    timings = [r["timing"] for r in out["reports"]]
    return ([t["training_time_ratio"] for t in timings],
            [t["wall_seconds"] for t in timings])


def test_training_time_ratio_is_per_row_not_per_name():
    # two rows named "classification" that differ in epochs and lr
    rows = [VariantConfig(family="classification", normalization=False,
                          max_epochs=epochs, lr=lr, hidden=(16, 16))
            for epochs, lr in [(3, 0.01), (1, 0.02)]]
    assert rows[0].name == rows[1].name
    ratios, walls = ratios_and_walls(benchmark.run_benchmark(tiny_config(rows)))
    assert ratios == [w / min(walls) for w in walls]


def test_shared_pair_reads_equal_training_time_ratios():
    variants = paper_variants(max_epochs=1, hidden=(16, 16), seed=13)
    ratios, walls = ratios_and_walls(
        benchmark.run_benchmark(tiny_config(variants)))
    assert ratios == [w / min(walls) for w in walls]
    names = [v.name for v in variants]
    proxy, twin = names.index("proxy+norm"), names.index("classification+norm")
    assert ratios[proxy] == ratios[twin]


VARIANTS = paper_variants(hidden=(32, 32), seed=13)
# the first variant of each computation: the ones run_benchmark evaluates
DISTINCT = [v for i, v in enumerate(VARIANTS)
            if v.computation_key() not in
            {u.computation_key() for u in VARIANTS[:i]}]


@pytest.mark.parametrize("variant", DISTINCT, ids=lambda v: v.name)
def test_evaluate_model_forwards_each_row_once(monkeypatch, variant):
    # one chunked forward of the test split per model (and of the training
    # split for the triplet prototypes), none of a single row; the tag
    # scores come from those rows, equal to class_scores' bit for bit
    monkeypatch.setattr(model_module, "_FORWARD_CHUNK", 16)
    config = small_config(variant)
    train_ds, _, test_ds = benchmark.load_or_generate(config)
    trained = build_model(variant, config.space, train_ds.feature_dim)
    eval_triplets = benchmark.sample_eval_triplets(
        test_ds, config.triplets_per_notion, config.seed)
    chunks, forward = [], EmbeddingNet.full_embedding

    def recording_forward(net, x):
        chunks.append(len(x))
        return forward(net, x)

    monkeypatch.setattr(EmbeddingNet, "full_embedding", recording_forward)
    report = benchmark.evaluate_model(trained, train_ds, test_ds,
                                      config.eval_ks, eval_triplets)
    rows = len(test_ds) + (len(train_ds) if variant.family == "triplet" else 0)
    assert len(test_ds) > 2 * 16
    assert sum(chunks) == rows
    assert min(chunks) > 1 and max(chunks) <= 17
    if variant.family != "triplet":
        scores = class_scores(trained.net, trained.bank, test_ds.features,
                              variant.normalization, variant.disentanglement)
        assert report.auc == auc_tags(scores, test_ds.labels)


@pytest.mark.parametrize("variant", DISTINCT, ids=lambda v: v.name)
def test_evaluate_model_peak_is_below_three_test_arrays(variant):
    # at most two n x d arrays are live at once: the pre-normalization rows
    # and one normalized copy of them, then the unit rows and R@K's block of
    # similarities; holding the rows, a private normalized copy and a
    # 128-row block at once peaked above four.  The proxies' tag scores
    # take their sigmoid in place, in one n x tags array: with a temporary
    # per step they peaked above three
    space = default_label_space()
    spec = SyntheticSpec(space=space, tracks=900, seed=5)
    train_ds, _, test_ds = generate_splits(spec, fractions=(0.1, 0.05, 0.85))
    n, d = len(test_ds), space.embedding_dim
    assert n >= 3000
    trained = build_model(variant, space, train_ds.feature_dim)
    eval_triplets = benchmark.sample_eval_triplets(test_ds, 200, seed=5)
    tracemalloc.start()
    try:
        benchmark.evaluate_model(trained, train_ds, test_ds, (1, 2, 4, 8),
                                 eval_triplets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n * d
