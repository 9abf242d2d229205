"""run_benchmark trains and evaluates each distinct computation once: the
proxy+norm / classification+norm pair shares one run and one report."""

from itertools import combinations

import numpy as np
import pytest

from disembed import benchmark, trainer
from disembed.autodiff import grad
from disembed.config import ExperimentConfig, default_label_space
from disembed.data import SyntheticSpec
from disembed.errors import TrainingDivergedError
from disembed.evaluation import strip_timing
from disembed.losses import bce_sum
from disembed.model import score_blocks
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


def proxy_norm():
    return VariantConfig(family="proxy", **SMALL)


def classification_norm():
    return VariantConfig(family="classification", **SMALL)


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


def test_shared_pair_trains_and_evaluates_once(monkeypatch):
    trained = counting(monkeypatch, trainer, "train")
    rows = counting(monkeypatch, benchmark, "train")
    evaluated = counting(monkeypatch, benchmark, "evaluate_model")
    out = benchmark.run_benchmark(small_config(proxy_norm(), classification_norm()))
    assert trained == evaluated == ["proxy+norm"]
    # each row passes through benchmark.train; the twin's call trains nothing
    assert rows == ["proxy+norm", "classification+norm"]

    first, twin = out["reports"]
    assert "shared_with" not in first
    assert twin["shared_with"] == "proxy+norm"
    assert twin["variant"] == classification_norm().to_dict()
    assert twin["timing"] == first["timing"] and twin["epochs"] == first["epochs"]
    assert twin["timing"]["cpu_seconds"] > 0

    alone = benchmark.run_benchmark(small_config(classification_norm()))
    [expected] = alone["reports"]
    del twin["shared_with"]
    assert strip_timing(twin) == strip_timing(expected)


def test_twin_of_a_failed_variant_carries_its_error(monkeypatch):
    def diverge(variant, *args):
        raise TrainingDivergedError("training loss diverged at epoch 0", epoch=0)

    trained = counting(monkeypatch, trainer, "train", diverge)
    rows = counting(monkeypatch, benchmark, "train")
    out = benchmark.run_benchmark(small_config(proxy_norm(), classification_norm()))
    assert trained == rows == ["proxy+norm"]
    first, twin = out["reports"]
    assert first["error"] == twin["error"] == "training loss diverged at epoch 0"
    assert twin["shared_with"] == "proxy+norm"
    assert twin["timing"]["training_time_ratio"] is None


def test_computation_key_folds_only_the_normalized_proxy():
    assert proxy_norm().computation_key() == classification_norm().computation_key()
    apart = [
        (VariantConfig(family="proxy", disentanglement=True),
         VariantConfig(family="classification", disentanglement=True)),
        (VariantConfig(family="classification", normalization=False),
         VariantConfig(family="classification")),
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
        ("proxy+norm", "classification+norm")]

    for a, b in pairs:
        runs = []
        for variant in (a, b):
            model = build_model(variant, space, X.shape[1])
            params = {**model.net.params, "C": model.bank.weights}
            [(_, S)] = score_blocks(model.net, model.bank, X,
                                    variant.score_variant())
            by_tensor = grad(bce_sum(S, Y), params.values())
            runs.append((
                {k: p.values for k, p in params.items()},
                S.values,
                {k: by_tensor[p] for k, p in params.items()},
            ))
        (pa, sa, ga), (pb, sb, gb) = runs
        assert pa.keys() == pb.keys() == ga.keys() == gb.keys()
        assert all(np.array_equal(pa[k], pb[k]) for k in pa)
        assert np.array_equal(sa, sb)
        assert all(np.array_equal(ga[k], gb[k]) for k in ga)


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
