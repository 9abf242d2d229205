"""The benchmark's workloads: which variants train on which data.

Each workload is built from its seed alone.  ``setup`` makes the splits and
the fixed evaluation triplets; a timed iteration is one ``run_benchmark``
over the workload's variants on that prepared input.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from disembed import benchmark, data
from disembed.config import (
    DEFAULT_LR,
    ExperimentConfig,
    default_config,
    default_label_space,
)
from disembed.trainer import paper_variants

# eval_heavy: a large test split (about 3,900 items) makes R@K's n x n
# similarity and order matrices (about 243 MB) exceed the last-level cache,
# while two epochs keep training under a tenth of the wall time
EVAL_HEAVY_TRACKS = 1500
EVAL_HEAVY_FRACTIONS = (0.3, 0.05, 0.65)
EVAL_HEAVY_EPOCHS = 2
EVAL_HEAVY_TRIPLETS = 5000

WHY = {
    "triplet_train": "default config, the three triplet variants: stresses "
    "the Python triplet sampler and the 3 to 6 graph forwards per step",
    "bce_train": "default config, the five proxy/classification variants: "
    "no triplet sampling; time goes to score_blocks, BCE, backward and Adam",
    "eval_heavy": "3,900 test items, 5,000 eval triplets per notion, 8 "
    "variants at 2 epochs, splits saved and loaded as TSV: evaluation-bound",
}


@dataclass
class Prepared:
    config: ExperimentConfig
    splits: tuple
    eval_triplets: tuple

    @property
    def variant_names(self) -> list[str]:
        return [v.name for v in self.config.variants]


def _default(seed: int, triplet: bool) -> ExperimentConfig:
    config = default_config(seed)
    config.variants = [
        v for v in config.variants if (v.family == "triplet") == triplet
    ]
    return config


def _eval_heavy(seed: int, workdir: str) -> ExperimentConfig:
    """Generate the splits and save them; the config reads them back."""
    space = default_label_space()
    spec = data.SyntheticSpec(space=space, tracks=EVAL_HEAVY_TRACKS, seed=seed)
    parts = data.generate_splits(spec, fractions=EVAL_HEAVY_FRACTIONS)
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for key, ds in zip(("train", "valid", "test"), parts):
        paths[key] = os.path.join(workdir, f"{key}.tsv")
        data.save_dataset(ds, paths[key])
    return ExperimentConfig(
        space=space,
        dataset_paths=paths,
        variants=paper_variants(
            seed=seed, max_epochs=EVAL_HEAVY_EPOCHS, lr=DEFAULT_LR
        ),
        triplets_per_notion=EVAL_HEAVY_TRIPLETS,
        fractions=EVAL_HEAVY_FRACTIONS,
        seed=seed,
    )


def setup(name: str, seed: int, workdir: str) -> Prepared:
    """Build the workload's config, splits and evaluation triplets."""
    if name == "triplet_train":
        config = _default(seed, triplet=True)
    elif name == "bce_train":
        config = _default(seed, triplet=False)
    elif name == "eval_heavy":
        config = _eval_heavy(seed, workdir)
    else:
        raise ValueError(f"unknown workload {name!r}")
    splits = benchmark.load_or_generate(config)
    eval_triplets = benchmark.sample_eval_triplets(
        splits[2], config.triplets_per_notion, config.seed
    )
    return Prepared(config, splits, eval_triplets)
