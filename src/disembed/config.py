"""Experiment configuration: label space, data source, variants, evaluation."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import partial

from .data import DEFAULT_FRACTIONS, SyntheticSpec, check_fractions
from .errors import ConfigurationError, as_count, as_ints, as_seed, check_types
from .labelspace import LabelSpace
from .trainer import VariantConfig, paper_variants

DEFAULT_KS = (1, 2, 4, 8)
# desk-scale cap: with patience 10 the schedule rarely stops earlier, and the
# qualitative benchmark orderings are established well before convergence
DEFAULT_MAX_EPOCHS = 25
# desk-scale learning rate for the default benchmark, and what sets its
# orderings.  At 0.08 the normalized variants, whose scores are invariant to
# the embedding scale, stay well-behaved, while the magnitude-unconstrained
# plain classification variant collapses (median R@1 0.396 over seeds 0-4).
# At the per-variant default of 0.005 the R@1 medians span 0.716-0.981 and
# plain classification ranks first.
DEFAULT_LR = 0.08


def default_label_space() -> LabelSpace:
    return LabelSpace(
        [
            ("genre", ["rock", "pop", "jazz", "classical", "metal", "folk",
                       "electronic", "hiphop"]),
            ("mood", ["happy", "sad", "calm", "angry", "tense", "dreamy"]),
            ("instrument", ["guitar", "piano", "strings", "synth"]),
            ("era", ["sixties", "seventies", "eighties", "nineties"]),
        ],
        embedding_dim=64,
    )


# the top-level keys of a config object that each set one field as they are,
# and the field each one sets
_FIELDS = {"seed": "seed", "output_dir": "output_dir", "eval_ks": "eval_ks",
           "triplets_per_notion": "triplets_per_notion",
           "fractions": "fractions", "dataset": "dataset_paths"}


@dataclass
class ExperimentConfig:
    space: LabelSpace
    synthetic: SyntheticSpec | None = None
    dataset_paths: dict | None = None  # {"train": ..., "valid": ..., "test": ...}
    variants: list = field(default_factory=list)
    eval_ks: tuple = DEFAULT_KS
    triplets_per_notion: int = 2000
    fractions: tuple = DEFAULT_FRACTIONS
    output_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        if not self.variants:
            raise ConfigurationError("need at least one variant")
        # checked, not converted, as VariantConfig's values are
        check_types(self, {"seed": as_seed, "eval_ks": as_ints,
                           "triplets_per_notion": as_count,
                           "fractions": check_fractions,
                           "output_dir": os.fspath}, "config")
        if len(self.fractions) != 3:
            raise ConfigurationError(
                f"config key 'fractions': {len(self.fractions)} parts, "
                f"expected 3 (train, valid, test)"
            )
        ks = list(self.eval_ks)
        if not ks or ks[0] <= 0 or ks != sorted(set(ks)):
            raise ConfigurationError(
                f"config key 'eval_ks': expected ascending integers >= 1, got {ks}")
        if (self.synthetic is None) == (self.dataset_paths is None):
            raise ConfigurationError(
                "need one data source: config key 'synthetic' or 'dataset'")
        paths = self.dataset_paths
        if paths is not None and not (
            isinstance(paths, dict)
            and all(isinstance(paths.get(k), (str, os.PathLike))
                    for k in ("train", "valid", "test"))
        ):
            raise ConfigurationError(
                "config key 'dataset' must map 'train', 'valid' and 'test' "
                f"to file paths, got {paths!r}"
            )

    def with_seed(self, seed: int) -> "ExperimentConfig":
        """Rebuild with a new global seed pushed into data and variants."""
        d = self.to_dict()
        d["seed"] = int(seed)
        return ExperimentConfig.from_dict(d)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "output_dir": self.output_dir,
            "eval_ks": list(self.eval_ks),
            "triplets_per_notion": self.triplets_per_notion,
            "fractions": list(self.fractions),
            "label_space": self.space.to_dict(),
            "synthetic": None
            if self.synthetic is None
            else {
                k: v
                for k, v in self.synthetic.to_dict().items()
                if k not in ("space", "seed")
            },
            "dataset": self.dataset_paths,
            "variants": [
                {k: v for k, v in v.to_dict().items() if k != "seed"}
                for v in self.variants
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The config a JSON object describes; a key it leaves out takes the
        field's default.  Each value goes as written to the constructor that
        declares it, which checks it, so the config's ``to_dict`` repeats the
        object's values; only the top-level ``seed``, which is copied into
        the synthetic spec and each variant that sets none, is read here.
        An unknown key, a missing label space or a value of the wrong type
        raises ConfigurationError naming the key."""
        unknown = sorted(set(d) - {"label_space", "synthetic", "variants",
                                   *_FIELDS})
        if unknown:
            raise ConfigurationError(
                f"unknown config key(s): {', '.join(map(repr, unknown))}")
        try:
            space = LabelSpace.from_dict(d["label_space"])
        except KeyError as exc:
            raise ConfigurationError("config is missing 'label_space'") from exc
        try:
            seed = as_seed(d.get("seed", cls.seed))
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"config key 'seed': {exc}") from exc
        synthetic = d.get("synthetic")
        if synthetic is not None:
            synthetic = _built("synthetic", synthetic,
                               partial(SyntheticSpec, space), seed)
        variants = d.get("variants")
        if variants is None:
            variants = paper_variants(
                seed=seed, max_epochs=DEFAULT_MAX_EPOCHS, lr=DEFAULT_LR
            )
        elif isinstance(variants, list):
            variants = [_built("variants", v, VariantConfig, seed)
                        for v in variants]
        else:
            raise ConfigurationError(
                f"config key 'variants': expected a list of objects, got "
                f"{variants!r}"
            )
        return cls(space=space, synthetic=synthetic, variants=variants,
                   **{field: d[key] for key, field in _FIELDS.items() if key in d})

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                d = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(d)


def _built(key: str, entry, make, seed: int):
    """``make(seed=seed, **entry)`` for the object ``entry`` of a config's
    ``key``; a ``seed`` in ``entry`` wins.  An entry that is not an object or
    that holds an unknown key raises ConfigurationError naming ``key``;
    ``make``'s own ConfigurationError names the entry's key."""
    if not isinstance(entry, dict):
        raise ConfigurationError(
            f"config key {key!r}: expected an object, got {entry!r}")
    try:
        return make(**{"seed": seed, **entry})
    except TypeError as exc:  # an unknown or missing key
        raise ConfigurationError(f"config key {key!r}: {exc}") from exc


def default_config(seed: int = 0, max_epochs: int = DEFAULT_MAX_EPOCHS) -> ExperimentConfig:
    """Desk-scale default: 4 notions, 64-d features and embeddings, 600x4 items."""
    space = default_label_space()
    return ExperimentConfig(
        space=space,
        synthetic=SyntheticSpec(space=space, seed=seed),
        variants=paper_variants(seed=seed, max_epochs=max_epochs, lr=DEFAULT_LR),
        seed=seed,
    )
