"""Experiment configuration: validation, defaults, JSON round trips."""

import json

import pytest

from disembed.config import (
    DEFAULT_FRACTIONS,
    DEFAULT_KS,
    DEFAULT_LR,
    ExperimentConfig,
    default_config,
    default_label_space,
)
from disembed.data import SyntheticSpec
from disembed.errors import ConfigurationError
from disembed.trainer import VariantConfig


def test_default_label_space_layout():
    space = default_label_space()
    assert [n.name for n in space.notions] == ["genre", "mood", "instrument", "era"]
    assert [len(n.tags) for n in space.notions] == [8, 6, 4, 4]
    assert space.embedding_dim == 64
    assert space.block_size == 16


def test_default_config_has_eight_variants():
    cfg = default_config(seed=3)
    assert len(cfg.variants) == 8
    assert all(v.seed == 3 for v in cfg.variants)
    assert all(v.lr == DEFAULT_LR for v in cfg.variants)
    assert cfg.synthetic.seed == 3


def test_config_requires_variants(small_space):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(
            space=small_space,
            synthetic=SyntheticSpec(space=small_space),
            variants=[],
        )


def test_config_requires_data_source(small_space):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(
            space=small_space,
            variants=[VariantConfig(family="proxy")],
        )


@pytest.mark.parametrize("ks", [(0, 1), (2, 1), (1, 1, 2), ()])
def test_config_validates_ks(small_space, ks):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(
            space=small_space,
            synthetic=SyntheticSpec(space=small_space),
            variants=[VariantConfig(family="proxy")],
            eval_ks=ks,
        )


# integer fields of a config built directly: checked (not converted) by
# errors.as_int, as from_dict's converters would reject them
NOT_INTS = {
    "triplets_per_notion_float": ({"triplets_per_notion": 2.5},
                                  "'triplets_per_notion'"),
    "triplets_per_notion_bool": ({"triplets_per_notion": True},
                                 "'triplets_per_notion'"),
    "eval_ks_float": ({"eval_ks": (1.5, 2)}, "'eval_ks'"),
    "eval_ks_bool": ({"eval_ks": (True, 2)}, "'eval_ks'"),
    "seed_float": ({"seed": 1.5}, "'seed'"),
    "seed_str": ({"seed": "0"}, "'seed'"),
}


@pytest.mark.parametrize("case", list(NOT_INTS))
def test_config_names_the_key_of_a_non_integer(small_space, case):
    fields, key = NOT_INTS[case]
    with pytest.raises(ConfigurationError, match=key):
        ExperimentConfig(
            space=small_space,
            synthetic=SyntheticSpec(space=small_space),
            variants=[VariantConfig(family="proxy")],
            **fields,
        )


# fractions of a config built directly: checked at construction by the one
# rule that generate_splits applies, and kept as given
BAD_FRACTIONS = {
    "strings": (("0.8", "0.05", "0.15"), "expected a number"),
    "sum_above_one": ((0.8, 0.3), "must sum to 1"),
    "non_positive": ((1.2, -0.1, -0.1), "must be positive"),
    "two_parts": ((0.8, 0.2), "2 parts, expected 3"),
}


@pytest.mark.parametrize("case", list(BAD_FRACTIONS))
def test_config_checks_fractions_at_construction(small_space, case):
    fractions, why = BAD_FRACTIONS[case]
    with pytest.raises(ConfigurationError, match=f"'fractions': .*{why}"):
        ExperimentConfig(
            space=small_space,
            synthetic=SyntheticSpec(space=small_space),
            variants=[VariantConfig(family="proxy")],
            fractions=fractions,
        )


def test_dict_round_trip_preserves_settings():
    cfg = default_config(seed=9)
    back = ExperimentConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()
    assert back.seed == 9
    assert [v.name for v in back.variants] == [v.name for v in cfg.variants]


def test_with_seed_pushes_seed_down():
    cfg = default_config(seed=0).with_seed(17)
    assert cfg.seed == 17
    assert cfg.synthetic.seed == 17
    assert all(v.seed == 17 for v in cfg.variants)


def test_with_seed_round_trips_a_dataset_only_config(small_space):
    paths = {"train": "a.tsv", "valid": "b.tsv", "test": "c.tsv"}
    cfg = ExperimentConfig(space=small_space, dataset_paths=paths,
                           variants=[VariantConfig(family="proxy")])
    back = cfg.with_seed(4)
    assert (back.seed, back.variants[0].seed) == (4, 4)
    assert back.synthetic is None and back.dataset_paths == paths
    assert back.with_seed(0).to_dict() == cfg.to_dict()


def test_config_refuses_both_synthetic_and_dataset(small_space):
    # the files would be read while the report showed the unused spec
    paths = {"train": "a.tsv", "valid": "b.tsv", "test": "c.tsv"}
    with pytest.raises(ConfigurationError, match="'synthetic' or 'dataset'"):
        ExperimentConfig(space=small_space,
                         synthetic=SyntheticSpec(space=small_space),
                         dataset_paths=paths,
                         variants=[VariantConfig(family="proxy")])
    with pytest.raises(ConfigurationError, match="'synthetic' or 'dataset'"):
        ExperimentConfig.from_dict({**_base(small_space), "dataset": paths})


# a negative seed is refused where it is given, not where numpy first
# draws from it
NEGATIVE_SEEDS = {
    "variant": lambda space: VariantConfig(family="triplet", seed=-1),
    "synthetic": lambda space: SyntheticSpec(space=space, seed=-1),
    "config": lambda space: ExperimentConfig(
        space=space, synthetic=SyntheticSpec(space=space),
        variants=[VariantConfig(family="proxy")], seed=-1),
    "config_dict": lambda space: ExperimentConfig.from_dict(
        {**_base(space), "seed": -1}),
}


@pytest.mark.parametrize("case", list(NEGATIVE_SEEDS))
def test_negative_seed_is_refused_at_construction(small_space, case):
    with pytest.raises(ConfigurationError, match="'seed'.*>= 0"):
        NEGATIVE_SEEDS[case](small_space)


def test_from_json(tmp_path):
    cfg = default_config(seed=4)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg.to_dict()))
    back = ExperimentConfig.from_json(path)
    assert back.to_dict() == cfg.to_dict()


def test_from_json_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json(tmp_path / "nope.json")


def test_from_json_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_json(path)


def test_from_dict_missing_label_space():
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict({"seed": 1})


def test_from_dict_defaults_variants_to_paper_list(small_space):
    d = {
        "label_space": small_space.to_dict(),
        "synthetic": {"feature_dim": 16, "tracks": 20},
        "seed": 2,
    }
    cfg = ExperimentConfig.from_dict(d)
    assert len(cfg.variants) == 8
    assert cfg.synthetic.tracks == 20


def test_from_dict_rejects_bad_variant(small_space):
    d = {
        "label_space": small_space.to_dict(),
        "synthetic": {},
        "variants": [{"family": "proxy", "no_such_field": 1}],
    }
    with pytest.raises(ConfigurationError):
        ExperimentConfig.from_dict(d)


@pytest.mark.parametrize("key", ["triplet_per_notion", "label_spaces",
                                 "variant"])
def test_from_dict_rejects_unknown_keys(small_space, key):
    # a misspelled key would otherwise leave its field at the default unseen
    with pytest.raises(ConfigurationError,
                       match=f"unknown config key\\(s\\): '{key}'"):
        ExperimentConfig.from_dict({**_base(small_space), key: 5})


def test_from_dict_builds_the_synthetic_spec_on_its_space(small_space):
    cfg = ExperimentConfig.from_dict({**_base(small_space), "seed": 3})
    assert cfg.synthetic.space is cfg.space
    assert cfg.synthetic.seed == 3
    assert (cfg.eval_ks, cfg.triplets_per_notion, cfg.fractions,
            cfg.output_dir) == (DEFAULT_KS, 2000, DEFAULT_FRACTIONS, "out")


def _base(small_space) -> dict:
    return {"label_space": small_space.to_dict(), "synthetic": {}}


WRONG_TYPES = {
    "triplets_per_notion": ({"triplets_per_notion": "many"},
                            "'triplets_per_notion'"),
    "seed": ({"seed": "x"}, "'seed'"),
    "eval_ks": ({"eval_ks": ["a"]}, "'eval_ks'"),
    "fractions": ({"fractions": [0.8, "x", 0.15]}, "'fractions'"),
    "synthetic_tracks": ({"synthetic": {"tracks": "x"}},
                         "synthetic key 'tracks'"),
    "synthetic_range_triple": ({"synthetic": {"tags_per_notion_range": [1, 2, 3]}},
                               "synthetic key 'tags_per_notion_range'"),
    "synthetic_unknown_key": ({"synthetic": {"colour": 1}}, "colour"),
    "synthetic_not_a_dict": ({"synthetic": "x"}, "'synthetic'"),
    "dataset_not_a_dict": ({"synthetic": None, "dataset": "notadict"},
                           "'dataset'"),
    "output_dir": ({"output_dir": 5}, "config key 'output_dir'"),
    # variants that are not a list of objects used to escape as a raw
    # TypeError or ValueError
    "variants_int": ({"variants": 5}, "config key 'variants'"),
    "variants_int_entry": ({"variants": [5]}, "config key 'variants'"),
    "variants_str_entry": ({"variants": ["x"]}, "config key 'variants'"),
    "variants_null_entry": ({"variants": [None]}, "config key 'variants'"),
    "variant_unknown_key": ({"variants": [{"family": "proxy", "colour": 1}]},
                            "config key 'variants'.*colour"),
    "variant_hidden": ({"variants": [{"family": "proxy", "hidden": 5}]},
                       "variant key 'hidden'"),
}


@pytest.mark.parametrize("case", list(WRONG_TYPES))
def test_from_dict_names_the_key_of_a_wrong_type(small_space, case):
    fields, key = WRONG_TYPES[case]
    with pytest.raises(ConfigurationError, match=key):
        ExperimentConfig.from_dict({**_base(small_space), **fields})


def test_from_dict_keeps_values_as_written(small_space):
    # values are checked, not converted, so the report's config repeats the
    # file: an integer sigma stays an integer
    d = {**_base(small_space), "synthetic": {"sigma_within": 1},
         "fractions": [0.5, 0.25, 0.25], "variants": [{"family": "proxy",
                                                       "margin": 0}]}
    out = ExperimentConfig.from_dict(d).to_dict()
    assert (out["synthetic"]["sigma_within"], out["fractions"],
            out["variants"][0]["margin"]) == (1, [0.5, 0.25, 0.25], 0)
    assert type(out["synthetic"]["sigma_within"]) is int


def test_cli_reports_a_wrong_type_without_traceback(small_space, tmp_path,
                                                     capsys):
    from disembed.cli import main

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_base(small_space), "seed": "x"}))
    assert main(["generate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: config key 'seed'")
    assert "Traceback" not in err
