"""Command-line interface: subcommands, exit codes, artifact round trips."""

import json
from dataclasses import fields

import numpy as np
import pytest

from disembed.cli import main
from disembed.config import (
    _FIELDS, ExperimentConfig, default_config, default_label_space,
)
from disembed.data import SyntheticSpec
from disembed.labelspace import LabelSpace
from disembed.trainer import VariantConfig


@pytest.fixture
def tiny_config(tmp_path):
    """A config small enough for CLI runs inside the test budget."""
    space = LabelSpace(
        [("color", ["red", "blue"]), ("shape", ["round", "square"])],
        embedding_dim=8,
    )
    cfg = ExperimentConfig.from_dict(
        {
            "label_space": space.to_dict(),
            "synthetic": {
                "feature_dim": 16,
                "tracks": 40,
                "excerpts_per_track": 3,
                "sigma_within": 0.3,
                "sigma_excerpt": 0.3,
                # exactly one tag per notion keeps every split sampleable
                "tags_per_notion_range": [1, 1],
            },
            "fractions": [0.6, 0.15, 0.25],
            "variants": [
                {"family": "classification", "max_epochs": 2,
                 "hidden": [12, 12], "batch_size": 32},
                {"family": "proxy", "max_epochs": 2,
                 "hidden": [12, 12], "batch_size": 32},
            ],
            "eval_ks": [1, 2],
            "triplets_per_notion": 50,
            "seed": 5,
            "output_dir": str(tmp_path / "out"),
        }
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg.to_dict()))
    return path, tmp_path / "out"


def test_generate_writes_files_and_manifest(tiny_config):
    cfg_path, out = tiny_config
    assert main(["generate", "--config", str(cfg_path)]) == 0
    for name in ("train.tsv", "valid.tsv", "test.tsv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    for name in ("train", "valid", "test"):
        rows = [
            l for l in (out / f"{name}.tsv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert manifest["counts"][name] == len(rows)
    assert sum(manifest["counts"].values()) == 120


def test_generate_is_reproducible(tiny_config, tmp_path):
    cfg_path, out = tiny_config
    main(["generate", "--config", str(cfg_path)])
    first = (out / "train.tsv").read_bytes()
    other = tmp_path / "out2"
    main(["generate", "--config", str(cfg_path), "--out", str(other)])
    assert (other / "train.tsv").read_bytes() == first


def test_generate_requires_synthetic_spec(tmp_path):
    space = default_label_space()
    cfg = {
        "label_space": space.to_dict(),
        "dataset": {"train": "x", "valid": "y", "test": "z"},
    }
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path)]) == 1


def test_negative_seed_is_a_configuration_error(tiny_config, capsys):
    cfg_path, out = tiny_config
    assert main(["generate", "--config", str(cfg_path), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and "'seed'" in err
    assert "Traceback" not in err
    assert not out.exists()


# every key of a config file, as its path from the top level
CONFIG_KEYS = (
    [(key,) for key in _FIELDS]
    + [("synthetic", f.name) for f in fields(SyntheticSpec) if f.name != "space"]
    + [("variants", 0, f.name) for f in fields(VariantConfig)]
    + [("label_space", "embedding_dim"), ("label_space", "notions", 0, "name"),
       ("label_space", "notions", 0, "tags"), ("synthetic",), ("variants",)]
)


@pytest.mark.parametrize("path", CONFIG_KEYS,
                         ids=lambda path: ".".join(map(str, path)))
def test_every_config_key_rejects_a_wrong_type(tmp_path, capsys, path):
    # a list holding null is the wrong type for every key, so a key whose
    # value goes unchecked fails here instead of in a run
    d = default_config(0).to_dict()
    d["output_dir"] = str(tmp_path / "out")
    if path == ("dataset",):  # the one data source is the malformed one
        d["synthetic"] = None
    node = d
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = [None]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(d))
    assert main(["generate", "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert repr(path[-1]) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_then_evaluate(tiny_config, capsys):
    cfg_path, out = tiny_config
    assert main(["train", "--config", str(cfg_path), "--variant-index", "0"]) == 0
    assert (out / "model_classification_norm.params").exists()
    assert (out / "curves_classification_norm.csv").exists()
    capsys.readouterr()
    code = main(
        ["evaluate", "--config", str(cfg_path),
         "--model", str(out / "model_classification_norm")]
    )
    assert code == 0
    assert (out / "evaluation.json").exists()
    printed = capsys.readouterr().out
    assert "R@1" in printed and "AUC" in printed


def test_seed_past_64_bits_trains_and_evaluates(tiny_config, capsys):
    # the initial weights used to take np.uint64(seed), an OverflowError
    # traceback past 2**64 - 1; every stream takes any seed >= 0
    cfg_path, out = tiny_config
    seed = ["--seed", str(2**64)]
    assert main(["train", "--config", str(cfg_path), "--variant-index", "0",
                 *seed]) == 0
    assert main(["evaluate", "--config", str(cfg_path), *seed, "--model",
                 str(out / "model_classification_norm")]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_train_variant_index_out_of_range(tiny_config):
    cfg_path, _ = tiny_config
    assert main(["train", "--config", str(cfg_path), "--variant-index", "9"]) == 1


def test_benchmark_writes_report_and_tables(tiny_config, capsys):
    cfg_path, out = tiny_config
    assert main(["benchmark", "--config", str(cfg_path)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["reports"]) == 2
    for r in report["reports"]:
        assert r["error"] is None
        assert set(r["recall_at"]) == {"1", "2"}
    for name in ("table1.txt", "table2.txt", "table3.txt"):
        assert (out / name).exists()
    assert "Time ratio" in (out / "table1.txt").read_text()


def test_export_embeddings_round_trip(tiny_config, tmp_path):
    cfg_path, out = tiny_config
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--variant-index", "0"])
    prefix = out / "model_classification_norm"
    dest = tmp_path / "emb.tsv"
    code = main(
        ["export-embeddings", "--model", str(prefix),
         "--data", str(out / "test.tsv"), "--out", str(dest)]
    )
    assert code == 0
    from disembed.data import load_dataset
    from disembed.model import embed
    from disembed.trainer import load_model

    model = load_model(prefix)
    ds = load_dataset(out / "test.tsv", model.space)
    expect = np.atleast_2d(embed(model.net, ds.features,
                                 model.variant.normalization))
    rows = dest.read_text().strip().split("\n")
    assert len(rows) == len(ds)
    got = np.array([[float(x) for x in r.split("\t")[2:]] for r in rows])
    assert np.abs(got - expect).max() < 1e-12
    assert got.shape[1] == model.space.embedding_dim


def test_export_embeddings_notion_subspace(tiny_config, tmp_path):
    cfg_path, out = tiny_config
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--variant-index", "0"])
    dest = tmp_path / "sub.tsv"
    code = main(
        ["export-embeddings", "--model", str(out / "model_classification_norm"),
         "--data", str(out / "test.tsv"), "--space", "shape", "--out", str(dest)]
    )
    assert code == 0
    first = dest.read_text().split("\n")[0].split("\t")
    assert len(first) == 2 + 4  # id, track_id, block of d/G coordinates


def test_export_notion_is_that_block_of_the_pre_normalization_rows(
        tiny_config, tmp_path):
    # the notion's block of the net's (unnormalized) full embedding, written
    # with %.17g, so it reads back bit for bit
    cfg_path, out = tiny_config
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--variant-index", "0"])
    prefix = out / "model_classification_norm"
    dest = tmp_path / "sub.tsv"
    assert main(
        ["export-embeddings", "--model", str(prefix),
         "--data", str(out / "test.tsv"), "--space", "shape", "--out", str(dest)]
    ) == 0
    from disembed.data import load_dataset
    from disembed.trainer import load_model

    model = load_model(prefix)
    ds = load_dataset(out / "test.tsv", model.space)
    block = model.net.full_embedding(ds.features)[0][
        :, model.space.block_slice("shape")]
    rows = [r.split("\t") for r in dest.read_text().strip().split("\n")]
    assert [r[0] for r in rows] == list(ds.ids)
    got = np.array([[float(x) for x in r[2:]] for r in rows])
    assert got.tobytes() == block.tobytes()


def test_export_unknown_notion_fails(tiny_config, tmp_path):
    cfg_path, out = tiny_config
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--variant-index", "0"])
    code = main(
        ["export-embeddings", "--model", str(out / "model_classification_norm"),
         "--data", str(out / "test.tsv"), "--space", "texture"]
    )
    assert code == 1


def test_export_wrong_feature_width_is_exit_1(tiny_config, tmp_path, capsys):
    cfg_path, out = tiny_config
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--variant-index", "0"])
    narrow = tmp_path / "narrow.tsv"
    narrow.write_text(
        "#feature_dim=5\n#tags=red,blue,round,square\n"
        "a\tt0\t1,2,3,4,5\tred;round\n"
    )
    for space in ("full", "shape"):
        dest = tmp_path / f"{space}.tsv"
        code = main(
            ["export-embeddings", "--model",
             str(out / "model_classification_norm"), "--data", str(narrow),
             "--space", space, "--out", str(dest)]
        )
        assert code == 1
        assert "input width 5" in capsys.readouterr().err
        assert not dest.exists()


def test_export_undecodable_data_is_exit_2(tiny_config, tmp_path, capsys):
    cfg_path, out = tiny_config
    main(["generate", "--config", str(cfg_path)])
    main(["train", "--config", str(cfg_path), "--variant-index", "0"])
    bad = tmp_path / "bad.tsv"
    bad.write_bytes((out / "test.tsv").read_bytes() + b"\xff\xfe\n")
    code = main(
        ["export-embeddings", "--model", str(out / "model_classification_norm"),
         "--data", str(bad), "--out", str(tmp_path / "e.tsv")]
    )
    assert code == 2
    assert "not valid UTF-8" in capsys.readouterr().err


def test_malformed_model_bundle_is_exit_1(tiny_config, capsys):
    cfg_path, out = tiny_config
    main(["train", "--config", str(cfg_path), "--variant-index", "0"])
    prefix = out / "model_classification_norm"
    meta_path = out / "model_classification_norm.json"
    meta = json.loads(meta_path.read_text())
    meta["net"]["head"] = "dense"  # a bundle saved before the one head
    meta_path.write_text(json.dumps(meta))
    code = main(["evaluate", "--config", str(cfg_path), "--model", str(prefix)])
    assert code == 1
    assert "'head'" in capsys.readouterr().err


def test_missing_config_file_is_exit_1():
    assert main(["benchmark", "--config", "/no/such/config.json"]) == 1


def test_missing_model_file_is_exit_2(tiny_config):
    cfg_path, _ = tiny_config
    code = main(
        ["evaluate", "--config", str(cfg_path), "--model", "/no/such/model"]
    )
    assert code == 2


def test_seed_flag_overrides_config(tiny_config, tmp_path):
    cfg_path, out = tiny_config
    main(["generate", "--config", str(cfg_path), "--seed", "11",
          "--out", str(tmp_path / "s11")])
    main(["generate", "--config", str(cfg_path), "--seed", "12",
          "--out", str(tmp_path / "s12")])
    a = (tmp_path / "s11" / "train.tsv").read_bytes()
    b = (tmp_path / "s12" / "train.tsv").read_bytes()
    assert a != b
