"""Synthetic generator, splits, and the dataset file format."""

import hashlib
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disembed import data
from disembed.data import (
    Dataset,
    _feature_blocks,
    SyntheticSpec,
    generate_splits,
    generate_synthetic,
    load_dataset,
    save_dataset,
    tag_centroids,
)
from disembed.config import default_config, default_label_space
from disembed.errors import ConfigurationError, DatasetError
from disembed.labelspace import LabelSpace

from conftest import Item, from_items


@pytest.fixture
def spec(small_space):
    return SyntheticSpec(
        space=small_space,
        feature_dim=16,
        tracks=50,
        excerpts_per_track=3,
        sigma_within=0.1,
        sigma_excerpt=0.1,
        seed=3,
    )


def test_generator_shapes_and_determinism(spec):
    ds1 = generate_synthetic(spec)
    ds2 = generate_synthetic(spec)
    assert len(ds1) == spec.tracks * spec.excerpts_per_track
    assert ds1.feature_dim == spec.feature_dim
    assert np.array_equal(ds1.features, ds2.features)
    assert np.array_equal(ds1.labels, ds2.labels)
    assert ds1.ids == ds2.ids


def test_every_item_has_a_tag_per_notion(spec):
    ds = generate_synthetic(spec)
    for notion in spec.space.notions:
        idx = spec.space.tag_indices_of_notion(notion.name)
        assert (ds.labels[:, idx].sum(axis=1) >= 1).all()


def test_excerpts_share_track_labels(spec):
    ds = generate_synthetic(spec)
    by_track = {}
    for track_id, labels in zip(ds.track_ids, ds.labels):
        by_track.setdefault(track_id, []).append(labels)
    for labels in by_track.values():
        assert len(labels) == spec.excerpts_per_track
        for l in labels[1:]:
            assert np.array_equal(l, labels[0])


def test_noiseless_identical_tag_sets_identical_features(small_space):
    spec = SyntheticSpec(
        space=small_space,
        feature_dim=16,
        tracks=40,
        excerpts_per_track=2,
        tags_per_notion_range=(1, 1),
        sigma_within=0.0,
        sigma_excerpt=0.0,
        seed=0,
    )
    ds = generate_synthetic(spec)
    by_tags = {}
    for features, labels in zip(ds.features, ds.labels):
        by_tags.setdefault(tuple(labels), []).append(features)
    for feats in by_tags.values():
        for f in feats[1:]:
            assert np.array_equal(f, feats[0])


def nearest_centroid_decode(dataset: Dataset, spec: SyntheticSpec) -> float:
    """Fraction of tag assignments recovered by nearest-centroid decoding.

    Used as a generation-time sanity oracle: with noise small relative to
    centroid separation this should be close to 1.
    """
    space = spec.space
    cents = tag_centroids(spec)
    blocks = _feature_blocks(spec.feature_dim, space.num_notions)
    hits = 0
    total = 0
    for features, labels in zip(dataset.features, dataset.labels):
        for g, notion in enumerate(space.notions):
            block = blocks[g]
            true_tags = {
                t for t in notion.tags if labels[space.tag_index[t]] > 0
            }
            k = len(true_tags)
            tag_idx = [space.tag_index[t] for t in notion.tags]
            # score each tag by how much its centroid explains the block
            scores = [
                float(np.dot(features[block], cents[ti, block]))
                for ti in tag_idx
            ]
            top = {notion.tags[i] for i in np.argsort(scores)[::-1][:k]}
            hits += len(top & true_tags)
            total += k
    return hits / total if total else 0.0


def test_nearest_centroid_decoder_recovers_tags(spec):
    # sigma 0.1 is small relative to unit-variance centroids
    ds = generate_synthetic(spec)
    assert nearest_centroid_decode(ds, spec) >= 0.95


def test_centroids_live_in_notion_blocks(spec):
    cents = tag_centroids(spec)
    # color tags occupy the first half of feature space, shape tags the second
    assert np.array_equal(cents[:2, 8:], np.zeros((2, 8)))
    assert np.array_equal(cents[2:, :8], np.zeros((2, 8)))


def test_spec_validation(small_space):
    with pytest.raises(ConfigurationError):
        SyntheticSpec(space=small_space, tracks=0)
    with pytest.raises(ConfigurationError):
        SyntheticSpec(space=small_space, tags_per_notion_range=(0, 1))
    with pytest.raises(ConfigurationError):
        SyntheticSpec(space=small_space, tags_per_notion_range=(2, 1))
    with pytest.raises(ConfigurationError):
        SyntheticSpec(space=small_space, tags_per_notion_range=(1, 3))
    with pytest.raises(ConfigurationError):
        SyntheticSpec(space=small_space, sigma_within=-0.1)


def test_spec_dict_round_trip(spec):
    d = spec.to_dict()
    back = SyntheticSpec(**{**d, "space": LabelSpace.from_dict(d["space"])})
    assert back.to_dict() == spec.to_dict()


# type rules of SyntheticSpec's fields: checked, not converted; a value of
# the wrong type raises ConfigurationError naming the key
SPEC_NOT_TYPED = {
    "tracks_float": ({"tracks": 60.5}, "'tracks'"),
    "feature_dim_bool": ({"feature_dim": True}, "'feature_dim'"),
    "excerpts_per_track_float": ({"excerpts_per_track": 2.0},
                                 "'excerpts_per_track'"),
    "seed_str": ({"seed": "0"}, "'seed'"),
    "range_float": ({"tags_per_notion_range": (1.0, 2)},
                    "'tags_per_notion_range'"),
    "range_triple": ({"tags_per_notion_range": (1, 2, 3)},
                     "'tags_per_notion_range': expected a .min, max. pair"),
    "range_single": ({"tags_per_notion_range": (1,)},
                     "'tags_per_notion_range': expected a .min, max. pair"),
    "sigma_within_str": ({"sigma_within": "1.0"}, "'sigma_within'"),
    "sigma_excerpt_none": ({"sigma_excerpt": None}, "'sigma_excerpt'"),
}


@pytest.mark.parametrize("case", list(SPEC_NOT_TYPED))
def test_spec_names_the_key_of_a_value_of_the_wrong_type(small_space, case):
    fields, key = SPEC_NOT_TYPED[case]
    with pytest.raises(ConfigurationError, match=key):
        SyntheticSpec(space=small_space, **fields)


def test_spec_keeps_the_values_it_checks(small_space):
    spec = SyntheticSpec(space=small_space, sigma_within=1, seed=np.int64(4))
    assert type(spec.sigma_within) is int and type(spec.seed) is np.int64


def test_spec_keeps_tags_per_notion_range_as_a_tuple(small_space):
    spec = SyntheticSpec(space=small_space, tags_per_notion_range=[1, 2])
    assert spec.tags_per_notion_range == (1, 2)
    assert spec == SyntheticSpec(space=small_space, tags_per_notion_range=(1, 2))


def _subset(ds, idx):
    return Dataset(ds.space, [ds.ids[i] for i in idx],
                   [ds.track_ids[i] for i in idx], ds.features[idx],
                   ds.labels[idx])


def _split(ds, fractions, seed):
    """The generate-then-index split that generate_splits' per-part writer
    replaced: the oracle it must equal bit for bit."""
    fractions = [float(f) for f in fractions]
    rng = np.random.default_rng(seed)
    tracks = list(dict.fromkeys(ds.track_ids))  # first-appearance order
    n = len(tracks)
    bounds = np.round(np.cumsum([0.0] + fractions) * n).astype(int)
    perm = rng.permutation(n)
    parts = []
    for i in range(len(fractions)):
        chosen = {tracks[j] for j in perm[bounds[i]:bounds[i + 1]]}
        parts.append(_subset(
            ds, [k for k, t in enumerate(ds.track_ids) if t in chosen]))
    return tuple(parts)


def _covered(parts) -> bool:
    return bool((parts[0].labels.sum(axis=0) > 0).all())


def _oracle_splits(spec, fractions):
    """generate_splits as generate_synthetic then _split, with its redraws."""
    for k in range(20):
        sp = replace(spec, seed=spec.seed + 1000 + k) if k else spec
        parts = _split(generate_synthetic(sp), fractions, seed=sp.seed)
        if _covered(parts):
            return parts
    raise AssertionError("the oracle found no covering draw")


def _assert_same_parts(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.ids == b.ids and a.track_ids == b.track_ids
        assert _arrays_digest(a) == _arrays_digest(b)


def _assert_track_integrity(parts, spec):
    # every track lands whole in exactly one part
    tracksets = [set(p.track_ids) for p in parts]
    assert sum(len(t) for t in tracksets) == spec.tracks
    assert len(set().union(*tracksets)) == spec.tracks
    for p in parts:
        assert all(p.track_ids.count(t) == spec.excerpts_per_track
                   for t in set(p.track_ids))


def test_split_fractions_and_track_integrity(spec):
    parts = generate_splits(spec, (0.6, 0.2, 0.2))
    assert sum(len(p) for p in parts) == spec.tracks * spec.excerpts_per_track
    _assert_track_integrity(parts, spec)
    # track-count proportions honour the fractions exactly (rounded bounds)
    assert [len(set(p.track_ids)) for p in parts] == [30, 10, 10]


def test_split_is_deterministic(spec):
    a = generate_splits(spec, (0.5, 0.5))
    b = generate_splits(spec, (0.5, 0.5))
    _assert_same_parts(a, b)


def test_split_validates_fractions(spec):
    for fractions in ((0.5, 0.4), (1.2, -0.2), ("0.5", "0.5"), 1.0):
        with pytest.raises(ConfigurationError, match="split fractions"):
            generate_splits(spec, fractions)


@pytest.mark.parametrize("excerpts", [1, 3])
@pytest.mark.parametrize("fractions", [(0.5, 0.5), (0.6, 0.2, 0.2),
                                       (0.4, 0.3, 0.2, 0.1)],
                         ids=["2-parts", "3-parts", "4-parts"])
def test_generate_splits_equals_generate_then_split(spec, fractions, excerpts):
    spec = replace(spec, excerpts_per_track=excerpts)
    _assert_same_parts(generate_splits(spec, fractions),
                       _oracle_splits(spec, fractions))


def test_generate_splits_covers_all_tags(spec):
    parts = generate_splits(spec)
    assert _covered(parts)
    _assert_track_integrity(parts, spec)


def test_generate_splits_redraws_until_train_covers_every_tag():
    # 9 of 15 tracks in train: the spec's own draw misses a tag, so
    # generate_splits draws again at seed + 1000 + k, k = 1, 2, ...
    spec = SyntheticSpec(space=default_label_space(), tracks=15, seed=0)
    fractions = (0.6, 0.2, 0.2)
    assert not _covered(_split(generate_synthetic(spec), fractions, seed=0))
    _assert_same_parts(generate_splits(spec, fractions),
                       _oracle_splits(spec, fractions))


def test_generate_splits_gives_up_when_train_cannot_cover_every_tag():
    # one train track carries at most two of the eight genre tags
    spec = SyntheticSpec(space=default_label_space(), tracks=3, seed=0)
    with pytest.raises(DatasetError, match="after 20 attempts"):
        generate_splits(spec, fractions=(0.34, 0.33, 0.33))


@pytest.mark.parametrize("tracks, fractions, part", [
    (60, (0.8, 0.005, 0.195), 1),
    (2, (0.5, 0.25, 0.25), 2),
])
def test_split_rejects_a_part_that_rounds_to_no_track(tracks, fractions, part,
                                                      monkeypatch):
    spec = SyntheticSpec(space=default_label_space(), tracks=tracks, seed=0)

    def no_draw(*args):
        raise AssertionError("drew rows before checking the parts")

    monkeypatch.setattr(data, "_write_parts", no_draw)
    with pytest.raises(DatasetError, match=f"split part {part} of 3 .* empty"):
        generate_splits(spec, fractions)


def test_generate_splits_peak_is_what_its_splits_hold():
    # each row is written once, into its part: no whole dataset is held
    # next to the parts (generate-then-index peaked at 1.83 times the parts)
    spec = SyntheticSpec(space=default_label_space(), tracks=1500, seed=0)
    tracemalloc.start()
    try:
        parts = generate_splits(spec, fractions=(0.3, 0.05, 0.65))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(p) for p in parts) == 6000
    assert peak <= 1.1 * held


def test_dataset_rejects_ragged_features(small_space):
    items = [
        Item("a", "t0", np.zeros(4), small_space.multi_hot(["red", "round"])),
        Item("b", "t1", np.zeros(5), small_space.multi_hot(["red", "round"])),
    ]
    with pytest.raises(DatasetError):
        from_items(items, small_space)


def test_dataset_rejects_wrong_label_length(small_space):
    items = [Item("a", "t0", np.zeros(4), np.zeros(3))]
    with pytest.raises(DatasetError):
        from_items(items, small_space)


@pytest.mark.parametrize("value", [0.5, -1.0, 2.0, np.nan])
def test_dataset_refuses_a_label_other_than_0_or_1(small_space, value):
    labels = np.zeros((3, small_space.num_tags))
    labels[:, 0] = 1.0
    labels[1, 2] = value
    with pytest.raises(DatasetError, match=(
            r"^item 'b': label .* of tag 'round' is neither 0 nor 1$")):
        Dataset(small_space, ["a", "b", "c"], ["t0", "t0", "t1"],
                np.zeros((3, 2)), labels)


@pytest.mark.parametrize("dtype", [bool, np.int64, np.int8, np.float64])
def test_dataset_takes_0_1_labels_of_any_dtype_as_bool(small_space, dtype):
    hot = np.array([[1, 0, 1, 0], [0, 1, 0, 1]])
    ds = Dataset(small_space, ["a", "b"], ["t0", "t1"], np.zeros((2, 2)),
                 hot.astype(dtype))
    assert ds.labels.dtype == bool and np.array_equal(ds.labels, hot)


def test_generated_and_loaded_labels_are_one_byte_per_tag(spec, tmp_path):
    parts = generate_splits(spec)
    for k, part in enumerate(parts):
        path = tmp_path / f"part{k}.tsv"
        save_dataset(part, path)
        for ds in (part, load_dataset(path, spec.space)):
            assert ds.labels.dtype == bool
            assert ds.labels.nbytes == len(ds) * spec.space.num_tags


# --- file format ----------------------------------------------------------


def test_save_load_round_trip(spec, tmp_path):
    ds = generate_synthetic(spec)
    path = tmp_path / "data.tsv"
    save_dataset(ds, path)
    back = load_dataset(path, spec.space)
    assert back.ids == ds.ids
    assert back.track_ids == ds.track_ids
    # the rows of a track share one track id string
    assert len({id(t) for t in back.track_ids}) == spec.tracks
    assert np.array_equal(back.features, ds.features)
    assert np.array_equal(back.labels, ds.labels)


def test_load_reports_line_numbers(small_space, tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text(
        "#feature_dim=2\n"
        "#tags=red,blue,round,square\n"
        "a\tt0\t1.0,2.0\tred;round\n"
        "b\tt0\t1.0\tred;round\n"  # wrong width
        "c\tt0\t1.0,2.0\t\n"  # empty tags
        "a\tt1\t1.0,2.0\tblue;square\n"  # duplicate id
    )
    with pytest.raises(DatasetError) as exc:
        load_dataset(path, small_space)
    msg = str(exc.value)
    assert "line 4" in msg and "line 5" in msg and "line 6" in msg


def test_load_rejects_bad_headers(small_space, tmp_path):
    p1 = tmp_path / "h1.tsv"
    p1.write_text("feature_dim=2\n#tags=red,blue,round,square\n")
    with pytest.raises(DatasetError):
        load_dataset(p1, small_space)
    p2 = tmp_path / "h2.tsv"
    p2.write_text("#feature_dim=2\n#tags=red,blue\n")
    with pytest.raises(DatasetError):
        load_dataset(p2, small_space)


def test_load_rejects_unknown_tag(small_space, tmp_path):
    path = tmp_path / "tag.tsv"
    path.write_text(
        "#feature_dim=2\n#tags=red,blue,round,square\n"
        "a\tt0\t1.0,2.0\tgreen\n"
    )
    with pytest.raises(DatasetError):
        load_dataset(path, small_space)


def test_save_twice_is_byte_identical(spec, tmp_path):
    ds = generate_synthetic(spec)
    p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert p1.read_bytes() == p2.read_bytes()


def _arrays_digest(ds) -> str:
    """sha256 over a dataset's float64 feature bytes and its bool labels'
    bytes as float64, then its ids and track ids joined by newlines.

    The pins below were recorded when labels were float64; hashing the
    labels as float64 keeps every pin's value."""
    assert ds.features.dtype == np.float64 and ds.labels.dtype == bool
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.features).tobytes())
    h.update(ds.labels.astype(np.float64).tobytes())
    h.update("\n".join(ds.ids).encode())
    h.update("\n".join(ds.track_ids).encode())
    return h.hexdigest()


# sha256 of each split's saved file, then of its arrays (as generated and as
# loaded back, which agree), recorded from the item-list implementation that
# the array-backed generator, writer and reader replaced
TSV_PINS = {
    "default": {
        "train": ("bb2be690971bdcad87ff4ea823e8a98fecec9c28ca098f11803af7c7cdff058c",
                  "33c04ddb8835c267976a1e5adaeec9ec3a09023fe50a888d8b179809dd5090bc"),
        "valid": ("a213b195a4880ba96ec807420eb7ff864c6a1e6a21979159b8892f191cf60c9f",
                  "3fd83b0f56c796ee9e666f1423bd4c55b33ab3cffb27fe12df506b8fc706b46e"),
        "test": ("75a1d105d93a439c1e1f53c22e5a9d62a5daba16ab6430ac438df2e21c25f2fb",
                 "639bdde660c2c0896564c779b8842baabb294a5ed1f4d944b1ea93fa81559f3a"),
    },
    "eval_heavy": {
        "train": ("ce93cd8120dd6f76288c99389fbd9d42765edfaea81ed9a365c75494b62672c7",
                  "5bf5a09284232a801f506015d155d76f8f0ae4014a8c7a2ba39b5dbcaad97910"),
        "valid": ("9195bd4529c8bc429121f56690744303fb5414a0c45fb6cd5faca0b19f4b3d00",
                  "ccabdd1ece53f0bff9348c75b3e8381da6441376fac4dd348780e6a7ec094a61"),
        "test": ("52dc2599d22c53dfa4836e32950abc45a35fff4766353f446130d93553c83642",
                 "c968fc98ff794fcc0445ec325a96e5f377291f8027ef5bef0e1e253bc20ab2ce"),
    },
}


@pytest.mark.parametrize("shape", sorted(TSV_PINS))
def test_generated_saved_and_loaded_bytes_are_pinned(shape, tmp_path):
    # the default config's splits, and an eval_heavy-shaped spec: 1,500
    # tracks split 0.3 / 0.05 / 0.65
    if shape == "default":
        parts = generate_splits(default_config(0).synthetic)
    else:
        spec = SyntheticSpec(space=default_label_space(), tracks=1500, seed=0)
        parts = generate_splits(spec, fractions=(0.3, 0.05, 0.65))
    for key, ds in zip(("train", "valid", "test"), parts):
        tsv_pin, arrays_pin = TSV_PINS[shape][key]
        path = tmp_path / f"{key}.tsv"
        save_dataset(ds, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == tsv_pin, key
        assert _arrays_digest(ds) == arrays_pin, key
        assert _arrays_digest(load_dataset(path, ds.space)) == arrays_pin, key


# _arrays_digest of generate_synthetic's dataset, recorded from the
# implementation that generated the whole dataset before a split indexed it;
# generate_synthetic is now the one-part case of generate_splits' writer
SYNTHETIC_PINS = {
    "default": "cd2601f2016ddb357920c10e0cb32927f8ed616d985f628ba952c966f39ad513",
    "eval_heavy": "cd102576990478f8af091759c8dee7ce2aeb332dbbee182d4a072a3299a4fabd",
}


@pytest.mark.parametrize("shape", sorted(SYNTHETIC_PINS))
def test_generate_synthetic_arrays_are_pinned(shape):
    if shape == "default":
        spec = default_config(0).synthetic
    else:
        spec = SyntheticSpec(space=default_label_space(), tracks=1500, seed=0)
    assert _arrays_digest(generate_synthetic(spec)) == SYNTHETIC_PINS[shape]


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999",
                                   "+Infinity"])
def test_load_rejects_non_finite_features(small_space, tmp_path, token):
    path = tmp_path / "nonfinite.tsv"
    path.write_text(
        "#feature_dim=2\n#tags=red,blue,round,square\n"
        "a\tt0\t1.0,2.0\tred;round\n"
        f"b\tt0\t1.0,{token}\tred;round\n"
    )
    with pytest.raises(DatasetError, match="line 4: non-finite"):
        load_dataset(path, small_space)


@pytest.mark.parametrize("field", [
    "1_0,2.5",            # digit separator
    "1.0, 2.5",           # space after the comma
    "1.0,2.5 ",           # trailing padding
    " 1.0,2.5",           # leading padding
    "1.0,\x0c2.5",        # other ASCII whitespace
    "1.0,\u0661\u0662",   # Arabic-Indic digits
    "1.0,2.5\u00a0",      # non-ASCII space
    "1.0,\uff12",         # full-width digit
])
def test_load_rejects_what_only_python_float_accepts(small_space, tmp_path,
                                                      field):
    # float() would read each of these; the file format holds ASCII numbers
    path = tmp_path / "loose.tsv"
    path.write_text(
        "#feature_dim=2\n#tags=red,blue,round,square\n"
        "a\tt0\t1.0,2.0\tred;round\n"
        f"b\tt0\t{field}\tred;round\n",
        encoding="utf-8",
    )
    with pytest.raises(DatasetError, match="line 4: non-numeric feature value"):
        load_dataset(path, small_space)


def test_load_accepts_signs_and_exponents(small_space, tmp_path):
    path = tmp_path / "signed.tsv"
    path.write_text(
        "#feature_dim=3\n#tags=red,blue,round,square\n"
        "a\tt0\t-1.5e-3,+2E+2,.5\tred;round\n"
    )
    ds = load_dataset(path, small_space)
    assert ds.features.tolist() == [[-1.5e-3, 200.0, 0.5]]


@pytest.mark.parametrize("existing", [None, b"keep me\n"])
def test_save_rejects_a_tagless_item_before_writing(small_space, tmp_path,
                                                    existing):
    items = [
        Item(f"i{k}", "t0", np.full(2, float(k)),
             small_space.multi_hot(["red"]) if k != 2 else np.zeros(4))
        for k in range(4)
    ]
    ds = from_items(items, small_space)
    path = tmp_path / "out.tsv"
    if existing is not None:
        path.write_bytes(existing)
    with pytest.raises(DatasetError, match="item 'i2' has no tags"):
        save_dataset(ds, path)
    if existing is None:
        assert not path.exists()
    else:
        assert path.read_bytes() == existing


@pytest.mark.parametrize("change, named", [
    ({}, None),
    ({"ids": ["a", "b\t"]}, "'b\\t'"),
    ({"ids": ["a", "b\n"]}, "'b\\n'"),
    ({"ids": ["a", "b\r"]}, "'b\\r'"),
    ({"ids": ["a", "b\ud800"]}, "'b\\ud800'"),
    ({"tracks": ["t0", "t\t"]}, "'t\\t'"),
    ({"tracks": ["t0", "t\r\n"]}, "'t\\r\\n'"),
    ({"ids": ["a", "a"]}, "duplicate id 'a'"),
    ({"x": np.nan}, "item 'b' has a non-finite"),
    ({"ids": [], "tracks": []}, "no rows"),
    ({"tag": ""}, "tag name ''"),
    ({"tag": "x,y"}, "'x,y'"),
    ({"tag": "x;y"}, "'x;y'"),
    ({"tag": "x\ty"}, "'x\\ty'"),
    ({"tag": "x\ny"}, "'x\\ny'"),
], ids=["control", "id-tab", "id-lf", "id-cr", "id-surrogate", "track-tab",
        "track-crlf", "duplicate-id", "nan-feature", "no-rows", "tag-empty",
        "tag-comma", "tag-semicolon", "tag-tab", "tag-lf"])
def test_save_refuses_what_load_rejects_before_writing(tmp_path, change,
                                                       named):
    # each case changes one name or value of a dataset that round-trips
    c = {"ids": ["a", "b"], "tracks": ["t0", "t1"], "x": 1.0, "tag": "blue",
         **change}
    space = LabelSpace([("color", ["red", c["tag"]]),
                        ("shape", ["round", "square"])], embedding_dim=8)
    n = len(c["ids"])
    features = np.ones((n, 2))
    features[n - 1:, 0] = c["x"]
    ds = Dataset(space, c["ids"], c["tracks"], features, np.ones((n, 4)))
    path = tmp_path / "out.tsv"
    if named is None:
        save_dataset(ds, path)
        assert load_dataset(path, space).ids == ds.ids
        return
    path.write_bytes(b"keep me\n")
    with pytest.raises(DatasetError, match=re.escape(named)):
        save_dataset(ds, path)
    assert path.read_bytes() == b"keep me\n"


def test_load_rejects_invalid_utf8(small_space, tmp_path):
    path = tmp_path / "latin1.tsv"
    path.write_bytes(
        b"#feature_dim=2\n#tags=red,blue,round,square\n"
        b"a\tt0\t1.0,2.0\tred;round\n"
        b"b\xe9\tt0\t1.0,2.0\tred;round\n"
    )
    with pytest.raises(DatasetError, match="line 4: not valid UTF-8"):
        load_dataset(path, small_space)


FUZZ_SPACE = LabelSpace(
    [("color", ["red", "blue"]), ("shape", ["round", "square"])],
    embedding_dim=8,
)


def _fuzz_lines() -> list[str]:
    """The lines of a small saved dataset (two headers, six rows)."""
    spec = SyntheticSpec(space=FUZZ_SPACE, feature_dim=3, tracks=2,
                         excerpts_per_track=3, seed=5)
    ds = generate_synthetic(spec)
    rows = [
        f"{item_id}\t{track_id}\t" + ",".join(f"{x:.17g}" for x in features)
        + "\t" + ";".join(FUZZ_SPACE.decode(labels))
        for item_id, track_id, features, labels in zip(
            ds.ids, ds.track_ids, ds.features, ds.labels)
    ]
    return ["#feature_dim=3", "#tags=" + ",".join(FUZZ_SPACE.tags), *rows]


FUZZ_LINES = _fuzz_lines()


@settings(max_examples=300, deadline=None, database=None)
@given(
    bad_value=st.none() | st.tuples(
        st.integers(2, len(FUZZ_LINES) - 1), st.integers(0, 2),
        st.sampled_from(["nan", "inf", "-inf", "NaN", "-Infinity", "1e400"]),
    ),
    dup=st.none() | st.tuples(st.integers(2, len(FUZZ_LINES) - 1),
                              st.integers(2, len(FUZZ_LINES) - 1)),
    cut=st.none() | st.integers(0, 2000),
    tail=st.binary(max_size=24),
)
def test_load_dataset_fuzz_raises_only_dataset_error(
    tmp_path_factory, bad_value, dup, cut, tail
):
    # a damaged file either loads or raises DatasetError, never another
    # exception; a non-finite value or a duplicate id in an intact file
    # always raises
    lines = list(FUZZ_LINES)
    if bad_value is not None:
        row, col, token = bad_value
        fields = lines[row].split("\t")
        feats = fields[2].split(",")
        feats[col] = token
        fields[2] = ",".join(feats)
        lines[row] = "\t".join(fields)
    if dup is not None and dup[0] != dup[1]:
        src, dst = dup
        row_id = lines[src].split("\t")[0]
        lines[dst] = row_id + lines[dst][lines[dst].index("\t"):]
    else:
        dup = None
    raw = ("\n".join(lines) + "\n").encode("utf-8")
    intact = (cut is None or cut >= len(raw)) and not tail
    raw = raw[:cut] + tail
    path = tmp_path_factory.mktemp("fuzz") / "data.tsv"
    path.write_bytes(raw)
    try:
        ds = load_dataset(path, FUZZ_SPACE)
    except DatasetError:
        return
    assert not (intact and (bad_value or dup)), "damaged file loaded"
    assert np.isfinite(ds.features).all()
    assert len(set(ds.ids)) == len(ds.ids)
