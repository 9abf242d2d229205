"""Synthetic generator, splits, and the dataset file format."""

import hashlib
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from disembed.data import (
    Dataset,
    Item,
    SyntheticSpec,
    generate_splits,
    generate_synthetic,
    load_dataset,
    nearest_centroid_decode,
    save_dataset,
    split,
    tag_centroids,
)
from disembed.config import default_config, default_label_space
from disembed.errors import ConfigurationError, DatasetError
from disembed.labelspace import LabelSpace


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
    back = SyntheticSpec.from_dict(spec.to_dict())
    assert back.to_dict() == spec.to_dict()


def test_split_fractions_and_track_integrity(spec):
    ds = generate_synthetic(spec)
    parts = split(ds, (0.6, 0.2, 0.2), seed=9)
    assert sum(len(p) for p in parts) == len(ds)
    tracksets = [set(p.track_ids) for p in parts]
    # by-track splitting keeps excerpts of a track together
    assert not (tracksets[0] & tracksets[1])
    assert not (tracksets[0] & tracksets[2])
    assert not (tracksets[1] & tracksets[2])
    # track-count proportions honour the fractions exactly (rounded bounds)
    assert [len(t) for t in tracksets] == [30, 10, 10]


def test_split_is_deterministic(spec):
    ds = generate_synthetic(spec)
    a = split(ds, (0.5, 0.5), seed=4)
    b = split(ds, (0.5, 0.5), seed=4)
    assert a[0].ids == b[0].ids and a[1].ids == b[1].ids


def test_split_validates_fractions(spec):
    ds = generate_synthetic(spec)
    with pytest.raises(ConfigurationError):
        split(ds, (0.5, 0.4), seed=0)
    with pytest.raises(ConfigurationError):
        split(ds, (1.2, -0.2), seed=0)


def test_generate_splits_covers_all_tags(spec):
    train, valid, test = generate_splits(spec)
    assert (train.labels.sum(axis=0) > 0).all()
    assert len(train) + len(valid) + len(test) == spec.tracks * spec.excerpts_per_track


def test_generate_splits_redraws_until_train_covers_every_tag():
    # 9 of 15 tracks in train: the spec's own draw misses a tag, so
    # generate_splits draws again at seed + 1000 + k, k = 1, 2, ...
    spec = SyntheticSpec(space=default_label_space(), tracks=15, seed=0)
    fractions = (0.6, 0.2, 0.2)

    def draw(sp):
        return split(generate_synthetic(sp), fractions, seed=sp.seed)

    def covered(parts):
        return bool((parts[0].labels.sum(axis=0) > 0).all())

    assert not covered(draw(spec))
    redraws = (draw(replace(spec, seed=1000 + k)) for k in range(1, 20))
    want = next(parts for parts in redraws if covered(parts))
    got = generate_splits(spec, fractions)
    for a, b in zip(got, want):
        assert a.ids == b.ids
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)


def test_generate_splits_gives_up_when_train_cannot_cover_every_tag():
    # one train track carries at most two of the eight genre tags
    spec = SyntheticSpec(space=default_label_space(), tracks=3, seed=0)
    with pytest.raises(DatasetError, match="after 20 attempts"):
        generate_splits(spec, fractions=(0.34, 0.33, 0.33))


@pytest.mark.parametrize("tracks, fractions, part", [
    (60, (0.8, 0.005, 0.195), 1),
    (2, (0.5, 0.25, 0.25), 2),
])
def test_split_rejects_a_part_that_rounds_to_no_track(tracks, fractions, part):
    spec = SyntheticSpec(space=default_label_space(), tracks=tracks, seed=0)
    ds = generate_synthetic(spec)
    with pytest.raises(DatasetError, match=f"split part {part} of 3 .* empty"):
        split(ds, fractions, seed=0)
    with pytest.raises(DatasetError, match=f"split part {part} of 3"):
        generate_splits(spec, fractions)


def test_dataset_rejects_ragged_features(small_space):
    items = [
        Item("a", "t0", np.zeros(4), small_space.multi_hot(["red", "round"])),
        Item("b", "t1", np.zeros(5), small_space.multi_hot(["red", "round"])),
    ]
    with pytest.raises(DatasetError):
        Dataset.from_items(items, small_space)


def test_dataset_rejects_wrong_label_length(small_space):
    items = [Item("a", "t0", np.zeros(4), np.zeros(3))]
    with pytest.raises(DatasetError):
        Dataset.from_items(items, small_space)


# --- file format ----------------------------------------------------------


def test_save_load_round_trip(spec, tmp_path):
    ds = generate_synthetic(spec)
    path = tmp_path / "data.tsv"
    save_dataset(ds, path)
    back = load_dataset(path, spec.space)
    assert back.ids == ds.ids
    assert back.track_ids == ds.track_ids
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
    """sha256 over a dataset's float64 feature and label bytes, then its ids
    and track ids joined by newlines."""
    assert ds.features.dtype == ds.labels.dtype == np.float64
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(ds.features).tobytes())
    h.update(np.ascontiguousarray(ds.labels).tobytes())
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
    ds = Dataset.from_items(items, small_space)
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
