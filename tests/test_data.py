"""Synthetic generator, splits, and the dataset file format."""

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
    for item in ds.items:
        by_track.setdefault(item.track_id, []).append(item.labels)
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
    for item in ds.items:
        by_tags.setdefault(tuple(item.labels), []).append(item.features)
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


def test_dataset_rejects_ragged_features(small_space):
    items = [
        Item("a", "t0", np.zeros(4), small_space.multi_hot(["red", "round"])),
        Item("b", "t1", np.zeros(5), small_space.multi_hot(["red", "round"])),
    ]
    with pytest.raises(DatasetError):
        Dataset(items, small_space)


def test_dataset_rejects_wrong_label_length(small_space):
    items = [Item("a", "t0", np.zeros(4), np.zeros(3))]
    with pytest.raises(DatasetError):
        Dataset(items, small_space)


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


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999"])
def test_load_rejects_non_finite_features(small_space, tmp_path, token):
    path = tmp_path / "nonfinite.tsv"
    path.write_text(
        "#feature_dim=2\n#tags=red,blue,round,square\n"
        "a\tt0\t1.0,2.0\tred;round\n"
        f"b\tt0\t1.0,{token}\tred;round\n"
    )
    with pytest.raises(DatasetError, match="line 4: non-finite"):
        load_dataset(path, small_space)


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
    rows = [
        f"{i.id}\t{i.track_id}\t" + ",".join(f"{x:.17g}" for x in i.features)
        + "\t" + ";".join(FUZZ_SPACE.decode(i.labels))
        for i in generate_synthetic(spec).items
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
