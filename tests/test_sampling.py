"""Triplet mining predicates, sampling uniformity, and batch iteration."""

import hashlib

import numpy as np
import pytest
from scipy.stats import chisquare

from disembed.benchmark import load_or_generate, sample_eval_triplets
from disembed.config import default_config
from disembed.data import SyntheticSpec, generate_splits
from disembed.errors import DatasetError
from disembed.sampling import (
    Triplet,
    TripletSampler,
    batch_iterator,
    checked_sampler,
)
from disembed.trainer import VariantConfig, train

from conftest import Item, from_items


def toy_dataset(small_space):
    """Hand-built dataset with a known tag/track structure.

    'square' has a single positive, so it must be excluded from sampling.
    """
    rows = [
        ("a0", "trA", ["red", "round"]),
        ("a1", "trA", ["red", "round"]),
        ("b0", "trB", ["blue", "round"]),
        ("b1", "trB", ["blue", "round"]),
        ("c0", "trC", ["red", "square"]),
    ]
    items = [
        Item(i, tr, np.random.default_rng(7).normal(size=4),
             small_space.multi_hot(tags))
        for i, tr, tags in rows
    ]
    return from_items(items, small_space)


def test_underpopulated_tags_excluded(small_space):
    sampler = TripletSampler(toy_dataset(small_space))
    assert "square" not in sampler.sampleable
    assert set(sampler.sampleable) == {"red", "blue", "round"}


def test_tag_triplet_predicates(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds)
    for _ in range(200):
        t = sampler.tag_triplets(rng, 1)[0]
        col = small_space.tag_index[t.tag]
        assert ds.labels[t.anchor, col] > 0
        assert ds.labels[t.positive, col] > 0
        assert ds.labels[t.negative, col] == 0
        assert t.anchor != t.positive
        assert t.kind == "tag"
        assert small_space.notion_of(t.tag) == t.notion


def test_tag_triplet_notion_restriction(small_space, rng):
    sampler = TripletSampler(toy_dataset(small_space))
    for _ in range(50):
        t = sampler.tag_triplets(rng, 1, notion="color")[0]
        assert t.tag in ("red", "blue")
    with pytest.raises(DatasetError):
        sampler.tag_triplets(rng, 1, notion="no-such-notion")


def test_track_triplet_predicates(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds)
    for _ in range(100):
        t = sampler.track_triplets(rng, 1)[0]
        assert ds.track_ids[t.anchor] == ds.track_ids[t.positive]
        assert ds.track_ids[t.negative] != ds.track_ids[t.anchor]
        assert t.anchor != t.positive
        assert t.kind == "track" and t.tag is None and t.notion is None


def test_track_triplet_exhaustive_pairs(small_space, rng):
    # with two 2-item tracks, anchor/positive pairs enumerate exactly
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds)
    seen = set()
    for _ in range(300):
        t = sampler.track_triplets(rng, 1)[0]
        seen.add((t.anchor, t.positive))
    assert seen == {(0, 1), (1, 0), (2, 3), (3, 2)}


def test_tag_sampling_is_two_stage_uniform(small_space):
    # stage one picks the tag uniformly among sampleable tags, so each of the
    # three tags should get ~1/3 of draws regardless of its population
    sampler = TripletSampler(toy_dataset(small_space))
    rng = np.random.default_rng(99)
    counts = {t: 0 for t in sampler.sampleable}
    n = 9000
    for _ in range(n):
        counts[sampler.tag_triplets(rng, 1)[0].tag] += 1
    for tag, c in counts.items():
        assert abs(c - n / 3) < 200, f"{tag}: {c}"


def regular_dataset(small_space):
    """Every tag has 9 or 12 positives and 12 or 9 negatives; tracks hold two
    items, the last one one."""
    items = [
        Item(f"i{k}", f"tr{k // 2}", np.zeros(4),
             small_space.multi_hot(tags))
        for k, tags in enumerate(
            [["red", "round"], ["blue", "square"], ["red", "square"],
             ["blue", "round"], ["red", "round"], ["blue", "square"],
             ["red", "square"]] * 3)
    ]
    return from_items(items, small_space)


def test_empty_dataset_rejected(small_space):
    with pytest.raises(DatasetError):
        TripletSampler(from_items([], small_space))


def test_track_sampling_needs_multi_item_track(small_space):
    items = [
        Item("a", "trA", np.zeros(4), small_space.multi_hot(["red", "round"])),
        Item("b", "trB", np.zeros(4), small_space.multi_hot(["blue", "round"])),
    ]
    sampler = TripletSampler(from_items(items, small_space))
    with pytest.raises(DatasetError):
        sampler.track_triplets(np.random.default_rng(0), 1)


# --- batch iteration -------------------------------------------------------


def test_sample_mode_covers_each_item_once(small_space, rng):
    ds = toy_dataset(small_space)
    seen = []
    for X, Y in batch_iterator(ds, 2, "sample", rng):
        assert len(X) == len(Y) <= 2
        seen.extend(map(tuple, X))
    assert len(seen) == len(ds)
    assert set(seen) == set(map(tuple, ds.features))


def test_triplet_mode_yields_one_triplet_per_item(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds)
    total = 0
    for tag_batch, track_batch in batch_iterator(
        ds, 2, "triplet", rng, sampler=sampler
    ):
        assert track_batch is None
        assert all(isinstance(t, Triplet) for t in tag_batch)
        total += len(tag_batch)
    assert total == len(ds)


def test_triplet_mode_with_track_reg(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds)
    for tag_batch, track_batch in batch_iterator(
        ds, 3, "triplet", rng, sampler=sampler, track_reg=True
    ):
        assert len(track_batch) == len(tag_batch)
        assert all(t.kind == "track" for t in track_batch)


def test_triplet_mode_last_batch_is_short(small_space, rng):
    ds = edge_dataset(small_space, 10)
    batches = list(batch_iterator(ds, 4, "triplet", rng))
    assert [len(tags) for tags, _ in batches] == [4, 4, 2]


def test_bad_mode_and_batch_size(small_space, rng):
    ds = toy_dataset(small_space)
    with pytest.raises(ValueError):
        list(batch_iterator(ds, 0, "sample", rng))
    with pytest.raises(ValueError):
        list(batch_iterator(ds, 2, "pairs", rng))


def test_negative_triplet_count_rejected(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds)
    with pytest.raises(ValueError):
        sampler.tag_triplets(rng, -1)
    with pytest.raises(ValueError):
        sampler.track_triplets(rng, -1)


def test_zero_triplets_leave_the_generator_untouched(small_space, rng):
    sampler = TripletSampler(toy_dataset(small_space))
    state = rng.bit_generator.state
    assert list(sampler.tag_triplets(rng, 0)) == []
    assert list(sampler.tag_triplets(rng, 0, notion="shape")) == []
    assert list(sampler.track_triplets(rng, 0)) == []
    assert rng.bit_generator.state == state


# --- properties of the vectorized draws ----------------------------------------


def edge_dataset(small_space, n=9):
    """'red' has exactly two positives, 'round' exactly one negative, 'square'
    one positive (excluded, so notion 'shape' has one sampleable tag); tracks
    hold one, two or three items, so track negatives are often redrawn.
    With ``n`` rows the nine repeat, each repeat in tracks of its own."""
    rows = [("red", "round", "t0"), ("red", "round", "t0"),
            ("blue", "round", "t1"), ("blue", "round", "t1"),
            ("blue", "round", "t1"), ("blue", "square", "t2"),
            ("blue", "round", "t3"), ("blue", "round", "t4"),
            ("blue", "round", "t4")]
    items = []
    for k in range(n):
        c, sh, tr = rows[k % len(rows)]
        items.append(Item(f"i{k}", f"{tr}.{k // len(rows)}", np.zeros(4),
                          small_space.multi_hot([c, sh])))
    return from_items(items, small_space)


def assert_valid(ds, tags, tracks, notion=None):
    """Tag triplets share their tag between anchor and positive and not with
    the negative; track triplets share a track, and the negative does not."""
    space = ds.space
    assert tags.kind == "tag" and tracks.kind == "track"
    for rows in (tags.anchor, tags.positive):
        assert (ds.labels[rows, tags.tag] > 0).all()
    assert (ds.labels[tags.negative, tags.tag] == 0).all()
    assert (tags.anchor != tags.positive).all()
    names = [space.tags[t] for t in tags.tag.tolist()]
    assert tags.notion.tolist() == [
        space.notion_index(space.notion_of(t)) for t in names]
    if notion is not None:
        assert {space.notion_of(t) for t in names} <= {notion}
    track = np.asarray(ds.track_ids)
    assert (track[tracks.anchor] == track[tracks.positive]).all()
    assert (track[tracks.negative] != track[tracks.anchor]).all()
    assert (tracks.anchor != tracks.positive).all()


@pytest.mark.parametrize("count", [1, 2, 7, 64, 500])
def test_tag_and_track_triplets_are_valid(small_space, count):
    for make in (toy_dataset, regular_dataset, edge_dataset):
        ds = make(small_space)
        sampler = TripletSampler(ds)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for notion in (None, *sampler.by_notion):
                tags = sampler.tag_triplets(rng, count, notion)
                tracks = sampler.track_triplets(rng, count)
                assert len(tags) == len(tracks) == count
                assert_valid(ds, tags, tracks, notion)


def chi_square_p(draws, cells):
    """p-value of the draws (indices into ``cells`` equally likely cells)."""
    return chisquare(np.bincount(draws, minlength=cells)).pvalue


def test_tag_pair_and_negative_stages_are_uniform(small_space):
    # regular_dataset's tags have 9 or 12 positives: stage one is uniform over
    # the four tags, stage two over a tag's n(n-1) ordered pairs of positives,
    # stage three over the tag's negatives
    ds = regular_dataset(small_space)
    sampler = TripletSampler(ds)
    ids = [small_space.tag_index[t] for t in sampler.sampleable]
    for seed in (0, 1, 2):
        batch = sampler.tag_triplets(np.random.default_rng(seed), 40_000)
        tag = np.searchsorted(ids, batch.tag)
        assert chi_square_p(tag, len(ids)) > 1e-4, seed
        for col in ids:
            mine = batch.tag == col
            pos = np.flatnonzero(ds.labels[:, col] > 0)
            neg = np.flatnonzero(ds.labels[:, col] == 0)
            a = np.searchsorted(pos, batch.anchor[mine])
            p = np.searchsorted(pos, batch.positive[mine])
            assert (a != p).all()
            # ordered pair (a, p) with p != a as one of n(n-1) cells
            pair = a * (len(pos) - 1) + p - (p > a)
            assert chi_square_p(pair, len(pos) * (len(pos) - 1)) > 1e-4, (seed, col)
            k = np.searchsorted(neg, batch.negative[mine])
            assert chi_square_p(k, len(neg)) > 1e-4, (seed, col)


def test_track_negatives_in_the_anchors_track_are_redrawn(small_space):
    # track 'big' holds 17 of 20 rows, so 17 in 20 first draws of its
    # negatives land in it and are redrawn, some many times; 'pair' holds two
    # rows and row 19 is a track of its own
    tracks = ["big"] * 17 + ["pair"] * 2 + ["single"]
    ds = from_items(
        [Item(f"i{k}", tr, np.zeros(4), small_space.multi_hot(["red", "round"]))
         for k, tr in enumerate(tracks)], small_space)
    sampler = TripletSampler(ds)
    track = np.asarray(tracks)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        batch = sampler.track_triplets(rng, 6000)
        assert (track[batch.anchor] == track[batch.positive]).all()
        assert (track[batch.negative] != track[batch.anchor]).all()
        big = track[batch.anchor] == "big"
        assert chi_square_p(big.astype(np.int64), 2) > 1e-4, seed
        # big's negatives are uniform over rows 17-19, pair's over the others
        assert chi_square_p(batch.negative[big] - 17, 3) > 1e-4, seed
        others = np.searchsorted([*range(17), 19], batch.negative[~big])
        assert chi_square_p(others, 18) > 1e-4, seed


@pytest.mark.parametrize("batch_size,total,track_reg", [
    (4, 9, True), (64, 150, True), (7, 30, False), (3, 0, True), (500, 20, True)])
def test_epoch_batches_are_one_draw_per_kind_sliced(small_space, batch_size,
                                                    total, track_reg):
    # a triplet epoch of ``total`` rows is one tag_triplets call and, with
    # track_reg, one track_triplets call, of ``total`` triplets each, sliced
    ds = edge_dataset(small_space, total)
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        epoch = batch_iterator(ds, batch_size, "triplet", rng,
                               track_reg=track_reg)
        if total == 0:  # an empty split raises before any draw
            with pytest.raises(DatasetError, match="empty dataset"):
                next(epoch)
            assert rng.bit_generator.state == ref.bit_generator.state
            continue
        got = list(epoch)
        sampler = TripletSampler(ds)
        tags = sampler.tag_triplets(ref, total)
        tracks = sampler.track_triplets(ref, total) if track_reg else None
        assert [len(t) for t, _ in got] == [
            min(batch_size, total - s) for s in range(0, total, batch_size)]
        assert [t for batch, _ in got for t in batch] == list(tags)
        if track_reg:
            assert [len(t) for t, _ in got] == [len(t) for _, t in got]
            assert [t for _, batch in got for t in batch] == list(tracks)
        else:
            assert all(batch is None for _, batch in got)
        assert rng.bit_generator.state == ref.bit_generator.state

# sha256 of one track-regularized triplet epoch on default_config(0)'s
# training split and the generator state after it; a refactor that moves the
# training stream fails it
EPOCH_DIGEST = "9a530de98ea74ad44cd553e23cd01b0928aedeaffcd8cc73f506999657b8c57b"


def test_training_stream_is_pinned():
    config = default_config(0)
    train_ds, _, _ = load_or_generate(config)
    variant = config.variants[2]
    assert variant.track_reg and variant.seed == 0
    rng = np.random.default_rng(np.random.SeedSequence([variant.seed, 3, 0]))
    digest = hashlib.sha256()
    for tags, tracks in batch_iterator(train_ds, variant.batch_size, "triplet",
                                       rng, sampler=TripletSampler(train_ds),
                                       track_reg=True):
        for t in [*tags, *tracks]:
            digest.update(repr((t.anchor, t.positive, t.negative, t.tag,
                                t.notion, t.kind)).encode())
    digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == EPOCH_DIGEST


# --- split checks before any draw --------------------------------------------


def test_checked_sampler_names_split_and_notion(small_space):
    ds = edge_dataset(small_space)
    assert checked_sampler(ds, "test", ["color", "shape"], tracks=True)
    with pytest.raises(DatasetError, match="validation split is empty"):
        checked_sampler(from_items([], small_space), "validation")
    only_blue = from_items(
        [Item(f"b{k}", f"t{k}", np.zeros(4),
              small_space.multi_hot(["blue", "round"])) for k in range(3)],
        small_space)
    with pytest.raises(DatasetError, match="test split: .* notion 'color'"):
        checked_sampler(only_blue, "test", ["color", "shape"])
    with pytest.raises(DatasetError, match="validation split: no sampleable"):
        checked_sampler(only_blue, "validation")
    singles = from_items(
        [Item(f"s{k}", f"t{k}", np.zeros(4), small_space.multi_hot([c, "round"]))
         for k, c in enumerate(["red", "red", "blue"])],
        small_space)
    assert checked_sampler(singles, "test", ["color"])
    with pytest.raises(DatasetError, match="test split: track triplets"):
        checked_sampler(singles, "test", ["color"], tracks=True)


def test_eval_triplets_error_names_test_split_and_notion():
    space = default_config(1).space
    parts = generate_splits(SyntheticSpec(space=space, tracks=12, seed=1),
                            fractions=(0.8, 0.1, 0.1))
    with pytest.raises(DatasetError, match="test split: .* notion 'genre'"):
        sample_eval_triplets(parts[2], 10, seed=1)


def test_validation_triplets_error_names_validation_split(small_space):
    train_ds = edge_dataset(small_space)
    valid_ds = from_items(
        [Item(f"v{k}", f"t{k}", np.zeros(4),
              small_space.multi_hot(["blue", "round"])) for k in range(3)],
        small_space)
    variant = VariantConfig(family="triplet", max_epochs=1, hidden=(4,))
    with pytest.raises(DatasetError, match="validation split: no sampleable"):
        train(variant, small_space, train_ds, valid_ds)
