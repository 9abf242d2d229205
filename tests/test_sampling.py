"""Triplet mining predicates, sampling uniformity, and batch iteration."""

import numpy as np
import pytest

from disembed.data import Dataset, Item
from disembed.errors import DatasetError
from disembed.sampling import Triplet, TripletSampler, batch_iterator


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
    return Dataset(items, small_space)


def test_underpopulated_tags_excluded(small_space):
    sampler = TripletSampler(toy_dataset(small_space))
    assert "square" not in sampler.sampleable
    assert set(sampler.sampleable) == {"red", "blue", "round"}


def test_tag_triplet_predicates(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds)
    for _ in range(200):
        t = sampler.sample_tag_triplet(rng)
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
        t = sampler.sample_tag_triplet(rng, notion="color")
        assert t.tag in ("red", "blue")
    with pytest.raises(DatasetError):
        sampler.sample_tag_triplet(rng, notion="no-such-notion")


def test_track_triplet_predicates(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds)
    for _ in range(100):
        t = sampler.sample_track_triplet(rng)
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
        t = sampler.sample_track_triplet(rng)
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
        counts[sampler.sample_tag_triplet(rng).tag] += 1
    for tag, c in counts.items():
        assert abs(c - n / 3) < 200, f"{tag}: {c}"


def reference_tag_triplet(sampler, rng, notion=None):
    """Tag triplet drawn with rng.choice for the negative as well."""
    tags = sampler.sampleable if notion is None else sampler.by_notion[notion]
    tag = tags[rng.integers(len(tags))]
    a, p = rng.choice(sampler.pos[tag], size=2, replace=False)
    n = rng.choice(sampler.neg[tag])
    return Triplet(int(a), int(p), int(n), tag, sampler.space.notion_of(tag),
                   "tag")


def test_tag_triplets_match_rng_choice_reference(small_space):
    items = [
        Item(f"i{k}", f"tr{k // 2}", np.zeros(4),
             small_space.multi_hot(tags))
        for k, tags in enumerate(
            [["red", "round"], ["blue", "square"], ["red", "square"],
             ["blue", "round"], ["red", "round"], ["blue", "square"],
             ["red", "square"]] * 3)
    ]
    sampler = TripletSampler(Dataset(items, small_space))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        for i in range(60):
            # interleave other draws on the same stream, as training does
            notion = (None, "color", "shape")[i % 3]
            assert sampler.sample_tag_triplet(rng, notion=notion) == \
                reference_tag_triplet(sampler, ref_rng, notion=notion)
            assert sampler.sample_track_triplet(rng) == \
                sampler.sample_track_triplet(ref_rng)


def test_empty_dataset_rejected(small_space):
    with pytest.raises(DatasetError):
        TripletSampler(Dataset([], small_space))


def test_track_sampling_needs_multi_item_track(small_space):
    items = [
        Item("a", "trA", np.zeros(4), small_space.multi_hot(["red", "round"])),
        Item("b", "trB", np.zeros(4), small_space.multi_hot(["blue", "round"])),
    ]
    sampler = TripletSampler(Dataset(items, small_space))
    with pytest.raises(DatasetError):
        sampler.sample_track_triplet(np.random.default_rng(0))


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


def test_triplet_count_override(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds)
    total = sum(
        len(b)
        for b, _ in batch_iterator(ds, 4, "triplet", rng, sampler=sampler,
                                   n_triplets=10)
    )
    assert total == 10


def test_bad_mode_and_batch_size(small_space, rng):
    ds = toy_dataset(small_space)
    with pytest.raises(ValueError):
        list(batch_iterator(ds, 0, "sample", rng))
    with pytest.raises(ValueError):
        list(batch_iterator(ds, 2, "pairs", rng))
