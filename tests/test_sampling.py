"""Triplet mining predicates, sampling uniformity, batch iteration, and the
replay of numpy's draws that the batch sampler relies on."""

import hashlib

import numpy as np
import pytest

from disembed import sampling
from disembed.benchmark import load_or_generate, sample_eval_triplets
from disembed.config import default_config
from disembed.data import Dataset, Item, SyntheticSpec, generate_splits
from disembed.errors import DatasetError
from disembed.sampling import (
    Triplet,
    TripletSampler,
    _bounded,
    _pair,
    _replay,
    _take,
    batch_iterator,
    checked_sampler,
)
from disembed.trainer import VariantConfig, train


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


def reference_tag_triplet(sampler, rng, notion=None):
    """Tag triplet drawn with rng.choice for the negative as well."""
    tags = sampler.sampleable if notion is None else sampler.by_notion[notion]
    tag = tags[rng.integers(len(tags))]
    a, p = rng.choice(sampler.pos[tag], size=2, replace=False)
    n = rng.choice(sampler.neg[tag])
    return Triplet(int(a), int(p), int(n), tag, sampler.space.notion_of(tag),
                   "tag")


def regular_dataset(small_space):
    """Every tag has 9 or 12 positives and negatives, so no tag draw has a
    bound of 1."""
    items = [
        Item(f"i{k}", f"tr{k // 2}", np.zeros(4),
             small_space.multi_hot(tags))
        for k, tags in enumerate(
            [["red", "round"], ["blue", "square"], ["red", "square"],
             ["blue", "round"], ["red", "round"], ["blue", "square"],
             ["red", "square"]] * 3)
    ]
    return Dataset(items, small_space)


def test_tag_triplets_match_rng_choice_reference(small_space):
    sampler = TripletSampler(regular_dataset(small_space))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        for i in range(60):
            # interleave other draws on the same stream, as training does
            notion = (None, "color", "shape")[i % 3]
            assert sampler.tag_triplets(rng, 1, notion=notion)[0] == \
                reference_tag_triplet(sampler, ref_rng, notion=notion)
            assert sampler.track_triplets(rng, 1)[0] == \
                reference_track_triplet(sampler, ref_rng)


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


def test_negative_triplet_count_rejected(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds)
    with pytest.raises(ValueError):
        sampler.tag_triplets(rng, -1)
    with pytest.raises(ValueError):
        sampler.track_triplets(rng, -1)
    with pytest.raises(ValueError):
        list(batch_iterator(ds, 2, "triplet", rng, sampler=sampler,
                            n_triplets=-1))


def test_zero_triplets_leave_the_generator_untouched(small_space, rng):
    sampler = TripletSampler(toy_dataset(small_space))
    state = rng.bit_generator.state
    assert list(sampler.tag_triplets(rng, 0)) == []
    assert list(sampler.tag_triplets(rng, 0, notion="shape")) == []
    assert list(sampler.track_triplets(rng, 0)) == []
    assert rng.bit_generator.state == state


# --- replay of numpy's draws ------------------------------------------------

# 2**31 + 1 rejects about half of all words; 2**32 - 1 and 2**32 are the
# largest ranges the 32-bit method serves, the latter without a product
BOUNDS = [1, 2, 3, 7, 2**31 + 1, 2**32 - 1, 2**32]


@pytest.fixture(params=[5, 1], ids=["block", "tiny-block"])
def words_per_triplet(request, monkeypatch):
    """The block size factor; at 1 a block runs out within the batch, so the
    replay must rewind and start again on a larger block."""
    monkeypatch.setattr(sampling, "_WORDS_PER_TRIPLET", request.param)


@pytest.mark.parametrize("n", BOUNDS)
def test_bounded_draws_equal_rng_integers(n, words_per_triplet):
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        [got] = _replay(rng, (40, lambda word: (_bounded(word, n),), None))
        assert got[0].tolist() == [int(ref.integers(n)) for _ in range(40)], (n, seed)
        assert rng.bit_generator.state == ref.bit_generator.state


def test_pair_draws_equal_rng_choice_without_replacement(words_per_triplet):
    for n in range(2, 61):
        for seed in range(5):
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = [tuple(r) for r in
                   _replay(rng, (8, lambda word: _pair(word, n), None))[0].T.tolist()]
            want = [tuple(int(i) for i in ref.choice(n, 2, replace=False))
                    for _ in range(8)]
            assert got == want, (n, seed)
            assert rng.bit_generator.state == ref.bit_generator.state


def reference_track_triplet(sampler, rng):
    """Track triplet drawn with one rng call per draw."""
    track = sampler.multi_tracks[rng.integers(len(sampler.multi_tracks))]
    a, p = rng.choice(sampler.track_index[track], size=2, replace=False)
    while True:
        n = rng.integers(len(sampler.dataset))
        if sampler.dataset.track_ids[n] != track:
            break
    return Triplet(int(a), int(p), int(n), None, None, "track")


def edge_dataset(small_space):
    """'red' has exactly two positives (its pair draw reads one word less),
    'round' exactly one negative (its negative draw reads none), 'square' one
    positive (excluded, so notion 'shape' has one tag and its tag draw reads
    none); tracks hold one, two or three items, so negatives are often
    redrawn."""
    rows = [("red", "round", "t0"), ("red", "round", "t0"),
            ("blue", "round", "t1"), ("blue", "round", "t1"),
            ("blue", "round", "t1"), ("blue", "square", "t2"),
            ("blue", "round", "t3"), ("blue", "round", "t4"),
            ("blue", "round", "t4")]
    items = [Item(f"i{k}", tr, np.zeros(4), small_space.multi_hot([c, sh]))
             for k, (c, sh, tr) in enumerate(rows)]
    return Dataset(items, small_space)


def test_batch_draws_equal_per_triplet_reference(small_space,
                                                 words_per_triplet):
    sampler = TripletSampler(edge_dataset(small_space))
    assert len(sampler.pos["red"]) == 2 and len(sampler.neg["round"]) == 1
    assert sampler.by_notion["shape"] == ("round",)
    calls = [("tag", None, 5), ("track", None, 3), ("direct", None, 0),
             ("tag", "color", 1), ("tag", "shape", 17), ("track", None, 1),
             ("tag", None, 0), ("direct", None, 0), ("tag", "color", 64),
             ("track", None, 40)]
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for kind, notion, count in calls:
            if kind == "tag":
                got = sampler.tag_triplets(rng, count, notion)
                want = [reference_tag_triplet(sampler, ref, notion)
                        for _ in range(count)]
            elif kind == "track":
                got = sampler.track_triplets(rng, count)
                want = [reference_track_triplet(sampler, ref)
                        for _ in range(count)]
            else:
                # direct draws between batches, as the trainer's other code
                # may make: 64-bit draws after an odd number of 32-bit words
                got = [rng.random(), rng.integers(1000), rng.normal(size=3)]
                want = [ref.random(), ref.integers(1000), ref.normal(size=3)]
                got[2], want[2] = got[2].tolist(), want[2].tolist()
            if kind != "direct":
                got = list(got)
            assert got == want, (seed, kind, notion, count)
            assert rng.bit_generator.state == ref.bit_generator.state
            if kind != "direct":
                assert all(type(i) is int for t in got
                           for i in (t.anchor, t.positive, t.negative))


def test_epoch_batches_equal_alternating_batch_calls(small_space,
                                                    words_per_triplet):
    sampler = TripletSampler(edge_dataset(small_space))
    for seed in range(10):
        for batch_size, total, track_reg in [(4, 9, True), (64, 150, True),
                                             (7, 30, False), (3, 0, True)]:
            rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
            got = sampler.batches(rng, batch_size, total, track_reg)
            want = []
            for start in range(0, total, batch_size):
                count = min(batch_size, total - start)
                want.append((sampler.tag_triplets(ref, count),
                             sampler.track_triplets(ref, count)
                             if track_reg else None))
            assert len(got) == len(want)
            for (tags, tracks), (ref_tags, ref_tracks) in zip(got, want):
                assert list(tags) == list(ref_tags)
                assert (tracks is None) == (not track_reg)
                if track_reg:
                    assert list(tracks) == list(ref_tracks)
            assert rng.bit_generator.state == ref.bit_generator.state


# --- the batch kernel against the scalar replay on crafted words ---------------


def word_for(k: int, n: int) -> int:
    """A word that ``integers(n)`` maps to k without Lemire's test firing."""
    return -(-(k << 32) // n) + 1


def random_block(seed: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**32, size=size,
                                                dtype=np.uint32)


def kernel_vs_scalar(pools, block, count):
    """The kernel's and the per-triplet scalar replay's ``_take`` of
    ``count`` triplets on the same words, the sizes of the windows the
    kernel computed, and the number of triplets it replayed with the scalar
    code."""
    sizes, replays = [], 0

    def window(W):
        sizes.append(len(W))
        return pools.window(W)

    def draw(word):
        nonlocal replays
        replays += 1
        return pools.draw(word)

    got = _take(block, (count, draw, window))
    want = _take(block, (count, pools.draw, None))
    assert (got is None) == (want is None)
    if got is None:
        return None, sizes, replays
    assert np.array_equal(got[0][0], want[0][0]) and got[1] == want[1]
    return (got[0][0], got[1]), sizes, replays


def test_kernel_replays_a_lemire_rejection(small_space):
    sampler = TripletSampler(regular_dataset(small_space))
    pools = sampler._tag_pools[None][0]
    red = sampler.sampleable.index("red")
    assert len(sampler.pos["red"]) == 12  # 2**32 % 11 == 4: a zero rejects
    for j in (0, 30, 63):
        block = random_block(j, 400)
        block[5 * j] = word_for(red, len(sampler.sampleable))
        block[5 * j + 1] = 0
        (columns, used), sizes, _ = kernel_vs_scalar(pools, block, 64)
        assert used == 5 * 64 + 1 and columns[3, j] == red
        # one window up to the rejection; it read six words, so the next
        # triplet is replayed too, and a window resumes after that one,
        # unless the first window kept too few triplets: then the rest of
        # the batch is replayed
        if j < sampling._MIN_KEEP:
            assert sizes == [64]
        else:
            assert sizes == [64] + ([62 - j] if j < 62 else [])


def test_kernel_replays_bounds_of_one(small_space):
    # edge_dataset: 'red' has two positives, 'round' one negative, and notion
    # 'shape' one sampleable tag
    sampler = TripletSampler(edge_dataset(small_space))
    for notion in (None, "color"):
        pools = sampler._tag_pools[notion][0]
        for seed in range(30):
            (columns, used), sizes, _ = kernel_vs_scalar(
                pools, random_block(seed, 600), 64)
            assert used < 5 * 64 and max(sizes) <= 64


def track_dataset(small_space):
    """Four three-item tracks: no bound is 1, and a negative lands in the
    anchor's track with probability 1/4."""
    items = [Item(f"i{k}", f"t{k // 3}", np.zeros(4),
                  small_space.multi_hot(["red", "round"])) for k in range(12)]
    return Dataset(items, small_space)


def test_kernel_redraws_a_track_negative_mid_batch(small_space):
    sampler = TripletSampler(track_dataset(small_space))
    pools = sampler._track_pools
    for seed in range(20):
        rng = np.random.default_rng(seed)
        block = random_block(seed, 1000)
        # triplets before j draw their negatives from other tracks
        j = 20
        for i in range(j):
            track = int(rng.integers(4))
            block[5 * i] = word_for(track, 4)
            block[5 * i + 4] = word_for((3 * track + 3 + rng.integers(9)) % 12, 12)
        block[5 * j] = word_for(1, 4)  # track t1, rows 3-5
        block[5 * j + 4] = word_for(4, 12)  # negative row 4: redrawn
        (columns, used), sizes, _ = kernel_vs_scalar(pools, block, 64)
        assert columns[3, j] == 1 and columns[2, j] not in (3, 4, 5)
        assert used > 5 * 64 and sizes[0] == 64 and len(sizes) >= 2


def test_kernel_bound_when_every_triplet_is_irregular(small_space):
    # notion 'shape' has one tag, so no triplet reads a tag word: one window
    # is examined, then every triplet is replayed
    sampler = TripletSampler(edge_dataset(small_space))
    pools = sampler._tag_pools["shape"][0]
    for count in (1, 64, 200):
        (columns, used), sizes, _ = kernel_vs_scalar(
            pools, random_block(count, 5 * count + 15), count)
        assert sizes == [min(count, 64)]
        assert used < 5 * count


def mixed_pools(share, tags=40, seed=0):
    """Tag pools where a ``share`` of the tags, mixed among the others, have
    two positives: every triplet of those reads four words."""
    rng = np.random.default_rng(seed)
    irregular = round(share * tags)
    sizes = rng.permutation([2] * irregular + [12] * (tags - irregular))
    pos = [rng.choice(500, k, replace=False) for k in sizes]
    neg = [rng.choice(500, 30, replace=False) for _ in sizes]
    return sampling._Pools(*sampling._flat(pos), *sampling._flat(neg))


@pytest.mark.parametrize("share", [0.05, 0.3, 0.5, 0.9])
def test_kernel_bound_on_pools_mixing_regular_and_irregular_tags(share):
    # a window either keeps _MIN_KEEP triplets, or is followed by _REPLAYS
    # scalar replays, or is the last one
    pools = mixed_pools(share)
    count = 1000
    for seed in range(5):
        (columns, used), sizes, replays = kernel_vs_scalar(
            pools, random_block(seed, 6 * count), count)
        kept = count - replays
        assert replays > 0
        assert len(sizes) <= (1 + kept // sampling._MIN_KEEP
                              + replays // sampling._REPLAYS), (seed, sizes)


def test_kernel_on_an_exhausted_block_waits_for_a_doubled_one(small_space):
    sampler = TripletSampler(regular_dataset(small_space))
    pools = sampler._tag_pools[None][0]
    red = sampler.sampleable.index("red")
    block = random_block(5, 2 * 5 * 64)
    block[5 * 10] = word_for(red, len(sampler.sampleable))
    block[5 * 10 + 1] = 0  # a rejection: the batch reads 5 * 64 + 1 words
    got, _, _ = kernel_vs_scalar(pools, block[:5 * 64], 64)
    assert got is None
    (columns, used), _, _ = kernel_vs_scalar(pools, block, 64)
    assert used == 5 * 64 + 1
    # through the generator: a block of one word per triplet runs out, and
    # the batch is replayed on doubled blocks that start with the same words
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampling, "_WORDS_PER_TRIPLET", 1)
        got = sampler.tag_triplets(rng, 64)
    assert list(got) == [reference_tag_triplet(sampler, ref) for _ in range(64)]
    assert rng.bit_generator.state == ref.bit_generator.state


# sha256 of one track-regularized triplet epoch on default_config(0)'s
# training split and the generator state after it, recorded from one rng call
# per draw; a refactor that moves the training stream fails it
EPOCH_DIGEST = "fec15e94042a21a88db5063ea5572a668f0078f49f1f890a486486d0f7e15ffd"


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
        checked_sampler(Dataset([], small_space), "validation")
    only_blue = Dataset([Item(f"b{k}", f"t{k}", np.zeros(4),
                              small_space.multi_hot(["blue", "round"]))
                         for k in range(3)], small_space)
    with pytest.raises(DatasetError, match="test split: .* notion 'color'"):
        checked_sampler(only_blue, "test", ["color", "shape"])
    with pytest.raises(DatasetError, match="validation split: no sampleable"):
        checked_sampler(only_blue, "validation")
    singles = Dataset([Item(f"s{k}", f"t{k}", np.zeros(4),
                            small_space.multi_hot([c, "round"]))
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
    valid_ds = Dataset([Item(f"v{k}", f"t{k}", np.zeros(4),
                             small_space.multi_hot(["blue", "round"]))
                        for k in range(3)], small_space)
    variant = VariantConfig(family="triplet", max_epochs=1, hidden=(4,))
    with pytest.raises(DatasetError, match="validation split: no sampleable"):
        train(variant, small_space, train_ds, valid_ds)
