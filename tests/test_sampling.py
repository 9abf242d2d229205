"""Triplet mining predicates, sampling uniformity, and batch iteration."""

import hashlib
import re

import numpy as np
import pytest
from scipy.stats import chisquare

from disembed.benchmark import load_or_generate, sample_eval_triplets
from disembed.config import default_config
from disembed.data import SyntheticSpec, generate_splits
from disembed.errors import DatasetError
from disembed.sampling import Triplet, TripletSampler, batch_iterator
from disembed.trainer import VariantConfig, _fixed_validation_triplets, train

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
    sampler = TripletSampler(toy_dataset(small_space), "training")
    batch = sampler.tag_triplets(np.random.default_rng(0), 300)
    assert {t.tag for t in batch} == {"red", "blue", "round"}


def test_tag_triplet_predicates(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds, "training")
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
    sampler = TripletSampler(toy_dataset(small_space), "training")
    for _ in range(50):
        t = sampler.tag_triplets(rng, 1, notion="color")[0]
        assert t.tag in ("red", "blue")
    with pytest.raises(DatasetError):
        sampler.tag_triplets(rng, 1, notion="no-such-notion")


def test_track_triplet_predicates(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds, "training")
    for _ in range(100):
        t = sampler.track_triplets(rng, 1)[0]
        assert ds.track_ids[t.anchor] == ds.track_ids[t.positive]
        assert ds.track_ids[t.negative] != ds.track_ids[t.anchor]
        assert t.anchor != t.positive
        assert t.kind == "track" and t.tag is None and t.notion is None


def test_track_triplet_exhaustive_pairs(small_space, rng):
    # with two 2-item tracks, anchor/positive pairs enumerate exactly
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds, "training")
    seen = set()
    for _ in range(300):
        t = sampler.track_triplets(rng, 1)[0]
        seen.add((t.anchor, t.positive))
    assert seen == {(0, 1), (1, 0), (2, 3), (3, 2)}


def test_track_choice_follows_first_appearance(small_space):
    # stage one's draw c picks the c-th multi-item track in order of first
    # appearance, not of name: 'b' (rows 0-1) before 'a' (rows 2-4)
    tracks = ["b", "b", "a", "a", "a", "single"]
    ds = from_items(
        [Item(f"i{k}", tr, np.zeros(4), small_space.multi_hot(["red"]))
         for k, tr in enumerate(tracks)], small_space)
    sampler = TripletSampler(ds, "training")
    batch = sampler.track_triplets(np.random.default_rng(5), 200)
    choice = np.random.default_rng(5).integers(2, size=200)
    assert (np.asarray(tracks)[batch.anchor] == np.array(["b", "a"])[choice]).all()


def test_tag_sampling_is_two_stage_uniform(small_space):
    # stage one picks the tag uniformly among sampleable tags, so each of the
    # three tags should get ~1/3 of draws regardless of its population
    sampler = TripletSampler(toy_dataset(small_space), "training")
    rng = np.random.default_rng(99)
    counts = {t: 0 for t in ("red", "blue", "round")}
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
        TripletSampler(from_items([], small_space), "training")


def test_track_sampling_needs_multi_item_track(small_space):
    items = [
        Item("a", "trA", np.zeros(4), small_space.multi_hot(["red", "round"])),
        Item("b", "trB", np.zeros(4), small_space.multi_hot(["blue", "round"])),
    ]
    sampler = TripletSampler(from_items(items, small_space), "training")
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
    sampler = TripletSampler(ds, "training")
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
    sampler = TripletSampler(ds, "training")
    for tag_batch, track_batch in batch_iterator(
        ds, 3, "triplet", rng, sampler=sampler, track_reg=True
    ):
        assert len(track_batch) == len(tag_batch)
        assert all(t.kind == "track" for t in track_batch)


def test_triplet_mode_last_batch_is_short(small_space, rng):
    ds = edge_dataset(small_space, 10)
    sampler = TripletSampler(ds, "training")
    batches = list(batch_iterator(ds, 4, "triplet", rng, sampler=sampler))
    assert [len(tags) for tags, _ in batches] == [4, 4, 2]


def test_bad_mode_and_batch_size(small_space, rng):
    ds = toy_dataset(small_space)
    with pytest.raises(ValueError):
        list(batch_iterator(ds, 0, "sample", rng))
    with pytest.raises(ValueError):
        list(batch_iterator(ds, 2, "pairs", rng))


def test_negative_triplet_count_rejected(small_space, rng):
    ds = toy_dataset(small_space)
    sampler = TripletSampler(ds, "training")
    with pytest.raises(ValueError):
        sampler.tag_triplets(rng, -1)
    with pytest.raises(ValueError):
        sampler.track_triplets(rng, -1)


def test_zero_triplets_leave_the_generator_untouched(small_space, rng):
    sampler = TripletSampler(toy_dataset(small_space), "training")
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
        sampler = TripletSampler(ds, "training")
        for seed in range(5):
            rng = np.random.default_rng(seed)
            for notion in (None, "color", "shape"):
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
    sampler = TripletSampler(ds, "training")
    ids = list(range(small_space.num_tags))  # every tag is sampleable
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
    sampler = TripletSampler(ds, "training")
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
    if total == 0:  # an empty split has no sampler, so no epoch
        with pytest.raises(DatasetError, match="training split is empty"):
            TripletSampler(ds, "training")
        return
    sampler = TripletSampler(ds, "training")
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = list(batch_iterator(ds, batch_size, "triplet", rng,
                                  sampler=sampler, track_reg=track_reg))
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
    sampler = TripletSampler(train_ds, "training")
    for tags, tracks in batch_iterator(train_ds, variant.batch_size, "triplet",
                                       rng, sampler=sampler, track_reg=True):
        for t in [*tags, *tracks]:
            digest.update(repr((t.anchor, t.positive, t.negative, t.tag,
                                t.notion, t.kind)).encode())
    digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == EPOCH_DIGEST


# sha256 of default_config(0)'s evaluation triplets (sample_eval_triplets on
# the test split: each notion's batch in order, then the track batch) and of
# the validation triplets of its triplet+norm+disent+trackreg variant
# (_fixed_validation_triplets: the tag batch, then the track batch).  Bytes:
# for each batch in that order, its anchor, positive, negative, tag and
# notion arrays as little-endian int64, a track batch having no tag and no
# notion array.  Computed at commit 72173a5; a change that moves a draw
# fails them, and one that means to regenerates them with this recipe.
EVAL_DIGEST = "82ebd6ebc8aa193f263d4fb718be6783cb1f0a428f52f248b8c25ed3c902f6ce"
VALIDATION_DIGEST = "d26200fb11edd71a28614695a4aef8b84fca54d8155a0a818d978020996559ed"


def batches_digest(batches) -> str:
    digest = hashlib.sha256()
    for batch in batches:
        for rows in (batch.anchor, batch.positive, batch.negative, batch.tag,
                     batch.notion):
            if rows is not None:
                digest.update(rows.astype("<i8").tobytes())
    return digest.hexdigest()


def test_eval_and_validation_draws_are_pinned():
    config = default_config(0)
    _, valid_ds, test_ds = load_or_generate(config)
    by_notion, tracks = sample_eval_triplets(
        test_ds, config.triplets_per_notion, config.seed)
    assert list(by_notion) == [n.name for n in config.space.notions]
    assert batches_digest([*by_notion.values(), tracks]) == EVAL_DIGEST
    variant = config.variants[2]
    assert variant.disentanglement and variant.track_reg and variant.seed == 0
    assert (batches_digest(_fixed_validation_triplets(variant, valid_ds))
            == VALIDATION_DIGEST)


def _index_arrays(batch):
    return [x for x in (batch.anchor, batch.positive, batch.negative,
                        batch.tag, batch.notion) if x is not None]


def test_triplet_index_arrays_own_their_memory(small_space, rng):
    # a batch's arrays are not views of one stacked draw, whose choice row
    # would stay alive with every batch
    sampler = TripletSampler(toy_dataset(small_space), "training")
    config = default_config(0)
    by_notion, tracks = sample_eval_triplets(
        load_or_generate(config)[2], 50, config.seed)
    for batch in [sampler.tag_triplets(rng, 20),
                  sampler.tag_triplets(rng, 20, "color"),
                  sampler.track_triplets(rng, 20), *by_notion.values(), tracks]:
        for x in _index_arrays(batch):
            assert x.base is None and x.dtype == np.int64 and len(x) == len(batch)


# --- split checks before any draw --------------------------------------------


def test_sampler_errors_name_split_and_notion(small_space):
    # an empty split fails at construction; no sampleable tag (in a notion)
    # and no track pair fail at the draw that needs one, before it draws
    rng = np.random.default_rng(0)
    sampler = TripletSampler(edge_dataset(small_space), "test")
    for notion in (None, "color", "shape"):
        assert len(sampler.tag_triplets(rng, 1, notion)) == 1
    assert len(sampler.track_triplets(rng, 1)) == 1
    with pytest.raises(DatasetError, match="^validation split is empty$"):
        TripletSampler(from_items([], small_space), "validation")
    hint = "(a tag needs two positives and a negative)"
    only_blue = from_items(
        [Item(f"b{k}", f"t{k}", np.zeros(4),
              small_space.multi_hot(["blue", "round"])) for k in range(3)],
        small_space)
    state = rng.bit_generator.state
    with pytest.raises(DatasetError, match=re.escape(
            f"test split: no sampleable tag in notion 'color' {hint}")):
        TripletSampler(only_blue, "test").tag_triplets(rng, 1, "color")
    with pytest.raises(DatasetError, match=re.escape(
            f"validation split: no sampleable tag {hint}")):
        TripletSampler(only_blue, "validation").tag_triplets(rng, 1)
    singles = from_items(
        [Item(f"s{k}", f"t{k}", np.zeros(4), small_space.multi_hot([c, "round"]))
         for k, c in enumerate(["red", "red", "blue"])],
        small_space)
    sampler = TripletSampler(singles, "test")
    with pytest.raises(DatasetError, match=re.escape(
            "test split: track triplets need a track with >= 2 samples "
            "and another track")):
        sampler.track_triplets(rng, 1)
    assert rng.bit_generator.state == state
    assert {t.tag for t in sampler.tag_triplets(rng, 20, "color")} == {"red"}


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
