"""Triplet mining from multi-label data and batch iteration.

Triplets come from a numpy ``Generator`` on exactly the stream that scalar
calls would use: ``rng.integers(n)`` for the tag, the track and the negative,
and ``rng.choice(pool, 2, replace=False)`` for the anchor/positive pair.
Instead of making those calls once per triplet, a batch reads one block of
the generator's 32-bit words (``rng.integers(0, 2**32, size=k,
dtype=np.uint32)`` is numpy's ``next_uint32`` stream) and replays numpy's
algorithms on them in Python:

- ``integers(n)`` is Lemire's bounded 32-bit method with its rejection loop;
  n = 1 reads no word and n = 2**32 returns the word itself.
- ``choice(n, 2, replace=False)`` is Floyd's two draws, ``integers(n - 1)``
  then ``integers(n)`` with a collision becoming n - 1, followed by the
  one-step shuffle that draws ``integers(2)``.

The generator is then rewound and advanced by exactly the words read, so it
ends where the scalar calls would have left it.  ``tests/test_sampling.py``
pins every replay against numpy: if numpy changes these algorithms, the tests
fail instead of the stream changing silently.
"""

from __future__ import annotations

import logging
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import DatasetError
from .labelspace import LabelSpace

log = logging.getLogger(__name__)

_WORD = 1 << 32
_LOW = _WORD - 1
# words a triplet reads without rejections or redrawn negatives: a tag or
# track, the pair's two draws and its shuffle, and the negative; a block holds
# three triplets' worth more than the batch needs
_WORDS_PER_TRIPLET = 5


class Triplet(NamedTuple):
    """Indices into a dataset plus the tag/notion that defines the triplet."""

    anchor: int
    positive: int
    negative: int
    tag: str | None  # None for track-based triplets
    notion: str | None
    kind: str  # "tag" | "track"


def _replay(rng: np.random.Generator, count: int, draw) -> list:
    """``[draw(word) for _ in range(count)]``, where ``word()`` returns the
    next ``next_uint32`` word of ``rng`` as a Python int; ``rng`` ends
    advanced by exactly the words read.

    The words come from one block drawn up front.  If rejections or redrawn
    negatives exhaust it, the generator is rewound and the batch replayed on
    a block twice the size, which starts with the same words.
    """
    state = rng.bit_generator.state
    size = _WORDS_PER_TRIPLET * (count + 3)
    while True:
        words = iter(rng.integers(0, _WORD, size=size, dtype=np.uint32).tolist())
        word = words.__next__
        try:
            out = [draw(word) for _ in range(count)]
        except StopIteration:
            rng.bit_generator.state = state
            size *= 2
            continue
        rng.bit_generator.state = state
        rng.integers(0, _WORD, size=size - words.__length_hint__(), dtype=np.uint32)
        return out


def _bounded(word, n: int) -> int:
    """``rng.integers(n)`` for 1 <= n <= 2**32, from the words ``word()`` reads."""
    if n == 1:
        return 0
    if n == _WORD:
        return word()
    m = word() * n
    if m & _LOW < n:
        threshold = _WORD % n
        while m & _LOW < threshold:
            m = word() * n
    return m >> 32


def _pair(word, n: int) -> tuple[int, int]:
    """``rng.choice(n, 2, replace=False)`` for 2 <= n <= 2**32."""
    first = _bounded(word, n - 1)
    second = _bounded(word, n)
    if second == first:
        second = n - 1
    if _bounded(word, 2) == 0:
        return second, first
    return first, second


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"triplet count must be >= 0, got {count}")


class TripletSampler:
    """Prebuilt index lists for tag- and track-based triplet mining.

    Tags with fewer than two positives or no negatives are excluded from
    sampling (logged once at construction).
    """

    def __init__(self, dataset: Dataset, space: LabelSpace | None = None):
        if len(dataset) == 0:
            raise DatasetError("cannot sample from an empty dataset")
        self.dataset = dataset
        self.space = space or dataset.space
        labels = dataset.labels
        self.pos: dict[str, np.ndarray] = {}
        self.neg: dict[str, np.ndarray] = {}
        excluded = []
        for t in self.space.tags:
            col = labels[:, self.space.tag_index[t]]
            pos = np.flatnonzero(col > 0)
            neg = np.flatnonzero(col == 0)
            if len(pos) < 2 or len(neg) == 0:
                excluded.append(t)
                continue
            self.pos[t] = pos
            self.neg[t] = neg
        if excluded:
            log.info("tags excluded from triplet sampling: %s", ", ".join(excluded))
        self.sampleable = tuple(self.pos)
        self.by_notion: dict[str, tuple[str, ...]] = {}
        for t in self.sampleable:
            self.by_notion.setdefault(self.space.notion_of(t), ())
            self.by_notion[self.space.notion_of(t)] += (t,)

        self.track_index: dict[str, np.ndarray] = {}
        for i, tr in enumerate(dataset.track_ids):
            self.track_index.setdefault(tr, [])
            self.track_index[tr].append(i)
        self.track_index = {k: np.array(v) for k, v in self.track_index.items()}
        self.multi_tracks = tuple(
            k for k, v in self.track_index.items() if len(v) >= 2
        )

    @property
    def has_track_pairs(self) -> bool:
        """A track with two samples and another track to draw negatives from."""
        return bool(self.multi_tracks) and len(self.track_index) >= 2

    def tag_triplets(
        self, rng: np.random.Generator, count: int, notion=None
    ) -> list[Triplet]:
        """``count`` tag triplets: a uniform tag (of ``notion``, if given), then
        a uniform anchor/positive pair and a uniform negative for that tag.

        Per triplet this replays ``rng.integers(len(tags))``,
        ``rng.choice(pos, 2, replace=False)`` and ``rng.integers(len(neg))``.
        """
        _check_count(count)
        if count == 0:
            return []
        if notion is None:
            tags = self.sampleable
        else:
            tags = self.by_notion.get(notion, ())
        if not tags:
            raise DatasetError(
                f"no sampleable tag{'' if notion is None else f' in notion {notion!r}'}"
            )
        # memoryviews index to Python ints without copying the arrays
        pools = [(t, self.space.notion_of(t), self.pos[t].data, self.neg[t].data)
                 for t in tags]

        def draw(word):
            tag, tag_notion, pos, neg = pools[_bounded(word, len(pools))]
            a, p = _pair(word, len(pos))
            n = neg[_bounded(word, len(neg))]
            return Triplet(pos[a], pos[p], n, tag, tag_notion, "tag")

        return _replay(rng, count, draw)

    def track_triplets(self, rng: np.random.Generator, count: int) -> list[Triplet]:
        """``count`` track triplets: anchor/positive from a uniform multi-item
        track, negative uniform over the rows of other tracks.

        Per triplet this replays ``rng.integers(len(multi_tracks))``,
        ``rng.choice(members, 2, replace=False)`` and ``rng.integers(len(dataset))``
        until the negative lands outside the anchor's track.
        """
        _check_count(count)
        if count == 0:
            return []
        if not self.has_track_pairs:
            raise DatasetError("need a track with >= 2 samples and another track")
        track_ids = self.dataset.track_ids

        def draw(word):
            track = self.multi_tracks[_bounded(word, len(self.multi_tracks))]
            members = self.track_index[track].data
            a, p = _pair(word, len(members))
            n = _bounded(word, len(track_ids))
            while track_ids[n] == track:
                n = _bounded(word, len(track_ids))
            return Triplet(members[a], members[p], n, None, None, "track")

        return _replay(rng, count, draw)

    def sample_tag_triplet(self, rng: np.random.Generator, notion=None) -> Triplet:
        """One tag triplet; see ``tag_triplets``."""
        return self.tag_triplets(rng, 1, notion)[0]

    def sample_track_triplet(self, rng: np.random.Generator) -> Triplet:
        """One track triplet; see ``track_triplets``."""
        return self.track_triplets(rng, 1)[0]


def checked_sampler(
    dataset: Dataset, split: str, notions=(), tracks: bool = False
) -> TripletSampler:
    """A sampler for the ``split`` split, checked before any draw: some tag
    must be sampleable, in each of ``notions`` too, and with ``tracks`` track
    triplets must be possible.  Errors name the split."""
    if len(dataset) == 0:
        raise DatasetError(f"{split} split is empty")
    sampler = TripletSampler(dataset)
    hint = "(a tag needs two positives and a negative)"
    for notion in notions:
        if notion not in sampler.by_notion:
            raise DatasetError(
                f"{split} split: no sampleable tag in notion {notion!r} {hint}"
            )
    if not sampler.sampleable:
        raise DatasetError(f"{split} split: no sampleable tag {hint}")
    if tracks and not sampler.has_track_pairs:
        raise DatasetError(
            f"{split} split: track triplets need a track with >= 2 samples "
            "and another track"
        )
    return sampler


def batch_iterator(
    dataset: Dataset,
    batch_size: int,
    mode: str,
    rng: np.random.Generator,
    sampler: TripletSampler | None = None,
    track_reg: bool = False,
    n_triplets: int | None = None,
):
    """Yield one epoch of batches.

    mode="sample": shuffled (X, Y) batches covering each item exactly once.
    mode="triplet": batches of tag Triplets (plus an equal number of track
    Triplets when track_reg is set); one triplet per training item by default
    so that an epoch is comparable across learning families.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if n_triplets is not None:
        _check_count(n_triplets)
    if len(dataset) == 0:
        raise DatasetError("empty dataset")
    if mode == "sample":
        order = rng.permutation(len(dataset))
        for start in range(0, len(order), batch_size):
            idx = order[start : start + batch_size]
            yield dataset.features[idx], dataset.labels[idx]
        return
    if mode != "triplet":
        raise ValueError(f"unknown batch mode: {mode!r}")
    if sampler is None:
        sampler = TripletSampler(dataset)
    total = n_triplets if n_triplets is not None else len(dataset)
    for start in range(0, total, batch_size):
        count = min(batch_size, total - start)
        tag_batch = sampler.tag_triplets(rng, count)
        track_batch = sampler.track_triplets(rng, count) if track_reg else None
        yield tag_batch, track_batch
