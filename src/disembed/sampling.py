"""Triplet mining from multi-label data and batch iteration.

A tag triplet is the uniform draw of Hermans et al., "In Defense of the
Triplet Loss" (2017): a uniform sampleable tag, a uniform ordered
anchor/positive pair of its positives, and a uniform negative.  A track
triplet draws a uniform track of two or more items, a uniform ordered pair
of them, and a uniform negative among the rows of the other tracks.

``count`` triplets take one vectorized ``rng.integers`` call per stage, over
flat (CSR) pools that the sampler builds once: the tag or track, the
anchor, the positive among the other members, and the negative.  Track
negatives that land in the anchor's own track are redrawn, only those, until
none is left.  ``batch_iterator`` draws an epoch's tag triplets in one such
call, its track triplets in a second, and slices both into batches.  A
batch is a ``TripletBatch`` of row index arrays, which iterates and indexes
as ``Triplet`` records.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .errors import DatasetError
from .labelspace import LabelSpace

log = logging.getLogger(__name__)


class Triplet(NamedTuple):
    """Indices into a dataset plus the tag/notion that defines the triplet."""

    anchor: int
    positive: int
    negative: int
    tag: str | None  # None for track-based triplets
    notion: str | None
    kind: str  # "tag" | "track"


@dataclass(frozen=True, eq=False)
class TripletBatch:
    """Triplets as arrays: the dataset rows of each role and, for tag
    triplets, the index of the tag in ``space.tags`` and of its notion in
    ``space.notions`` (None for track triplets).

    It iterates and indexes as ``Triplet`` records with Python-int rows, and
    slices as a ``TripletBatch``.
    """

    anchor: np.ndarray
    positive: np.ndarray
    negative: np.ndarray
    tag: np.ndarray | None
    notion: np.ndarray | None
    space: LabelSpace

    @property
    def kind(self) -> str:
        return "track" if self.tag is None else "tag"

    def __len__(self) -> int:
        return len(self.anchor)

    def __iter__(self):
        n, kind = len(self), self.kind
        if self.tag is None:
            tags, notions = repeat(None, n), repeat(None, n)
        else:
            names = [notion.name for notion in self.space.notions]
            tags = map(self.space.tags.__getitem__, self.tag.tolist())
            notions = map(names.__getitem__, self.notion.tolist())
        return map(Triplet, self.anchor.tolist(), self.positive.tolist(),
                   self.negative.tolist(), tags, notions, repeat(kind, n))

    def __getitem__(self, i):
        """The ``i``-th ``Triplet``; a slice gives a ``TripletBatch`` of views."""
        if isinstance(i, slice):
            return TripletBatch(
                self.anchor[i], self.positive[i], self.negative[i],
                None if self.tag is None else self.tag[i],
                None if self.notion is None else self.notion[i], self.space)
        tag = notion = None
        if self.tag is not None:
            tag = self.space.tags[self.tag[i]]
            notion = self.space.notions[self.notion[i]].name
        return Triplet(int(self.anchor[i]), int(self.positive[i]),
                       int(self.negative[i]), tag, notion, self.kind)


def _check_count(count: int) -> None:
    if count < 0:
        raise ValueError(f"triplet count must be >= 0, got {count}")


def _flat(pools) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row arrays ``pools`` concatenated, with each one's start and size."""
    size = np.array([len(p) for p in pools], dtype=np.int64)
    start = np.zeros_like(size)
    np.cumsum(size[:-1], out=start[1:])
    return np.concatenate([np.empty(0, np.int64), *pools]), start, size


class _Pools(NamedTuple):
    """Flat pools for one kind of triplet: choice c (a tag or a multi-item
    track) has the members ``members[start[c]:start[c] + size[c]]`` and
    likewise the negatives; a negative n is redrawn while ``owner[n] == c``
    (for track triplets: a row of track c itself)."""

    members: np.ndarray
    start: np.ndarray
    size: np.ndarray
    negatives: np.ndarray
    neg_start: np.ndarray
    neg_size: np.ndarray
    owner: np.ndarray | None = None


def _draw(rng: np.random.Generator, pools: _Pools, count: int) -> np.ndarray:
    """``count`` triplets of ``pools``: (4, count) rows of anchor, positive,
    negative and choice."""
    c = rng.integers(len(pools.size), size=count)
    size, start = pools.size[c], pools.start[c]
    a = rng.integers(size)
    p = rng.integers(size - 1)
    p += p >= a
    neg_size, neg_start = pools.neg_size[c], pools.neg_start[c]
    negative = pools.negatives[neg_start + rng.integers(neg_size)]
    if pools.owner is not None:
        while len(bad := np.flatnonzero(pools.owner[negative] == c)):
            k = rng.integers(neg_size[bad])
            negative[bad] = pools.negatives[neg_start[bad] + k]
    return np.stack([pools.members[start + a], pools.members[start + p],
                     negative, c])


class TripletSampler:
    """Prebuilt flat pools for tag- and track-based triplet mining.

    Tags with fewer than two positives or no negatives are excluded from
    sampling (logged once at construction).
    """

    def __init__(self, dataset: Dataset):
        if len(dataset) == 0:
            raise DatasetError("cannot sample from an empty dataset")
        self.space = space = dataset.space
        labels = dataset.labels
        pos, neg, excluded = {}, {}, []
        for t in space.tags:
            col = labels[:, space.tag_index[t]]
            pos[t] = np.flatnonzero(col > 0)
            neg[t] = np.flatnonzero(col == 0)
            if len(pos[t]) < 2 or len(neg[t]) == 0:
                excluded.append(t)
                del pos[t], neg[t]
        if excluded:
            log.info("tags excluded from triplet sampling: %s", ", ".join(excluded))
        self.sampleable = tuple(pos)
        self.by_notion: dict[str, tuple[str, ...]] = {}
        for t in self.sampleable:
            self.by_notion.setdefault(space.notion_of(t), ())
            self.by_notion[space.notion_of(t)] += (t,)

        members, start, size = _flat(list(pos.values()))
        negatives, neg_start, neg_size = _flat(list(neg.values()))
        tag_ids = np.array([space.tag_index[t] for t in self.sampleable],
                           dtype=np.int64)
        notion_ids = np.array(
            [space.notion_index(space.notion_of(t)) for t in self.sampleable],
            dtype=np.int64)
        # notion (None for all tags) -> its tags' pools, tag and notion ids
        self._tag_pools = {}
        for notion, tags in [(None, self.sampleable), *self.by_notion.items()]:
            ids = np.array([self.sampleable.index(t) for t in tags], dtype=np.intp)
            pools = _Pools(members, start[ids], size[ids],
                           negatives, neg_start[ids], neg_size[ids])
            self._tag_pools[notion] = pools, tag_ids[ids], notion_ids[ids]

        track_index: dict[str, list[int]] = {}
        for i, tr in enumerate(dataset.track_ids):
            track_index.setdefault(tr, []).append(i)
        self.tracks = len(track_index)
        self.multi_tracks = tuple(k for k, v in track_index.items() if len(v) >= 2)
        # a track's negatives are all rows, redrawn while in the track itself
        rows = len(dataset)
        owner = np.full(rows, -1, dtype=np.int64)
        for c, track in enumerate(self.multi_tracks):
            owner[track_index[track]] = c
        members, start, size = _flat([np.array(track_index[k], dtype=np.int64)
                                      for k in self.multi_tracks])
        self._track_pools = _Pools(
            members, start, size, np.arange(rows, dtype=np.int64),
            np.zeros_like(size), np.full_like(size, rows), owner)

    @property
    def has_track_pairs(self) -> bool:
        """A track with two samples and another track to draw negatives from."""
        return bool(self.multi_tracks) and self.tracks >= 2

    def tag_triplets(
        self, rng: np.random.Generator, count: int, notion=None
    ) -> TripletBatch:
        """``count`` tag triplets: a uniform tag (of ``notion``, if given), then
        a uniform anchor/positive pair and a uniform negative for that tag."""
        _check_count(count)
        if not self.sampleable or (notion is not None
                                   and notion not in self.by_notion):
            raise DatasetError(
                f"no sampleable tag{'' if notion is None else f' in notion {notion!r}'}"
            )
        pools, tag_ids, notion_ids = self._tag_pools[notion]
        anchor, positive, negative, choice = _draw(rng, pools, count)
        return TripletBatch(anchor, positive, negative, tag_ids[choice],
                            notion_ids[choice], self.space)

    def track_triplets(self, rng: np.random.Generator, count: int) -> TripletBatch:
        """``count`` track triplets: anchor/positive from a uniform multi-item
        track, negative uniform over the rows of other tracks."""
        _check_count(count)
        if not self.has_track_pairs:
            raise DatasetError("need a track with >= 2 samples and another track")
        anchor, positive, negative, _ = _draw(rng, self._track_pools, count)
        return TripletBatch(anchor, positive, negative, None, None, self.space)


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
):
    """Yield one epoch of batches.

    mode="sample": shuffled (X, Y) batches covering each item exactly once.
    mode="triplet": (tag, track) pairs of ``TripletBatch``es, the track batch
    None unless track_reg is set, in which case it has as many triplets as
    the tag batch; one tag triplet per training item, so that an epoch is
    comparable across learning families.  The first ``next`` draws the
    epoch from ``rng``: one ``tag_triplets`` and, with ``track_reg``, one
    ``track_triplets`` call of ``len(dataset)`` each, then slices them.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(dataset)
    if n == 0:
        raise DatasetError("empty dataset")
    if mode == "sample":
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            yield dataset.features[idx], dataset.labels[idx]
        return
    if mode != "triplet":
        raise ValueError(f"unknown batch mode: {mode!r}")
    if sampler is None:
        sampler = TripletSampler(dataset)
    tags = sampler.tag_triplets(rng, n)
    tracks = sampler.track_triplets(rng, n) if track_reg else None
    for start in range(0, n, batch_size):
        yield (tags[start:start + batch_size],
               None if tracks is None else tracks[start:start + batch_size])
