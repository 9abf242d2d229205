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
none is left.  ``batch_iterator`` draws an epoch from the split's sampler,
which triplet mode requires: its tag triplets in one such call, its track
triplets in a second, sliced into batches.  A batch is a ``TripletBatch``
of row index arrays, which iterates and indexes as ``Triplet`` records.
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
    """Prebuilt flat pools of one named split for tag- and track-based
    triplet mining.

    Tags with fewer than two positives or no negatives are excluded from
    sampling (logged once at construction).  An empty split fails here; no
    sampleable tag (in a notion) or no track pair fails at the draw that
    needs one.  Errors name the split.
    """

    def __init__(self, dataset: Dataset, split: str):
        if len(dataset) == 0:
            raise DatasetError(f"{split} split is empty")
        self.space = space = dataset.space
        self.split = split
        pos, neg = dataset.labels > 0, dataset.labels == 0
        keep = (pos.sum(axis=0) >= 2) & neg.any(axis=0)
        if not keep.all():
            log.info("tags excluded from triplet sampling: %s", ", ".join(
                t for t, k in zip(space.tags, keep) if not k))
        tag_ids = np.flatnonzero(keep)
        notion_ids = np.repeat(np.arange(space.num_notions),
                               [len(n.tags) for n in space.notions])[tag_ids]
        members, start, size = _flat([np.flatnonzero(pos[:, t]) for t in tag_ids])
        negatives, neg_start, neg_size = _flat(
            [np.flatnonzero(neg[:, t]) for t in tag_ids])
        # notion (None for all tags) -> its tags' pools, tag and notion ids,
        # for each key with a sampleable tag
        self._tag_pools = {}
        for notion, ids in [(None, notion_ids >= 0), *(
                (n.name, notion_ids == k) for k, n in enumerate(space.notions))]:
            if ids.any():
                pools = _Pools(members, start[ids], size[ids],
                               negatives, neg_start[ids], neg_size[ids])
                self._tag_pools[notion] = pools, tag_ids[ids], notion_ids[ids]

        track_index: dict[str, list[int]] = {}
        for i, tr in enumerate(dataset.track_ids):
            track_index.setdefault(tr, []).append(i)
        # multi-item tracks in order of first appearance; a track's negatives
        # are all rows, redrawn while in the track itself
        multi = [rows for rows in track_index.values() if len(rows) >= 2]
        self._track_pools = None
        if multi and len(track_index) >= 2:
            rows = len(dataset)
            owner = np.full(rows, -1, dtype=np.int64)
            for c, track in enumerate(multi):
                owner[track] = c
            members, start, size = _flat([np.array(r, dtype=np.int64)
                                          for r in multi])
            self._track_pools = _Pools(
                members, start, size, np.arange(rows, dtype=np.int64),
                np.zeros_like(size), np.full_like(size, rows), owner)

    def tag_triplets(
        self, rng: np.random.Generator, count: int, notion=None
    ) -> TripletBatch:
        """``count`` tag triplets: a uniform tag (of ``notion``, if given), then
        a uniform anchor/positive pair and a uniform negative for that tag."""
        _check_count(count)
        if notion not in self._tag_pools:
            where = "" if notion is None else f" in notion {notion!r}"
            raise DatasetError(f"{self.split} split: no sampleable tag{where} "
                               "(a tag needs two positives and a negative)")
        pools, tag_ids, notion_ids = self._tag_pools[notion]
        anchor, positive, negative, choice = _draw(rng, pools, count)
        return TripletBatch(anchor, positive, negative, tag_ids[choice],
                            notion_ids[choice], self.space)

    def track_triplets(self, rng: np.random.Generator, count: int) -> TripletBatch:
        """``count`` track triplets: anchor/positive from a uniform multi-item
        track, negative uniform over the rows of other tracks."""
        _check_count(count)
        if self._track_pools is None:
            raise DatasetError(f"{self.split} split: track triplets need a "
                               "track with >= 2 samples and another track")
        anchor, positive, negative, _ = _draw(rng, self._track_pools, count)
        return TripletBatch(anchor, positive, negative, None, None, self.space)


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
    mode="triplet": (tag, track) pairs of ``TripletBatch``es from
    ``sampler``, the dataset's ``TripletSampler`` (required in this mode),
    the track batch None unless track_reg is set, in which case it has as
    many triplets as the tag batch; one tag triplet per training item, so
    that an epoch is comparable across learning families.  The first
    ``next`` draws the epoch from ``rng``: one ``tag_triplets`` and, with
    ``track_reg``, one ``track_triplets`` call of ``len(dataset)`` each.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    n = len(dataset)
    if mode == "sample":
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start : start + batch_size]
            yield dataset.features[idx], dataset.labels[idx]
        return
    if mode != "triplet":
        raise ValueError(f"unknown batch mode: {mode!r}")
    tags = sampler.tag_triplets(rng, n)
    tracks = sampler.track_triplets(rng, n) if track_reg else None
    for start in range(0, n, batch_size):
        yield (tags[start:start + batch_size],
               None if tracks is None else tracks[start:start + batch_size])
