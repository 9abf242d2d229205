"""Triplet mining from multi-label data and batch iteration.

Triplets come from a numpy ``Generator`` on exactly the stream that scalar
calls would use: ``rng.integers(n)`` for the tag, the track and the negative,
and ``rng.choice(pool, 2, replace=False)`` for the anchor/positive pair.
Instead of making those calls once per triplet, a batch (or, through
``TripletSampler.batches``, a whole epoch of batches) reads one block of the
generator's 32-bit words (``rng.integers(0, 2**32, size=k,
dtype=np.uint32)`` is numpy's ``next_uint32`` stream) and replays numpy's
algorithms on them:

- ``integers(n)`` is Lemire's bounded 32-bit method: ``(w * n) >> 32`` of a
  word w, unless ``(w * n) mod 2**32 < n``, where it may reject w and read
  another; n = 1 reads no word and n = 2**32 returns the word itself.
- ``choice(n, 2, replace=False)`` is Floyd's two draws, ``integers(n - 1)``
  then ``integers(n)`` with a collision becoming n - 1, followed by the
  one-step shuffle that draws ``integers(2)``.

Most triplets therefore read five words: the tag or track, the pair's two
draws and its shuffle, and the negative.  The batch kernel reads the block
in 5-word strides and computes a window of up to ``_WINDOW`` triplets with
a few uint64 numpy operations on flat (CSR) pools that the sampler builds
once.  A triplet that may read other words ends the window: Lemire's test
fires, a bound is 1 (one sampleable tag, a tag with two positives or one
negative, a two-member track), or a track negative lands in the anchor's
track.  The scalar ``_bounded``/``_pair`` code replays that triplet from its
word offset, and the windows resume after the words it read.  A window that
kept fewer than ``_MIN_KEEP`` triplets is followed by ``_REPLAYS`` scalar
replays first, so pools where irregular triplets are common cost about what
the scalar loop costs.  On the benchmark's splits, tag triplets are never
irregular, and 0.04-2.5% of track triplets are (a negative in the anchor's
track).

The generator is then rewound and advanced by exactly the words read, so it
ends where the scalar calls would have left it.  A batch is a
``TripletBatch`` of row index arrays, which iterates and indexes as
``Triplet`` records.  ``tests/test_sampling.py`` pins every replay against
numpy and the kernel against the scalar replay: if numpy changes these
algorithms, the tests fail instead of the stream changing silently.
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

_WORD = 1 << 32
_LOW = _WORD - 1
_LOW64, _SHIFT = np.uint64(_LOW), np.uint64(32)
# words a triplet reads without rejections, bounds of 1 or redrawn negatives
_STRIDE = 5
# a block holds this many words per triplet it replays, plus three
# triplets' worth; a smaller factor makes blocks run out (the tests shrink
# it to 1)
_WORDS_PER_TRIPLET = _STRIDE
# triplets the kernel computes at once; after an irregular triplet it
# re-examines at most this many
_WINDOW = 64
# a window costs about as much as ten scalar replays; one that keeps fewer
# than _MIN_KEEP triplets is followed by at least _REPLAYS scalar replays, so
# where irregular triplets are common (pools of many tags with two positives,
# say) windows add at most about one per _REPLAYS triplets to the scalar cost
_MIN_KEEP = 8
_REPLAYS = 2 * _WINDOW


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

    It iterates and indexes as ``Triplet`` records with Python-int rows.
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

    def __getitem__(self, i: int) -> Triplet:
        tag = notion = None
        if self.tag is not None:
            tag = self.space.tags[self.tag[i]]
            notion = self.space.notions[self.notion[i]].name
        return Triplet(int(self.anchor[i]), int(self.positive[i]),
                       int(self.negative[i]), tag, notion, self.kind)


class _Exhausted(Exception):
    """A block of words ran out before its batch was complete."""


def _take(block: np.ndarray, *segments):
    """Replay, one after another, the triplets of each segment ``(count,
    draw, window)`` on the uint32 words ``block``.

    Returns, per segment, a (k, count) int64 array whose column i holds its
    i-th triplet's ``draw``, and the number of words read in all; None if the
    block runs out first.  ``draw(word)`` replays one triplet as a k-tuple,
    where ``word()`` returns the next word as a Python int.  ``window(W)``,
    given a (w, 5) uint64 array of consecutive words, computes w triplets as
    if each read exactly its five words: their (k, w) columns, and a flag on
    each triplet that may not.  The triplets before the first flagged one
    are kept; ``draw`` replays that one from its word offset, and each next
    one while the one before read other than five words.  A window that kept
    fewer than ``_MIN_KEEP`` triplets is followed by at least ``_REPLAYS``
    replays.  Then windows resume.  A window of None replays every triplet
    with ``draw``.
    """
    words = memoryview(block)
    pos = 0

    def word():
        nonlocal pos
        if pos == len(words):
            raise _Exhausted
        pos += 1
        return words[pos - 1]

    out = []
    used = 0
    try:
        for count, draw, window in segments:
            pieces = []
            done = 0
            while done < count:
                least = count
                if window is not None:
                    w = min(_WINDOW, count - done, (len(block) - used) // _STRIDE)
                    if w == 0:
                        return None
                    W = block[used:used + _STRIDE * w].reshape(w, _STRIDE)
                    columns, flagged = window(W.astype(np.uint64))
                    hits = np.flatnonzero(flagged)
                    j = int(hits[0]) if len(hits) else w
                    pieces.append(columns[:, :j])
                    done += j
                    used += _STRIDE * j
                    if j == w:
                        continue
                    least = 1 if j >= _MIN_KEEP else _REPLAYS
                run = []
                pos = used
                while done < count:
                    run.append(draw(word))
                    done += 1
                    least -= 1
                    read, used = pos - used, pos
                    if least <= 0 and read == _STRIDE:
                        break
                pieces.append(np.array(run, dtype=np.int64).T)
            out.append(pieces[0] if len(pieces) == 1
                       else np.concatenate(pieces, axis=1))
    except _Exhausted:
        return None
    return out, used


def _replay(rng: np.random.Generator, *segments) -> list[np.ndarray]:
    """``_take`` of ``segments`` (none of them empty) on the next words of
    ``rng``, which ends advanced by exactly the words read.

    The words come from one block drawn up front.  If it runs out, the
    segments are replayed on a block twice the size, which starts with the
    same words.
    """
    state = rng.bit_generator.state
    size = _WORDS_PER_TRIPLET * (sum(count for count, _, _ in segments) + 3)
    block = rng.integers(0, _WORD, size=size, dtype=np.uint32)
    while (out := _take(block, *segments)) is None:
        more = rng.integers(0, _WORD, size=len(block), dtype=np.uint32)
        block = np.concatenate([block, more])
    columns, used = out
    rng.bit_generator.state = state
    rng.integers(0, _WORD, size=used, dtype=np.uint32)
    return columns


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


def _flat(pools) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The row arrays ``pools`` concatenated, with each one's start and size."""
    size = np.array([len(p) for p in pools], dtype=np.uint64)
    start = np.zeros_like(size)
    np.cumsum(size[:-1], out=start[1:])
    return np.concatenate([np.empty(0, np.int64), *pools]), start, size


class _Pools:
    """Flat pools for one kind of triplet.

    A triplet draws a choice c (a tag or a multi-item track) with
    ``integers(len(size))``, an anchor/positive pair of c's members with
    ``choice``, and a negative of c's negatives with ``integers``, redrawn
    while ``owner`` of it is c (for track triplets: a row of c itself).
    Choice c's members are ``members[start[c]:start[c] + size[c]]``, and
    likewise its negatives.
    """

    def __init__(self, members, start, size, negatives, neg_start, neg_size,
                 owner=None):
        self.members, self.negatives, self.owner = members, negatives, owner
        self.choices = np.uint64(len(size))
        # per choice, the bounds of the draws after the choice (pair, shuffle,
        # negative), the thresholds under which Lemire's test fires, and the
        # starts of its pools; a bound of 1 reads no word, so the thresholds
        # flag every triplet of a choice with one and of a single choice
        bounds = np.stack([size - 1, size, np.full_like(size, 2), neg_size], axis=1)
        bound_one = (size == 2) | (neg_size == 1) | (len(size) == 1)
        fires = np.where(bound_one[:, None], _WORD, bounds)
        self.table = np.concatenate(
            [bounds, fires, start[:, None], neg_start[:, None]], axis=1
        ).astype(np.uint64)
        # memoryviews index to Python ints without copying the arrays
        self._views = (members.data, start.data, size.data, negatives.data,
                       neg_start.data, neg_size.data,
                       None if owner is None else owner.data)

    def draw(self, word) -> tuple[int, int, int, int]:
        """One triplet, replayed on the words ``word()`` reads."""
        members, start, size, negatives, neg_start, neg_size, owner = self._views
        c = _bounded(word, len(size))
        a, p = _pair(word, size[c])
        s, ns, nn = start[c], neg_start[c], neg_size[c]
        n = negatives[ns + _bounded(word, nn)]
        while owner is not None and owner[n] == c:
            n = negatives[ns + _bounded(word, nn)]
        return members[s + a], members[s + p], n, c

    def window(self, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The triplets of the (w, 5) uint64 words ``W``, one word per draw:
        their (4, w) rows, and nonzero where a triplet may read other words."""
        m = W[:, 0] * self.choices
        c = (m >> _SHIFT).view(np.int64)
        row = self.table.take(c, axis=0)
        M = W[:, 1:] * row[:, :4]
        # a C-ordered (w, 4) bool array viewed as one uint32 per triplet is
        # nonzero where any of its four draws fires
        flagged = ((M & _LOW64) < row[:, 4:8]).view(np.uint32)[:, 0]
        flagged |= (m & _LOW64) < self.choices
        first, second, keep, k = (M >> _SHIFT).T
        second = np.where(second == first, row[:, 0], second)
        # the pair is (second, first) when integers(2) == 0; XOR with ``flip``
        # turns it into (first, second) when it is 1
        flip = (first ^ second) * keep
        out = np.empty((4, len(W)), dtype=np.int64)
        out[0] = self.members[(row[:, 8] + (second ^ flip)).view(np.int64)]
        out[1] = self.members[(row[:, 8] + (first ^ flip)).view(np.int64)]
        out[2] = self.negatives[(row[:, 9] + k).view(np.int64)]
        out[3] = c
        if self.owner is not None:
            flagged |= self.owner[out[2]] == c
        return out, flagged


def _draw(rng: np.random.Generator, pools: _Pools, count: int) -> np.ndarray:
    """``count`` triplets of ``pools``: (4, count) rows of anchor, positive,
    negative and choice."""
    if count == 0:
        return np.empty((4, 0), dtype=np.int64)
    return _replay(rng, (count, pools.draw, pools.window))[0]


class TripletSampler:
    """Prebuilt flat pools for tag- and track-based triplet mining.

    Tags with fewer than two positives or no negatives are excluded from
    sampling (logged once at construction).
    """

    def __init__(self, dataset: Dataset, space: LabelSpace | None = None):
        if len(dataset) == 0:
            raise DatasetError("cannot sample from an empty dataset")
        self.dataset = dataset
        self.space = space or dataset.space
        labels = dataset.labels
        pos, neg, excluded = {}, {}, []
        for t in self.space.tags:
            col = labels[:, self.space.tag_index[t]]
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
            self.by_notion.setdefault(self.space.notion_of(t), ())
            self.by_notion[self.space.notion_of(t)] += (t,)

        members, start, size = _flat(list(pos.values()))
        negatives, neg_start, neg_size = _flat(list(neg.values()))
        # pos[t] and neg[t] become views of the flat pools
        self.pos = {t: members[s:s + k] for t, s, k in
                    zip(self.sampleable, start.tolist(), size.tolist())}
        self.neg = {t: negatives[s:s + k] for t, s, k in
                    zip(self.sampleable, neg_start.tolist(), neg_size.tolist())}
        tag_ids = np.array([self.space.tag_index[t] for t in self.sampleable],
                           dtype=np.int64)
        notion_ids = np.array(
            [self.space.notion_index(self.space.notion_of(t))
             for t in self.sampleable], dtype=np.int64)
        # notion (None for all tags) -> its tags' pools, tag and notion ids
        self._tag_pools = {}
        for notion, tags in [(None, self.sampleable), *self.by_notion.items()]:
            ids = np.array([self.sampleable.index(t) for t in tags], dtype=np.intp)
            pools = _Pools(members, start[ids], size[ids],
                           negatives, neg_start[ids], neg_size[ids])
            self._tag_pools[notion] = pools, tag_ids[ids], notion_ids[ids]

        self.track_index: dict[str, np.ndarray] = {}
        for i, tr in enumerate(dataset.track_ids):
            self.track_index.setdefault(tr, [])
            self.track_index[tr].append(i)
        self.track_index = {k: np.array(v) for k, v in self.track_index.items()}
        self.multi_tracks = tuple(
            k for k, v in self.track_index.items() if len(v) >= 2
        )
        # a track's negatives are all rows, redrawn while in the track itself
        rows = len(dataset)
        owner = np.full(rows, -1, dtype=np.int64)
        for c, track in enumerate(self.multi_tracks):
            owner[self.track_index[track]] = c
        members, start, size = _flat([self.track_index[k] for k in self.multi_tracks])
        self._track_pools = _Pools(
            members, start, size, np.arange(rows, dtype=np.int64),
            np.zeros_like(size), np.full_like(size, rows), owner)

    @property
    def has_track_pairs(self) -> bool:
        """A track with two samples and another track to draw negatives from."""
        return bool(self.multi_tracks) and len(self.track_index) >= 2

    def tag_triplets(
        self, rng: np.random.Generator, count: int, notion=None
    ) -> TripletBatch:
        """``count`` tag triplets: a uniform tag (of ``notion``, if given), then
        a uniform anchor/positive pair and a uniform negative for that tag.

        Per triplet this replays ``rng.integers(len(tags))``,
        ``rng.choice(pos, 2, replace=False)`` and ``rng.integers(len(neg))``.
        """
        _check_count(count)
        if not self.sampleable or (notion is not None
                                   and notion not in self.by_notion):
            raise DatasetError(
                f"no sampleable tag{'' if notion is None else f' in notion {notion!r}'}"
            )
        pools = self._tag_pools[notion][0]
        return self._tag_batch(_draw(rng, pools, count), notion)

    def track_triplets(self, rng: np.random.Generator, count: int) -> TripletBatch:
        """``count`` track triplets: anchor/positive from a uniform multi-item
        track, negative uniform over the rows of other tracks.

        Per triplet this replays ``rng.integers(len(multi_tracks))``,
        ``rng.choice(members, 2, replace=False)`` and ``rng.integers(len(dataset))``
        until the negative lands outside the anchor's track.
        """
        _check_count(count)
        if not self.has_track_pairs:
            raise DatasetError("need a track with >= 2 samples and another track")
        return self._track_batch(_draw(rng, self._track_pools, count))

    def batches(
        self, rng: np.random.Generator, batch_size: int, total: int,
        track_reg: bool = False,
    ) -> list[tuple[TripletBatch, TripletBatch | None]]:
        """``total`` tag triplets in (tag, track) batches of ``batch_size``;
        with ``track_reg`` each tag batch is followed by as many track
        triplets, else the track batch is None.

        These are the triplets that alternating ``tag_triplets`` and
        ``track_triplets`` calls draw, replayed on one block of words.
        """
        counts = [min(batch_size, total - s) for s in range(0, total, batch_size)]
        if not counts:
            return []
        if not self.sampleable:
            raise DatasetError("no sampleable tag")
        if track_reg and not self.has_track_pairs:
            raise DatasetError("need a track with >= 2 samples and another track")
        tag_pools = self._tag_pools[None][0]
        kinds = (tag_pools, self._track_pools) if track_reg else (tag_pools,)
        rows = iter(_replay(rng, *((c, p.draw, p.window)
                                   for c in counts for p in kinds)))
        return [(self._tag_batch(next(rows)),
                 self._track_batch(next(rows)) if track_reg else None)
                for _ in counts]

    def _tag_batch(self, rows: np.ndarray, notion=None) -> TripletBatch:
        _, tag_ids, notion_ids = self._tag_pools[notion]
        anchor, positive, negative, choice = rows
        return TripletBatch(anchor, positive, negative, tag_ids[choice],
                            notion_ids[choice], self.space)

    def _track_batch(self, rows: np.ndarray) -> TripletBatch:
        anchor, positive, negative, _ = rows
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
    n_triplets: int | None = None,
):
    """Yield one epoch of batches.

    mode="sample": shuffled (X, Y) batches covering each item exactly once.
    mode="triplet": (tag, track) pairs of ``TripletBatch``es, the track batch
    None unless track_reg is set, in which case it has as many triplets as
    the tag batch; one tag triplet per training item by default so that an
    epoch is comparable across learning families.  The epoch's triplets are
    drawn from ``rng`` when the first batch is requested
    (``TripletSampler.batches``).
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
    yield from sampler.batches(rng, batch_size, total, track_reg)
