"""Triplet mining from multi-label data and batch iteration."""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .errors import DatasetError
from .labelspace import LabelSpace

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Triplet:
    """Indices into a dataset plus the tag/notion that defines the triplet."""

    anchor: int
    positive: int
    negative: int
    tag: str | None  # None for track-based triplets
    notion: str | None
    kind: str  # "tag" | "track"


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

    def sample_tag_triplet(self, rng: np.random.Generator, notion=None) -> Triplet:
        """Uniform tag, then uniform anchor/positive/negative for that tag."""
        if notion is None:
            tags = self.sampleable
        else:
            tags = self.by_notion.get(notion, ())
        if not tags:
            raise DatasetError(
                f"no sampleable tag{'' if notion is None else f' in notion {notion!r}'}"
            )
        tag = tags[rng.integers(len(tags))]
        a, p = rng.choice(self.pos[tag], size=2, replace=False)
        # the same draw as rng.choice(neg), without its per-call overhead
        neg = self.neg[tag]
        n = neg[rng.integers(len(neg))]
        return Triplet(int(a), int(p), int(n), tag, self.space.notion_of(tag), "tag")

    def sample_track_triplet(self, rng: np.random.Generator) -> Triplet:
        """Anchor/positive from the same track, negative from another track."""
        if not self.multi_tracks or len(self.track_index) < 2:
            raise DatasetError("need a track with >= 2 samples and another track")
        track = self.multi_tracks[rng.integers(len(self.multi_tracks))]
        members = self.track_index[track]
        a, p = rng.choice(members, size=2, replace=False)
        while True:
            n = rng.integers(len(self.dataset))
            if self.dataset.track_ids[n] != track:
                break
        return Triplet(int(a), int(p), int(n), None, None, "track")


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
        tag_batch = [sampler.sample_tag_triplet(rng) for _ in range(count)]
        if track_reg:
            track_batch = [sampler.sample_track_triplet(rng) for _ in range(count)]
            yield tag_batch, track_batch
        else:
            yield tag_batch, None
