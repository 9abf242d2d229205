"""Datasets: items, file ingestion, splits, and a synthetic multi-notion generator.

The synthetic generator stands in for a large tagged-audio corpus: each tag
owns a centroid inside its notion's block of feature space, a track mixes one
centroid per notion (plus track-level noise), and excerpts of a track add
excerpt-level noise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigurationError, DatasetError
from .labelspace import LabelSpace

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Item:
    id: str
    track_id: str
    features: np.ndarray
    labels: np.ndarray  # multi-hot over the label space


class Dataset:
    """Immutable collection of items with stacked feature/label matrices."""

    def __init__(self, items, space: LabelSpace):
        items = list(items)
        self.space = space
        self.items = items
        if items:
            widths = {len(i.features) for i in items}
            if len(widths) != 1:
                raise DatasetError(f"inconsistent feature widths: {sorted(widths)}")
            for i in items:
                if len(i.labels) != space.num_tags:
                    raise DatasetError(
                        f"item {i.id!r}: label vector length {len(i.labels)} "
                        f"!= tag count {space.num_tags}"
                    )
            self.features = np.stack([i.features for i in items]).astype(np.float64)
            self.labels = np.stack([i.labels for i in items]).astype(np.float64)
        else:
            self.features = np.zeros((0, 0))
            self.labels = np.zeros((0, space.num_tags))
        self.ids = [i.id for i in items]
        self.track_ids = [i.track_id for i in items]

    def __len__(self):
        return len(self.items)

    def __getitem__(self, idx) -> Item:
        return self.items[idx]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        return Dataset([self.items[i] for i in indices], self.space)


@dataclass
class SyntheticSpec:
    """Shape and noise parameters for the synthetic generator."""

    space: LabelSpace
    feature_dim: int = 64
    tracks: int = 600
    excerpts_per_track: int = 4
    tags_per_notion_range: tuple[int, int] = (1, 2)
    sigma_within: float = 1.0
    sigma_excerpt: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.feature_dim <= 0 or self.tracks <= 0 or self.excerpts_per_track <= 0:
            raise ConfigurationError("all synthetic counts must be positive")
        lo, hi = self.tags_per_notion_range
        if lo < 1 or hi < lo:
            raise ConfigurationError(
                f"bad tags_per_notion_range {self.tags_per_notion_range}"
            )
        if hi > min(len(n.tags) for n in self.space.notions):
            raise ConfigurationError(
                "tags_per_notion_range exceeds the smallest notion's tag count"
            )
        if self.sigma_within < 0 or self.sigma_excerpt < 0:
            raise ConfigurationError("noise sigmas must be >= 0")

    def to_dict(self) -> dict:
        d = asdict(self)
        d["space"] = self.space.to_dict()
        d["tags_per_notion_range"] = list(self.tags_per_notion_range)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "SyntheticSpec":
        d = dict(d)
        d["space"] = LabelSpace.from_dict(d["space"])
        if "tags_per_notion_range" in d:
            d["tags_per_notion_range"] = tuple(d["tags_per_notion_range"])
        return cls(**d)


def _feature_blocks(feature_dim: int, num_notions: int) -> list[slice]:
    # contiguous near-equal blocks of feature space, one per notion
    bounds = np.linspace(0, feature_dim, num_notions + 1).round().astype(int)
    return [slice(bounds[i], bounds[i + 1]) for i in range(num_notions)]


def tag_centroids(spec: SyntheticSpec) -> np.ndarray:
    """Per-tag feature centroid, nonzero only in the tag's notion block."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 1]))
    space = spec.space
    blocks = _feature_blocks(spec.feature_dim, space.num_notions)
    cents = np.zeros((space.num_tags, spec.feature_dim))
    for g, notion in enumerate(space.notions):
        for t in notion.tags:
            block = blocks[g]
            cents[space.tag_index[t], block] = rng.normal(
                size=block.stop - block.start
            )
    return cents


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset; every item carries >= 1 tag per notion."""
    space = spec.space
    cents = tag_centroids(spec)
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 2]))
    lo, hi = spec.tags_per_notion_range
    items = []
    for tr in range(spec.tracks):
        track_id = f"track{tr:05d}"
        chosen = []
        for notion in space.notions:
            k = int(rng.integers(lo, hi + 1))
            idx = rng.choice(len(notion.tags), size=k, replace=False)
            chosen.extend(notion.tags[i] for i in sorted(idx))
        labels = space.multi_hot(chosen)
        base = cents[labels > 0].sum(axis=0)
        base = base + spec.sigma_within * rng.normal(size=spec.feature_dim)
        for ex in range(spec.excerpts_per_track):
            feat = base + spec.sigma_excerpt * rng.normal(size=spec.feature_dim)
            items.append(
                Item(
                    id=f"{track_id}_x{ex}",
                    track_id=track_id,
                    features=np.asarray(feat, dtype=np.float64),
                    labels=labels,
                )
            )
    return Dataset(items, space)


def nearest_centroid_decode(dataset: Dataset, spec: SyntheticSpec) -> float:
    """Fraction of tag assignments recovered by nearest-centroid decoding.

    Used as a generation-time sanity oracle: with noise small relative to
    centroid separation this should be close to 1.
    """
    space = spec.space
    cents = tag_centroids(spec)
    blocks = _feature_blocks(spec.feature_dim, space.num_notions)
    hits = 0
    total = 0
    for item in dataset.items:
        for g, notion in enumerate(space.notions):
            block = blocks[g]
            true_tags = {
                t for t in notion.tags if item.labels[space.tag_index[t]] > 0
            }
            k = len(true_tags)
            tag_idx = [space.tag_index[t] for t in notion.tags]
            # score each tag by how much its centroid explains the block
            scores = [
                float(np.dot(item.features[block], cents[ti, block]))
                for ti in tag_idx
            ]
            top = {notion.tags[i] for i in np.argsort(scores)[::-1][:k]}
            hits += len(top & true_tags)
            total += k
    return hits / total if total else 0.0


def split(
    dataset: Dataset,
    fractions,
    seed: int,
    by_track: bool = True,
) -> tuple[Dataset, ...]:
    """Deterministic partition into len(fractions) subsets.

    With by_track=True every excerpt of a track lands in the same subset.
    """
    fractions = [float(f) for f in fractions]
    if any(f <= 0 for f in fractions):
        raise ConfigurationError("split fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"split fractions must sum to 1, got {sum(fractions)}")
    rng = np.random.default_rng(seed)
    if by_track:
        seen = dict.fromkeys(dataset.track_ids)  # first-appearance order
        granules = list(seen)
        key = lambda item: item.track_id
    else:
        granules = list(range(len(dataset)))
        key = None
    n = len(granules)
    if n < len(fractions):
        raise DatasetError(
            f"{n} track(s)/item(s) cannot fill {len(fractions)} splits"
        )
    perm = rng.permutation(n)
    bounds = np.round(np.cumsum([0.0] + fractions) * n).astype(int)
    parts = []
    for i in range(len(fractions)):
        chosen = {granules[j] for j in perm[bounds[i] : bounds[i + 1]]}
        if by_track:
            idx = [k for k, t in enumerate(dataset.track_ids) if t in chosen]
        else:
            idx = sorted(chosen)
        parts.append(dataset.subset(idx))
    return tuple(parts)


def generate_splits(
    spec: SyntheticSpec,
    fractions=(0.8, 0.05, 0.15),
    by_track: bool = True,
    max_retries: int = 20,
) -> tuple[Dataset, Dataset, Dataset]:
    """Generate and split, re-drawing until every tag has a train positive."""
    for attempt in range(max_retries):
        sp = spec if attempt == 0 else _reseeded(spec, spec.seed + 1000 + attempt)
        ds = generate_synthetic(sp)
        parts = split(ds, fractions, seed=sp.seed, by_track=by_track)
        train = parts[0]
        if len(train) and (train.labels.sum(axis=0) > 0).all():
            return parts
        log.info("resampling synthetic data: some tag has no train positive")
    raise DatasetError(
        f"could not generate a dataset with all tags present in train "
        f"after {max_retries} attempts"
    )


def _reseeded(spec: SyntheticSpec, seed: int) -> SyntheticSpec:
    d = spec.to_dict()
    d["seed"] = seed
    return SyntheticSpec.from_dict(d)


# ---------------------------------------------------------------------------
# file format: tab-separated with two header lines
#   #feature_dim=<n>
#   #tags=<comma-joined tag names in label-space order>
#   id<TAB>track_id<TAB>f1,...,fn<TAB>tag1;tag2;...


def save_dataset(dataset: Dataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#feature_dim={dataset.feature_dim}\n")
        fh.write("#tags=" + ",".join(dataset.space.tags) + "\n")
        for item in dataset.items:
            feats = ",".join(f"{x:.17g}" for x in item.features)
            tags = ";".join(dataset.space.decode(item.labels))
            if not tags:
                raise DatasetError(f"item {item.id!r} has no tags; format forbids it")
            fh.write(f"{item.id}\t{item.track_id}\t{feats}\t{tags}\n")


def load_dataset(path, space: LabelSpace) -> Dataset:
    """Read a dataset file; any malformed line (bad field count, duplicate
    id, non-numeric or non-finite feature, unknown tag, invalid UTF-8) raises
    DatasetError naming the line."""
    errors = []
    items = []
    seen_ids = set()
    # undecodable bytes become lone surrogates, reported per line below
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline().rstrip("\n")
        if not header.startswith("#feature_dim="):
            raise DatasetError(f"{path}: line 1 must be '#feature_dim=<n>'")
        try:
            width = int(header.split("=", 1)[1])
        except ValueError as exc:
            raise DatasetError(f"{path}: bad feature_dim header") from exc
        tag_line = fh.readline().rstrip("\n")
        if not tag_line.startswith("#tags="):
            raise DatasetError(f"{path}: line 2 must be '#tags=<names>'")
        tags = tag_line.split("=", 1)[1].split(",")
        if tuple(tags) != space.tags:
            raise DatasetError(
                f"{path}: header tag ordering does not match the label space"
            )
        for lineno, line in enumerate(fh, start=3):
            line = line.rstrip("\n")
            if not line:
                continue
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                errors.append(f"line {lineno}: not valid UTF-8")
                continue
            parts = line.split("\t")
            if len(parts) != 4:
                errors.append(f"line {lineno}: expected 4 tab-separated fields")
                continue
            item_id, track_id, feat_s, tag_s = parts
            if item_id in seen_ids:
                errors.append(f"line {lineno}: duplicate id {item_id!r}")
                continue
            feats = feat_s.split(",")
            if len(feats) != width:
                errors.append(
                    f"line {lineno}: {len(feats)} features, header says {width}"
                )
                continue
            try:
                fv = np.array([float(x) for x in feats])
            except ValueError:
                errors.append(f"line {lineno}: non-numeric feature value")
                continue
            if not np.isfinite(fv).all():
                errors.append(f"line {lineno}: non-finite feature value")
                continue
            if not tag_s:
                errors.append(f"line {lineno}: empty tag field")
                continue
            try:
                labels = space.multi_hot(tag_s.split(";"))
            except ConfigurationError as exc:
                errors.append(f"line {lineno}: {exc}")
                continue
            seen_ids.add(item_id)
            items.append(Item(item_id, track_id, fv, labels))
    if errors:
        raise DatasetError(f"{path}: " + "; ".join(errors))
    if not items:
        raise DatasetError(f"{path}: no data rows")
    return Dataset(items, space)
