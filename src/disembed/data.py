"""Datasets: file ingestion, splits, and a synthetic multi-notion generator.

A ``Dataset`` holds its rows once, as parallel arrays (ids, track ids, a
feature matrix and a multi-hot label matrix).  The generator writes each row
once, straight into its split's arrays, and the TSV reader each line into
its row.

The synthetic generator stands in for a large tagged-audio corpus: each tag
owns a centroid inside its notion's block of feature space, a track mixes one
centroid per notion (plus track-level noise), and excerpts of a track add
excerpt-level noise.
"""

from __future__ import annotations

import logging
import re
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import streams
from .errors import (
    ConfigurationError, DatasetError, as_count, as_float, as_floats, as_ints,
    as_seed, check_types,
)
from .labelspace import LabelSpace

log = logging.getLogger(__name__)


class Dataset:
    """Rows held once, as parallel arrays: ``ids`` and ``track_ids`` (lists
    of str), ``features`` (n, d) float64 and ``labels`` (n, tags) float64
    multi-hot over ``space``."""

    def __init__(self, space: LabelSpace, ids, track_ids, features, labels):
        self.space = space
        self.ids = list(ids)
        self.track_ids = list(track_ids)
        self.features = np.asarray(features, dtype=np.float64)
        self.labels = np.asarray(labels, dtype=np.float64)
        n = len(self.ids)
        if (len(self.track_ids) != n or self.features.ndim != 2
                or len(self.features) != n):
            raise DatasetError(
                f"{n} ids, {len(self.track_ids)} track ids and features of "
                f"shape {self.features.shape} do not describe the same rows"
            )
        if self.labels.shape != (n, space.num_tags):
            raise DatasetError(
                f"labels of shape {self.labels.shape}, expected "
                f"{(n, space.num_tags)}"
            )

    def __len__(self):
        return len(self.ids)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]


def _int_pair(v) -> tuple:
    """``v`` as a pair of ints (``as_ints``); another length raises
    TypeError."""
    pair = as_ints(v)
    if len(pair) != 2:
        raise TypeError(f"expected a (min, max) pair, got {v!r}")
    return pair


# the rule of each SyntheticSpec field but the space; a value is
# checked, not converted, as VariantConfig's values are
SPEC_TYPES = {
    "feature_dim": as_count, "tracks": as_count, "excerpts_per_track": as_count,
    "tags_per_notion_range": _int_pair, "sigma_within": as_float,
    "sigma_excerpt": as_float, "seed": as_seed,
}


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
        check_types(self, SPEC_TYPES, "synthetic")
        self.tags_per_notion_range = tuple(self.tags_per_notion_range)
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


def _feature_blocks(feature_dim: int, num_notions: int) -> list[slice]:
    # contiguous near-equal blocks of feature space, one per notion
    bounds = np.linspace(0, feature_dim, num_notions + 1).round().astype(int)
    return [slice(bounds[i], bounds[i + 1]) for i in range(num_notions)]


def tag_centroids(spec: SyntheticSpec) -> np.ndarray:
    """Per-tag feature centroid, nonzero only in the tag's notion block."""
    rng = streams.rng("centroids", spec.seed)
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


def _write_parts(spec: SyntheticSpec, track_parts: np.ndarray) -> tuple:
    """Draw ``spec``'s tracks in order, writing track ``tr``'s excerpts at
    the next free rows of part ``track_parts[tr]``: each part's rows are its
    tracks' excerpts, in track order.  Every part must hold a track."""
    space = spec.space
    cents = tag_centroids(spec)
    rng = streams.rng("tracks", spec.seed)
    lo, hi = spec.tags_per_notion_range
    per, width = spec.excerpts_per_track, spec.feature_dim
    sizes = np.bincount(track_parts) * per
    features = [np.empty((m, width)) for m in sizes]
    labels = [np.empty((m, space.num_tags)) for m in sizes]
    ids = [[] for _ in sizes]
    track_ids = [[] for _ in sizes]
    for tr, p in enumerate(track_parts.tolist()):
        track_id = f"track{tr:05d}"
        chosen = []
        for notion in space.notions:
            k = int(rng.integers(lo, hi + 1))
            idx = rng.choice(len(notion.tags), size=k, replace=False)
            chosen.extend(notion.tags[i] for i in sorted(idx))
        row = len(ids[p])
        rows = slice(row, row + per)
        hot = space.multi_hot(chosen)
        labels[p][rows] = hot
        base = cents[hot > 0].sum(axis=0)
        base = base + spec.sigma_within * rng.normal(size=width)
        # one draw of per x d normals is the stream of per draws of d
        features[p][rows] = base + spec.sigma_excerpt * rng.normal(
            size=(per, width)
        )
        ids[p].extend(f"{track_id}_x{ex}" for ex in range(per))
        track_ids[p].extend([track_id] * per)
    return tuple(Dataset(space, *cols)
                 for cols in zip(ids, track_ids, features, labels))


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministic synthetic dataset; every item carries >= 1 tag per notion.

    The one-part case of ``generate_splits``' writer: track ``tr``'s
    excerpts are rows ``tr * excerpts_per_track`` onwards.
    """
    return _write_parts(spec, np.zeros(spec.tracks, dtype=np.intp))[0]


def check_fractions(fractions) -> tuple[float, ...]:
    """``fractions`` as floats; a non-number, a fraction <= 0 or a sum other
    than 1 raises ConfigurationError."""
    try:
        fractions = as_floats(fractions)
    except TypeError as exc:
        raise ConfigurationError(f"split fractions: {exc}") from exc
    if any(f <= 0 for f in fractions):
        raise ConfigurationError("split fractions must be positive")
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigurationError(f"split fractions must sum to 1, got {sum(fractions)}")
    return fractions


def _track_parts(n_tracks: int, fractions, seed: int) -> np.ndarray:
    """Each track's part: a seeded permutation of the tracks, cut at the
    rounded cumulative ``fractions``.  A part that rounds to no track raises
    DatasetError."""
    fractions = check_fractions(fractions)
    bounds = np.round(np.cumsum((0.0,) + fractions) * n_tracks).astype(int)
    sizes = np.diff(bounds)
    if not sizes.all():
        i = int(np.argmin(sizes))  # the first empty part
        raise DatasetError(
            f"split part {i} of {len(fractions)} (fraction {fractions[i]}) "
            f"is empty: it rounds to none of {n_tracks} track(s)"
        )
    perm = streams.rng("split", seed).permutation(n_tracks)
    return np.repeat(np.arange(len(fractions)), sizes)[np.argsort(perm)]


# (train, valid, test) shares of the tracks, unless a config says otherwise
DEFAULT_FRACTIONS = (0.8, 0.05, 0.15)
# draws of generate_splits before it gives up
_SPLIT_ATTEMPTS = 20


def generate_splits(
    spec: SyntheticSpec, fractions=DEFAULT_FRACTIONS
) -> tuple[Dataset, ...]:
    """One part per fraction, each track's excerpts in one part, each row
    written once, straight into its part; re-drawn at ``streams.redraw_seed``
    until every tag has a positive in the first part (streams ``split``,
    ``centroids``, ``tracks``).  Bad fractions or a part that rounds to no
    track raise before any draw."""
    for attempt in range(_SPLIT_ATTEMPTS):
        sp = replace(spec, seed=streams.redraw_seed(spec.seed, attempt))
        parts = _write_parts(sp, _track_parts(sp.tracks, fractions, sp.seed))
        if (parts[0].labels.sum(axis=0) > 0).all():
            return parts
        del parts  # free this draw before the next
        log.info("resampling synthetic data: some tag has no train positive")
    raise DatasetError(
        f"could not generate a dataset with all tags present in train "
        f"after {_SPLIT_ATTEMPTS} attempts"
    )


# ---------------------------------------------------------------------------
# file format: tab-separated with two header lines
#   #feature_dim=<n>
#   #tags=<comma-joined tag names in label-space order>
#   id<TAB>track_id<TAB>f1,...,fn<TAB>tag1;tag2;...
# No name may hold a tab, a line break or a lone surrogate (which UTF-8
# cannot encode), and no tag name a ',' or a ';'.
_NAME_BREAK = re.compile("[\t\n\r\ud800-\udfff]")
_TAG_BREAK = re.compile("[,;\t\n\r\ud800-\udfff]")


def save_dataset(dataset: Dataset, path) -> None:
    """Write ``dataset`` as a TSV file that ``load_dataset`` reads back.

    What the format cannot hold raises DatasetError naming the item or tag
    before the file at ``path`` is touched: an empty or bad name (above), no
    rows, a duplicate id, a non-finite feature, a tagless item.
    """
    bad = [t for t in dataset.space.tags if not t or _TAG_BREAK.search(t)]
    if bad:
        raise DatasetError(f"tag name {bad[0]!r}; format forbids it")
    if not len(dataset):
        raise DatasetError("dataset has no rows; format forbids it")
    seen = set()
    for item_id, track_id in zip(dataset.ids, dataset.track_ids):
        if _NAME_BREAK.search(item_id + track_id):
            raise DatasetError(f"item {item_id!r} of track {track_id!r}: a tab, "
                               f"line break or lone surrogate; format forbids it")
        if item_id in seen:
            raise DatasetError(f"duplicate id {item_id!r}; format forbids it")
        seen.add(item_id)
    for rows, what in ((~np.isfinite(dataset.features).all(axis=1),
                        "a non-finite feature"),
                       (~dataset.labels.any(axis=1), "no tags")):
        if rows.any():
            item_id = dataset.ids[rows.argmax()]
            raise DatasetError(f"item {item_id!r} has {what}; format forbids it")
    fmt = ",".join(["%.17g"] * dataset.feature_dim)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#feature_dim={dataset.feature_dim}\n")
        fh.write("#tags=" + ",".join(dataset.space.tags) + "\n")
        for item_id, track_id, features, labels in zip(
            dataset.ids, dataset.track_ids, dataset.features, dataset.labels
        ):
            tags = ";".join(dataset.space.decode(labels))
            feats = fmt % tuple(features.tolist())
            fh.write(f"{item_id}\t{track_id}\t{feats}\t{tags}\n")


# what a feature field may hold: %.17g numbers and nan/inf spellings, comma
# separated; float() alone also takes "_" digit separators, padding
# whitespace and non-ASCII digits
_FEATURE_FIELD = re.compile(r"[0-9A-Za-z+\-.,]*")


def _count_lines(path) -> int:
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        return sum(1 for _ in fh)


def load_dataset(path, space: LabelSpace) -> Dataset:
    """Read a dataset file; any malformed line (bad field count, duplicate
    id, non-numeric or non-finite feature, unknown tag, invalid UTF-8) raises
    DatasetError naming the line.

    Each line is parsed straight into its row of ``features`` and
    ``labels``, allocated for every line of the file once the first line has
    proven the header's width.
    """
    errors = []
    ids, track_ids = [], []
    features = labels = None
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
            if not _FEATURE_FIELD.fullmatch(feat_s):
                errors.append(f"line {lineno}: non-numeric feature value")
                continue
            if features is None:
                rows = _count_lines(path) - 2
                features = np.empty((rows, width))
                labels = np.empty((rows, space.num_tags))
            row = len(ids)
            try:
                features[row] = [float(x) for x in feats]
            except ValueError:
                errors.append(f"line {lineno}: non-numeric feature value")
                continue
            if not np.isfinite(features[row]).all():
                errors.append(f"line {lineno}: non-finite feature value")
                continue
            if not tag_s:
                errors.append(f"line {lineno}: empty tag field")
                continue
            try:
                labels[row] = space.multi_hot(tag_s.split(";"))
            except ConfigurationError as exc:
                errors.append(f"line {lineno}: {exc}")
                continue
            seen_ids.add(item_id)
            ids.append(item_id)
            track_ids.append(track_id)
    if errors:
        raise DatasetError(f"{path}: " + "; ".join(errors))
    if not ids:
        raise DatasetError(f"{path}: no data rows")
    return Dataset(space, ids, track_ids, features[:len(ids)], labels[:len(ids)])
