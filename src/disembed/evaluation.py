"""Evaluation tasks: training-time ratio, multi-label R@K, tag AUC, triplet
prediction, and the per-variant report record.

Tag AUC is the rank statistic (Hanley & McNeil 1982), ranked with numpy
alone: one sort of each tag's score column gives its positives' average
ranks, ties sharing the mean of their ranks as in ``scipy.stats.rankdata``,
without importing ``scipy.stats``.
Triplet prediction compares cosines of rows, or of their notion blocks,
normalized by ``autodiff.l2_rows``, as every cosine of the package is.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import ConfigurationError
from .sampling import TripletBatch

log = logging.getLogger(__name__)

# rows of the similarity matrix ranked at once by retrieval_recall, and the
# most columns per group whose maxima set a row's candidate threshold
_RECALL_BLOCK = 128
_RECALL_GROUP = 32
# triplets gathered at once by triplet_accuracy
_TRIPLET_CHUNK = 512


def retrieval_recall(embeddings, labels, ks) -> dict[int, float]:
    """Mean multi-label R@K over all queries with at least one label.

    Candidates are all other items, ranked by descending cosine similarity
    with ties broken by ascending item index, exactly as a stable sort of
    every row would rank them.  K is clamped to n - 1, so a query never
    retrieves itself.  Zero-label queries are excluded from the average
    (logged); a ValueError is raised when no query has a label.

    Memory: O(``_RECALL_BLOCK`` x n), never n x n, however many
    similarities tie: the float64 similarities of one block of
    ``_RECALL_BLOCK`` query rows at a time, boolean masks of the same shape
    and index arrays over the block's candidates, at most
    max(kmax, (kmax - 1) c) per row (``_top_neighbors``), plus n x kmax
    neighbour indices.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    if not np.isfinite(E).all():
        raise ValueError("embeddings must be finite")
    E = ad.l2_rows(E)[0]
    L = np.asarray(labels) > 0
    n = len(E)
    label_counts = L.sum(axis=1)
    valid = label_counts > 0
    if not valid.any():
        raise ValueError("no query has a label to retrieve")
    if (~valid).any():
        log.info("excluding %d zero-label queries from R@K", int((~valid).sum()))
    top = _top_neighbors(E, min(max(ks), n - 1))
    out = {}
    for k in ks:
        covered = L[top[:, :k]].any(axis=1)
        per_query = (L & covered).sum(axis=1) / np.maximum(label_counts, 1)
        out[int(k)] = float(per_query[valid].mean())
    return out


def _top_neighbors(E: np.ndarray, kmax: int) -> np.ndarray:
    """Indices of each row's ``kmax`` most similar other rows of ``E``, in
    descending similarity with ties by ascending index.

    Similarities come one block of ``_RECALL_BLOCK`` query rows at a time,
    ``E[block] @ E.T``, so each query is ranked by its own row of one block
    GEMM, and exact ties are broken by index.  Per row, the columns are cut
    into groups of ``c`` and the kmax-th largest group maximum is taken as a
    threshold; it is at most the kmax-th largest similarity, so the columns
    at or above it hold the row's top kmax.  At most kmax - 1 groups lie
    above the threshold, so at most (kmax - 1) c columns do; of the columns
    equal to it a row needs only the first kmax - above by index, and a row
    with more candidates than max(kmax, (kmax - 1) c) drops the rest.  The
    candidates are sorted by (row, -similarity, index) and the first kmax
    kept.  With at least 4 kmax groups a row keeps few candidates, and never
    more than that bound, however many of its similarities are equal.
    """
    n = len(E)
    top = np.empty((n, kmax), dtype=np.intp)
    if kmax == 0:
        return top
    c = max(1, min(_RECALL_GROUP, n // (4 * kmax)))
    for start in range(0, n, _RECALL_BLOCK):
        top[start:start + _RECALL_BLOCK] = _block_top(
            E[start:start + _RECALL_BLOCK] @ E.T, start, kmax, c
        )
    return top


def _block_top(S: np.ndarray, start: int, kmax: int, c: int) -> np.ndarray:
    """``_top_neighbors`` of the query rows ``start, start + 1, ...`` from
    their similarity rows ``S`` (overwritten at the self entries), with
    groups of ``c`` columns.

    A function of its own, so a block's arrays are freed before the next
    block's GEMM allocates.
    """
    b, n = S.shape
    rows = np.arange(b)
    S[rows, start + rows] = -np.inf
    # group g holds columns g, g + m, g + 2m, ...; the n % c last columns
    # are groups of one
    m = n // c
    G = S[:, :c * m].reshape(b, c, m).max(axis=1)
    if c * m < n:
        G = np.concatenate([G, S[:, c * m:]], axis=1)
    w = G.shape[1]
    threshold = np.partition(G, w - kmax, axis=1)[:, w - kmax, None]
    keep = S >= threshold
    # a row with more candidates than the bound keeps, of its columns equal
    # to the threshold, only the first kmax - above by index: its top kmax
    # when above < kmax, and none otherwise
    count = np.count_nonzero(keep, axis=1)
    over = np.flatnonzero(count > max(kmax, (kmax - 1) * c))
    if len(over):
        tied = (S == threshold)[over]
        short = kmax - count[over] + np.count_nonzero(tied, axis=1)
        rank = np.cumsum(tied, axis=1, dtype=np.min_scalar_type(n))
        keep[over] ^= tied & (rank > short[:, None])
    flat = np.flatnonzero(keep)
    rows, cols = np.divmod(flat, n)
    order = np.lexsort((cols, -S.ravel()[flat], rows))
    rows, cols = rows[order], cols[order]
    first = np.searchsorted(rows, rows)
    keep = np.arange(len(rows)) - first < kmax
    return cols[keep].reshape(b, kmax)


def build_prototypes(embeddings, labels) -> np.ndarray:
    """Per-tag mean of embeddings over positive samples; zero for empty tags."""
    E = np.asarray(embeddings, dtype=np.float64)
    L = np.asarray(labels) > 0
    T = L.shape[1]
    protos = np.zeros((T, E.shape[1]))
    counts = L.sum(axis=0)
    empty = np.flatnonzero(counts == 0)
    if len(empty):
        log.info("%d tag(s) without positives get zero prototypes", len(empty))
    for t in range(T):
        if counts[t]:
            protos[t] = E[L[:, t]].mean(axis=0)
    return protos


def _twice_rank_sum(scores: np.ndarray, positive: np.ndarray) -> int:
    """Twice the sum of the 1-based average ranks (``scipy.stats.rankdata``'s
    "average") that the ``positive`` entries hold among all of ``scores``.

    One sort: a positive with ``lo`` smaller and ``hi`` smaller-or-equal
    scores holds the tie group of ranks lo + 1 .. hi, whose mean is
    (lo + hi + 1) / 2, so twice the sum is an exact integer (-0.0 ties 0.0).
    """
    ordered = np.sort(scores)
    pos = scores[positive]
    lo = np.searchsorted(ordered, pos, side="left")
    hi = np.searchsorted(ordered, pos, side="right")
    return int(lo.sum() + hi.sum()) + len(pos)


def auc_tags(score_matrix, label_matrix) -> float:
    """Macro-averaged per-tag ROC AUC; tags without both classes are skipped.

    A tag's AUC is the rank statistic, (R - p (p + 1) / 2) / (p q) for the
    rank sum R of its p positives against its q negatives, ties credited
    one half; ``_twice_rank_sum`` ranks one tag column at a time.
    """
    S = np.asarray(score_matrix, dtype=np.float64)
    if not np.isfinite(S).all():
        raise ValueError("scores must be finite")
    L = np.asarray(label_matrix) > 0
    n_pos = L.sum(axis=0)
    n_neg = len(L) - n_pos
    evaluable = (n_pos > 0) & (n_neg > 0)
    skipped = int((~evaluable).sum())
    if skipped:
        log.info("auc_tags skipped %d single-class tag(s)", skipped)
    if not evaluable.any():
        raise ValueError("no evaluable tag has both positives and negatives")
    tags = np.flatnonzero(evaluable)
    rank_sums = np.array([_twice_rank_sum(S[:, t], L[:, t]) for t in tags]) / 2
    n_pos, n_neg = n_pos[tags], n_neg[tags]
    aucs = (rank_sums - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    return float(np.mean(aucs))


def unit_blocks(embeddings, width: int) -> np.ndarray:
    """The rows of ``embeddings`` cut into ``width``-wide blocks, each block
    normalized by ``autodiff.l2_rows``, as ``triplet_accuracy`` compares them:
    the row's width for mode "full", ``space.block_size`` for mode "sub"."""
    E = np.asarray(embeddings, dtype=np.float64)
    if E.shape[1] % width:
        raise ValueError(f"{E.shape[1]}-wide rows do not split into "
                         f"{width}-wide blocks")
    return ad.l2_rows(E.reshape(-1, width))[0].reshape(E.shape)


def triplet_accuracy(embeddings, triplets: TripletBatch, mode: str = "full",
                     *, normalized: bool = False) -> float:
    """Fraction of triplets with cos(anchor, positive) > cos(anchor, negative);
    ties count as incorrect.

    ``embeddings`` are pre-normalization rows, one per dataset item, which the
    ``TripletBatch`` ``triplets`` indexes.  A cosine is the dot product of two
    rows normalized by ``autodiff.l2_rows``; mode="sub" normalizes and compares
    each tag triplet's notion block alone, with the blocks and the notion
    indices of ``triplets.space``, whose ``embedding_dim`` must be the rows'
    width.  ``normalized=True`` says ``embeddings`` already are
    ``unit_blocks`` of the rows for ``mode``, so a caller scoring several
    batches normalizes once.  Memory: the normalized rows and three
    ``_TRIPLET_CHUNK`` x width arrays.
    """
    if mode not in ("full", "sub"):
        raise ValueError(f"unknown space mode: {mode!r}")
    if len(triplets) == 0:
        raise ValueError("no triplets to evaluate")
    E = np.asarray(embeddings, dtype=np.float64)
    n, width = E.shape
    space = triplets.space
    if mode == "sub":
        if triplets.notion is None:
            raise ConfigurationError("track triplets carry no notion")
        if width != space.embedding_dim:
            raise ValueError(f"sub mode needs {space.embedding_dim}-wide "
                             f"embeddings, got {width}")
        width = space.block_size
    U = (E if normalized else unit_blocks(E, width)).reshape(n, -1, width)
    correct = 0
    for start in range(0, len(triplets), _TRIPLET_CHUNK):
        t = triplets[start:start + _TRIPLET_CHUNK]
        block = 0 if mode == "full" else t.notion
        A, P, N = (U[rows, block] for rows in (t.anchor, t.positive, t.negative))
        cp = np.multiply(P, A, out=P).sum(axis=1)
        cn = np.multiply(N, A, out=N).sum(axis=1)
        correct += int(np.count_nonzero(cp > cn))
    return correct / len(triplets)


def training_time_ratio(timings: dict) -> dict:
    """Each variant's training time divided by the fastest; minimum is 1.00."""
    if not timings:
        raise ValueError("empty timing map")
    if any(v <= 0 for v in timings.values()):
        raise ValueError("timings must be positive")
    fastest = min(timings.values())
    return {k: v / fastest for k, v in timings.items()}


@dataclass
class EvalReport:
    """Per-variant results for the four evaluation tasks.

    Clock derived values (wall_seconds, cpu_seconds, training_time_ratio) live
    in dedicated fields so determinism checks can exclude them.
    ``shared_with`` names the variant whose run this report copies; it is
    serialized only when set.
    """

    variant: dict
    recall_at: dict = field(default_factory=dict)
    auc: float | None = None
    triplet_accuracy: dict = field(default_factory=dict)  # "mode/notion" -> value
    training_time_ratio: float | None = None
    wall_seconds: float | None = None
    cpu_seconds: float | None = None
    epochs: int | None = None
    error: str | None = None
    shared_with: str | None = None

    def to_dict(self) -> dict:
        d = {
            "variant": dict(self.variant),
            "recall_at": {str(k): v for k, v in self.recall_at.items()},
            "auc": self.auc,
            "triplet_accuracy": dict(self.triplet_accuracy),
            "epochs": self.epochs,
            "error": self.error,
            "timing": {
                "wall_seconds": self.wall_seconds,
                "cpu_seconds": self.cpu_seconds,
                "training_time_ratio": self.training_time_ratio,
            },
        }
        if self.shared_with is not None:
            d["shared_with"] = self.shared_with
        return d


def strip_timing(report_dict: dict) -> dict:
    """Remove wall-clock derived fields for bit-exact determinism checks."""
    import copy

    d = copy.deepcopy(report_dict)

    def scrub(node):
        if isinstance(node, dict):
            node.pop("timing", None)
            for v in node.values():
                scrub(v)
        elif isinstance(node, list):
            for v in node:
                scrub(v)

    scrub(d)
    return d
