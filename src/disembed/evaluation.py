"""Evaluation tasks: training-time ratio, multi-label R@K, tag AUC, triplet
prediction, and the per-variant report record."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import rankdata

from . import autodiff as ad
from .errors import ConfigurationError
from .labelspace import LabelSpace
from .sampling import TripletBatch

log = logging.getLogger(__name__)

# rows of the similarity matrix ranked at once by retrieval_recall
_RECALL_BLOCK = 256


def recall_at_k(query_labels, retrieved_label_sets) -> float:
    """Fraction of a query's labels covered by the union of the retrieved
    items' label sets.  Labels are multi-hot vectors; K is the number of
    retrieved sets."""
    q = np.asarray(query_labels) > 0
    if q.sum() == 0:
        raise ValueError("query must have at least one label")
    covered = np.zeros_like(q)
    for r in retrieved_label_sets:
        covered |= np.asarray(r) > 0
    return float((q & covered).sum() / q.sum())


def retrieval_recall(embeddings, labels, ks) -> dict[int, float]:
    """Mean multi-label R@K over all queries with at least one label.

    Candidates are all other items, ranked by descending cosine similarity
    with ties broken by ascending item index, exactly as a stable sort of
    every row would rank them.  K is clamped to n - 1, so a query never
    retrieves itself.  Zero-label queries are excluded from the average
    (logged); a ValueError is raised when no query has a label.

    Memory: one n x n float64 similarity matrix, plus a partitioned copy of
    one block of ``_RECALL_BLOCK`` rows at a time.
    """
    E = np.asarray(embeddings, dtype=np.float64)
    if not np.isfinite(E).all():
        raise ValueError("embeddings must be finite")
    E = ad.l2_normalize(E).values
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

    The similarity matrix comes from one GEMM (a row-blocked product can
    round tied similarities differently).  Per block of rows, everything at
    or above the kmax-th largest similarity is a candidate; the candidates
    are sorted by (row, -similarity, index) and the first kmax kept.
    """
    n = len(E)
    top = np.empty((n, kmax), dtype=np.intp)
    if kmax == 0:
        return top
    sims = E @ E.T
    np.fill_diagonal(sims, -np.inf)
    for start in range(0, n, _RECALL_BLOCK):
        S = sims[start:start + _RECALL_BLOCK]
        kth = np.partition(S, n - kmax, axis=1)[:, n - kmax, None]
        rows, cols = np.nonzero(S >= kth)
        order = np.lexsort((cols, -S[rows, cols], rows))
        rows, cols = rows[order], cols[order]
        first = np.searchsorted(rows, rows)
        keep = np.arange(len(rows)) - first < kmax
        top[start:start + len(S)] = cols[keep].reshape(len(S), kmax)
    return top


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


def auc_rank(pos_scores, neg_scores) -> float:
    """Exact ROC AUC of one tag via the rank statistic; ties credited 0.5."""
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need at least one positive and one negative")
    ranks = rankdata(np.concatenate([pos, neg]))
    n_pos, n_neg = len(pos), len(neg)
    return float(
        (ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    )


def auc_tags(score_matrix, label_matrix) -> float:
    """Macro-averaged per-tag ROC AUC; tags without both classes are skipped."""
    S = np.asarray(score_matrix, dtype=np.float64)
    L = np.asarray(label_matrix) > 0
    aucs = []
    skipped = 0
    for t in range(L.shape[1]):
        pos = S[L[:, t], t]
        neg = S[~L[:, t], t]
        if len(pos) == 0 or len(neg) == 0:
            skipped += 1
            continue
        aucs.append(auc_rank(pos, neg))
    if skipped:
        log.info("auc_tags skipped %d single-class tag(s)", skipped)
    if not aucs:
        raise ValueError("no evaluable tag has both positives and negatives")
    return float(np.mean(aucs))


def triplet_accuracy(
    embeddings,
    triplets: TripletBatch,
    mode: str = "full",
    space: LabelSpace | None = None,
    disentangled: bool = False,
) -> float:
    """Fraction of triplets with cos(anchor, positive) > cos(anchor, negative).

    ``embeddings`` are pre-normalization full-space embeddings, one row per
    dataset item; the ``TripletBatch`` ``triplets`` indexes into them.
    mode="sub" restricts each triplet to its notion's block of ``space`` and
    requires a disentangled model.
    Ties count as incorrect.

    Each cosine is dot(a, b) / (max(|a|, 1e-12) * max(|b|, 1e-12)), with the
    dots and norms computed as batched vector products; these round exactly
    as ``np.dot`` and ``np.linalg.norm`` on one triplet's vectors do.
    Memory: the gathered anchor, positive and negative rows, three arrays
    of len(triplets) x d float64.
    """
    if mode not in ("full", "sub"):
        raise ValueError(f"unknown space mode: {mode!r}")
    if mode == "sub":
        if not disentangled:
            raise ConfigurationError(
                "sub-space triplet accuracy requires a disentangled model"
            )
        if space is None:
            raise ConfigurationError("sub mode needs the label space for masks")
    E = np.asarray(embeddings, dtype=np.float64)
    if len(triplets) == 0:
        raise ValueError("no triplets to evaluate")
    index = np.stack([triplets.anchor, triplets.positive, triplets.negative],
                     axis=1)
    if mode == "full":
        return _count_correct(E, index) / len(index)
    if triplets.notion is None:
        raise ConfigurationError("track triplets carry no notion")
    # notion indices are positions in the batch's own label space
    names = [notion.name for notion in triplets.space.notions]
    correct = 0
    for k in dict.fromkeys(triplets.notion.tolist()):
        group = index[triplets.notion == k]
        correct += _count_correct(E[:, space.block_slice(names[k])], group)
    return correct / len(index)


def _count_correct(E: np.ndarray, index: np.ndarray) -> int:
    """Number of (anchor, positive, negative) rows of ``index`` whose anchor
    is strictly closer in cosine to the positive than to the negative."""
    A, P, N = (E[index[:, j]] for j in range(3))
    eps = ad.NORM_EPS
    na = np.maximum(np.sqrt(_row_dots(A, A)), eps)
    cp = _row_dots(A, P) / (na * np.maximum(np.sqrt(_row_dots(P, P)), eps))
    cn = _row_dots(A, N) / (na * np.maximum(np.sqrt(_row_dots(N, N)), eps))
    return int(np.count_nonzero(cp > cn))


def _row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Row-wise dot products as a stack of (1, d) @ (d, 1) products, which
    numpy computes with the same BLAS dot as ``np.dot`` on 1-D vectors
    (``einsum`` and ``norm(axis=1)`` sum in another order)."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


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
    triplet_accuracy: dict = field(default_factory=dict)  # (space, notion) -> value
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
            "triplet_accuracy": {
                f"{sp}/{notion}": v
                for (sp, notion), v in self.triplet_accuracy.items()
            },
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
