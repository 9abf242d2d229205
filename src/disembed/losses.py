"""Batch losses for the three learning families.

Every loss takes one row per sample: ``triplet_batch_loss`` for the triplet
family (masked per notion when disentangled; track regularization adds a
second, unmasked call) and ``bce_sum`` for the proxy and classification
families, whose scores differ only in how they were produced.  Similarity is
cosine, built from guarded row L2 normalization so gradients flow through the
autodiff graph.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LOG_FLOOR = 1e-12


def cosine_rows(A, B) -> Tensor:
    """Row-wise cosine between two (B, d) tensors, returning shape (B,)."""
    return ad.tsum(ad.mul(ad.l2_normalize(A), ad.l2_normalize(B)), axis=1)


def bce_sum(scores, y) -> Tensor:
    """Sum over tags of binary cross entropy; scores clamped away from {0,1}.

    Works on a per-sample score vector or a (B, tags) matrix; the reduction is
    a plain sum either way, so batch averaging is the caller's choice.
    """
    scores = ad.as_tensor(scores)
    y = np.asarray(y, dtype=np.float64)
    if scores.values.shape != y.shape:
        raise ValueError(
            f"scores shape {scores.values.shape} != labels shape {y.shape}"
        )
    s = ad.clip(scores, LOG_FLOOR, 1.0 - LOG_FLOOR)
    pos = ad.mul(ad.log(s), Tensor(y))
    neg = ad.mul(ad.log(1.0 - s), Tensor(1.0 - y))
    return -ad.tsum(pos + neg)


def triplet_batch_loss(EA, EP, EN, margin: float, masks=None) -> Tensor:
    """Mean over rows of max(0, cos(a, n) - cos(a, p) + margin).

    ``masks`` (B, d), if given, multiplies each row by its notion mask first.
    A zero row does not raise: guarded normalization maps it to zero cosine,
    which keeps training total.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    EA, EP, EN = (ad.as_tensor(E) for E in (EA, EP, EN))
    if masks is not None:
        M = Tensor(np.asarray(masks, dtype=np.float64))
        EA, EP, EN = (ad.mul(E, M) for E in (EA, EP, EN))
    per_row = ad.relu(cosine_rows(EA, EN) - cosine_rows(EA, EP) + margin)
    return ad.tmean(per_row)
