"""Batch losses for the three learning families.

``triplet_batch_loss`` is the triplet family's whole step: one call takes
the rows of the tag batch (masked per notion when disentangled) and, with
track regularization, of the unmasked track batch, normalizes them at once
and weights each batch's mean hinge.  ``bce_sum`` serves the proxy and
classification families, whose scores differ only in how they were produced.
Similarity is cosine over guarded row L2 normalization.  Each loss returns
its value and a ``backward`` closure with a hand-written gradient.  The
triplet backward runs one normalization backward and returns rows only for
the triplets whose hinge is positive, since the others have an exactly zero
gradient; the trainer back-propagates those rows alone, through one net
backward per step.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

LOG_FLOOR = 1e-12


def bce_sum(scores, y):
    """Sum over tags of binary cross entropy; scores clamped away from {0,1}.

    Works on a per-sample score vector or a (B, tags) matrix; the reduction is
    a plain sum either way, so batch averaging is the caller's choice.  The
    labels ``y`` may be bool, as ``Dataset.labels`` are: they are read as
    float64, so True and False are exactly 1.0 and 0.0.
    Returns the loss and ``backward(g)``, the gradient of ``g`` times the loss
    with respect to the scores.  A clamped score gets a zero gradient.
    """
    x = np.asarray(scores, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise ValueError(f"scores shape {x.shape} != labels shape {y.shape}")
    s = np.clip(x, LOG_FLOOR, 1.0 - LOG_FLOOR)
    ny = 1.0 - y
    rest = 1.0 - s
    total = (np.log(s) * y + np.log(rest) * ny).sum()

    def backward(g):
        g = -g
        gs = g * y / s - g * ny / rest
        return gs * ((x >= LOG_FLOOR) & (x <= 1.0 - LOG_FLOOR))

    return -total, backward


def triplet_batch_loss(E, margin: float, masks=None, weights=(1.0,)):
    """The triplet hinge of one training step: the sum over its k batches of
    ``weight`` times the batch's mean of max(0, cos(a, n) - cos(a, p) +
    margin).

    E is (3 * k * B, d) with B >= 1, k = len(weights): per batch, its B
    negative, anchor and positive rows in turn.  ``masks`` (B, d), if given,
    multiplies the rows of the first (tag) batch by their triplet's 0/1
    notion mask first.  Any other shape raises ValueError.  A zero row does
    not raise: guarded normalization maps it to zero cosine, which keeps
    training total.  Returns the loss and ``backward()``, the gradient of
    the loss with respect to E at the rows of the active triplets only, as
    ``(rows, gE)``: ``rows`` indexes E in ascending order, so batch by batch
    and N, A, P within a batch, and gE holds one row per index.  A triplet
    with ``z <= 0`` has an exactly zero gradient, so its rows are absent.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    E, w = np.asarray(E, dtype=np.float64), np.asarray(weights, dtype=np.float64)
    k = w.size
    if w.shape != (k,) or k < 1 or E.ndim != 2 or len(E) < 1 or len(E) % (3 * k):
        raise ValueError(f"triplet rows must be (3 * k * B, d) with B >= 1 for "
                         f"k = len(weights) >= 1, got {E.shape} and {w.shape}")
    B, width = len(E) // (3 * k), E.shape[1]
    if masks is not None:
        M = np.asarray(masks, dtype=np.float64)
        if M.shape != (B, width):
            raise ValueError(f"masks shape {M.shape} != ({B}, {width})")
        E = E.copy()
        E.reshape(k, 3, B, width)[0] *= M
    u, norms, divs = ad.l2_rows(E)
    uN, uA, uP = u.reshape(k, 3, B, width).transpose(1, 0, 2, 3)
    z = (uA * uN).sum(axis=2) - (uA * uP).sum(axis=2) + margin

    def backward():
        # with gz the batch's weight over B, the normalized rows get the
        # gradients gz * a (n), -gz * a (p) and gz * n, then -gz * p (a).
        # The normalization backward is row-local, so one call over the
        # active rows, followed by their anchors once more, gives each row its
        # dense value, and an anchor's two terms are added in that order; a
        # coordinate outside the mask is zero in a, p and n, and so in gE
        rows = np.flatnonzero(np.repeat(z > 0.0, 3, axis=0))
        role = rows // B % 3                              # 0 N, 1 A, 2 P
        anchors = rows[role == 1]
        partners = np.concatenate([rows + np.where(role == 0, B, -B), anchors + B])
        gz = (w[rows // (3 * B)] / B)[:, None]
        gz = np.concatenate([np.where(role[:, None] == 2, -gz, gz), -gz[role == 1]])
        idx = np.concatenate([rows, anchors])
        g = ad.l2_rows_backward(u[idx], norms[idx], divs[idx], gz * u[partners])
        gE = g[:rows.size].copy()  # so the net backward holds no second block
        gE[role == 1] += g[rows.size:]
        return rows, gE

    return (w * np.maximum(z, 0.0).mean(axis=1)).sum(), backward
