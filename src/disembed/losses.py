"""Batch losses for the three learning families.

Every loss takes one row per sample: ``triplet_batch_loss`` for the triplet
family (masked per notion when disentangled; track regularization adds a
second, unmasked call) and ``bce_sum`` for the proxy and classification
families, whose scores differ only in how they were produced.  Similarity is
cosine over guarded row L2 normalization.  Each loss returns its value and a
``backward`` closure with a hand-written gradient.  The triplet backward
returns rows only for the triplets whose hinge is positive, since the others
have an exactly zero gradient; the trainer back-propagates those rows alone,
through one net backward per step.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad

LOG_FLOOR = 1e-12


def bce_sum(scores, y):
    """Sum over tags of binary cross entropy; scores clamped away from {0,1}.

    Works on a per-sample score vector or a (B, tags) matrix; the reduction is
    a plain sum either way, so batch averaging is the caller's choice.
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


def triplet_batch_loss(EA, EP, EN, margin: float, masks=None):
    """Mean over rows of max(0, cos(a, n) - cos(a, p) + margin).

    EA, EP and EN are (B, d) with B >= 1; ``masks`` (B, d), if given,
    multiplies each row by its 0/1 notion mask first.  Any other shape raises
    ValueError.  A zero row does not raise: guarded normalization maps it to
    zero cosine, which keeps training total.  Returns the loss and
    ``backward(g)``, the gradients of ``g`` times the loss with respect to
    EA, EP and EN at the active triplets only, as ``(rows, gA, gP, gN)``:
    ``rows`` indexes the triplets whose hinge is positive, and gA, gP and gN
    hold one row per index.  A triplet with ``z <= 0`` has an exactly zero
    gradient, so it has no row.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    EA, EP, EN = (np.asarray(E, dtype=np.float64) for E in (EA, EP, EN))
    shape = EA.shape
    if len(shape) != 2 or shape[0] < 1 or EP.shape != shape or EN.shape != shape:
        raise ValueError(
            f"triplet rows must share one (B, d) shape with B >= 1, got "
            f"{EA.shape}, {EP.shape}, {EN.shape}"
        )
    M = None
    if masks is not None:
        M = np.asarray(masks, dtype=np.float64)
        if M.shape != shape:
            raise ValueError(f"masks shape {M.shape} != rows shape {shape}")
    normed = [ad.l2_rows(E if M is None else E * M) for E in (EA, EP, EN)]
    (uA, _, _), (uP, _, _), (uN, _, _) = normed
    z = (uA * uN).sum(axis=1) - (uA * uP).sum(axis=1) + margin

    def backward(g):
        # the hinge, then the two cosines: d/dcos(a, n) = gz, d/dcos(a, p) = -gz.
        # Each formula is row-local, so an active row gets its dense value;
        # a coordinate outside the mask is zero in a, p and n, and so in gA, gP, gN
        rows = np.flatnonzero(z > 0.0)
        (a, nA, dA), (p, nP, dP), (n, nN, dN) = (
            [v[rows] for v in triple] for triple in normed
        )
        gz = np.full((rows.size, 1), g / shape[0])
        gp = -gz
        gA = (ad.l2_rows_backward(a, nA, dA, gz * n)
              + ad.l2_rows_backward(a, nA, dA, gp * p))
        gP = ad.l2_rows_backward(p, nP, dP, gp * a)
        gN = ad.l2_rows_backward(n, nN, dN, gz * a)
        return rows, gA, gP, gN

    return np.maximum(z, 0.0).mean(), backward
