"""Batch losses for the three learning families.

Every loss takes one row per sample: ``triplet_batch_loss`` for the triplet
family (masked per notion when disentangled; track regularization adds a
second, unmasked call) and ``bce_sum`` for the proxy and classification
families, whose scores differ only in how they were produced.  Similarity is
cosine over guarded row L2 normalization.  Each loss is one graph node with a
hand-written backward.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor

LOG_FLOOR = 1e-12


def bce_sum(scores, y) -> Tensor:
    """Sum over tags of binary cross entropy; scores clamped away from {0,1}.

    Works on a per-sample score vector or a (B, tags) matrix; the reduction is
    a plain sum either way, so batch averaging is the caller's choice.  A
    clamped score gets a zero gradient.
    """
    scores = ad.as_tensor(scores)
    y = np.asarray(y, dtype=np.float64)
    x = scores.values
    if x.shape != y.shape:
        raise ValueError(f"scores shape {x.shape} != labels shape {y.shape}")
    s = np.clip(x, LOG_FLOOR, 1.0 - LOG_FLOOR)
    ny = 1.0 - y
    rest = 1.0 - s
    total = (np.log(s) * y + np.log(rest) * ny).sum()

    def backward(g):
        if not scores.requires_grad:
            return (None,)
        g = -g
        gs = g * y / s - g * ny / rest
        return (gs * ((x >= LOG_FLOOR) & (x <= 1.0 - LOG_FLOOR)),)

    return Tensor(-total, _parents=(scores,), _backward=backward)


def triplet_batch_loss(EA, EP, EN, margin: float, masks=None) -> Tensor:
    """Mean over rows of max(0, cos(a, n) - cos(a, p) + margin).

    EA, EP and EN are (B, d) with B >= 1; ``masks`` (B, d), if given,
    multiplies each row by its notion mask first.  Any other shape raises
    ValueError.  A zero row does not raise: guarded normalization maps it to
    zero cosine, which keeps training total.
    """
    if margin < 0:
        raise ValueError("margin must be >= 0")
    EA, EP, EN = (ad.as_tensor(E) for E in (EA, EP, EN))
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
    (uA, nA, dA), (uP, nP, dP), (uN, nN, dN) = (
        ad.l2_rows(E.values if M is None else E.values * M)
        for E in (EA, EP, EN)
    )
    z = (uA * uN).sum(axis=1) - (uA * uP).sum(axis=1) + margin

    def backward(g):
        # the hinge, then the two cosines: d/dcos(a, n) = gz, d/dcos(a, p) = -gz
        gz = (g / shape[0] * (z > 0.0))[:, None]
        gp = -gz
        gA = (ad.l2_rows_backward(uA, nA, dA, gz * uN)
              + ad.l2_rows_backward(uA, nA, dA, gp * uP))
        gN = ad.l2_rows_backward(uN, nN, dN, gz * uA)
        gP = ad.l2_rows_backward(uP, nP, dP, gp * uA)
        grads = (gN, gA, gP) if M is None else (gN * M, gA * M, gP * M)
        return tuple(gE if E.requires_grad else None
                     for E, gE in zip((EN, EA, EP), grads))

    # parents in the order (EN, EA, EP): grad() then adds up the gradient of
    # a weight shared by the three forwards as N + A + P, a summation order
    # the pinned training gradients (tests/test_trainer.py) depend on
    return Tensor(np.maximum(z, 0.0).mean(), _parents=(EN, EA, EP),
                  _backward=backward)
