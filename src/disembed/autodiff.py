"""Parameters, the flat gradient of one training step, and Adam and a
reduce-on-plateau schedule whose one setting is the learning rate.

The network is fixed, so there is no graph: each layer is a plain function
that returns its value and a ``backward`` closure with a hand-written
gradient.  The layers are the relu MLP and the score formula (``model``), the
triplet hinge and the summed BCE (``losses``); the trainer chains their
backwards for one step and hands the parameter gradients to ``grad``, which
writes them into one flat vector laid out like ``Adam.flat``.  Guarded row L2
normalization is one forward/backward pair (``l2_rows``/``l2_rows_backward``)
that the layers share.  All arithmetic is float64.

Adam packs its parameters into one contiguous float64 vector: each
parameter's ``values`` becomes a view of that vector, and a step is a few
in-place ufuncs over it and the flat gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .errors import TrainingDivergedError

NORM_EPS = 1e-12


class Param:
    """A trainable float64 array; Adam rebinds ``values`` to a view of its
    packed vector."""

    __slots__ = ("values",)

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)


def packed(params: dict) -> tuple[np.ndarray, dict]:
    """A new float64 vector with room for every parameter, and its views:
    one per parameter, shaped like it, in dict order."""
    vec = np.empty(sum(p.values.size for p in params.values()))
    out, start = {}, 0
    for name, p in params.items():
        stop = start + p.values.size
        out[name] = vec[start:stop].reshape(p.values.shape)
        start = stop
    return vec, out


def l2_rows(v: np.ndarray):
    """Each row of a 2-D array divided by max(||row||, 1e-12).

    Returns the rows, their norms and the guarded divisors, which
    ``l2_rows_backward`` takes.  The guard makes the map total: a (near-)zero
    row is only scaled by the constant 1/eps.
    """
    n = np.linalg.norm(v, axis=1, keepdims=True)
    d = np.maximum(n, NORM_EPS)
    return v / d, n, d


def l2_rows_backward(y, n, d, g):
    """Gradient through ``l2_rows`` given its outputs ``(y, n, d)``.

    A (near-)zero row is only scaled by the constant 1/eps, so its gradient is
    ``g / eps``.
    """
    regular = (g - y * (y * g).sum(axis=1, keepdims=True)) / d
    guarded = n < NORM_EPS
    if guarded.any():
        return np.where(guarded, g / d, regular)
    return regular


def grad(slots: dict, pieces) -> None:
    """Write one step's parameter gradients into ``slots``.

    ``slots`` maps each parameter name to its view of the flat gradient
    (``packed``); ``pieces`` yields ``(name, gradient)`` pairs, at most one
    per parameter, and a second piece for a parameter raises ValueError.
    Each piece is assigned as it is, so a -0.0 stays -0.0.  A parameter
    without a piece gets zeros.
    """
    seen = set()
    for name, g in pieces:
        if name in seen:
            raise ValueError(f"parameter {name!r} has a second gradient piece")
        slots[name][...] = g
        seen.add(name)
    for name, slot in slots.items():
        if name not in seen:
            slot[...] = 0.0


class Adam:
    """Adam with bias correction over a named parameter dict.  ``lr`` is
    the one setting; ``beta1``, ``beta2`` and ``eps`` are fixed.

    The parameters are packed, in dict order, into the contiguous vector
    ``flat``; each parameter's ``values`` is rebound to a view of it, so a
    copy of ``flat`` is a snapshot of every parameter and assigning into it
    restores them.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict, lr=0.005):
        self.params = params
        self.lr = float(lr)
        self.t = 0
        self.flat, views = packed(params)
        for p, view in zip(params.values(), views.values()):
            view[...] = p.values
            p.values = view
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._num = np.empty_like(self.flat)
        self._den = np.empty_like(self.flat)

    def step(self, g: np.ndarray):
        """Apply one update.  ``g`` is the flat gradient, laid out like
        ``flat``; it is read in place."""
        if g.shape != self.flat.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match the "
                f"{self.flat.size} packed parameters"
            )
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m, v, num, den = self.m, self.v, self._num, self._den
        # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g
        m *= b1
        np.multiply(g, 1 - b1, out=num)
        m += num
        v *= b2
        np.multiply(g, 1 - b2, out=num)
        num *= g
        v += num
        # flat -= lr * mhat / (sqrt(vhat) + eps)
        np.divide(m, 1 - b1**self.t, out=num)
        num *= self.lr
        np.divide(v, 1 - b2**self.t, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        self.flat -= num


@dataclass
class PlateauSchedule:
    """Reduce the learning rate by ``factor`` after ``patience`` epochs without
    a strict improvement of the validation loss; stop after ``max_reductions``
    reductions have been spent and patience runs out again.  ``lr`` is the
    one setting; the other fields are the schedule's state."""

    factor: ClassVar[float] = 5.0
    patience: ClassVar[int] = 10
    max_reductions: ClassVar[int] = 5

    lr: float
    best: float = field(default=math.inf, init=False)
    since_improvement: int = field(default=0, init=False)
    reductions: int = field(default=0, init=False)

    def update(self, validation_loss: float) -> tuple[float, bool]:
        """Record one epoch's validation loss.  Returns (current lr, stop)."""
        validation_loss = float(validation_loss)
        if math.isnan(validation_loss):
            raise TrainingDivergedError("validation loss is NaN")
        if validation_loss < self.best:
            self.best = validation_loss
            self.since_improvement = 0
            return self.lr, False
        self.since_improvement += 1
        if self.since_improvement >= self.patience:
            if self.reductions >= self.max_reductions:
                return self.lr, True
            self.reductions += 1
            self.lr /= self.factor
            self.since_improvement = 0
        return self.lr, False
