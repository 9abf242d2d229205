"""Reverse-mode differentiation over one graph node per layer, Adam, and a
reduce-on-plateau schedule.

A node is a ``Tensor`` whose forward ran in numpy and whose hand-written
backward maps the output gradient to one gradient per parent.  The network is
fixed, so each layer is one node: the relu MLP and the head (``model``), the
score formula (``model``), the triplet hinge and the summed BCE (``losses``).
This module keeps the graph walk (``grad``), the elementwise ``add`` and
``mul`` that combine losses, and guarded row L2 normalization, whose
forward/backward pair (``l2_rows``/``l2_rows_backward``) the nodes share.  All
arithmetic is float64.  Backward passes skip the gradient of an input that does
not require one (features, masks, labels); weights are always trainable.

Adam packs its parameters into one contiguous float64 vector: each
parameter's ``values`` becomes a view of that vector, and a step is a few
in-place ufuncs over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphError, TrainingDivergedError

NORM_EPS = 1e-12


class Tensor:
    """Node in a reverse-mode computation graph over float64 numpy arrays.

    Leaves created with ``requires_grad=True`` are trainable parameters;
    everything else is a recorded intermediate or a constant.
    """

    __slots__ = ("values", "requires_grad", "grad", "_parents", "_backward")

    def __init__(self, values, requires_grad=False, _parents=(), _backward=None):
        self.values = np.asarray(values, dtype=np.float64)
        self.requires_grad = bool(requires_grad) or any(
            p.requires_grad for p in _parents
        )
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.values.shape

    def item(self) -> float:
        if self.values.size != 1:
            raise GraphError(f"item() on tensor of shape {self.values.shape}")
        return float(self.values.reshape(()))

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce an output gradient back to a parent's shape.

    Only the broadcasts the forward ops allow can occur here: scalar against
    anything, or a length-d vector against the rows of a (B, d) matrix.
    """
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    if g.ndim == 2 and shape == (g.shape[1],):
        return g.sum(axis=0)
    raise GraphError(f"cannot reduce gradient of shape {g.shape} to {shape}")


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values + b.values

    def backward(g):
        return (_unbroadcast(g, a.values.shape), _unbroadcast(g, b.values.shape))

    return Tensor(out, _parents=(a, b), _backward=backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.values * b.values

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(g * b.values, a.values.shape)
        if b.requires_grad:
            gb = _unbroadcast(g * a.values, b.values.shape)
        return (ga, gb)

    return Tensor(out, _parents=(a, b), _backward=backward)


def l2_rows(v: np.ndarray):
    """Each row of a 2-D array divided by max(||row||, 1e-12).

    Returns the rows, their norms and the guarded divisors, which
    ``l2_rows_backward`` takes.
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


def l2_normalize(x) -> Tensor:
    """Guarded row L2 normalization of a 2-D tensor (see ``l2_rows``).

    The guard makes the map total: a (near-)zero row normalizes to itself
    scaled by 1/eps, with the norm treated as a constant in the backward pass.
    """
    x = as_tensor(x)
    if x.values.ndim != 2:
        raise GraphError("l2_normalize() expects a 2-D tensor")
    y, n, d = l2_rows(x.values)
    return Tensor(y, _parents=(x,),
                  _backward=lambda g: (l2_rows_backward(y, n, d, g),))


def grad(loss: Tensor, params) -> dict:
    """Reverse-mode gradients of a scalar loss with respect to each parameter.

    Returns a map keyed by parameter tensor (identity).  Parameters that do
    not appear in the loss graph get a zero gradient.  Each parameter's
    ``.grad`` field is also set.
    """
    if not isinstance(loss, Tensor) or loss.values.size != 1:
        raise GraphError("loss must be a scalar tensor")
    params = list(params)

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.values)}
    for node in reversed(topo):
        g = grads.get(id(node))
        if g is None or node._backward is None:
            continue
        for p, pg in zip(node._parents, node._backward(g)):
            if pg is None or not p.requires_grad:
                continue
            pg = np.asarray(pg, dtype=np.float64).reshape(p.values.shape)
            if id(p) in grads:
                grads[id(p)] = grads[id(p)] + pg
            else:
                grads[id(p)] = pg

    out = {}
    for p in params:
        g = grads.get(id(p))
        if g is None:
            g = np.zeros_like(p.values)
        p.grad = g
        out[p] = g
    return out


class Adam:
    """Adam with bias correction over a named parameter dict.

    The parameters are packed, in dict order, into the contiguous vector
    ``flat``; each parameter's ``values`` is rebound to a view of it, so a
    copy of ``flat`` is a snapshot of every parameter and assigning into it
    restores them.
    """

    def __init__(self, params: dict, lr=0.005, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = float(lr)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.flat = np.empty(sum(p.values.size for p in params.values()))
        self._slices = {}
        start = 0
        for k, p in params.items():
            stop = start + p.values.size
            view = self.flat[start:stop].reshape(p.values.shape)
            view[...] = p.values
            p.values = view
            self._slices[k] = slice(start, stop)
            start = stop
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._g = np.empty_like(self.flat)
        self._num = np.empty_like(self.flat)
        self._den = np.empty_like(self.flat)

    def step(self, grads: dict):
        """Apply one update.  ``grads`` maps parameter name to gradient array."""
        for k, p in self.params.items():
            g = np.asarray(grads[k], dtype=np.float64)
            if g.shape != p.values.shape:
                raise GraphError(
                    f"gradient shape {g.shape} does not match parameter "
                    f"{k!r} of shape {p.values.shape}"
                )
            self._g[self._slices[k]] = g.reshape(-1)
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        g, m, v, num, den = self._g, self.m, self.v, self._num, self._den
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
    reductions have been spent and patience runs out again."""

    lr: float
    factor: float = 5.0
    patience: int = 10
    max_reductions: int = 5
    best: float = field(default=math.inf)
    since_improvement: int = 0
    reductions: int = 0

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
