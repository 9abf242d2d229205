"""Dense-tensor reverse-mode differentiation, Adam, and a reduce-on-plateau schedule.

The primitive set is deliberately small: matrix multiply, add, elementwise
multiply, relu, sigmoid, natural log, row-wise guarded L2 normalization,
clip, sum, mean, reshape, and concatenation.  Every loss in this package is
composed from these.  Matrix multiply and normalization take 2-D operands
only, one row per sample.  All arithmetic is float64.  Backward passes skip the
gradient of any parent that does not require one (inputs, masks, labels).

Adam packs its parameters into one contiguous float64 vector: each
parameter's ``values`` becomes a view of that vector, and a step is a few
in-place ufuncs over it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import expit

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

    def sum(self, axis=None) -> "Tensor":
        return tsum(self, axis=axis)

    def mean(self) -> "Tensor":
        return tmean(self)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __sub__(self, other):
        return add(self, mul(other, -1.0))

    def __rsub__(self, other):
        return add(mul(self, -1.0), other)

    def __matmul__(self, other):
        return matmul(self, other)

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


def matmul(a, b, transpose_b: bool = False) -> Tensor:
    """Matrix product of two 2-D tensors (no vectors, no batched 3D)."""
    a, b = as_tensor(a), as_tensor(b)
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2:
        raise GraphError("matmul() expects 2-D operands")
    rhs = bv.T if transpose_b else bv
    out = av @ rhs

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = g @ rhs.T
        if b.requires_grad:
            grhs = av.T @ g
            gb = grhs.T if transpose_b else grhs
        return (ga, gb)

    return Tensor(out, _parents=(a, b), _backward=backward)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.values, 0.0)

    def backward(g):
        return (g * (x.values > 0.0),)

    return Tensor(out, _parents=(x,), _backward=backward)


def sigmoid(x) -> Tensor:
    x = as_tensor(x)
    out = expit(x.values)

    def backward(g):
        return (g * out * (1.0 - out),)

    return Tensor(out, _parents=(x,), _backward=backward)


def log(x) -> Tensor:
    x = as_tensor(x)
    out = np.log(x.values)

    def backward(g):
        return (g / x.values,)

    return Tensor(out, _parents=(x,), _backward=backward)


def clip(x, lo: float, hi: float) -> Tensor:
    """Clamp values into [lo, hi]; gradient is zero where the clamp is active."""
    x = as_tensor(x)
    out = np.clip(x.values, lo, hi)

    def backward(g):
        return (g * ((x.values >= lo) & (x.values <= hi)),)

    return Tensor(out, _parents=(x,), _backward=backward)


def tsum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    out = x.values.sum(axis=axis)

    def backward(g):
        if axis is None:
            return (np.ones_like(x.values) * g,)
        return (
            np.repeat(np.expand_dims(g, axis), x.values.shape[axis], axis=axis),
        )

    return Tensor(out, _parents=(x,), _backward=backward)


def tmean(x) -> Tensor:
    x = as_tensor(x)
    out = x.values.mean()
    n = x.values.size

    def backward(g):
        return (np.ones_like(x.values) * (g / n),)

    return Tensor(out, _parents=(x,), _backward=backward)


def reshape(x, shape) -> Tensor:
    """The same values in a new shape (a view; row-major order)."""
    x = as_tensor(x)
    out = x.values.reshape(shape)

    def backward(g):
        return (g.reshape(x.values.shape),)

    return Tensor(out, _parents=(x,), _backward=backward)


def concat(tensors, axis: int = -1) -> Tensor:
    """Join tensors along ``axis``; the backward splits the gradient back."""
    tensors = tuple(as_tensor(t) for t in tensors)
    out = np.concatenate([t.values for t in tensors], axis=axis)
    cuts = np.cumsum([t.values.shape[axis] for t in tensors])[:-1]

    def backward(g):
        return tuple(np.split(g, cuts, axis=axis))

    return Tensor(out, _parents=tensors, _backward=backward)


def l2_normalize(x) -> Tensor:
    """Divide each row of a 2-D tensor by max(||row||, 1e-12).

    The guard makes the map total: a (near-)zero row normalizes to itself
    scaled by 1/eps, with the norm treated as a constant in the backward pass.
    """
    x = as_tensor(x)
    v = x.values
    if v.ndim != 2:
        raise GraphError("l2_normalize() expects a 2-D tensor")
    n = np.linalg.norm(v, axis=1, keepdims=True)
    d = np.maximum(n, NORM_EPS)
    y = v / d

    def backward(g):
        proj = (y * g).sum(axis=1, keepdims=True)
        regular = (g - y * proj) / d
        guarded = g / d
        return (np.where(n < NORM_EPS, guarded, regular),)

    return Tensor(y, _parents=(x,), _backward=backward)


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
