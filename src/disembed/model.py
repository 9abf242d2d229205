"""Embedding networks, the per-tag centroid/proxy bank, and tag scores.

The backbone is a relu MLP and the head one relu layer ``H`` of width d,
whose output is the notion blocks side by side (d/G columns each, notion
order).  Block g of ``relu(f @ H)`` is notion g's own sub-dense relu layer,
``relu(f @ H[:, block g])``, since relu acts entrywise.  d is the label
space's ``embedding_dim``.  The centroid bank is one (tags, d) ``Param``,
named ``C`` next to the net's parameters: one bias-free weight vector per
tag, serving as proxy and classification centroid interchangeably.

Every proxy and classification model scores tags with one formula over the
full pre-normalization embedding F, the centroid bank C and a fixed (tags, d)
mask M, selected by two flags, (normalized, disentangled).  The flags are
the variant's; the net holds none, so ``embed``, ``class_scores`` and
``score_blocks`` take them as arguments:

    S = sigmoid(N(F) @ (C * M).T)

N is the identity when not normalized, row L2 normalization when normalized,
and L2 normalization of each notion block when also disentangled.  M is all
ones, or when disentangled the tag-by-dimension block mask that restricts
each centroid to its own notion's block.  The sigmoid is numpy's
(``sigmoid``), within 4 ULP of ``scipy.special.expit``; the package needs no
scipy at run time.

The relu MLP with the head (``relu_layers``) and the score formula
(``score_blocks``, which takes rows already embedded) each return their
value and a ``backward`` closure with a hand-written gradient.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np

from . import autodiff as ad, streams
from .autodiff import Param
from .errors import ConfigurationError
from .labelspace import LabelSpace

# the centroid bank's parameter name next to the net's W{i}, b{i} and H
BANK_PARAM = "C"
# rows per full_embedding call when a whole split is embedded (forward_rows)
_FORWARD_CHUNK = 256


class EmbeddingNet:
    """MLP backbone of the given hidden widths plus one relu embedding head
    ``H`` of width d, the space's ``embedding_dim``.  The widths are a
    variant's, which ``VariantConfig`` has checked."""

    def __init__(self, space: LabelSpace, input_dim: int, hidden):
        if input_dim <= 0:
            raise ConfigurationError("dimensions must be positive")
        self.space = space
        self.input_dim = input_dim
        self.params: dict[str, Param] = {}
        dims = [input_dim, *hidden]
        for i in range(len(dims) - 1):
            self.params[f"W{i}"] = Param(np.zeros((dims[i], dims[i + 1])))
            self.params[f"b{i}"] = Param(np.zeros(dims[i + 1]))
        self.params["H"] = Param(np.zeros((dims[-1], space.embedding_dim)))

    def _layers(self):
        """The ``(W, b)`` pairs of the MLP then ``(H, None)``, as arrays."""
        P = self.params
        n_hidden = len(P) // 2  # W{i} and b{i} per hidden layer, then H
        return [(P[f"W{i}"].values, P[f"b{i}"].values)
                for i in range(n_hidden)] + [(P["H"].values, None)]

    def backbone(self, x) -> np.ndarray:
        """f_{n-1}: the relu MLP's output for a 2-D x."""
        return relu_layers(np.asarray(x, dtype=np.float64),
                           self._layers()[:-1])[0]

    def head_blocks(self, fnm1) -> np.ndarray:
        """The head, relu(fnm1 @ H): the notion blocks side by side."""
        return relu_layers(np.asarray(fnm1, dtype=np.float64),
                           self._layers()[-1:])[0]

    def full_embedding(self, x):
        """Pre-normalization full-space embedding of a (B, input_dim) batch,
        ``head_blocks(backbone(x))``: the one forward of the package.

        Returns the (B, d) embedding and ``backward(g, rows=None)``, which
        returns one ``(name, gradient)`` pair per parameter, in ``params``
        order; ``rows`` is as in ``relu_layers``.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.input_dim:
            raise ConfigurationError(
                f"input width {x.shape[-1]} != net input_dim {self.input_dim}"
            )
        F, backward = relu_layers(x, self._layers())
        return F, lambda g, rows=None: zip(self.params, backward(g, rows))


def relu_layers(x: np.ndarray, layers):
    """relu(... relu(x @ W1 + b1) ... @ Wn + bn) of a 2-D x.

    ``layers`` holds a ``(W, b)`` pair of arrays per layer, b None for a layer
    without bias.  Returns the output and ``backward(g, rows=None)``, which
    returns the gradients of W1, b1, ..., Wn, bn in that order (x needs
    none).  Row i of ``g`` is the gradient of output row ``rows[i]``; a row
    may come more than once, and each occurrence adds to the gradients.
    ``rows=None`` means every row, in order.  The forward keeps only each
    layer's output; the relu backward reads ``h > 0``, which is ``z > 0``.
    """
    if x.ndim != 2:
        raise ValueError(f"relu_layers() expects a 2-D input, got {x.shape}")
    hs = [x]
    for W, b in layers:
        z = hs[-1] @ W
        if b is not None:
            z += b
        hs.append(np.maximum(z, 0.0, out=z))

    def backward(g, rows=None):
        h = hs if rows is None else [v[rows] for v in hs]
        grads = []
        for i in reversed(range(len(layers))):
            W, b = layers[i]
            g = g * (h[i + 1] > 0.0)
            gb = [] if b is None else [g.sum(axis=0)]
            grads = [h[i].T @ g, *gb, *grads]
            if i > 0:
                g = g @ W.T
        return grads

    return hs[-1], backward


def init_params(net: EmbeddingNet, bank: Param | None, seed: int) -> None:
    """Scaled-uniform init from stream ``init``: weights in +-1/sqrt(fan_in),
    the net's in name order, then the (tags, d) bank's, whose fan-in is d."""
    rng = streams.rng("init", seed)
    for name in sorted(net.params):
        p = net.params[name]
        if name.startswith("b"):
            p.values = np.zeros_like(p.values)
            continue
        fan_in = p.values.shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        p.values = rng.uniform(-bound, bound, size=p.values.shape)
    if bank is not None:
        bound = 1.0 / np.sqrt(net.space.embedding_dim)
        bank.values = rng.uniform(-bound, bound, size=bank.values.shape)


def forward_rows(net: EmbeddingNet, x) -> np.ndarray:
    """``net.full_embedding`` of every row of the 2-D ``x``, called on chunks
    of ``_FORWARD_CHUNK`` rows, so no layer's output for all of ``x`` is held
    at once; the rows equal one call's bit for bit.  No chunk has one row
    unless ``x`` has: numpy computes a 1-row product as a matrix-vector
    product, which rounds differently, so a 1-row tail joins the chunk
    before it.
    """
    x = np.asarray(x, dtype=np.float64)
    starts = list(range(0, len(x), _FORWARD_CHUNK))
    if len(starts) > 1 and len(x) - starts[-1] == 1:
        starts.pop()
    if len(starts) <= 1:
        return net.full_embedding(x)[0]
    F = np.empty((len(x), net.space.embedding_dim))
    for start, stop in zip(starts, [*starts[1:], len(x)]):
        F[start:stop] = net.full_embedding(x[start:stop])[0]
    return F


def embed(net: EmbeddingNet, x, normalized: bool) -> np.ndarray:
    """Forward pass of the 2-D batch ``x``; L2-normalized rows iff
    ``normalized``."""
    E = forward_rows(net, x)
    if normalized:
        E = ad.l2_rows(E)[0]
    return E


def sigmoid(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))``, the formula of ``scipy.special.expit``.

    numpy's SIMD ``exp`` may differ from libm's in the last bits, so this is
    within 4 ULP of ``expit``, not bit-equal.  ``exp`` overflows to inf
    for z < -709.78, where the result is the exact 0.0 ``expit`` gives too.
    The steps run in place in one new array, the same operations in the
    same order, so the bits are those of the one-line formula.
    """
    s = np.negative(z)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def score_blocks(F: np.ndarray, C: np.ndarray, normalized: bool,
                 disentangled: bool, space: LabelSpace):
    """The (N, tags) sigmoid scores ``sigmoid(N(F) @ (C * M).T)`` (module
    docstring) of the items whose pre-normalization embeddings, the rows of
    ``full_embedding``, are the rows of F; tags in global order.

    Both normalizations are guarded row L2: of F's rows, or of the rows of F
    cut into its notion blocks.  Returns S and ``backward(g)``, which returns
    the gradients of F and C.
    """
    U, Cm = F, C
    if normalized:
        width = space.block_size if disentangled else U.shape[1]
        y, n, d = ad.l2_rows(U.reshape(-1, width))
        U = y.reshape(U.shape)
    if disentangled:
        Cm = Cm * space.tag_block_mask
    S = sigmoid(U @ Cm.T)

    def backward(g):
        gz = g * S * (1.0 - S)
        gF = gz @ Cm
        if normalized:
            gF = ad.l2_rows_backward(y, n, d, gF.reshape(y.shape))
            gF = gF.reshape(U.shape)
        gC = (U.T @ gz).T
        if disentangled:
            gC = gC * space.tag_block_mask
        return gF, gC

    return S, backward


def class_scores(net: EmbeddingNet, bank: Param, x, normalized: bool,
                 disentangled: bool) -> np.ndarray:
    """Per-tag scores in (0, 1) of the 2-D batch ``x`` as a (N, tags) array,
    tags in global order."""
    return score_blocks(forward_rows(net, x), bank.values, normalized,
                        disentangled, net.space)[0]


# ---------------------------------------------------------------------------
# flat binary parameter files: magic, version, named shapes, little-endian
# row-major float64 payload in header order.

_MAGIC = b"DEMB"
_VERSION = 1


def save_params(path, params: dict[str, np.ndarray | Param]) -> None:
    names = sorted(params)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(names)))
        arrays = []
        for name in names:
            a = params[name]
            a = np.ascontiguousarray(
                a.values if isinstance(a, Param) else a, dtype="<f8"
            )
            arrays.append(a)
            enc = name.encode("utf-8")
            fh.write(struct.pack("<H", len(enc)))
            fh.write(enc)
            fh.write(struct.pack("<B", a.ndim))
            fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
        for a in arrays:
            fh.write(a.tobytes())


def load_params(path) -> dict[str, np.ndarray]:
    """Read a parameter file; any malformed, truncated or padded file, or a
    non-finite value, raises ConfigurationError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def read(n: int, what: str) -> bytes:
            if n > size - fh.tell():
                raise ConfigurationError(f"{path}: truncated {what}")
            return fh.read(n)

        def unpack(fmt: str, what: str) -> tuple:
            return struct.unpack(fmt, read(struct.calcsize(fmt), what))

        if fh.read(4) != _MAGIC:
            raise ConfigurationError(f"{path}: not a parameter file")
        version, count = unpack("<II", "header")
        if version != _VERSION:
            raise ConfigurationError(f"{path}: unsupported version {version}")
        shapes = []
        for _ in range(count):
            (nlen,) = unpack("<H", "header")
            try:
                name = read(nlen, "header").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigurationError(f"{path}: bad parameter name") from exc
            (ndim,) = unpack("<B", "header")
            shapes.append((name, unpack(f"<{ndim}I", "header")))
        out = {}
        for name, shape in shapes:
            buf = read(8 * math.prod(shape), f"payload for {name!r}")
            values = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
            if not np.isfinite(values).all():
                raise ConfigurationError(f"{path}: non-finite values in {name!r}")
            out[name] = values
        if fh.tell() != size:
            raise ConfigurationError(f"{path}: trailing bytes after the payload")
        return out
