"""Embedding networks, the per-tag centroid/proxy bank, and score variants.

The backbone is a relu MLP.  The head is either one dense layer of width d
("dense") or one sub-dense layer of width d/G per notion ("subdense"); with
the subdense head the full embedding is the concatenation of the sub-dense
outputs in notion order.  The centroid bank holds one bias-free weight vector
of length d per tag and serves as proxy and classification centroid
interchangeably.

Every score variant is one formula over the full pre-normalization embedding
F, the centroid bank C and a fixed (tags, d) mask M:

    S = sigmoid(N(F) @ (C * M).T)

N is the identity (classification-plain), row L2 normalization (proxy,
classification-normalized) or L2 normalization of each notion block
(proxy-disentangled, classification-disentangled).  M is all ones, or for
the disentangled variants the tag-by-dimension block mask that restricts
each centroid to its own notion's block.

The backbone, the head and the score formula are one graph node each
(``relu_layers``, ``_score_node``), with a hand-written backward.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError, GraphError
from .labelspace import LabelSpace

SCORE_VARIANTS = (
    "proxy",
    "proxy-disentangled",
    "classification-plain",
    "classification-normalized",
    "classification-disentangled",
)


@dataclass
class NetConfig:
    input_dim: int
    embedding_dim: int
    hidden: tuple[int, ...] = (128, 128)
    head: str = "dense"  # "dense" | "subdense"
    normalize_output: bool = False

    def __post_init__(self):
        if self.head not in ("dense", "subdense"):
            raise ConfigurationError(f"unknown head kind: {self.head!r}")
        if self.input_dim <= 0 or self.embedding_dim <= 0:
            raise ConfigurationError("dimensions must be positive")


class EmbeddingNet:
    """MLP backbone plus dense or per-notion sub-dense embedding head."""

    def __init__(self, config: NetConfig, space: LabelSpace):
        if config.embedding_dim != space.embedding_dim:
            raise ConfigurationError(
                "net embedding_dim must match the label space"
            )
        self.config = config
        self.space = space
        self.params: dict[str, Tensor] = {}
        dims = [config.input_dim, *config.hidden]
        for i in range(len(dims) - 1):
            self.params[f"W{i}"] = Tensor(
                np.zeros((dims[i], dims[i + 1])), requires_grad=True
            )
            self.params[f"b{i}"] = Tensor(np.zeros(dims[i + 1]), requires_grad=True)
        width = dims[-1]
        if config.head == "dense":
            self.params["H"] = Tensor(
                np.zeros((width, config.embedding_dim)), requires_grad=True
            )
        else:
            block = space.block_size
            for g in range(space.num_notions):
                self.params[f"H{g}"] = Tensor(
                    np.zeros((width, block)), requires_grad=True
                )

    @property
    def n_hidden(self) -> int:
        return len(self.config.hidden)

    def backbone(self, x) -> Tensor:
        """f_{n-1}: the relu MLP as one graph node."""
        return relu_layers(ad.as_tensor(x), [
            ([self.params[f"W{i}"]], self.params[f"b{i}"])
            for i in range(self.n_hidden)
        ])

    def head_blocks(self, fnm1: Tensor) -> Tensor:
        """Sub-dense relu head outputs side by side, one (B, d) tensor.

        Block g (width d/G, notion order) is relu(fnm1 @ H{g}); all blocks
        come from one matmul against the H{g} joined column-wise.
        """
        if self.config.head == "dense":
            raise ConfigurationError("head_blocks requires the subdense head")
        blocks = [self.params[f"H{g}"] for g in range(self.space.num_notions)]
        return relu_layers(fnm1, [(blocks, None)])

    def full_embedding(self, x) -> Tensor:
        """Pre-normalization full-space embedding of a (B, input_dim) batch.

        The one forward of the package, as a graph tensor: relu(backbone @ H)
        for the dense head, ``head_blocks(backbone(x))`` for the subdense one.
        """
        x = ad.as_tensor(x)
        if x.shape[-1] != self.config.input_dim:
            raise ConfigurationError(
                f"input width {x.shape[-1]} != net input_dim "
                f"{self.config.input_dim}"
            )
        if self.config.head == "subdense":
            return self.head_blocks(self.backbone(x))
        return relu_layers(self.backbone(x), [([self.params["H"]], None)])


def relu_layers(x: Tensor, layers) -> Tensor:
    """relu(... relu(x @ W1 + b1) ... @ Wn + bn) of a 2-D x as one graph node.

    ``layers`` holds, per layer, its weight as a list of column blocks, joined
    for the forward and split back for their gradients, and its bias or None.
    The forward keeps only each layer's output; the relu backward reads
    ``h > 0``, which is ``z > 0``.
    """
    if x.values.ndim != 2:
        raise GraphError("relu_layers() expects a 2-D input")
    hs, weights, parents = [x.values], [], [x]
    for blocks, b in layers:
        W = (blocks[0].values if len(blocks) == 1
             else np.concatenate([w.values for w in blocks], axis=-1))
        z = hs[-1] @ W
        if b is not None:
            z += b.values
        hs.append(np.maximum(z, 0.0, out=z))
        weights.append(W)
        parents += blocks if b is None else [*blocks, b]

    def backward(g):
        grads = []
        for i in reversed(range(len(layers))):
            blocks, b = layers[i]
            g = g * (hs[i + 1] > 0.0)
            gb = [] if b is None else [g.sum(axis=0)]
            gW = [hs[i].T @ g]
            if len(blocks) > 1:
                cuts = np.cumsum([w.values.shape[1] for w in blocks[:-1]])
                gW = np.split(gW[0], cuts, axis=-1)
            grads = [*gW, *gb, *grads]
            g = g @ weights[i].T if i > 0 or x.requires_grad else None
        return (g, *grads)

    return Tensor(hs[-1], _parents=tuple(parents), _backward=backward)


class CentroidBank:
    """One weight vector of length d per tag; no bias terms."""

    def __init__(self, space: LabelSpace):
        self.space = space
        self.weights = Tensor(
            np.zeros((space.num_tags, space.embedding_dim)), requires_grad=True
        )


def init_params(net: EmbeddingNet, bank: CentroidBank | None, seed: int) -> None:
    """Deterministic scaled-uniform init: weights in +-1/sqrt(fan_in)."""
    rng = np.random.default_rng(np.uint64(seed))
    for name in sorted(net.params):
        p = net.params[name]
        if name.startswith("b"):
            p.values = np.zeros_like(p.values)
            continue
        fan_in = p.values.shape[0]
        bound = 1.0 / np.sqrt(fan_in)
        p.values = rng.uniform(-bound, bound, size=p.values.shape)
    if bank is not None:
        fan_in = bank.space.embedding_dim
        bound = 1.0 / np.sqrt(fan_in)
        bank.weights.values = rng.uniform(
            -bound, bound, size=bank.weights.values.shape
        )


def embed(net: EmbeddingNet, x) -> np.ndarray:
    """Forward pass; L2-normalized iff the net was configured to normalize."""
    x = np.asarray(x, dtype=np.float64)
    E = net.full_embedding(np.atleast_2d(x))
    if net.config.normalize_output:
        E = ad.l2_normalize(E)
    return E.values[0] if x.ndim == 1 else E.values


def masked_embed(net: EmbeddingNet, x, notion: str) -> np.ndarray:
    """Pre-normalization embedding Hadamard-multiplied with the notion mask."""
    mask = net.space.mask(notion).vector
    x = np.asarray(x, dtype=np.float64)
    E = net.full_embedding(np.atleast_2d(x)).values * mask
    return E[0] if x.ndim == 1 else E


def score_blocks(
    net: EmbeddingNet, bank: CentroidBank, x, variant: str
) -> list[tuple[np.ndarray, Tensor]]:
    """Graph tensor of per-tag sigmoid scores as one all-tags block.

    Returns ``[(arange(tags), S)]`` with ``S = sigmoid(N(F) @ (C * M).T)``
    (see the module docstring): F is the net's full pre-normalization
    embedding, N the variant's normalization (none, row L2 or per-notion
    block L2) and M all ones or, for the disentangled variants, the tag-by-
    dimension block mask, so each tag is scored in its own notion's block.
    """
    if variant not in SCORE_VARIANTS:
        raise ConfigurationError(f"unknown score variant: {variant!r}")
    space = net.space
    head = "subdense" if variant == "classification-disentangled" else "dense"
    if net.config.head != head:
        raise ConfigurationError(f"{variant} requires the {head} head")

    F = net.full_embedding(np.atleast_2d(x))
    return [(np.arange(space.num_tags), _score_node(F, bank.weights, variant,
                                                    space))]


def _score_node(F: Tensor, C: Tensor, variant: str, space: LabelSpace) -> Tensor:
    """``sigmoid(N(F) @ (C * M).T)`` as one graph node (module docstring).

    Both normalizations are guarded row L2: of F's rows, or of the rows of F
    cut into its notion blocks.
    """
    disentangled = variant.endswith("-disentangled")
    normalized = variant != "classification-plain"
    U, Cm = F.values, C.values
    if normalized:
        width = space.block_size if disentangled else U.shape[1]
        y, n, d = ad.l2_rows(U.reshape(-1, width))
        U = y.reshape(U.shape)
    if disentangled:
        Cm = Cm * space.tag_block_mask
    S = expit(U @ Cm.T)

    def backward(g):
        gz = g * S * (1.0 - S)
        gF = gC = None
        if F.requires_grad:
            gF = gz @ Cm
            if normalized:
                gF = ad.l2_rows_backward(y, n, d, gF.reshape(y.shape))
                gF = gF.reshape(U.shape)
        if C.requires_grad:
            gC = (U.T @ gz).T
            if disentangled:
                gC = gC * space.tag_block_mask
        return (gF, gC)

    return Tensor(S, _parents=(F, C), _backward=backward)


def class_scores(
    net: EmbeddingNet, bank: CentroidBank, x, variant: str
) -> np.ndarray:
    """Per-tag scores in (0, 1) as a (N, tags) array, tags in global order."""
    x = np.asarray(x, dtype=np.float64)
    [(_, S)] = score_blocks(net, bank, x, variant)
    return S.values[0] if x.ndim == 1 else S.values


# ---------------------------------------------------------------------------
# flat binary parameter files: magic, version, named shapes, little-endian
# row-major float64 payload in header order.

_MAGIC = b"DEMB"
_VERSION = 1


def save_params(path, params: dict[str, np.ndarray | Tensor]) -> None:
    names = sorted(params)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, len(names)))
        arrays = []
        for name in names:
            a = params[name]
            a = np.ascontiguousarray(
                a.values if isinstance(a, Tensor) else a, dtype="<f8"
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
