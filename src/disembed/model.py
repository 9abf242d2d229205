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
"""

from __future__ import annotations

import logging
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import ConfigurationError
from .labelspace import LabelSpace

log = logging.getLogger(__name__)

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
        """f_{n-1}: graph forward through the relu MLP."""
        h = ad.as_tensor(x)
        for i in range(self.n_hidden):
            h = ad.relu(ad.matmul(h, self.params[f"W{i}"]) + self.params[f"b{i}"])
        return h

    def head_blocks(self, fnm1: Tensor) -> Tensor:
        """Sub-dense relu head outputs side by side, one (B, d) tensor.

        Block g (width d/G, notion order) is relu(fnm1 @ H{g}); all blocks
        come from one matmul against the H{g} joined column-wise.
        """
        if self.config.head == "dense":
            raise ConfigurationError("head_blocks requires the subdense head")
        H = ad.concat([self.params[f"H{g}"] for g in range(self.space.num_notions)])
        return ad.relu(ad.matmul(fnm1, H))

    def full_embedding(self, x) -> Tensor:
        """Pre-normalization full-space embedding as a graph tensor.

        Only the dense head supports it; the subdense head's embedding is
        ``head_blocks(backbone(x))``.
        """
        if self.config.head != "dense":
            raise ConfigurationError(
                "in-graph full embedding requires the dense head"
            )
        return ad.relu(ad.matmul(self.backbone(x), self.params["H"]))

    # numpy-only forward used by evaluation -------------------------------

    def _np_backbone(self, X: np.ndarray) -> np.ndarray:
        h = np.asarray(X, dtype=np.float64)
        for i in range(self.n_hidden):
            h = np.maximum(
                h @ self.params[f"W{i}"].values + self.params[f"b{i}"].values, 0.0
            )
        return h

    def _np_pre_embedding(self, X: np.ndarray) -> np.ndarray:
        if self.config.head == "dense":
            H = self.params["H"].values
        else:
            H = np.concatenate(
                [self.params[f"H{g}"].values
                 for g in range(self.space.num_notions)],
                axis=1,
            )
        return np.maximum(self._np_backbone(X) @ H, 0.0)


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
    single = x.ndim == 1
    if x.shape[-1] != net.config.input_dim:
        raise ConfigurationError(
            f"input width {x.shape[-1]} != net input_dim {net.config.input_dim}"
        )
    X = x[None, :] if single else x
    E = net._np_pre_embedding(X)
    if net.config.normalize_output:
        norms = np.linalg.norm(E, axis=1, keepdims=True)
        degenerate = norms[:, 0] < ad.NORM_EPS
        if degenerate.any():
            log.warning(
                "%d embedding(s) have (near-)zero norm; guarded normalization "
                "returns them unscaled toward zero",
                int(degenerate.sum()),
            )
        E = E / np.maximum(norms, ad.NORM_EPS)
    return E[0] if single else E


def masked_embed(net: EmbeddingNet, x, notion: str) -> np.ndarray:
    """Pre-normalization embedding Hadamard-multiplied with the notion mask."""
    mask = net.space.mask(notion).vector
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    E = net._np_pre_embedding(X) * mask
    return E[0] if single else E


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
    needs_subdense = variant == "classification-disentangled"
    if needs_subdense and net.config.head != "subdense":
        raise ConfigurationError(f"{variant} requires the subdense head")
    if not needs_subdense and net.config.head != "dense":
        raise ConfigurationError(f"{variant} requires the dense head")

    x = ad.as_tensor(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    if needs_subdense:
        F = net.head_blocks(net.backbone(x))
    else:
        F = net.full_embedding(x)
    C = bank.weights
    if variant.endswith("-disentangled"):
        rows = F.shape[0] * space.num_notions
        blocks = ad.reshape(F, (rows, space.block_size))
        F = ad.reshape(ad.l2_normalize(blocks), F.shape)
        C = ad.mul(C, Tensor(space.tag_block_mask))
    elif variant != "classification-plain":
        F = ad.l2_normalize(F)
    S = ad.sigmoid(ad.matmul(F, C, transpose_b=True))
    return [(np.arange(space.num_tags), S)]


def class_scores(
    net: EmbeddingNet, bank: CentroidBank, x, variant: str
) -> np.ndarray:
    """Per-tag scores in (0, 1) as a (N, tags) array, tags in global order."""
    x = np.asarray(x, dtype=np.float64)
    [(_, S)] = score_blocks(net, bank, np.atleast_2d(x), variant)
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
