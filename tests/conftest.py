"""Shared fixtures, oracles and hand-built datasets for the test suite."""

from dataclasses import dataclass

import numpy as np
import pytest

from disembed.data import Dataset
from disembed.errors import DatasetError
from disembed.labelspace import LabelSpace


@dataclass(frozen=True)
class Item:
    """One row of a hand-built dataset; see ``from_items``."""

    id: str
    track_id: str
    features: np.ndarray
    labels: np.ndarray  # multi-hot over the label space


def from_items(items, space: LabelSpace) -> Dataset:
    """Stack ``Item`` records into a dataset."""
    items = list(items)
    if not items:
        return Dataset(space, [], [], np.zeros((0, 0)), np.zeros((0, space.num_tags)))
    widths = {len(i.features) for i in items}
    if len(widths) != 1:
        raise DatasetError(f"inconsistent feature widths: {sorted(widths)}")
    for i in items:
        if len(i.labels) != space.num_tags:
            raise DatasetError(
                f"item {i.id!r}: label vector length {len(i.labels)} "
                f"!= tag count {space.num_tags}"
            )
    return Dataset(
        space,
        [i.id for i in items],
        [i.track_id for i in items],
        np.stack([i.features for i in items]),
        np.stack([i.labels for i in items]),
    )


def n_hidden(net) -> int:
    """The number of hidden layers of an ``EmbeddingNet``: one ``W{i}`` each."""
    return sum(name.startswith("W") for name in net.params)


def mask(space: LabelSpace, notion: str) -> np.ndarray:
    """Read-only length-d 0/1 selector of ``notion``'s block."""
    return space.notion_block_mask[space.notion_index(notion)]


@pytest.fixture
def small_space():
    """Two notions, four tags, 8-d embedding: the smallest useful layout."""
    return LabelSpace(
        [("color", ["red", "blue"]), ("shape", ["round", "square"])],
        embedding_dim=8,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def finite_difference(f, params, step=1e-5):
    """Central finite differences of a scalar function of named arrays.

    ``f`` takes no arguments and reads the current ``.values`` of the tensors
    in ``params`` (name -> Tensor).  Returns name -> gradient array.
    """
    grads = {}
    for name, p in params.items():
        g = np.zeros_like(p.values)
        flat = p.values.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = f()
            flat[i] = orig - step
            down = f()
            flat[i] = orig
            gflat[i] = (up - down) / (2 * step)
        grads[name] = g
    return grads


def relative_error(a, b, floor=1e-8):
    """Elementwise |a-b| / max(|a|, |b|, floor), reduced to the max."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def triplet_rows(EA, EP, EN):
    """One batch of triplets as ``triplet_batch_loss`` takes its rows: the
    negatives, then the anchors, then the positives."""
    return np.concatenate([EN, EA, EP])


def scatter_triplet_grads(out, batch):
    """The dense (batch, d) gradients of EA, EP and EN of a one-batch step
    from a triplet backward's ``(rows, gE)``: each row of gE placed at its
    index in ``rows``, zeros elsewhere."""
    rows, gE = out
    full = np.zeros((3 * batch, gE.shape[1]))
    full[rows] = gE
    gN, gA, gP = np.split(full, 3)
    return [gA, gP, gN]
