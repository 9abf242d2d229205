"""Shared fixtures and oracles for the test suite."""

import numpy as np
import pytest

from disembed.labelspace import LabelSpace


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
