"""Loss functions: hand-computed values, invariances, and gradient checks."""

import math

import numpy as np
import pytest
from scipy.special import expit

from disembed import autodiff as ad
from disembed.autodiff import Tensor, grad
from disembed.losses import bce_sum, triplet_batch_loss

from conftest import finite_difference, relative_error


def rows(*vectors):
    """One (1, d) tensor per vector: a single sample as a batch of one row."""
    return tuple(Tensor(np.atleast_2d(v)) for v in vectors)


def ref_cos(a, b):
    """Cosine of two 1-D vectors with the 1e-12 norm guard."""
    na = max(np.linalg.norm(a), ad.NORM_EPS)
    nb = max(np.linalg.norm(b), ad.NORM_EPS)
    return float(np.dot(a, b) / (na * nb))


def ref_triplet(a, p, n, margin, mask=None):
    """Per-triplet hinge max(0, cos(a, n) - cos(a, p) + margin) in numpy."""
    if mask is not None:
        a, p, n = a * mask, p * mask, n * mask
    return max(0.0, ref_cos(a, n) - ref_cos(a, p) + margin)


# --- hand values -----------------------------------------------------------


def test_cosine_hand_values():
    # with p = a and margin 1 the hinge is cos(a, n) - cos(a, a) + 1 = cos(a, n)
    A = [[1.0, 0.0], [3.0, 4.0], [1.0, 1.0]]
    B = [[0.0, 1.0], [6.0, 8.0], [1.0, 0.0]]
    expected = [0.0, 1.0, 1 / math.sqrt(2)]
    got = [triplet_batch_loss(*rows(a, a, b), 1.0).item() for a, b in zip(A, B)]
    assert got == pytest.approx(expected, abs=1e-12)


def test_triplet_loss_worst_case():
    # cos(a,n)=1, cos(a,p)=-1, margin 0.1 -> 1 - (-1) + 0.1 = 2.1
    a, p, n = rows([1.0, 0.0], [-1.0, 0.0], [2.0, 0.0])
    assert triplet_batch_loss(a, p, n, 0.1).item() == pytest.approx(2.1)


def test_triplet_loss_satisfied_is_zero():
    a, p, n = rows([1.0, 0.0], [1.0, 0.1], [0.0, 1.0])
    assert triplet_batch_loss(a, p, n, 0.1).item() == 0.0


def test_triplet_loss_orthogonal_case():
    # cos(a,p)=0, cos(a,n)=1 -> 1 - 0 + 0.1 = 1.1
    a, p, n = rows([1.0, 0.0], [0.0, 1.0], [1.0, 0.0])
    assert triplet_batch_loss(a, p, n, 0.1).item() == pytest.approx(1.1)


def test_triplet_loss_rejects_negative_margin():
    (v,) = rows([1.0, 0.0])
    with pytest.raises(ValueError):
        triplet_batch_loss(v, v, v, -0.1)


def test_masked_triplet_uses_only_masked_coordinates():
    mask = np.array([[1.0, 1.0, 0.0, 0.0]])
    a, p, n = rows([1.0, 0.0, 9.0, 9.0], [0.0, 1.0, -9.0, 3.0],
                   [1.0, 0.0, 0.0, -7.0])
    # within the mask this is the orthogonal 1.1 case above
    assert triplet_batch_loss(a, p, n, 0.1, mask).item() == pytest.approx(1.1)


@pytest.mark.parametrize("shapes", [
    ((4, 3), (1, 3), (4, 3), None),   # a positive row broadcast over anchors
    ((4, 3), (4, 3), (4, 2), None),
    ((3,), (3,), (3,), None),         # one sample must be a (1, d) row
    ((0, 3), (0, 3), (0, 3), None),   # an empty batch
    ((2, 3), (2, 3), (2, 3), (3,)),   # one mask for the whole batch
    ((2, 3), (2, 3), (2, 3), (1, 3)),
    ((2, 3), (2, 3), (2, 3), (2, 4)),
], ids=["positive-broadcast", "width", "1-d", "empty", "1-d-mask", "mask-row",
        "mask-width"])
def test_triplet_loss_rejects_bad_shapes(shapes):
    *rows_shapes, mask_shape = shapes
    EA, EP, EN = (Tensor(np.ones(sh), requires_grad=True) for sh in rows_shapes)
    masks = None if mask_shape is None else np.ones(mask_shape)
    with pytest.raises(ValueError):
        triplet_batch_loss(EA, EP, EN, 0.1, masks)


def test_bce_uniform_scores_give_t_ln2():
    T = 6
    y = np.zeros(T)
    y[::2] = 1.0
    scores = Tensor(np.full(T, 0.5))
    assert bce_sum(scores, y).item() == pytest.approx(T * math.log(2.0), abs=1e-12)


def test_bce_perfect_scores_near_zero():
    y = np.array([1.0, 0.0, 1.0])
    s = Tensor(np.array([1.0 - 1e-9, 1e-9, 1.0 - 1e-9]))
    assert bce_sum(s, y).item() < 1e-8


def test_bce_clamps_exact_zero_one():
    y = np.array([1.0, 0.0])
    s = Tensor(np.array([0.0, 1.0]))  # maximally wrong, clamped to the floor
    val = bce_sum(s, y).item()
    assert math.isfinite(val)
    # -2 log(1e-12) up to float cancellation in 1 - (1 - 1e-12)
    assert val == pytest.approx(-2 * math.log(1e-12), rel=1e-5)


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_sum(Tensor(np.zeros(3)), np.zeros(4))


def test_bce_matrix_input_sums_everything():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = Tensor(np.full((2, 2), 0.5))
    assert bce_sum(s, y).item() == pytest.approx(4 * math.log(2.0))


# --- invariances -----------------------------------------------------------


def test_proxy_loss_invariant_to_embedding_scale(rng):
    # the score normalizes f, so rescaling f must not move the loss ...
    f = rng.normal(size=(1, 5))
    p = rng.normal(size=(1, 5))
    y = np.array([[1.0]])

    def loss_for(femb, proxy):
        u = ad.l2_normalize(Tensor(femb)).values
        return bce_sum(expit(u @ proxy.T), y).item()  # bce over a single tag

    assert abs(loss_for(f, p) - loss_for(3.7 * f, p)) < 1e-9
    # ... while rescaling the (deliberately unnormalized) proxy does move it
    assert abs(loss_for(f, p) - loss_for(f, 3.7 * p)) > 1e-6


def test_triplet_loss_scale_invariant(rng):
    a, p, n = (rng.normal(size=4) for _ in range(3))
    l1 = triplet_batch_loss(*rows(a, p, n), 0.1).item()
    l2 = triplet_batch_loss(*rows(5 * a, 0.5 * p, 9 * n), 0.1).item()
    assert l1 == pytest.approx(l2, abs=1e-12)


# --- batch losses ----------------------------------------------------------


def test_batch_loss_matches_scalar_mean(rng):
    B, d = 6, 5
    EA, EP, EN = (rng.normal(size=(B, d)) for _ in range(3))
    batch = triplet_batch_loss(Tensor(EA), Tensor(EP), Tensor(EN), 0.1).item()
    scalar = np.mean([ref_triplet(EA[i], EP[i], EN[i], 0.1) for i in range(B)])
    assert batch == pytest.approx(scalar, abs=1e-12)


def test_batch_loss_tolerates_dead_rows(rng):
    EA = np.zeros((2, 4))
    EP, EN = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
    # guarded normalization: zero rows give zero cosines, loss = margin
    val = triplet_batch_loss(Tensor(EA), Tensor(EP), Tensor(EN), 0.1).item()
    assert val == pytest.approx(0.1)


def test_zero_anchor_row_takes_the_normalization_guard(rng):
    # the zero anchor row scores the margin and gets the guarded gradient
    # g / eps; every other row matches finite differences
    EA, EP, EN = (rng.normal(size=(3, 4)) for _ in range(3))
    EA[0] = 0.0
    ta, tp, tn = (Tensor(E, requires_grad=True) for E in (EA, EP, EN))
    params = {"a": ta, "p": tp, "n": tn}

    def build():
        return triplet_batch_loss(ta, tp, tn, 2.5)

    analytic = grad(build(), params.values())
    numeric = finite_difference(lambda: build().item(), params, step=1e-6)
    assert relative_error(analytic[ta][1:], numeric["a"][1:]) < 1e-5
    for name in ("p", "n"):
        assert relative_error(analytic[params[name]], numeric[name]) < 1e-5
    assert not analytic[tp][0].any() and not analytic[tn][0].any()
    un, up = (E[0] / np.linalg.norm(E[0]) for E in (EN, EP))
    guarded = (un - up) / 3 / ad.NORM_EPS
    assert np.abs(analytic[ta][0] - guarded).max() <= 1e-15 * np.abs(guarded).max()


def test_track_regularized_combines_means(rng):
    # the trainer's track-regularized loss: masked tag-triplet mean plus lam
    # times the unmasked track-triplet mean, against per-triplet references
    d = 4
    masks = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
                      [1.0, 1.0, 0.0, 0.0]])
    tag = [rng.normal(size=(3, d)) for _ in range(3)]
    track = [rng.normal(size=(2, d)) for _ in range(3)]
    lam = 0.7
    total = (triplet_batch_loss(*tag, 0.1, masks)
             + lam * triplet_batch_loss(*track, 0.1)).item()
    tag_mean = np.mean([ref_triplet(*(E[i] for E in tag), 0.1, masks[i])
                        for i in range(3)])
    track_mean = np.mean([ref_triplet(*(E[i] for E in track), 0.1)
                          for i in range(2)])
    assert total == pytest.approx(tag_mean + lam * track_mean, abs=1e-12)


# --- gradients -------------------------------------------------------------


def _safe_triplet(rng, d=5, margin=0.3):
    """Random one-row triplet kept away from the hinge kink for finite
    differences."""
    while True:
        a, p, n = (rng.normal(size=(1, d)) for _ in range(3))
        if ref_triplet(a[0], p[0], n[0], margin) > 1e-2:
            return tuple(Tensor(v, requires_grad=True) for v in (a, p, n))


@pytest.mark.parametrize("seed", range(4))
def test_triplet_gradient_matches_fd(seed):
    rng = np.random.default_rng(seed)
    ta, tp, tn = _safe_triplet(rng)
    params = {"a": ta, "p": tp, "n": tn}

    def build():
        return triplet_batch_loss(ta, tp, tn, 0.3)

    analytic = grad(build(), params.values())
    numeric = finite_difference(lambda: build().item(), params, step=1e-6)
    for name, t in params.items():
        assert relative_error(analytic[t], numeric[name]) < 1e-5


@pytest.mark.parametrize("seed", range(4))
def test_bce_gradient_matches_fd(seed):
    rng = np.random.default_rng(seed + 100)
    s = Tensor(expit(rng.normal(size=6)), requires_grad=True)
    y = (rng.random(6) > 0.5).astype(float)

    def build():
        return bce_sum(s, y)

    analytic = grad(build(), [s])
    numeric = finite_difference(lambda: build().item(), {"s": s}, step=1e-6)
    assert relative_error(analytic[s], numeric["s"]) < 1e-5
