"""Loss functions: hand-computed values, invariances, and gradient checks."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.special import expit

from disembed import autodiff as ad
from disembed.autodiff import Param
from disembed.losses import bce_sum, triplet_batch_loss

from conftest import (
    finite_difference,
    relative_error,
    scatter_triplet_grads,
    triplet_rows,
)


def rows(a, p, n):
    """One triplet of vectors as a step of one one-triplet batch: its
    negative, anchor and positive rows."""
    return triplet_rows(*(np.atleast_2d(v) for v in (a, p, n)))


def value(out) -> float:
    """The loss of a ``(loss, backward)`` pair."""
    return float(out[0])


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
    got = [value(triplet_batch_loss(rows(a, a, b), 1.0)) for a, b in zip(A, B)]
    assert got == pytest.approx(expected, abs=1e-12)


def test_triplet_loss_worst_case():
    # cos(a,n)=1, cos(a,p)=-1, margin 0.1 -> 1 - (-1) + 0.1 = 2.1
    E = rows([1.0, 0.0], [-1.0, 0.0], [2.0, 0.0])
    assert value(triplet_batch_loss(E, 0.1)) == pytest.approx(2.1)


def test_triplet_loss_satisfied_is_zero():
    E = rows([1.0, 0.0], [1.0, 0.1], [0.0, 1.0])
    assert value(triplet_batch_loss(E, 0.1)) == 0.0


def test_triplet_loss_orthogonal_case():
    # cos(a,p)=0, cos(a,n)=1 -> 1 - 0 + 0.1 = 1.1
    E = rows([1.0, 0.0], [0.0, 1.0], [1.0, 0.0])
    assert value(triplet_batch_loss(E, 0.1)) == pytest.approx(1.1)


def test_triplet_loss_rejects_negative_margin():
    v = [1.0, 0.0]
    with pytest.raises(ValueError):
        triplet_batch_loss(rows(v, v, v), -0.1)


def test_masked_triplet_uses_only_masked_coordinates():
    mask = np.array([[1.0, 1.0, 0.0, 0.0]])
    E = rows([1.0, 0.0, 9.0, 9.0], [0.0, 1.0, -9.0, 3.0],
             [1.0, 0.0, 0.0, -7.0])
    # within the mask this is the orthogonal 1.1 case above
    assert value(triplet_batch_loss(E, 0.1, mask)) == pytest.approx(1.1)


@pytest.mark.parametrize("shapes", [
    ((8, 3), None, (1.0,)),           # not three rows per triplet
    ((9, 3), None, (1.0, 0.7)),       # two batches of unequal size
    ((3,), None, (1.0,)),             # one sample must be a (1, d) row
    ((0, 3), None, (1.0,)),           # an empty batch
    ((6, 3), (3,), (1.0,)),           # one mask for the whole batch
    ((6, 3), (1, 3), (1.0,)),
    ((6, 3), (2, 4), (1.0,)),
    ((12, 3), (4, 3), (1.0, 0.7)),    # a mask per row of both batches
    ((6, 3), None, ()),               # no batch
    ((6, 3), None, ((1.0,),)),        # weights must be one per batch
], ids=["rows-not-triplets", "unequal-batches", "1-d", "empty", "1-d-mask",
        "mask-row", "mask-width", "mask-both-batches", "no-weights",
        "2-d-weights"])
def test_triplet_loss_rejects_bad_shapes(shapes):
    rows_shape, mask_shape, weights = shapes
    masks = None if mask_shape is None else np.ones(mask_shape)
    with pytest.raises(ValueError):
        triplet_batch_loss(np.ones(rows_shape), 0.1, masks, weights)


def test_bce_uniform_scores_give_t_ln2():
    T = 6
    y = np.zeros(T)
    y[::2] = 1.0
    scores = np.full(T, 0.5)
    assert value(bce_sum(scores, y)) == pytest.approx(T * math.log(2.0), abs=1e-12)


def test_bce_perfect_scores_near_zero():
    y = np.array([1.0, 0.0, 1.0])
    s = np.array([1.0 - 1e-9, 1e-9, 1.0 - 1e-9])
    assert value(bce_sum(s, y)) < 1e-8


def test_bce_clamps_exact_zero_one():
    y = np.array([1.0, 0.0])
    s = np.array([0.0, 1.0])  # maximally wrong, clamped to the floor
    val = value(bce_sum(s, y))
    assert math.isfinite(val)
    # -2 log(1e-12) up to float cancellation in 1 - (1 - 1e-12)
    assert val == pytest.approx(-2 * math.log(1e-12), rel=1e-5)


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_sum(np.zeros(3), np.zeros(4))


def test_bce_matrix_input_sums_everything():
    y = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = np.full((2, 2), 0.5)
    assert value(bce_sum(s, y)) == pytest.approx(4 * math.log(2.0))


# --- invariances -----------------------------------------------------------


def test_proxy_loss_invariant_to_embedding_scale(rng):
    # the score normalizes f, so rescaling f must not move the loss ...
    f = rng.normal(size=(1, 5))
    p = rng.normal(size=(1, 5))
    y = np.array([[1.0]])

    def loss_for(femb, proxy):
        u = ad.l2_rows(femb)[0]
        return value(bce_sum(expit(u @ proxy.T), y))  # bce over a single tag

    assert abs(loss_for(f, p) - loss_for(3.7 * f, p)) < 1e-9
    # ... while rescaling the (deliberately unnormalized) proxy does move it
    assert abs(loss_for(f, p) - loss_for(f, 3.7 * p)) > 1e-6


def test_triplet_loss_scale_invariant(rng):
    a, p, n = (rng.normal(size=4) for _ in range(3))
    l1 = value(triplet_batch_loss(rows(a, p, n), 0.1))
    l2 = value(triplet_batch_loss(rows(5 * a, 0.5 * p, 9 * n), 0.1))
    assert l1 == pytest.approx(l2, abs=1e-12)


# --- batch losses ----------------------------------------------------------


def test_batch_loss_matches_scalar_mean(rng):
    B, d = 6, 5
    EA, EP, EN = (rng.normal(size=(B, d)) for _ in range(3))
    batch = value(triplet_batch_loss(triplet_rows(EA, EP, EN), 0.1))
    scalar = np.mean([ref_triplet(EA[i], EP[i], EN[i], 0.1) for i in range(B)])
    assert batch == pytest.approx(scalar, abs=1e-12)


def test_batch_loss_tolerates_dead_rows(rng):
    EA = np.zeros((2, 4))
    EP, EN = rng.normal(size=(2, 4)), rng.normal(size=(2, 4))
    # guarded normalization: zero rows give zero cosines, loss = margin
    val = value(triplet_batch_loss(triplet_rows(EA, EP, EN), 0.1))
    assert val == pytest.approx(0.1)


def test_zero_anchor_row_takes_the_normalization_guard(rng):
    # the zero anchor row scores the margin and gets the guarded gradient
    # g / eps; every other row matches finite differences
    EA, EP, EN = (rng.normal(size=(3, 4)) for _ in range(3))
    EA[0] = 0.0
    params = {k: Param(E) for k, E in zip("apn", (EA, EP, EN))}

    def build():
        return triplet_batch_loss(
            triplet_rows(*(p.values for p in params.values())), 2.5)

    ga, gp, gn = scatter_triplet_grads(build()[1](), 3)
    numeric = finite_difference(lambda: value(build()), params, step=1e-6)
    assert relative_error(ga[1:], numeric["a"][1:]) < 1e-5
    assert relative_error(gp, numeric["p"]) < 1e-5
    assert relative_error(gn, numeric["n"]) < 1e-5
    assert not gp[0].any() and not gn[0].any()
    un, up = (E[0] / np.linalg.norm(E[0]) for E in (EN, EP))
    guarded = (un - up) / 3 / ad.NORM_EPS
    assert np.abs(ga[0] - guarded).max() <= 1e-15 * np.abs(guarded).max()


def dense_triplet_backward(EA, EP, EN, margin, masks, g):
    """Every row's hinge argument z and the gradients of g times the batch
    loss with respect to EA, EP and EN, inactive rows included: the dense
    reference for the active-row backward."""
    M = 1.0 if masks is None else masks
    (uA, nA, dA), (uP, nP, dP), (uN, nN, dN) = (
        ad.l2_rows(E * M) for E in (EA, EP, EN))
    z = (uA * uN).sum(axis=1) - (uA * uP).sum(axis=1) + margin
    gz = (g / len(z) * (z > 0.0))[:, None]
    gA = (ad.l2_rows_backward(uA, nA, dA, gz * uN)
          + ad.l2_rows_backward(uA, nA, dA, -gz * uP))
    gP = ad.l2_rows_backward(uP, nP, dP, -gz * uA)
    gN = ad.l2_rows_backward(uN, nN, dN, gz * uA)
    return z, (gA * M, gP * M, gN * M)


@settings(max_examples=80, deadline=None)
@given(kinds=st.lists(st.sampled_from(["plain", "tie", "zero"]),
                      min_size=1, max_size=6),
       margin=st.sampled_from([0.0, 0.1, 2.5]), masked=st.booleans(),
       seed=st.integers(0, 2**16))
@example(kinds=["tie", "tie", "tie"], margin=0.0, masked=False, seed=0)
@example(kinds=["zero", "tie", "plain"], margin=0.0, masked=True, seed=1)
def test_backward_returns_exactly_the_active_rows(kinds, margin, masked, seed):
    # "tie" rows have EN == EP, so z == margin exactly, and with margin 0 they
    # are inactive; "zero" anchors take the normalization guard (masks may
    # zero more rows).  The active rows are the z > 0 rows, each with its
    # dense reference row bit for bit; every other dense row is zero
    rng = np.random.default_rng(seed)
    B, d = len(kinds), 4
    EA, EP, EN = (rng.normal(size=(B, d)) for _ in range(3))
    for i, kind in enumerate(kinds):
        if kind == "tie":
            EN[i] = EP[i]
        elif kind == "zero":
            EA[i] = 0.0
    masks = (rng.random((B, d)) < 0.5).astype(float) if masked else None
    loss, backward = triplet_batch_loss(triplet_rows(EA, EP, EN), margin, masks,
                                        (0.7,))
    rows, gE = backward()
    z, (gA, gP, gN) = dense_triplet_backward(EA, EP, EN, margin, masks, 0.7)
    active = np.flatnonzero(z > 0.0)
    assert np.array_equal(rows, np.concatenate([active, B + active,
                                                2 * B + active]))
    if margin == 0.0:
        assert not {i for i, k in enumerate(kinds) if k == "tie"} & set(active)
    if margin > 0.0:
        assert {i for i, k in enumerate(kinds) if k == "zero"} <= set(active)
    dense = np.concatenate([gN, gA, gP])
    assert gE.shape == (rows.size, d)
    assert np.array_equal(gE, dense[rows])
    assert not np.delete(dense, rows, axis=0).any()
    assert loss == 0.7 * np.maximum(z, 0.0).mean()


def per_role_step(E, margin, masks, weights):
    """The reference for a step's loss: each batch on its own, with three
    ``l2_rows`` calls (a, p and n) and four ``l2_rows_backward`` calls, the
    loss summed batch by batch.  Returns the loss and the ``(rows, gE)`` of
    the active triplets, batch by batch and N, A, P within a batch."""
    k = len(weights)
    B = len(E) // (3 * k)
    loss, rows, grads = 0.0, [], []
    for j, weight in enumerate(weights):
        start = 3 * B * j
        EN, EA, EP = np.split(E[start:start + 3 * B], 3)
        M = masks if j == 0 and masks is not None else 1.0
        normed = [ad.l2_rows(X * M) for X in (EA, EP, EN)]
        (uA, _, _), (uP, _, _), (uN, _, _) = normed
        z = (uA * uN).sum(axis=1) - (uA * uP).sum(axis=1) + margin
        loss += weight * np.maximum(z, 0.0).mean()
        active = np.flatnonzero(z > 0.0)
        (a, nA, dA), (p, nP, dP), (n, nN, dN) = (
            [v[active] for v in triple] for triple in normed)
        gz = np.full((active.size, 1), weight / B)
        gA = (ad.l2_rows_backward(a, nA, dA, gz * n)
              + ad.l2_rows_backward(a, nA, dA, -gz * p))
        gP = ad.l2_rows_backward(p, nP, dP, -gz * a)
        gN = ad.l2_rows_backward(n, nN, dN, gz * a)
        rows += [start + active, start + B + active, start + 2 * B + active]
        grads += [gN, gA, gP]
    return loss, np.concatenate(rows), np.concatenate(grads)


def _tie(E):
    """A batch's rows with every negative equal to its positive."""
    EN, EA, EP = np.split(E, 3)
    return np.concatenate([EP, EA, EP])


@pytest.mark.parametrize("case", [
    "zero-row", "masked-and-track", "inactive-batch", "all-inactive",
    "all-active",
])
def test_step_loss_equals_per_role_reference(case):
    # one normalization and one normalization backward over every row of the
    # step give the per-batch, per-role arithmetic bit for bit
    rng = np.random.default_rng(len(case))
    B, d = 5, 6
    weights, masks, margin = (1.0,), None, 0.1
    E = rng.normal(size=(3 * B, d))
    if case == "zero-row":
        E[B + 1] = 0.0                       # an anchor takes the guard
    elif case == "masked-and-track":
        weights = (1.0, 0.7)
        E = rng.normal(size=(6 * B, d))
        masks = (rng.random((B, d)) < 0.5).astype(float)
        E[2 * B] = 0.0                       # a positive takes the guard
    elif case == "inactive-batch":
        # the tag batch has active triplets; the track batch, every negative
        # equal to its positive with margin 0, has none
        weights, margin = (1.0, 0.3), 0.0
        E = np.concatenate([E, _tie(rng.normal(size=(3 * B, d)))])
    elif case == "all-inactive":
        margin = 0.0
        E = _tie(E)
    else:
        margin = 2.5                         # every hinge argument is > 0.5
    loss, backward = triplet_batch_loss(E, margin, masks, weights)
    rows, gE = backward()
    ref_loss, ref_rows, ref_gE = per_role_step(E, margin, masks, weights)
    assert loss == ref_loss
    assert np.array_equal(rows, ref_rows)
    assert gE.tobytes() == ref_gE.tobytes()
    if case == "all-inactive":
        assert loss == 0.0 and rows.size == 0 and gE.shape == (0, d)
    if case == "inactive-batch":
        assert 0 < rows.size and rows.max() < 3 * B
    if case == "all-active":
        assert np.array_equal(rows, np.arange(3 * B))


def test_track_regularized_combines_means(rng):
    # the trainer's track-regularized loss, one call over both batches:
    # masked tag-triplet mean plus lam times the unmasked track-triplet mean,
    # against per-triplet references
    d = 4
    masks = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
                      [1.0, 1.0, 0.0, 0.0]])
    tag = [rng.normal(size=(3, d)) for _ in range(3)]
    track = [rng.normal(size=(3, d)) for _ in range(3)]
    lam = 0.7
    step = np.concatenate([triplet_rows(*tag), triplet_rows(*track)])
    total = value(triplet_batch_loss(step, 0.1, masks, (1.0, lam)))
    tag_mean = np.mean([ref_triplet(*(E[i] for E in tag), 0.1, masks[i])
                        for i in range(3)])
    track_mean = np.mean([ref_triplet(*(E[i] for E in track), 0.1)
                          for i in range(3)])
    assert total == pytest.approx(tag_mean + lam * track_mean, abs=1e-12)


# --- gradients -------------------------------------------------------------


def _safe_triplet(rng, d=5, margin=0.3):
    """Random one-row triplet kept away from the hinge kink for finite
    differences."""
    while True:
        a, p, n = (rng.normal(size=(1, d)) for _ in range(3))
        if ref_triplet(a[0], p[0], n[0], margin) > 1e-2:
            return {"a": Param(a), "p": Param(p), "n": Param(n)}


@pytest.mark.parametrize("seed", range(4))
def test_triplet_gradient_matches_fd(seed):
    rng = np.random.default_rng(seed)
    params = _safe_triplet(rng)

    def build():
        return triplet_batch_loss(
            triplet_rows(*(p.values for p in params.values())), 0.3)

    analytic = scatter_triplet_grads(build()[1](), 1)
    numeric = finite_difference(lambda: value(build()), params, step=1e-6)
    for name, g in zip(params, analytic, strict=True):
        assert relative_error(g, numeric[name]) < 1e-5


@pytest.mark.parametrize("seed", range(4))
def test_bce_gradient_matches_fd(seed):
    rng = np.random.default_rng(seed + 100)
    s = Param(expit(rng.normal(size=6)))
    y = (rng.random(6) > 0.5).astype(float)

    def build():
        return bce_sum(s.values, y)

    analytic = build()[1](1.0)
    numeric = finite_difference(lambda: value(build()), {"s": s}, step=1e-6)
    assert relative_error(analytic, numeric["s"]) < 1e-5
