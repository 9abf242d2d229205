"""Layer gradients against finite differences, the flat-gradient
accumulation, the Adam update against hand-computed values, and the plateau
schedule state machine."""

import math

import numpy as np
import pytest

from disembed import autodiff as ad
from disembed.autodiff import Adam, Param, PlateauSchedule, grad, packed
from disembed.errors import TrainingDivergedError
from disembed.losses import bce_sum, triplet_batch_loss
from disembed.model import score_blocks, relu_layers

from conftest import (
    finite_difference,
    relative_error,
    scatter_triplet_grads,
    triplet_rows,
)


def check_gradient(forward, params, w=1.0, tol=1e-6, step=1e-6):
    """Compare ``backward(w)`` of ``forward()`` against central differences
    of ``sum(w * value)``.

    ``forward()`` reads the current ``.values`` of ``params`` (name -> Param)
    and returns ``(value, backward)``; ``backward`` returns one gradient per
    parameter, in ``params`` order.
    """
    analytic = forward()[1](w)
    numeric = finite_difference(lambda: float(np.sum(w * forward()[0])),
                                params, step=step)
    for (name, _), g in zip(params.items(), analytic, strict=True):
        err = relative_error(g, numeric[name])
        assert err < tol, f"{name}: rel err {err}"


def params_of(rng, **shapes):
    return {k: Param(rng.normal(size=sh)) for k, sh in shapes.items()}


# --- the relu MLP -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_matmul_chain_gradient(seed):
    # two bias layers, as in the backbone
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(5, 4))
    P = params_of(rng, W0=(4, 3), b0=3, W1=(3, 2), b1=2)
    w = rng.normal(size=(5, 2))

    def forward():
        return relu_layers(X, [(P["W0"].values, P["b0"].values),
                               (P["W1"].values, P["b1"].values)])

    check_gradient(forward, P, w)


def test_dead_relu_units_get_zero_gradient():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(6, 4))
    P = params_of(rng, W0=(4, 5), b0=5, H=(5, 3))
    P["b0"].values[[1, 3]] = -50.0  # units 1 and 3 are dead on every row
    w = rng.normal(size=(6, 3))

    def forward():
        return relu_layers(X, [(P["W0"].values, P["b0"].values),
                               (P["H"].values, None)])

    check_gradient(forward, P, w)
    gW0, gb0, gH = forward()[1](w)
    assert not gW0[:, [1, 3]].any() and not gb0[[1, 3]].any()
    assert not gH[[1, 3]].any()


@pytest.mark.parametrize("rows", [[4, 0, 4, 2, 4], [], [0, 1, 2, 3, 4, 5]],
                         ids=["repeated", "empty", "every"])
def test_backward_over_rows_is_the_dense_backward_of_the_scattered_gradient(
        rows):
    # row i of the gradient belongs to output row rows[i]; each occurrence
    # of a repeated row adds to the weight gradients
    rng = np.random.default_rng(15)
    X = rng.normal(size=(6, 4))
    layers = [(rng.normal(size=(4, 5)), rng.normal(size=5)),
              (rng.normal(size=(5, 3)), None)]
    backward = relu_layers(X, layers)[1]
    rows = np.array(rows, dtype=np.intp)
    g = rng.normal(size=(rows.size, 3))
    scattered = np.zeros((6, 3))
    np.add.at(scattered, rows, g)
    for got, want in zip(backward(g, rows), backward(scattered), strict=True):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_matmul_rejects_vector_vector():
    # one row per sample: the MLP takes 2-D inputs
    W = np.ones((2, 2))
    with pytest.raises(ValueError):
        relu_layers(np.array([1.0, 2.0]), [(W, None)])
    with pytest.raises(ValueError):
        relu_layers(np.ones((1, 1, 2)), [(W, None)])


# --- the score formula ------------------------------------------------------


def test_matmul_transpose_b_gradient(small_space):
    # the plain classifier's score: sigmoid(F @ C.T), both operands trainable
    rng = np.random.default_rng(7)
    P = params_of(rng, F=(3, 8), C=(4, 8))
    w = rng.normal(size=(3, 4))

    def forward():
        return score_blocks(P["F"].values, P["C"].values, False, False,
                           small_space)

    check_gradient(forward, P, w)


@pytest.mark.parametrize("disentangled", [False, True],
                         ids=["proxy", "proxy-disentangled"])
def test_normalized_score_gradient(small_space, disentangled):
    rng = np.random.default_rng(8)
    P = {"F": Param(rng.normal(size=(3, 8)) + 0.5),
         "C": Param(rng.normal(size=(4, 8)))}
    w = rng.normal(size=(3, 4))

    def forward():
        return score_blocks(P["F"].values, P["C"].values, True, disentangled,
                           small_space)

    check_gradient(forward, P, w)


def test_dead_notion_block_scores_one_half(small_space):
    # a zero notion block takes the normalization guard: its tags score
    # exactly 0.5, and the centroid gradient still matches finite differences
    space = small_space
    rng = np.random.default_rng(8)
    F = rng.normal(size=(3, 8)) + 0.5
    F[:, space.block_slice("shape")] = 0.0
    C = Param(rng.normal(size=(4, 8)))
    w = rng.normal(size=(3, 4))

    def forward():
        S, backward = score_blocks(F, C.values, True, True, space)
        return S, lambda g: backward(g)[1:]  # the gradient of C

    S = forward()[0]
    shape_tags = space.tag_indices_of_notion("shape")
    assert np.array_equal(S[:, shape_tags], np.full((3, 2), 0.5))
    check_gradient(forward, {"C": C}, w)
    gF, _ = score_blocks(F, C.values, True, True, space)[1](w)
    assert np.isfinite(gF).all()


# --- elementwise stages of the layers ---------------------------------------


STAGE_WEIGHTS = np.arange(1.0, 13.0).reshape(3, 4)


def _relu_stage(t):
    # sum(w * relu(I @ t)): the weight gradient is the relu's gradient
    out, backward = relu_layers(np.eye(3), [(t.values, None)])
    return np.sum(STAGE_WEIGHTS * out), lambda g: backward(g * STAGE_WEIGHTS)


def _sigmoid_stage(t):
    S, backward = score_blocks(t.values, np.eye(4), False, False, None)
    return (np.sum(STAGE_WEIGHTS * S),
            lambda g: backward(g * STAGE_WEIGHTS)[:1])


def _log_stage(t):
    loss, backward = bce_sum(t.values * 0.1 + 0.5, np.eye(3, 4))
    return loss, lambda g: [backward(g) * 0.1]


def _clip_stage(t):
    loss, backward = bce_sum(t.values, np.eye(3, 4))
    return loss, lambda g: [backward(g)]


@pytest.mark.parametrize(
    "op", [_relu_stage, _sigmoid_stage, _log_stage, _clip_stage],
    ids=["relu", "sigmoid", "log", "clip"],
)
def test_elementwise_gradients(op):
    rng = np.random.default_rng(9)
    # keep values away from the relu kink and the clip bounds 0 and 1 so
    # finite differences are clean
    x = rng.normal(size=(3, 4))
    x[np.abs(x) < 0.05] += 0.1
    x[np.abs(x - 1.0) < 0.05] += 0.1
    t = Param(x)
    check_gradient(lambda: op(t), {"x": t})


def test_clip_gradient_is_zero_outside_range():
    # scores clamped to the floor (or the ceiling) get exactly zero gradient
    _, backward = bce_sum(np.array([-2.0, 0.3, 2.0, 0.0, 1.0]),
                          np.array([1.0, 1.0, 0.0, 1.0, 0.0]))
    g = backward(1.0)
    assert np.array_equal(g[[0, 2, 3, 4]], np.zeros(4))
    assert g[1] == pytest.approx(-1.0 / 0.3, rel=1e-15)


# --- the triplet hinge ------------------------------------------------------


def test_sum_axis_and_mean_gradients():
    # per-row cosines (sums over axis 1) averaged over the batch, with and
    # without masks, away from the hinge kink
    rng = np.random.default_rng(10)
    P = params_of(rng, EA=(3, 4), EP=(3, 4), EN=(3, 4))
    masks = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
                      [1.0, 1.0, 1.0, 1.0]])
    for m in (None, masks):
        def forward():
            loss, backward = triplet_batch_loss(
                triplet_rows(*(p.values for p in P.values())), 2.5, m, (1.0,))
            return loss, lambda g: scatter_triplet_grads(backward(), 3)

        check_gradient(forward, P)


# --- the head and the block normalization -----------------------------------


def test_reshape_and_concat_gradients(small_space):
    # the head, then its notion blocks normalized by the disentangled score
    rng = np.random.default_rng(9)
    h = rng.normal(size=(3, 5))
    H = Param(rng.normal(size=(5, 8)))
    C = rng.normal(size=(4, 8))
    w = rng.normal(size=(3, 4))

    def forward():
        F, head_backward = relu_layers(h, [(H.values, None)])
        S, score_backward = score_blocks(F, C, True, True, small_space)
        return S, lambda g: head_backward(score_backward(g)[0])

    check_gradient(forward, {"H": H}, w, tol=1e-5)


# --- guarded normalization --------------------------------------------------


def test_l2_normalize_gradient_vector_and_rows():
    # a single vector is a one-row matrix
    rng = np.random.default_rng(12)
    v = Param(rng.normal(size=(1, 6)) + 0.5)
    M = Param(rng.normal(size=(4, 6)) + 0.5)
    w = rng.normal(size=6)

    def forward(p):
        y, n, d = ad.l2_rows(p.values)
        return y, lambda g: [ad.l2_rows_backward(y, n, d, g)]

    check_gradient(lambda: forward(v), {"v": v}, w)
    check_gradient(lambda: forward(M), {"M": M}, np.tile(w, (4, 1)))


def test_l2_normalize_output_is_unit():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(7, 5))
    out, n, d = ad.l2_rows(M)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    assert np.array_equal(n, d) and n.shape == (7, 1)


def test_l2_normalize_guard_on_zero_vector():
    rows = np.array([[0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 4.0, 0.0]])
    assert np.array_equal(ad.l2_rows(rows)[0],
                          [[0.0] * 4, [0.6, 0.0, 0.8, 0.0]])
    # guarded branch still produces a finite gradient: g / eps
    y, n, d = ad.l2_rows(np.zeros((1, 4)))
    g = ad.l2_rows_backward(y, n, d, np.ones((1, 4)))
    assert np.all(np.isfinite(g))
    assert np.array_equal(g, np.full((1, 4), 1.0 / ad.NORM_EPS))
    # a nonzero row under the guard is scaled by the constant 1/eps
    tiny = np.array([[3e-13, 0.0, -4e-13, 0.0], [3.0, 0.0, 4.0, 0.0]])
    w = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
    g = ad.l2_rows_backward(*ad.l2_rows(tiny), w)
    assert np.array_equal(g[0], w[0] / ad.NORM_EPS)
    assert np.allclose(g[1], [-0.16, 0.4, 0.12, 0.8], atol=1e-15)


def test_normalize_direction_invariance():
    # perturbing the input along its own direction changes the normalized
    # output only in second order
    rng = np.random.default_rng(14)
    v = rng.normal(size=(1, 5))
    h = 1e-6
    y0 = ad.l2_rows(v)[0]
    y1 = ad.l2_rows(v * (1 + h))[0]
    assert np.abs(y1 - y0).max() < 1e-6


# --- the flat gradient ------------------------------------------------------


def test_unreachable_parameter_gets_zero_gradient():
    params = {"a": Param(np.ones(2)), "b": Param(np.ones((2, 3)))}
    flat, slots = packed(params)
    flat[:] = np.nan
    grad(slots, [("a", np.array([2.0, 3.0]))])
    assert np.array_equal(flat, [2.0, 3.0, 0, 0, 0, 0, 0, 0])
    assert slots["b"].shape == (2, 3) and np.shares_memory(slots["b"], flat)


def test_grad_writes_one_piece_per_parameter():
    # each piece is assigned as it is, so a -0.0 survives; a second piece for
    # a parameter raises, naming it; a second step overwrites the first
    params = {"W": Param(np.zeros(3)), "C": Param(np.zeros(2))}
    flat, slots = packed(params)
    flat[:] = np.nan
    grad(slots, [("W", np.array([1.0, 1e16, 0.5])),
                 ("C", np.array([-0.0, 1.0]))])
    assert np.array_equal(slots["W"], [1.0, 1e16, 0.5])
    assert np.signbit(slots["C"][0]) and slots["C"][1] == 1.0
    with pytest.raises(ValueError, match="'W'"):
        grad(slots, [("W", np.ones(3)), ("C", np.ones(2)), ("W", np.ones(3))])
    grad(slots, [("C", np.array([3.0, 4.0]))])
    assert np.array_equal(flat, [0.0, 0.0, 0.0, 3.0, 4.0])


# --- Adam -----------------------------------------------------------------


def test_adam_first_step_matches_hand_computation():
    # with a constant gradient g, bias correction makes the first step
    # exactly lr * sign(g) (up to eps)
    p = Param(np.array([1.0, -2.0]))
    opt = Adam({"p": p}, lr=0.1)
    g = np.array([0.5, -3.0])
    opt.step(g)
    expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.values, expected, atol=1e-9)


def test_adam_two_steps_hand_values():
    p = Param(np.array([0.0]))
    opt = Adam({"p": p}, lr=0.5)
    assert (Adam.beta1, Adam.beta2, Adam.eps) == (0.9, 0.999, 1e-8)
    for g in ([1.0], [2.0]):
        opt.step(np.array(g))
    # replicate the textbook update by hand
    m = v = 0.0
    x = 0.0
    for t, g in enumerate([1.0, 2.0], start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.5 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert p.values[0] == pytest.approx(x, abs=1e-12)


def test_adam_rejects_shape_mismatch():
    p = Param(np.zeros((2, 2)))
    opt = Adam({"p": p})
    for g in (np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(ValueError):
            opt.step(g)


def reference_adam(values, grads, t, m, v, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The textbook per-parameter update, one array at a time."""
    for k in values:
        g = grads[k]
        m[k] = b1 * m[k] + (1 - b1) * g
        v[k] = b2 * v[k] + (1 - b2) * g * g
        mhat = m[k] / (1 - b1**t)
        vhat = v[k] / (1 - b2**t)
        values[k] = values[k] - lr * mhat / (np.sqrt(vhat) + eps)


def test_packed_adam_is_bit_identical_to_per_parameter_update():
    rng = np.random.default_rng(21)
    shapes = {"W": (5, 3), "b": (3,), "s": (), "C": (4, 7)}
    params = {k: Param(rng.normal(size=sh)) for k, sh in shapes.items()}
    values = {k: p.values.copy() for k, p in params.items()}
    m = {k: np.zeros(sh) for k, sh in shapes.items()}
    v = {k: np.zeros(sh) for k, sh in shapes.items()}
    opt = Adam(params, lr=0.03)
    flat, slots = packed(params)
    for t in range(1, 8):
        if t == 5:
            opt.lr = 0.006  # as the plateau schedule does
        grads = {k: rng.normal(size=sh) * 10.0 ** rng.integers(-6, 3)
                 for k, sh in shapes.items()}
        grad(slots, grads.items())
        opt.step(flat)
        reference_adam(values, grads, t, m, v, opt.lr)
        for k, p in params.items():
            assert p.values.shape == shapes[k]
            assert np.array_equal(p.values, values[k]), f"{k} at step {t}"


def test_adam_parameters_are_views_of_one_vector():
    a = Param(np.ones((2, 3)))
    b = Param(np.full(4, 2.0))
    opt = Adam({"a": a, "b": b})
    assert opt.flat.shape == (10,)
    assert np.shares_memory(a.values, opt.flat)
    assert np.shares_memory(b.values, opt.flat)
    snapshot = opt.flat.copy()
    opt.step(np.r_[np.ones(6), -np.ones(4)])
    assert not np.array_equal(opt.flat, snapshot)
    opt.flat[:] = snapshot
    assert np.array_equal(a.values, np.ones((2, 3)))
    assert np.array_equal(b.values, np.full(4, 2.0))


# --- plateau schedule -----------------------------------------------------


def test_plateau_reduces_after_patience():
    # the schedule's fixed constants: divide by 5 after 10 epochs without a
    # strict improvement, at most 5 times
    assert (PlateauSchedule.factor, PlateauSchedule.patience,
            PlateauSchedule.max_reductions) == (5.0, 10, 5)
    sched = PlateauSchedule(lr=1.0)
    assert sched.update(10.0) == (1.0, False)
    for _ in range(9):
        lr, stop = sched.update(10.0)
        assert (lr, stop) == (1.0, False)
    lr, stop = sched.update(10.0)  # tenth non-improving epoch
    assert lr == pytest.approx(0.2)
    assert not stop


def test_plateau_strict_improvement_required():
    sched = PlateauSchedule(lr=1.0)
    sched.update(1.0)
    # equal loss is not an improvement
    lr, _ = sched.update(1.0)
    assert sched.since_improvement == 1
    for _ in range(9):
        lr, _ = sched.update(1.0)
    assert lr == pytest.approx(0.2)


def test_plateau_stops_after_max_reductions():
    sched = PlateauSchedule(lr=1.0)
    sched.update(5.0)
    stops = []
    for _ in range(61):
        _, stop = sched.update(5.0)
        stops.append(stop)
    # five reductions at epochs 10, 20, ..., 50; patience runs out again at 60
    assert stops == [False] * 59 + [True, True]
    assert sched.lr == pytest.approx(1.0 / 5**5)


def test_plateau_improvement_resets_counter():
    sched = PlateauSchedule(lr=1.0)
    sched.update(5.0)
    sched.update(5.0)
    sched.update(4.0)  # improvement
    assert sched.since_improvement == 0
    assert sched.lr == 1.0


@pytest.mark.parametrize("make", [
    lambda: Adam({"p": Param(np.zeros(2))}, lr=0.1, beta1=0.5),
    lambda: Adam({"p": Param(np.zeros(2))}, lr=0.1, eps=1e-6),
    lambda: PlateauSchedule(lr=1.0, patience=3),
    lambda: PlateauSchedule(lr=1.0, factor=2.0),
    lambda: PlateauSchedule(lr=1.0, max_reductions=1),
    lambda: PlateauSchedule(lr=1.0, best=0.0),
    lambda: PlateauSchedule(lr=1.0, reductions=5),
], ids=["beta1", "eps", "patience", "factor", "max_reductions", "best",
        "reductions"])
def test_optimizer_constants_and_schedule_state_are_not_arguments(make):
    with pytest.raises(TypeError):
        make()


def test_plateau_raises_on_nan():
    sched = PlateauSchedule(lr=1.0)
    with pytest.raises(TrainingDivergedError):
        sched.update(float("nan"))
