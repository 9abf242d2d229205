"""Differentiation engine: primitives against finite differences, the Adam
update against hand-computed values, and the plateau schedule state machine."""

import math

import numpy as np
import pytest

from disembed import autodiff as ad
from disembed.autodiff import Adam, PlateauSchedule, Tensor, grad
from disembed.errors import GraphError, TrainingDivergedError

from conftest import finite_difference, relative_error


def check_gradient(build, params, tol=1e-6, step=1e-6):
    """Compare reverse-mode gradients of build() against central differences."""
    loss = build()
    analytic = grad(loss, params.values())
    numeric = finite_difference(lambda: build().item(), params, step=step)
    for name, p in params.items():
        err = relative_error(analytic[p], numeric[name])
        assert err < tol, f"{name}: rel err {err}"


# --- primitives -----------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_matmul_chain_gradient(seed):
    rng = np.random.default_rng(seed)
    W = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=3), requires_grad=True)
    X = rng.normal(size=(5, 4))

    def build():
        return ad.tsum(ad.sigmoid(ad.matmul(Tensor(X), W) + b))

    check_gradient(build, {"W": W, "b": b})


def test_matmul_transpose_b_gradient():
    rng = np.random.default_rng(7)
    A = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    B = Tensor(rng.normal(size=(2, 4)), requires_grad=True)

    def build():
        return ad.tsum(ad.matmul(A, B, transpose_b=True))

    check_gradient(build, {"A": A, "B": B})


def test_matmul_vector_cases_gradient():
    rng = np.random.default_rng(8)
    W = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=4), requires_grad=True)
    u = Tensor(rng.normal(size=3), requires_grad=True)

    def build():
        return ad.dot(ad.matmul(v, W), u)  # 1D @ 2D then dot

    check_gradient(build, {"W": W, "v": v, "u": u})


def test_matmul_rejects_vector_vector():
    with pytest.raises(GraphError):
        ad.matmul(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))


def test_dot_requires_1d():
    with pytest.raises(GraphError):
        ad.dot(Tensor(np.ones((2, 2))), Tensor(np.ones(2)))


@pytest.mark.parametrize(
    "op",
    [ad.relu, ad.sigmoid, lambda x: ad.log(x + 3.0), lambda x: ad.clip(x, -0.5, 0.5)],
    ids=["relu", "sigmoid", "log", "clip"],
)
def test_elementwise_gradients(op):
    rng = np.random.default_rng(9)
    # keep values away from the relu/clip kinks so finite differences are clean
    x = rng.normal(size=(3, 4))
    x[np.abs(x) < 0.05] += 0.1
    x[np.abs(np.abs(x) - 0.5) < 0.05] += 0.1
    t = Tensor(x, requires_grad=True)

    def build():
        return ad.tsum(op(t) * op(t))

    check_gradient(build, {"x": t})


def test_clip_gradient_is_zero_outside_range():
    t = Tensor(np.array([-2.0, 0.3, 2.0]), requires_grad=True)
    loss = ad.tsum(ad.clip(t, -1.0, 1.0))
    g = grad(loss, [t])[t]
    assert np.array_equal(g, [0.0, 1.0, 0.0])


def test_sum_axis_and_mean_gradients():
    rng = np.random.default_rng(10)
    t = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def build():
        rows = ad.tsum(ad.mul(t, t), axis=1)  # shape (3,)
        return ad.tmean(rows)

    check_gradient(build, {"t": t})


def test_broadcast_add_row_vector():
    rng = np.random.default_rng(11)
    M = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=3), requires_grad=True)

    def build():
        return ad.tsum(ad.sigmoid(M + v))

    check_gradient(build, {"M": M, "v": v})


def test_l2_normalize_gradient_vector_and_rows():
    rng = np.random.default_rng(12)
    v = Tensor(rng.normal(size=6) + 0.5, requires_grad=True)
    M = Tensor(rng.normal(size=(4, 6)) + 0.5, requires_grad=True)
    w = rng.normal(size=6)

    def build_v():
        return ad.dot(ad.l2_normalize(v), Tensor(w))

    def build_m():
        return ad.tsum(ad.mul(ad.l2_normalize(M), Tensor(np.tile(w, (4, 1)))))

    check_gradient(build_v, {"v": v})
    check_gradient(build_m, {"M": M})


def test_l2_normalize_output_is_unit():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(7, 5))
    out = ad.l2_normalize(Tensor(M)).values
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)


def test_l2_normalize_guard_on_zero_vector():
    out = ad.l2_normalize(Tensor(np.zeros(4)))
    assert np.array_equal(out.values, np.zeros(4))
    # guarded branch still produces a finite gradient
    v = Tensor(np.zeros(4), requires_grad=True)
    loss = ad.tsum(ad.l2_normalize(v))
    g = grad(loss, [v])[v]
    assert np.all(np.isfinite(g))


def test_normalize_direction_invariance():
    # perturbing the input along its own direction changes the normalized
    # output only in second order
    rng = np.random.default_rng(14)
    v = rng.normal(size=5)
    h = 1e-6
    y0 = ad.l2_normalize(Tensor(v)).values
    y1 = ad.l2_normalize(Tensor(v * (1 + h))).values
    assert np.abs(y1 - y0).max() < 1e-6


def test_reshape_and_concat_gradients():
    rng = np.random.default_rng(9)
    A = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    B = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = rng.normal(size=(6, 3))

    def build():
        joined = ad.concat([A, B])  # (3, 6)
        blocks = ad.l2_normalize(ad.reshape(joined, (6, 3)))
        return ad.tsum(ad.sigmoid(ad.mul(ad.reshape(blocks, (3, 6)), w.T)))

    check_gradient(build, {"A": A, "B": B}, tol=1e-5)


def test_concat_values_and_axis():
    a, b = np.arange(6.0).reshape(2, 3), np.arange(4.0).reshape(2, 2)
    assert np.array_equal(ad.concat([a, b]).values, np.hstack([a, b]))
    assert np.array_equal(ad.concat([a, a], axis=0).values, np.vstack([a, a]))
    assert ad.reshape(a, (3, 2)).shape == (3, 2)


def test_constant_parents_get_no_gradient():
    # matmul and mul skip the gradient of a parent that needs none
    W = Tensor(np.ones((2, 2)), requires_grad=True)
    X = Tensor(np.ones((3, 2)))
    for out in (ad.matmul(X, W), ad.matmul(W, X, transpose_b=True),
                ad.mul(X, 2.0), ad.mul(3.0, X)):
        grads = out._backward(np.ones_like(out.values))
        for parent, g in zip(out._parents, grads):
            assert (g is None) == (not parent.requires_grad)


# --- graph mechanics ------------------------------------------------------


def test_grad_requires_scalar_loss():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError):
        grad(ad.mul(t, 2.0), [t])


def test_unreachable_parameter_gets_zero_gradient():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    loss = ad.tsum(a * a)
    grads = grad(loss, [a, b])
    assert np.array_equal(grads[b], np.zeros(2))
    assert np.array_equal(grads[a], 2 * np.ones(2))


def test_grad_accumulates_over_reused_nodes():
    # y = x*x + x*x uses the same product node twice via different paths
    x = Tensor(np.array(3.0), requires_grad=True)
    sq = x * x
    loss = ad.tsum(sq + sq)
    assert grad(loss, [x])[x] == pytest.approx(12.0)


def test_item_rejects_non_scalar():
    with pytest.raises(GraphError):
        Tensor(np.ones(2)).item()


def test_deep_chain_does_not_recurse():
    # iterative traversal must survive graphs deeper than the Python stack
    x = Tensor(np.array(1.0), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.0
    g = grad(ad.tsum(y), [x])[x]
    assert g == pytest.approx(1.0)


# --- Adam -----------------------------------------------------------------


def test_adam_first_step_matches_hand_computation():
    # with a constant gradient g, bias correction makes the first step
    # exactly lr * sign(g) (up to eps)
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.1)
    g = np.array([0.5, -3.0])
    opt.step({"p": g})
    expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    assert np.allclose(p.values, expected, atol=1e-9)


def test_adam_two_steps_hand_values():
    p = Tensor(np.array([0.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.5, beta1=0.9, beta2=0.999, eps=1e-8)
    for g in ([1.0], [2.0]):
        opt.step({"p": np.array(g)})
    # replicate the textbook update by hand
    m = v = 0.0
    x = 0.0
    for t, g in enumerate([1.0, 2.0], start=1):
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        x -= 0.5 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
    assert p.values[0] == pytest.approx(x, abs=1e-12)


def test_adam_rejects_shape_mismatch():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    opt = Adam({"p": p})
    with pytest.raises(GraphError):
        opt.step({"p": np.zeros(3)})


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
    params = {k: Tensor(rng.normal(size=sh), requires_grad=True)
              for k, sh in shapes.items()}
    values = {k: p.values.copy() for k, p in params.items()}
    m = {k: np.zeros(sh) for k, sh in shapes.items()}
    v = {k: np.zeros(sh) for k, sh in shapes.items()}
    opt = Adam(params, lr=0.03)
    for t in range(1, 8):
        if t == 5:
            opt.lr = 0.006  # as the plateau schedule does
        grads = {k: rng.normal(size=sh) * 10.0 ** rng.integers(-6, 3)
                 for k, sh in shapes.items()}
        opt.step(grads)
        reference_adam(values, grads, t, m, v, opt.lr)
        for k, p in params.items():
            assert p.values.shape == shapes[k]
            assert np.array_equal(p.values, values[k]), f"{k} at step {t}"


def test_adam_parameters_are_views_of_one_vector():
    a = Tensor(np.ones((2, 3)), requires_grad=True)
    b = Tensor(np.full(4, 2.0), requires_grad=True)
    opt = Adam({"a": a, "b": b})
    assert opt.flat.shape == (10,)
    assert np.shares_memory(a.values, opt.flat)
    assert np.shares_memory(b.values, opt.flat)
    snapshot = opt.flat.copy()
    opt.step({"a": np.ones((2, 3)), "b": -np.ones(4)})
    assert not np.array_equal(opt.flat, snapshot)
    opt.flat[:] = snapshot
    assert np.array_equal(a.values, np.ones((2, 3)))
    assert np.array_equal(b.values, np.full(4, 2.0))


# --- plateau schedule -----------------------------------------------------


def test_plateau_reduces_after_patience():
    sched = PlateauSchedule(lr=1.0, factor=5.0, patience=3, max_reductions=2)
    assert sched.update(10.0) == (1.0, False)
    for _ in range(2):
        lr, stop = sched.update(10.0)
        assert (lr, stop) == (1.0, False)
    lr, stop = sched.update(10.0)  # third non-improving epoch
    assert lr == pytest.approx(0.2)
    assert not stop


def test_plateau_strict_improvement_required():
    sched = PlateauSchedule(lr=1.0, patience=2)
    sched.update(1.0)
    # equal loss is not an improvement
    lr, _ = sched.update(1.0)
    assert sched.since_improvement == 1
    lr, _ = sched.update(1.0)
    assert lr == pytest.approx(0.2)


def test_plateau_stops_after_max_reductions():
    sched = PlateauSchedule(lr=1.0, patience=1, max_reductions=2)
    sched.update(5.0)
    stops = []
    for _ in range(4):
        _, stop = sched.update(5.0)
        stops.append(stop)
    assert stops == [False, False, True, True]
    assert sched.lr == pytest.approx(1.0 / 25)


def test_plateau_improvement_resets_counter():
    sched = PlateauSchedule(lr=1.0, patience=2)
    sched.update(5.0)
    sched.update(5.0)
    sched.update(4.0)  # improvement
    assert sched.since_improvement == 0
    assert sched.lr == 1.0


def test_plateau_raises_on_nan():
    sched = PlateauSchedule(lr=1.0)
    with pytest.raises(TrainingDivergedError):
        sched.update(float("nan"))
