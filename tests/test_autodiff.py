"""Differentiation engine: every graph node against finite differences, the
graph walk, the Adam update against hand-computed values, and the plateau
schedule state machine."""

import math

import numpy as np
import pytest

from disembed import autodiff as ad
from disembed.autodiff import Adam, PlateauSchedule, Tensor, grad
from disembed.errors import GraphError, TrainingDivergedError
from disembed.losses import bce_sum, triplet_batch_loss
from disembed.model import _score_node, relu_layers

from conftest import finite_difference, relative_error


def check_gradient(build, params, tol=1e-6, step=1e-6):
    """Compare reverse-mode gradients of build() against central differences."""
    loss = build()
    analytic = grad(loss, params.values())
    numeric = finite_difference(lambda: build().item(), params, step=step)
    for name, p in params.items():
        err = relative_error(analytic[p], numeric[name])
        assert err < tol, f"{name}: rel err {err}"


def weighted_sum(t, w):
    """Scalar sum(w * t) as a graph node, so grad() of it returns the
    vector-Jacobian product of the node that produced ``t``."""
    w = np.asarray(w, dtype=np.float64)
    return Tensor(np.sum(w * t.values), _parents=(t,), _backward=lambda g: (g * w,))


# --- the relu MLP node ------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_matmul_chain_gradient(seed):
    # two bias layers, as in the backbone, with a trainable input
    rng = np.random.default_rng(seed)
    X = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    W0 = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b0 = Tensor(rng.normal(size=3), requires_grad=True)
    W1 = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    b1 = Tensor(rng.normal(size=2), requires_grad=True)
    w = rng.normal(size=(5, 2))

    def build():
        return weighted_sum(relu_layers(X, [([W0], b0), ([W1], b1)]), w)

    check_gradient(build, {"X": X, "W0": W0, "b0": b0, "W1": W1, "b1": b1})


def test_dead_relu_units_get_zero_gradient():
    rng = np.random.default_rng(3)
    X = Tensor(rng.normal(size=(6, 4)))
    W0 = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b0 = Tensor(rng.normal(size=5), requires_grad=True)
    H = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    b0.values[[1, 3]] = -50.0  # units 1 and 3 are dead on every row
    w = rng.normal(size=(6, 3))

    def build():
        return weighted_sum(relu_layers(X, [([W0], b0), ([H], None)]), w)

    check_gradient(build, {"W0": W0, "b0": b0, "H": H})
    g = grad(build(), [W0, b0, H])
    assert not g[W0][:, [1, 3]].any() and not g[b0][[1, 3]].any()
    assert not g[H][[1, 3]].any()


def test_matmul_rejects_vector_vector():
    # one row per sample: the MLP node and the normalization take 2-D inputs
    W = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(GraphError):
        relu_layers(Tensor([1.0, 2.0]), [([W], None)])
    with pytest.raises(GraphError):
        relu_layers(Tensor(np.ones((1, 1, 2))), [([W], None)])
    with pytest.raises(GraphError):
        ad.l2_normalize(Tensor([1.0, 2.0]))


# --- the score node ---------------------------------------------------------


def test_matmul_transpose_b_gradient(small_space):
    # classification-plain: sigmoid(F @ C.T) with both operands trainable
    rng = np.random.default_rng(7)
    F = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    C = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    w = rng.normal(size=(3, 4))

    def build():
        return weighted_sum(_score_node(F, C, "classification-plain",
                                        small_space), w)

    check_gradient(build, {"F": F, "C": C})


@pytest.mark.parametrize("variant", ["proxy", "proxy-disentangled"])
def test_normalized_score_gradient(small_space, variant):
    rng = np.random.default_rng(8)
    F = Tensor(rng.normal(size=(3, 8)) + 0.5, requires_grad=True)
    C = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    w = rng.normal(size=(3, 4))

    def build():
        return weighted_sum(_score_node(F, C, variant, small_space), w)

    check_gradient(build, {"F": F, "C": C})


def test_dead_notion_block_scores_one_half(small_space):
    # a zero notion block takes the normalization guard: its tags score
    # exactly 0.5, and the centroid gradient still matches finite differences
    space = small_space
    rng = np.random.default_rng(8)
    F = Tensor(rng.normal(size=(3, 8)) + 0.5, requires_grad=True)
    F.values[:, space.block_slice("shape")] = 0.0
    C = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    w = rng.normal(size=(3, 4))

    def build():
        return weighted_sum(_score_node(F, C, "proxy-disentangled", space), w)

    S = _score_node(F, C, "proxy-disentangled", space).values
    shape_tags = space.tag_indices_of_notion("shape")
    assert np.array_equal(S[:, shape_tags], np.full((3, 2), 0.5))
    analytic = grad(build(), [F, C])
    numeric = finite_difference(lambda: build().item(), {"C": C}, step=1e-6)
    assert relative_error(analytic[C], numeric["C"]) < 1e-6
    assert np.isfinite(analytic[F]).all()


# --- elementwise stages of the nodes ----------------------------------------


def _relu_stage(t):
    W = Tensor(np.eye(4))
    return weighted_sum(relu_layers(t, [([W], None)]),
                        np.arange(1.0, 13.0).reshape(3, 4))


def _sigmoid_stage(t):
    C = Tensor(np.eye(4))
    return weighted_sum(_score_node(t, C, "classification-plain", None),
                        np.arange(1.0, 13.0).reshape(3, 4))


def _log_stage(t):
    return bce_sum(t * 0.1 + 0.5, np.eye(3, 4))


def _clip_stage(t):
    return bce_sum(t, np.eye(3, 4))


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
    t = Tensor(x, requires_grad=True)
    check_gradient(lambda: op(t), {"x": t})


def test_clip_gradient_is_zero_outside_range():
    # scores clamped to the floor (or the ceiling) get exactly zero gradient
    t = Tensor(np.array([-2.0, 0.3, 2.0, 0.0, 1.0]), requires_grad=True)
    loss = bce_sum(t, np.array([1.0, 1.0, 0.0, 1.0, 0.0]))
    g = grad(loss, [t])[t]
    assert np.array_equal(g[[0, 2, 3, 4]], np.zeros(4))
    assert g[1] == pytest.approx(-1.0 / 0.3, rel=1e-15)


# --- the triplet node -------------------------------------------------------


def test_sum_axis_and_mean_gradients():
    # per-row cosines (sums over axis 1) averaged over the batch, with and
    # without masks, away from the hinge kink
    rng = np.random.default_rng(10)
    EA, EP, EN = (Tensor(rng.normal(size=(3, 4)), requires_grad=True)
                  for _ in range(3))
    masks = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0],
                      [1.0, 1.0, 1.0, 1.0]])
    for m in (None, masks):
        def build():
            return triplet_batch_loss(EA, EP, EN, 2.5, m)

        check_gradient(build, {"EA": EA, "EP": EP, "EN": EN})


# --- the joined sub-dense head and the block normalization -------------------


def test_reshape_and_concat_gradients(small_space):
    # head blocks of unequal widths joined column-wise, then the notion blocks
    # normalized by the disentangled score
    rng = np.random.default_rng(9)
    h = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
    A = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    B = Tensor(rng.normal(size=(5, 5)), requires_grad=True)
    C = Tensor(rng.normal(size=(4, 8)))
    w = rng.normal(size=(3, 4))

    def build():
        F = relu_layers(h, [([A, B], None)])
        return weighted_sum(_score_node(F, C, "proxy-disentangled",
                                        small_space), w)

    check_gradient(build, {"h": h, "A": A, "B": B}, tol=1e-5)


def test_concat_values_and_axis():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(2, 3))
    a, b = Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=(3, 4)))
    out = relu_layers(Tensor(h), [([a, b], None)])
    assert np.array_equal(out.values,
                          np.maximum(h @ np.hstack([a.values, b.values]), 0.0))
    grads = out._backward(np.ones_like(out.values))
    assert [g.shape for g in grads[1:]] == [(3, 2), (3, 4)]


def test_constant_parents_get_no_gradient():
    # nodes skip the gradient of an input that needs none
    W = Tensor(np.ones((2, 2)), requires_grad=True)
    X = Tensor(np.ones((3, 2)))
    outs = [ad.mul(X, 2.0), ad.mul(3.0, X), relu_layers(X, [([W], None)]),
            _score_node(X, W, "proxy", None),
            bce_sum(X * 0.5, np.ones((3, 2))),
            triplet_batch_loss(X, X, X, 0.1)]
    for out in outs:
        grads = out._backward(np.ones_like(out.values))
        for parent, g in zip(out._parents, grads):
            assert (g is None) == (not parent.requires_grad)


# --- add, mul and guarded normalization -------------------------------------


def test_broadcast_add_row_vector():
    rng = np.random.default_rng(11)
    M = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    v = Tensor(rng.normal(size=3), requires_grad=True)
    w = rng.normal(size=(5, 3))

    def build():
        s = M + v
        return weighted_sum(s * s, w)

    check_gradient(build, {"M": M, "v": v})


def test_l2_normalize_gradient_vector_and_rows():
    # a single vector is a one-row matrix
    rng = np.random.default_rng(12)
    v = Tensor(rng.normal(size=(1, 6)) + 0.5, requires_grad=True)
    M = Tensor(rng.normal(size=(4, 6)) + 0.5, requires_grad=True)
    w = rng.normal(size=6)

    def build_v():
        return weighted_sum(ad.l2_normalize(v), w)

    def build_m():
        return weighted_sum(ad.l2_normalize(M), np.tile(w, (4, 1)))

    check_gradient(build_v, {"v": v})
    check_gradient(build_m, {"M": M})


def test_l2_normalize_output_is_unit():
    rng = np.random.default_rng(13)
    M = rng.normal(size=(7, 5))
    out = ad.l2_normalize(Tensor(M)).values
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    with pytest.raises(GraphError):
        ad.l2_normalize(Tensor(M[0]))


def test_l2_normalize_guard_on_zero_vector():
    rows = np.array([[0.0, 0.0, 0.0, 0.0], [3.0, 0.0, 4.0, 0.0]])
    out = ad.l2_normalize(Tensor(rows))
    assert np.array_equal(out.values, [[0.0] * 4, [0.6, 0.0, 0.8, 0.0]])
    # guarded branch still produces a finite gradient: g / eps
    v = Tensor(np.zeros((1, 4)), requires_grad=True)
    loss = weighted_sum(ad.l2_normalize(v), np.ones((1, 4)))
    g = grad(loss, [v])[v]
    assert np.all(np.isfinite(g))
    assert np.array_equal(g, np.full((1, 4), 1.0 / ad.NORM_EPS))
    # a nonzero row under the guard is scaled by the constant 1/eps
    tiny = Tensor(np.array([[3e-13, 0.0, -4e-13, 0.0], [3.0, 0.0, 4.0, 0.0]]),
                  requires_grad=True)
    w = np.array([[1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]])
    g = grad(weighted_sum(ad.l2_normalize(tiny), w), [tiny])[tiny]
    assert np.array_equal(g[0], w[0] / ad.NORM_EPS)
    assert np.allclose(g[1], [-0.16, 0.4, 0.12, 0.8], atol=1e-15)


def test_normalize_direction_invariance():
    # perturbing the input along its own direction changes the normalized
    # output only in second order
    rng = np.random.default_rng(14)
    v = rng.normal(size=(1, 5))
    h = 1e-6
    y0 = ad.l2_normalize(Tensor(v)).values
    y1 = ad.l2_normalize(Tensor(v * (1 + h))).values
    assert np.abs(y1 - y0).max() < 1e-6


# --- graph mechanics ------------------------------------------------------


def test_grad_requires_scalar_loss():
    t = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(GraphError):
        grad(ad.mul(t, 2.0), [t])


def test_unreachable_parameter_gets_zero_gradient():
    a = Tensor(np.ones(2), requires_grad=True)
    b = Tensor(np.ones(2), requires_grad=True)
    loss = weighted_sum(a * a, np.ones(2))
    grads = grad(loss, [a, b])
    assert np.array_equal(grads[b], np.zeros(2))
    assert np.array_equal(grads[a], 2 * np.ones(2))


def test_grad_accumulates_over_reused_nodes():
    # y = x*x + x*x uses the same product node twice via different paths
    x = Tensor(np.array(3.0), requires_grad=True)
    sq = x * x
    loss = sq + sq
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
    g = grad(y, [x])[x]
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
