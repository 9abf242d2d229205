"""Embedding networks, the score formula, and their structural identities."""

import warnings

import numpy as np
import pytest
from scipy.special import expit

from disembed import model
from disembed.autodiff import NORM_EPS, Param, grad, packed
from disembed.config import default_label_space
from disembed.errors import ConfigurationError
from disembed.losses import LOG_FLOOR, bce_sum
from disembed.model import (
    EmbeddingNet,
    class_scores,
    embed,
    forward_rows,
    init_params,
    load_params,
    save_params,
    score_blocks,
    sigmoid,
)

from conftest import mask, n_hidden


def make_net(space, hidden=(12, 10), seed=0):
    """A net on 6 input features and its (tags, d) bank, initialized."""
    net = EmbeddingNet(space, 6, hidden)
    bank = Param(np.zeros((space.num_tags, space.embedding_dim)))
    init_params(net, bank, seed)
    return net, bank


def per_block_embedding(net, X, notion):
    """One notion's block of the head output as its own sub-dense relu layer:
    relu(backbone(X) @ H[:, block]), in plain numpy."""
    h = net.backbone(X)
    cut = net.space.block_slice(notion)
    return np.maximum(h @ net.params["H"].values[:, cut], 0)


# --- construction and init -------------------------------------------------


def test_net_width_is_the_spaces(small_space):
    net = EmbeddingNet(small_space, 6, (5,))
    assert net.params["H"].values.shape == (5, small_space.embedding_dim)
    assert forward_rows(net, np.zeros((3, 6))).shape == (3, 8)


def test_init_bounds_and_determinism(small_space):
    net1, bank1 = make_net(small_space, seed=5)
    net2, bank2 = make_net(small_space, seed=5)
    for name, p in net1.params.items():
        assert np.array_equal(p.values, net2.params[name].values)
        if name.startswith("b"):
            assert np.array_equal(p.values, np.zeros_like(p.values))
        else:
            bound = 1.0 / np.sqrt(p.values.shape[0])
            assert np.abs(p.values).max() <= bound
    assert np.array_equal(bank1.values, bank2.values)
    net3, _ = make_net(small_space, seed=6)
    assert not np.array_equal(net1.params["W0"].values, net3.params["W0"].values)


# --- embeddings ------------------------------------------------------------


def test_embed_normalized_iff_configured(small_space, rng):
    X = rng.normal(size=(5, 6))
    net, _ = make_net(small_space)
    norms = np.linalg.norm(embed(net, X, True), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
    norms = np.linalg.norm(embed(net, X, False), axis=1)
    assert not np.allclose(norms, 1.0, atol=1e-3)


def test_embed_and_class_scores_take_2d_rows_only(small_space):
    net, bank = make_net(small_space)
    with pytest.raises(ValueError, match="2-D"):
        embed(net, np.zeros(6), True)
    with pytest.raises(ValueError, match="2-D"):
        class_scores(net, bank, np.zeros(6), True, False)


def test_embed_rejects_wrong_width(small_space):
    # one width check in the one forward covers embed, the masked embedding
    # and class_scores, single vectors and batches alike
    net, bank = make_net(small_space)
    for x in (np.zeros(7), np.zeros((3, 5))):
        with pytest.raises(ConfigurationError, match="input width"):
            embed(net, x, True)
        with pytest.raises(ConfigurationError, match="input width"):
            net.full_embedding(np.atleast_2d(x))[0] * mask(small_space, "color")
        for disentangled in (False, True):
            with pytest.raises(ConfigurationError, match="input width"):
                class_scores(net, bank, x, True, disentangled)


CHUNK = model._FORWARD_CHUNK


@pytest.mark.parametrize("n", [3 * CHUNK + 1, CHUNK + 1, CHUNK, CHUNK - 1, 2],
                         ids=["chunks-and-one", "chunk-and-one", "chunk",
                              "below-chunk", "two"])
def test_forward_rows_equals_one_forward_bit_for_bit(monkeypatch, n):
    # the paper's widths, where numpy multiplies by BLAS: chunks of rows give
    # the rows of one full_embedding call exactly; a 1-row tail would be a
    # matrix-vector product, so it joins the chunk before it
    space = default_label_space()
    net = EmbeddingNet(space, 64, (128, 128))
    init_params(net, Param(np.zeros((space.num_tags, space.embedding_dim))), 5)
    X = np.random.default_rng(n).normal(size=(n, 64))
    whole = net.full_embedding(X)[0]
    chunks, forward = [], EmbeddingNet.full_embedding

    def recording_forward(net, x):
        chunks.append(len(x))
        return forward(net, x)

    monkeypatch.setattr(EmbeddingNet, "full_embedding", recording_forward)
    got = forward_rows(net, X)
    assert got.tobytes() == whole.tobytes()
    assert sum(chunks) == n
    assert min(chunks) > 1 and max(chunks) <= CHUNK + 1
    if n > CHUNK:
        assert len(chunks) == n // CHUNK
    assert embed(net, X, False).tobytes() == whole.tobytes()


def test_embed_zero_weights_is_guarded(small_space, caplog):
    net = EmbeddingNet(small_space, 6, (128, 128))  # all-zero parameters
    out = embed(net, np.ones((1, 6)), True)
    assert np.array_equal(out, np.zeros((1, 8)))


def test_masked_embed_zeroes_other_blocks(small_space, rng):
    net, _ = make_net(small_space)
    X = rng.normal(size=(4, 6))
    full = net.full_embedding(X)[0]
    m = full * mask(small_space, "color")
    assert np.array_equal(m[:, 4:], np.zeros((4, 4)))
    assert np.array_equal(m[:, :4], full[:, :4])


def test_masks_sum_to_full_embedding(small_space, rng):
    net, _ = make_net(small_space)
    X = rng.normal(size=(4, 6))
    full = net.full_embedding(X)[0]
    total = sum(full * mask(small_space, n.name) for n in small_space.notions)
    assert np.allclose(total, full, atol=0)


def test_masked_equals_subdense_block(small_space, rng):
    # the masked embedding is the notion's own sub-dense relu layer
    # zero-padded into place (relu commutes with the 0/1 mask)
    for seed in (0, 1):
        net, _ = make_net(small_space, seed=seed)
        X = rng.normal(size=(5, 6))
        for notion in small_space.notions:
            masked = net.full_embedding(X)[0] * mask(small_space, notion.name)
            padded = np.zeros_like(masked)
            padded[:, small_space.block_slice(notion.name)] = \
                per_block_embedding(net, X, notion.name)
            assert np.abs(masked - padded).max() < 1e-12


# --- the score formula -----------------------------------------------------


def test_hand_value_normalized_score(small_space):
    # unit embedding (1,0,...) against centroid (2,0,...) scores sigmoid(2)
    net, bank = make_net(small_space)
    u = np.zeros(8)
    u[0] = 1.0
    C = np.zeros((4, 8))
    C[0, 0] = 2.0
    bank.values = C
    # bypass the network: score formula on a known unit vector
    s = expit(u @ C.T)
    assert s[0] == pytest.approx(0.88079707797788, abs=1e-10)


def test_sigmoid_within_4_ulp_of_expit():
    # numpy's exp is not libm's in the last bits; expit is the reference.
    # The sweep spans both overflow points, signed zeros and subnormals.
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([-1000.0, -0.0, 0.0, 1000.0, tiny, -tiny,
                      1e-310, -1e-310, -709.78, -709.79, 36.8, 37.5, 745.2])
    z = np.concatenate([np.linspace(-800.0, 800.0, 200_001), edges,
                        np.random.default_rng(0).normal(scale=20.0, size=50_000)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(z)
    want = expit(z)
    assert got.dtype == np.float64 and got.shape == z.shape
    # both lie in [0, 1], where the int64 views are monotone in the value
    assert np.abs(got.view(np.int64) - want.view(np.int64)).max() <= 4
    at = sigmoid(np.array([-1000.0, -0.0, 0.0, 1000.0]))
    assert at.tolist() == [0.0, 0.5, 0.5, 1.0]
    assert not np.signbit(at[0])


def test_sigmoid_in_place_is_bit_equal_to_its_formula():
    # the in-place steps are the operations of 1 / (1 + exp(-z)), in order
    edges = np.array([-1000.0, -800.0, -0.0, 0.0, 800.0, 1000.0, -709.78,
                      -709.79, np.finfo(np.float64).smallest_subnormal])
    z = np.concatenate([np.linspace(-800.0, 800.0, 100_001), edges])
    before = z.copy()
    with np.errstate(over="ignore"):
        want = 1.0 / (1.0 + np.exp(-z))
    got = sigmoid(z)
    assert got.tobytes() == want.tobytes()
    assert z.tobytes() == before.tobytes()


def test_proxy_equals_classification_normalized(small_space, rng):
    # a proxy and a normalized classifier are one call: sigmoid of the
    # row-normalized embedding against the bank
    net, bank = make_net(small_space)
    X = rng.normal(size=(6, 6))
    F = net.full_embedding(X)[0]
    U = F / np.maximum(np.linalg.norm(F, axis=1, keepdims=True), NORM_EPS)
    expect = expit(U @ bank.values.T)
    assert np.abs(class_scores(net, bank, X, True, False) - expect).max() < 1e-12


def test_disentangled_proxy_equals_subdense_classification(small_space, rng):
    # masked scoring of the full embedding equals scoring each notion's tags
    # on that notion's own sub-dense relu layer, for two draws of the head
    for seed in (0, 1):
        net, bank = make_net(small_space, seed=seed)
        X = rng.normal(size=(6, 6))
        got = class_scores(net, bank, X, True, True)
        for notion in small_space.notions:
            tags = small_space.tag_indices_of_notion(notion.name)
            E = per_block_embedding(net, X, notion.name)
            U = E / np.maximum(np.linalg.norm(E, axis=1, keepdims=True),
                               NORM_EPS)
            C = bank.values[tags][:, small_space.block_slice(notion.name)]
            assert np.abs(got[:, tags] - expit(U @ C.T)).max() < 1e-9


def test_scores_in_open_unit_interval(small_space, rng):
    X = rng.normal(size=(6, 6))
    for normalize, disentangled in ((True, False), (True, True),
                                    (False, False)):
        net, bank = make_net(small_space)
        s = class_scores(net, bank, X, normalize, disentangled)
        assert s.shape == (6, 4)
        assert (s > 0).all() and (s < 1).all()


def test_normalized_scores_scale_invariant(small_space, rng):
    net, bank = make_net(small_space)
    X = rng.normal(size=(6, 6))
    before = class_scores(net, bank, X, True, False)
    net.params["H"].values = net.params["H"].values * 7.5
    after = class_scores(net, bank, X, True, False)
    assert np.abs(before - after).max() < 1e-9
    # the plain classifier is NOT scale invariant
    net2, bank2 = make_net(small_space)
    plain_before = class_scores(net2, bank2, X, False, False)
    net2.params["H"].values = net2.params["H"].values * 7.5
    plain_after = class_scores(net2, bank2, X, False, False)
    assert np.abs(plain_before - plain_after).max() > 1e-6


def test_subdense_full_embedding_is_head_blocks(small_space, rng):
    X = rng.normal(size=(3, 6))
    for seed in (0, 1):
        net, _ = make_net(small_space, seed=seed)
        F = net.full_embedding(X)[0]
        assert np.array_equal(F, net.head_blocks(net.backbone(X)))
        for notion in small_space.notions:
            block = F[:, small_space.block_slice(notion.name)]
            assert np.abs(block - per_block_embedding(net, X, notion.name)
                          ).max() < 1e-12


def test_score_blocks_is_one_all_tags_block(small_space, rng):
    X = rng.normal(size=(3, 6))
    for normalize, disentangled in ((True, False), (True, True),
                                    (False, False)):
        net, bank = make_net(small_space)
        S = score_blocks(net.full_embedding(X)[0], bank.values,
                         normalize, disentangled, small_space)[0]
        assert S.shape == (3, small_space.num_tags)
        assert np.array_equal(
            S, class_scores(net, bank, X, normalize, disentangled))


def reference_disentangled(net, bank, X, Y):
    """Per-notion scores and summed-BCE gradients in plain numpy.

    Each notion's tags are scored against the L2-normalized notion block of
    the embedding, one notion at a time, with the centroids cut to the block;
    the gradients are then carried by hand back through the head and the
    MLP.  Returns the (N, tags) scores and the gradient per parameter name.
    """
    space, P = net.space, net.params
    hs = [X]
    for i in range(n_hidden(net)):
        hs.append(np.maximum(hs[-1] @ P[f"W{i}"].values + P[f"b{i}"].values, 0))
    H = P["H"].values
    F = np.maximum(hs[-1] @ H, 0)
    C = bank.values
    S, dF, dC = np.zeros(Y.shape), np.zeros_like(F), np.zeros_like(C)
    for notion in space.notions:
        tags = space.tag_indices_of_notion(notion.name)
        cut = space.block_slice(notion.name)
        norm = np.linalg.norm(F[:, cut], axis=1, keepdims=True)
        den = np.maximum(norm, NORM_EPS)
        U = F[:, cut] / den
        Cg = C[tags][:, cut]
        Sg = expit(U @ Cg.T)
        S[:, tags] = Sg
        y, s = Y[:, tags], np.clip(Sg, LOG_FLOOR, 1 - LOG_FLOOR)
        dS = (-y / s + (1 - y) / (1 - s)) * (s == Sg)
        dZ = dS * Sg * (1 - Sg)
        dC[np.ix_(tags, np.arange(C.shape[1])[cut])] = dZ.T @ U
        dU = dZ @ Cg
        radial = U * (U * dU).sum(axis=1, keepdims=True)
        dF[:, cut] = np.where(norm < NORM_EPS, dU, dU - radial) / den
    g = dF * (F > 0)
    grads = {"C": dC, "H": hs[-1].T @ g}
    g = g @ H.T
    for i in reversed(range(n_hidden(net))):
        g = g * (hs[i + 1] > 0)
        grads[f"b{i}"] = g.sum(axis=0)
        grads[f"W{i}"] = hs[i].T @ g
        g = g @ P[f"W{i}"].values.T
    return S, grads


@pytest.mark.parametrize("dead_notion", [None, 0, 1])
def test_disentangled_scores_match_per_notion_reference(small_space, dead_notion):
    for seed in range(5):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        X = rng.normal(size=(5, 6))
        Y = (rng.random((5, small_space.num_tags)) < 0.5).astype(float)
        for init_seed in (seed, seed + 100):
            net, bank = make_net(small_space, seed=init_seed)
            if dead_notion is not None:
                # a zero notion block takes the normalization guard path
                cut = small_space.block_slice(
                    small_space.notions[dead_notion].name)
                net.params["H"].values[:, cut] = 0.0
            params = {**net.params, "C": bank}
            F, net_backward = net.full_embedding(X)
            S, score_backward = score_blocks(F, bank.values, True,
                                             True, small_space)
            gF, gC = score_backward(bce_sum(S, Y)[1](1.0))
            got = packed(params)[1]
            grad(got, [*net_backward(gF), ("C", gC)])
            ref_S, want = reference_disentangled(net, bank, X, Y)
            assert np.abs(S - ref_S).max() < 1e-12
            if dead_notion is not None:
                tags = small_space.tag_indices_of_notion(
                    small_space.notions[dead_notion].name)
                assert np.array_equal(S[:, tags], np.full((5, 2), 0.5))
            for name in params:
                assert np.abs(got[name] - want[name]).max() < 1e-12, name


# --- parameter files -------------------------------------------------------


def test_param_file_round_trip(small_space, tmp_path, rng):
    net, bank = make_net(small_space, seed=11)
    params = dict(net.params)
    params["C"] = bank
    path = tmp_path / "weights.params"
    save_params(path, params)
    back = load_params(path)
    assert set(back) == set(params)
    for name, p in params.items():
        assert np.array_equal(back[name], p.values)


def test_param_file_rejects_garbage(tmp_path):
    path = tmp_path / "junk.params"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ConfigurationError):
        load_params(path)


def test_param_file_rejects_truncation(small_space, tmp_path):
    net, bank = make_net(small_space)
    path = tmp_path / "trunc.params"
    save_params(path, {"C": bank})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ConfigurationError):
        load_params(path)


def _small_param_file(small_space, tmp_path):
    net, bank = make_net(small_space, hidden=(3,))
    path = tmp_path / "small.params"
    save_params(path, {"b0": net.params["b0"], "C": bank})
    return path, path.read_bytes()


def test_param_file_rejects_every_truncation(small_space, tmp_path):
    path, data = _small_param_file(small_space, tmp_path)
    assert set(load_params(path)) == {"b0", "C"}
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(ConfigurationError):
            load_params(path)


def test_param_file_rejects_trailing_bytes(small_space, tmp_path):
    path, data = _small_param_file(small_space, tmp_path)
    for extra in (b"\x00", b"\x00" * 8):
        path.write_bytes(data + extra)
        with pytest.raises(ConfigurationError, match="trailing"):
            load_params(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_param_file_rejects_non_finite_values(small_space, tmp_path, bad):
    net, bank = make_net(small_space)
    weights = bank.values.copy()
    weights[1, 2] = bad
    path = tmp_path / "bad.params"
    save_params(path, {"C": weights})
    with pytest.raises(ConfigurationError, match="non-finite"):
        load_params(path)
