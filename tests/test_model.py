"""Embedding networks, score variants, and their structural identities."""

import numpy as np
import pytest
from scipy.special import expit

from disembed import autodiff as ad
from disembed.autodiff import Tensor
from disembed.errors import ConfigurationError
from disembed.labelspace import LabelSpace
from disembed.losses import bce_sum
from disembed.model import (
    SCORE_VARIANTS,
    CentroidBank,
    EmbeddingNet,
    NetConfig,
    class_scores,
    embed,
    init_params,
    load_params,
    masked_embed,
    save_params,
    score_blocks,
)


def make_net(space, head="dense", normalize=False, hidden=(12, 10), seed=0):
    net = EmbeddingNet(
        NetConfig(
            input_dim=6,
            embedding_dim=space.embedding_dim,
            hidden=hidden,
            head=head,
            normalize_output=normalize,
        ),
        space,
    )
    bank = CentroidBank(space)
    init_params(net, bank, seed)
    return net, bank


def subdense_from_dense(dense_net, space):
    """Sub-dense net whose H{g} are the notion-block columns of the dense H."""
    sub = EmbeddingNet(
        NetConfig(
            input_dim=dense_net.config.input_dim,
            embedding_dim=space.embedding_dim,
            hidden=dense_net.config.hidden,
            head="subdense",
        ),
        space,
    )
    for name, p in dense_net.params.items():
        if name == "H":
            for g, notion in enumerate(space.notions):
                sub.params[f"H{g}"].values = p.values[
                    :, space.block_slice(notion.name)
                ].copy()
        else:
            sub.params[name].values = p.values.copy()
    return sub


# --- construction and init -------------------------------------------------


def test_embedding_dim_must_match_space(small_space):
    with pytest.raises(ConfigurationError):
        EmbeddingNet(NetConfig(input_dim=6, embedding_dim=4), small_space)


def test_unknown_head_rejected():
    with pytest.raises(ConfigurationError):
        NetConfig(input_dim=6, embedding_dim=8, head="conv")


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
    assert np.array_equal(bank1.weights.values, bank2.weights.values)
    net3, _ = make_net(small_space, seed=6)
    assert not np.array_equal(net1.params["W0"].values, net3.params["W0"].values)


# --- embeddings ------------------------------------------------------------


def test_embed_normalized_iff_configured(small_space, rng):
    X = rng.normal(size=(5, 6))
    net, _ = make_net(small_space, normalize=True)
    norms = np.linalg.norm(embed(net, X), axis=1)
    assert np.allclose(norms, 1.0, atol=1e-9)
    net, _ = make_net(small_space, normalize=False)
    norms = np.linalg.norm(embed(net, X), axis=1)
    assert not np.allclose(norms, 1.0, atol=1e-3)


def test_embed_single_vector(small_space, rng):
    net, _ = make_net(small_space)
    x = rng.normal(size=6)
    single = embed(net, x)
    batch = embed(net, x[None, :])
    assert single.shape == (8,)
    assert np.array_equal(single, batch[0])


def test_embed_rejects_wrong_width(small_space):
    net, _ = make_net(small_space)
    with pytest.raises(ConfigurationError):
        embed(net, np.zeros(7))


def test_embed_zero_weights_is_guarded(small_space, caplog):
    net = EmbeddingNet(
        NetConfig(input_dim=6, embedding_dim=8, normalize_output=True),
        small_space,
    )  # all-zero parameters
    out = embed(net, np.ones(6))
    assert np.array_equal(out, np.zeros(8))


def test_masked_embed_zeroes_other_blocks(small_space, rng):
    net, _ = make_net(small_space)
    X = rng.normal(size=(4, 6))
    m = masked_embed(net, X, "color")
    assert np.array_equal(m[:, 4:], np.zeros((4, 4)))
    full = net._np_pre_embedding(X)
    assert np.array_equal(m[:, :4], full[:, :4])


def test_masks_sum_to_full_embedding(small_space, rng):
    net, _ = make_net(small_space)
    X = rng.normal(size=(4, 6))
    total = sum(masked_embed(net, X, n.name) for n in small_space.notions)
    assert np.allclose(total, net._np_pre_embedding(X), atol=0)


def test_masked_equals_subdense_block(small_space, rng):
    # the masked dense embedding is the sub-dense output zero-padded into
    # place when the heads share weights (relu commutes with the 0/1 mask)
    dense, _ = make_net(small_space)
    sub = subdense_from_dense(dense, small_space)
    X = rng.normal(size=(5, 6))
    for g, notion in enumerate(small_space.notions):
        masked = masked_embed(dense, X, notion.name)
        block = sub._np_pre_embedding(X)[:, small_space.block_slice(notion.name)]
        padded = np.zeros_like(masked)
        padded[:, small_space.block_slice(notion.name)] = block
        assert np.abs(masked - padded).max() < 1e-12


# --- score variants --------------------------------------------------------


def test_hand_value_normalized_score(small_space):
    # unit embedding (1,0,...) against centroid (2,0,...) scores sigmoid(2)
    net, bank = make_net(small_space)
    u = np.zeros(8)
    u[0] = 1.0
    C = np.zeros((4, 8))
    C[0, 0] = 2.0
    bank.weights.values = C
    # bypass the network: score formula on a known unit vector
    s = expit(u @ C.T)
    assert s[0] == pytest.approx(0.88079707797788, abs=1e-10)


def test_proxy_equals_classification_normalized(small_space, rng):
    net, bank = make_net(small_space)
    X = rng.normal(size=(6, 6))
    a = class_scores(net, bank, X, "proxy")
    b = class_scores(net, bank, X, "classification-normalized")
    assert np.abs(a - b).max() < 1e-12


def test_disentangled_proxy_equals_subdense_classification(small_space, rng):
    dense, bank = make_net(small_space)
    sub = subdense_from_dense(dense, small_space)
    X = rng.normal(size=(6, 6))
    a = class_scores(dense, bank, X, "proxy-disentangled")
    b = class_scores(sub, bank, X, "classification-disentangled")
    assert np.abs(a - b).max() < 1e-9


def test_scores_in_open_unit_interval(small_space, rng):
    net, bank = make_net(small_space)
    X = rng.normal(size=(6, 6))
    for variant in ("proxy", "proxy-disentangled", "classification-plain",
                    "classification-normalized"):
        s = class_scores(net, bank, X, variant)
        assert s.shape == (6, 4)
        assert (s > 0).all() and (s < 1).all()


def test_normalized_scores_scale_invariant(small_space, rng):
    net, bank = make_net(small_space)
    X = rng.normal(size=(6, 6))
    before = class_scores(net, bank, X, "proxy")
    net.params["H"].values = net.params["H"].values * 7.5
    after = class_scores(net, bank, X, "proxy")
    assert np.abs(before - after).max() < 1e-9
    # the plain variant is NOT scale invariant
    net2, bank2 = make_net(small_space)
    plain_before = class_scores(net2, bank2, X, "classification-plain")
    net2.params["H"].values = net2.params["H"].values * 7.5
    plain_after = class_scores(net2, bank2, X, "classification-plain")
    assert np.abs(plain_before - plain_after).max() > 1e-6


def test_variant_head_mismatch_raises(small_space, rng):
    dense, bank = make_net(small_space)
    sub = subdense_from_dense(dense, small_space)
    X = rng.normal(size=(2, 6))
    with pytest.raises(ConfigurationError):
        class_scores(dense, bank, X, "classification-disentangled")
    with pytest.raises(ConfigurationError):
        class_scores(sub, bank, X, "proxy")
    with pytest.raises(ConfigurationError):
        class_scores(dense, bank, X, "not-a-variant")


def test_subdense_has_no_full_graph_embedding(small_space):
    dense, _ = make_net(small_space)
    sub = subdense_from_dense(dense, small_space)
    with pytest.raises(ConfigurationError):
        sub.full_embedding(np.zeros((1, 6)))
    with pytest.raises(ConfigurationError):
        dense.head_blocks(dense.backbone(np.zeros((1, 6))))


def test_score_blocks_is_one_all_tags_block(small_space, rng):
    dense, bank = make_net(small_space)
    sub = subdense_from_dense(dense, small_space)
    X = rng.normal(size=(3, 6))
    for variant in SCORE_VARIANTS:
        net = sub if variant == "classification-disentangled" else dense
        [(tags, S)] = score_blocks(net, bank, X, variant)
        assert np.array_equal(tags, np.arange(small_space.num_tags))
        assert S.shape == (3, small_space.num_tags)


def _selector(indices, width):
    """One-hot selection matrix S with S[i, indices[i]] = 1."""
    S = np.zeros((len(indices), width))
    S[np.arange(len(indices)), indices] = 1.0
    return S


def reference_disentangled_blocks(net, bank, X, variant):
    """Per-notion scoring, one graph chain per notion: the notion's tags
    against the L2-normalized notion block, centroids cut to the block by
    one-hot selector matmuls.  Returns (tag indices, scores) per notion."""
    space = net.space
    x = Tensor(X)
    C = bank.weights
    blocks = []
    for g, notion in enumerate(space.notions):
        tags = space.tag_indices_of_notion(notion.name)
        rows = Tensor(_selector(tags, space.num_tags))
        if variant == "proxy-disentangled":
            mask = Tensor(space.mask(notion.name).vector)
            U = ad.l2_normalize(ad.mul(net.full_embedding(x), mask))
            Cg = ad.mul(ad.matmul(rows, C), mask)
        else:
            h = ad.relu(ad.matmul(net.backbone(x), net.params[f"H{g}"]))
            U = ad.l2_normalize(h)
            dims = np.arange(space.embedding_dim)[space.block_slice(notion.name)]
            cols = Tensor(_selector(dims, space.embedding_dim))
            Cg = ad.matmul(ad.matmul(rows, C), cols, transpose_b=True)
        blocks.append((tags, ad.sigmoid(ad.matmul(U, Cg, transpose_b=True))))
    return blocks


@pytest.mark.parametrize("dead_notion", [None, 0, 1])
def test_disentangled_scores_match_per_notion_reference(small_space, dead_notion):
    for seed in range(5):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        dense, bank = make_net(small_space, seed=seed)
        if dead_notion is not None:
            # a zero notion block takes the normalization guard path
            cut = small_space.block_slice(small_space.notions[dead_notion].name)
            dense.params["H"].values[:, cut] = 0.0
        sub = subdense_from_dense(dense, small_space)
        X = rng.normal(size=(5, 6))
        Y = (rng.random((5, small_space.num_tags)) < 0.5).astype(float)
        for net, variant in ((dense, "proxy-disentangled"),
                             (sub, "classification-disentangled")):
            params = [*net.params.values(), bank.weights]
            [(_, S)] = score_blocks(net, bank, X, variant)
            got = ad.grad(bce_sum(S, Y), params)
            ref_S = np.zeros_like(S.values)
            ref_loss = None
            for tags, block in reference_disentangled_blocks(net, bank, X,
                                                             variant):
                ref_S[:, tags] = block.values
                term = bce_sum(block, Y[:, tags])
                ref_loss = term if ref_loss is None else ref_loss + term
            want = ad.grad(ref_loss, params)
            assert np.abs(S.values - ref_S).max() < 1e-12
            if dead_notion is not None:
                tags = small_space.tag_indices_of_notion(
                    small_space.notions[dead_notion].name)
                assert np.array_equal(S.values[:, tags], np.full((5, 2), 0.5))
            for p in params:
                assert np.abs(got[p] - want[p]).max() < 1e-12


# --- parameter files -------------------------------------------------------


def test_param_file_round_trip(small_space, tmp_path, rng):
    net, bank = make_net(small_space, seed=11)
    params = dict(net.params)
    params["C"] = bank.weights
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
    save_params(path, {"C": bank.weights})
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(ConfigurationError):
        load_params(path)


def _small_param_file(small_space, tmp_path):
    net, bank = make_net(small_space, hidden=(3,))
    path = tmp_path / "small.params"
    save_params(path, {"b0": net.params["b0"], "C": bank.weights})
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
    weights = bank.weights.values.copy()
    weights[1, 2] = bad
    path = tmp_path / "bad.params"
    save_params(path, {"C": weights})
    with pytest.raises(ConfigurationError, match="non-finite"):
        load_params(path)
