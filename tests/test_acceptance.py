"""End-to-end acceptance checks: algebraic identities, gradient correctness,
metric oracles, benchmark orderings, masking invariants, and determinism.

Each test here is a self-contained pass/fail gate at a fixed tolerance; the
benchmark-level tests share one module-scoped run over five seeds.
"""

import json
import time

import numpy as np
import pytest
from scipy.special import expit

from disembed import autodiff as ad
from disembed.autodiff import grad, packed
from disembed.benchmark import run_benchmark
from disembed.config import ExperimentConfig, default_config, default_label_space
from disembed.data import SyntheticSpec
from disembed.evaluation import (
    auc_tags,
    build_prototypes,
    retrieval_recall,
    strip_timing,
    triplet_accuracy,
    unit_blocks,
)
from disembed.labelspace import LabelSpace
from disembed.model import EmbeddingNet, class_scores, init_params
from disembed.sampling import TripletBatch
from disembed.trainer import (
    TrainedModel,
    VariantConfig,
    _family_loss,
    _pieces,
    _triplet_inputs,
)

from conftest import finite_difference, mask, n_hidden, relative_error


# --- shared construction helpers -------------------------------------------


def random_space(rng) -> LabelSpace:
    """A random label space: 2-3 notions, 2-4 tags each, small blocks."""
    n_notions = int(rng.integers(2, 4))
    block = int(rng.integers(3, 6))
    notions = []
    for g in range(n_notions):
        tags = [f"n{g}t{t}" for t in range(int(rng.integers(2, 5)))]
        notions.append((f"notion{g}", tags))
    return LabelSpace(notions, embedding_dim=n_notions * block)


def make_net(space, input_dim, hidden, seed):
    """A net and a (tags, d) bank."""
    net = EmbeddingNet(space, input_dim, hidden)
    bank = ad.Param(np.zeros((space.num_tags, space.embedding_dim)))
    init_params(net, bank, seed)
    return net, bank


def numpy_backbone(net, X):
    h = np.asarray(X, dtype=np.float64)
    for i in range(n_hidden(net)):
        h = np.maximum(h @ net.params[f"W{i}"].values
                       + net.params[f"b{i}"].values, 0.0)
    return h


def subdense_block(net, h, notion):
    """Notion ``notion``'s own sub-dense relu layer: relu(h @ H[:, block])."""
    cut = net.space.block_slice(notion)
    return np.maximum(h @ net.params["H"].values[:, cut], 0.0)


def subdense_scores(net, bank, X):
    """Sub-dense scoring in plain numpy, block by block: each notion's block
    output, L2-normalized, dotted with its tags' centroids on that block."""
    space, h = net.space, numpy_backbone(net, X)
    S = np.empty((len(h), space.num_tags))
    for notion in space.notions:
        E = subdense_block(net, h, notion.name)
        U = E / np.maximum(np.linalg.norm(E, axis=1, keepdims=True), ad.NORM_EPS)
        tags = space.tag_indices_of_notion(notion.name)
        C = bank.values[tags][:, space.block_slice(notion.name)]
        S[:, tags] = expit(U @ C.T)
    return S


# --- per-notion score identities -------------------------------------------


def test_disentangled_score_identities():
    """Per-tag scores agree across equivalent formulations.

    Disentangled scoring (per-notion masked scoring of the full embedding)
    equals an independent numpy recomputation of sub-dense per-block
    scoring, for two init draws of the head (max difference below 1e-9 over
    100 random instances), and proxy scoring, which is normalized
    classification scoring, equals an independent recomputation (below
    1e-12).  The whole sweep must finish within ten seconds.
    """
    start = time.perf_counter()
    worst_disent = 0.0
    worst_norm = 0.0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))
        space = random_space(rng)
        input_dim = int(rng.integers(3, 7))
        hidden = (int(rng.integers(4, 8)),)
        dense, bank = make_net(space, input_dim, hidden, seed)
        other = make_net(space, input_dim, hidden, seed + 100)
        X = rng.normal(size=(3, input_dim))

        for net, b in ((dense, bank), other):
            worst_disent = max(worst_disent, float(np.abs(
                class_scores(net, b, X, True, True)
                - subdense_scores(net, b, X)
            ).max()))

        # independent recomputation: sigmoid of normalized-embedding dot bank
        E = dense.full_embedding(X)[0]
        U = E / np.maximum(np.linalg.norm(E, axis=1, keepdims=True), ad.NORM_EPS)
        expect = expit(U @ bank.values.T)
        s_proxy = class_scores(dense, bank, X, True, False)
        worst_norm = max(worst_norm, float(np.abs(s_proxy - expect).max()))
    elapsed = time.perf_counter() - start
    assert worst_disent < 1e-9, f"max disentangled score gap {worst_disent}"
    assert worst_norm < 1e-12, f"max proxy/normalized score gap {worst_norm}"
    assert elapsed < 10.0, f"identity sweep took {elapsed:.1f}s"


# --- gradient suite ---------------------------------------------------------


GRAD_INPUT_DIM = 5
# no hidden layer, one and two
GRAD_HIDDENS = ((), (6,), (6, 5))


def grad_space() -> LabelSpace:
    return LabelSpace(
        [("color", ["red", "blue"]), ("shape", ["round", "square"])],
        embedding_dim=8,
    )


def _min_kink_distance(net, X) -> float:
    """Smallest |pre-activation| across every relu in the forward pass."""
    h = np.asarray(X, dtype=np.float64)
    worst = np.inf
    for i in range(n_hidden(net)):
        z = h @ net.params[f"W{i}"].values + net.params[f"b{i}"].values
        worst = min(worst, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    z = h @ net.params["H"].values
    return min(worst, float(np.abs(z).min()))


def _safe_instance(seed, hidden, batch, loss_of, hinge_of=None, reject=None):
    """Draw net/bank/input where the loss is differentiable near the point.

    Finite differences are only meaningful away from relu and hinge kinks and
    away from zero-norm rows (masked or not), so degenerate draws are
    rejected and redrawn.
    """
    space = grad_space()
    for attempt in range(60):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 43, attempt]))
        net, bank = make_net(space, GRAD_INPUT_DIM, hidden,
                             int(rng.integers(1 << 30)))
        X = rng.normal(size=(batch, GRAD_INPUT_DIM))
        if _min_kink_distance(net, X) < 1e-3:
            continue
        E = net.full_embedding(X)[0]
        if np.linalg.norm(E, axis=1).min() < 1e-2:
            continue
        if reject is not None and reject(net, bank, X):
            continue
        if hinge_of is not None and min(np.abs(hinge_of(net, bank, X))) < 1e-3:
            continue
        return net, bank, X, loss_of(net, bank, X)
    raise AssertionError(f"no differentiable instance found for seed {seed}")


def _check_model_gradient(seed, hidden, batch, loss_of, hinge_of=None,
                          with_bank=True, reject=None):
    """``loss_of(net, bank, X)`` returns ``build()``, a training step's
    ``(loss, backward)``; the flat gradient ``grad`` writes from its pieces
    must match finite differences of the loss."""
    net, bank, X, build = _safe_instance(seed, hidden, batch, loss_of,
                                         hinge_of, reject)
    params = dict(net.params)
    if with_bank:
        params["C"] = bank
    analytic = packed(params)[1]
    grad(analytic, build()[1]())
    numeric = finite_difference(lambda: float(build()[0]), params, step=1e-6)
    for name in params:
        err = relative_error(analytic[name], numeric[name], floor=1e-6)
        assert err < 1e-4, f"seed {seed} hidden {hidden} param {name}: rel err {err}"


def _step(model, inputs, batch):
    """A training step as the trainer's loop runs it: ``full_embedding``
    then ``_family_loss``.  Returns the loss and ``backward()``, the step's
    ``(name, gradient)`` pieces for ``grad``."""
    F, net_backward = model.net.full_embedding(inputs)
    loss, backward = _family_loss(model, F, batch)
    return loss, lambda: _pieces(net_backward, backward)


def _triplet_rows(space, rng, batch):
    """Random anchor/positive/negative input rows plus per-row notion
    indices."""
    XA = rng.normal(size=(batch, GRAD_INPUT_DIM))
    XP = rng.normal(size=(batch, GRAD_INPUT_DIM))
    XN = rng.normal(size=(batch, GRAD_INPUT_DIM))
    notions = np.array([int(rng.integers(space.num_notions))
                        for _ in range(batch)])
    return XA, XP, XN, notions


def test_loss_gradients_match_finite_differences():
    """The gradients of all six training losses, taken by the trainer's own
    step through the whole network and written by ``grad``, agree with
    central finite differences to a relative error of 1e-4 on twenty random
    instances per loss and per depth (no hidden layer, one and two), inside
    a minute."""
    start = time.perf_counter()
    space = grad_space()
    batch = 3
    rows = [np.arange(i * batch, (i + 1) * batch) for i in range(3)]

    def triplet_inputs(seed):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 47]))
        return _triplet_rows(space, rng, batch)

    for hidden, seed in ((h, s) for h in GRAD_HIDDENS for s in range(20)):
        XA, XP, XN, notions = triplet_inputs(seed)
        masks = space.notion_block_mask[notions]
        XT = np.vstack([XA, XP, XN])
        tags = TripletBatch(*rows, notions, notions, space)
        # track triplets (p, n, a) over the same rows, unmasked
        tracks = TripletBatch(rows[1], rows[2], rows[0], None, None, space)

        def triplet_loss(**flags):
            variant = VariantConfig(family="triplet", margin=0.3,
                                    track_reg_weight=0.7, **flags)

            idx, step_masks, weights = _triplet_inputs(variant, space, tags,
                                                        tracks)

            def loss_of(net, bank, X):
                model = TrainedModel(net, None, variant, space)
                return lambda: _step(model, XT[idx], (step_masks, weights))
            return loss_of

        def triplet_reject(masks):
            # the triplet losses embed XA, XP and XN, not X, so their relus
            # must be away from a kink on those rows.  A (masked) row
            # collapsing to zero would hit the degenerate-cosine guard,
            # which is a kink finite differences cannot straddle; with two
            # hidden layers, all-dead first-layer units give such rows
            # unmasked too
            def reject(net, bank, X):
                return _min_kink_distance(net, XT) < 1e-3 or any(
                    np.linalg.norm(net.full_embedding(Z)[0] * masks,
                                   axis=1).min() < 1e-2
                    for Z in (XA, XP, XN)
                )
            return reject

        # plain triplet over full embeddings
        def plain_hinge(net, bank, X):
            EA, EP, EN = (net.full_embedding(Z)[0] for Z in (XA, XP, XN))
            return _hinge_args(EA, EP, EN, 0.3)

        _check_model_gradient(seed, hidden, batch, triplet_loss(),
                              plain_hinge, with_bank=False,
                              reject=triplet_reject(1.0))

        # masked (per-notion) triplet
        def masked_hinge(net, bank, X):
            EA, EP, EN = (net.full_embedding(Z)[0] * masks
                          for Z in (XA, XP, XN))
            return _hinge_args(EA, EP, EN, 0.3)

        _check_model_gradient(seed, hidden, batch,
                              triplet_loss(disentanglement=True),
                              masked_hinge, with_bank=False,
                              reject=triplet_reject(masks))

        # track-regularized sum: masked tag triplets plus full-space track ones
        def trackreg_hinge(net, bank, X):
            EA, EP, EN = (net.full_embedding(Z)[0] for Z in (XA, XP, XN))
            return np.concatenate([
                _hinge_args(EA * masks, EP * masks, EN * masks, 0.3),
                _hinge_args(EP, EN, EA, 0.3),
            ])

        _check_model_gradient(seed, hidden, batch,
                              triplet_loss(disentanglement=True,
                                           track_reg=True),
                              trackreg_hinge, with_bank=False,
                              reject=triplet_reject(masks))

        # the three score-based binary cross entropies: disentangled proxy,
        # normalized classification, and disentangled classification, which
        # is the disentangled proxy's score, checked on its own draws
        def bce_loss(family, disentangled):
            variant = VariantConfig(family=family,
                                    disentanglement=disentangled)

            def loss_of(net, bank, X):
                rng = np.random.default_rng(np.random.SeedSequence([seed, 53]))
                Y = (rng.random((batch, space.num_tags)) < 0.5).astype(float)
                model = TrainedModel(net, bank, variant, space)
                return lambda: _step(model, X, (Y, 1.0))
            return loss_of

        _check_model_gradient(seed, hidden, batch, bce_loss("proxy", True))
        _check_model_gradient(seed, hidden, batch,
                              bce_loss("classification", False))
        _check_model_gradient(seed + 100, hidden, batch,
                              bce_loss("classification", True))

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"gradient sweep took {elapsed:.1f}s"


def _hinge_args(EA, EP, EN, margin):
    """cos(a, n) - cos(a, p) + margin per row, computed independently."""
    def cos_rows(A, B):
        na = np.maximum(np.linalg.norm(A, axis=1), ad.NORM_EPS)
        nb = np.maximum(np.linalg.norm(B, axis=1), ad.NORM_EPS)
        return np.sum(A * B, axis=1) / (na * nb)

    return cos_rows(EA, EN) - cos_rows(EA, EP) + margin


# --- metric oracles ---------------------------------------------------------


def brute_recall(E, L, k):
    """Naive per-query cosine ranking with index tie-break."""
    E = np.asarray(E, dtype=np.float64)
    L = np.asarray(L) > 0
    vals = []
    for i in range(len(E)):
        sims = []
        for j in range(len(E)):
            if j == i:
                continue
            ni = max(np.linalg.norm(E[i]), 1e-12)
            nj = max(np.linalg.norm(E[j]), 1e-12)
            sims.append((-np.dot(E[i], E[j]) / (ni * nj), j))
        sims.sort()
        covered = np.zeros(L.shape[1], dtype=bool)
        for _, j in sims[:k]:
            covered |= L[j]
        if L[i].sum():
            vals.append((L[i] & covered).sum() / L[i].sum())
    return float(np.mean(vals))


def brute_auc_tags(S, L):
    """Macro AUC by explicit pair counting, skipping single-class tags."""
    per_tag = []
    for t in range(S.shape[1]):
        pos = S[L[:, t] > 0, t]
        neg = S[L[:, t] == 0, t]
        if not len(pos) or not len(neg):
            continue
        wins = 0.0
        for p in pos:
            for n in neg:
                wins += 1.0 if p > n else (0.5 if p == n else 0.0)
        per_tag.append(wins / (len(pos) * len(neg)))
    return float(np.mean(per_tag))


def brute_triplet_accuracy(E, triplets):
    correct = 0
    for t in triplets:
        a, p, n = E[t.anchor], E[t.positive], E[t.negative]
        ca = np.dot(a, p) / max(np.linalg.norm(a) * np.linalg.norm(p), 1e-24)
        cn = np.dot(a, n) / max(np.linalg.norm(a) * np.linalg.norm(n), 1e-24)
        correct += ca > cn
    return correct / len(triplets)


def test_metrics_match_brute_force_oracles():
    """Recall, macro AUC, triplet accuracy, and prototypes all reproduce a
    naive reimplementation on 200 random instances (AUC within 1e-9, the
    rest exactly), inside a minute."""
    start = time.perf_counter()
    for seed in range(200):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 59]))
        n = int(rng.integers(6, 14))
        d = int(rng.integers(3, 7))
        T = int(rng.integers(2, 6))
        E = rng.normal(size=(n, d))
        U = unit_blocks(E, d)  # the unit rows the metrics take
        L = (rng.random((n, T)) < 0.4).astype(float)
        L[L.sum(axis=1) == 0, 0] = 1.0
        if (L.sum(axis=0) == 0).any() or (L.sum(axis=0) == n).all():
            L[0] = 1.0
            L[1] = 0.0
            L[1, 0] = 1.0

        got = retrieval_recall(U, L, [1, 3])
        assert got[1] == brute_recall(E, L, 1), f"seed {seed}: recall@1"
        assert got[3] == brute_recall(E, L, 3), f"seed {seed}: recall@3"

        S = np.round(rng.random((n, T)), 1)  # quantized scores force ties
        assert abs(auc_tags(S, L) - brute_auc_tags(S, L)) < 1e-9, \
            f"seed {seed}: auc"

        rows = np.array([rng.choice(n, size=3, replace=False)
                         for _ in range(15)]).T
        # track triplets read no tag, so any label space serves
        triplets = TripletBatch(*rows, None, None, default_label_space())
        assert triplet_accuracy(U, triplets, mode="full") == \
            brute_triplet_accuracy(E, triplets), f"seed {seed}: triplets"

        protos = build_prototypes(E, L)
        for t in range(T):
            members = E[L[:, t] > 0]
            expect = members.mean(axis=0) if len(members) else np.zeros(d)
            assert np.array_equal(protos[t], expect), f"seed {seed}: prototype"

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"


# --- benchmark-level orderings ----------------------------------------------


N_SEEDS = 5


@pytest.fixture(scope="module")
def benchmark_medians():
    """Median per-variant metrics over five full default-configuration runs."""
    start = time.perf_counter()
    runs = [run_benchmark(default_config(seed=s)) for s in range(N_SEEDS)]
    elapsed = time.perf_counter() - start

    by_variant = {}
    for run in runs:
        for rd in run["reports"]:
            assert rd["error"] is None, rd["error"]
            name = VariantConfig(**rd["variant"]).name
            row = by_variant.setdefault(name, {"r1": [], "auc": [],
                                               "ratio": [], "sub": {}, "full": {}})
            row["r1"].append(rd["recall_at"]["1"])
            row["auc"].append(rd["auc"])
            row["ratio"].append(rd["timing"]["training_time_ratio"])
            for key, v in rd["triplet_accuracy"].items():
                mode, notion = key.split("/")
                if notion in ("overall", "track"):
                    continue
                row[mode].setdefault(notion, []).append(v)
    medians = {
        name: {
            "r1": float(np.median(row["r1"])),
            "auc": float(np.median(row["auc"])),
            "ratio": float(np.median(row["ratio"])),
            "sub": {k: float(np.median(v)) for k, v in row["sub"].items()},
            "full": {k: float(np.median(v)) for k, v in row["full"].items()},
        }
        for name, row in by_variant.items()
    }
    return medians, elapsed


def test_benchmark_runs_inside_budget(benchmark_medians):
    medians, elapsed = benchmark_medians
    assert len(medians) == 8
    assert elapsed < 900.0, f"five benchmark runs took {elapsed:.0f}s"


def test_normalization_gap_in_classification_retrieval(benchmark_medians):
    """Dropping output normalization costs the classifier at least half of
    its retrieval recall at the default learning rate."""
    medians, _ = benchmark_medians
    plain = medians["classification"]["r1"]
    norm = medians["classification+norm"]["r1"]
    assert plain <= 0.5 * norm, f"plain {plain:.3f} vs normalized {norm:.3f}"


def test_score_based_families_beat_triplet_retrieval(benchmark_medians):
    """The best proxy/classification variant matches or beats the best
    triplet variant on both retrieval recall and tag AUC."""
    medians, _ = benchmark_medians
    triplet = [n for n in medians if n.startswith("triplet")]
    scored = [n for n in medians if not n.startswith("triplet")]
    best_scored_r1 = max(medians[n]["r1"] for n in scored)
    best_triplet_r1 = max(medians[n]["r1"] for n in triplet)
    assert best_scored_r1 >= best_triplet_r1, \
        f"scored {best_scored_r1:.3f} < triplet {best_triplet_r1:.3f}"
    best_scored_auc = max(medians[n]["auc"] for n in scored)
    best_triplet_auc = max(medians[n]["auc"] for n in triplet)
    assert best_scored_auc >= best_triplet_auc, \
        f"scored {best_scored_auc:.3f} < triplet {best_triplet_auc:.3f}"


def test_training_time_ordering(benchmark_medians):
    """Classification trains fastest; the track-regularized disentangled
    triplet variant trains slowest (ordering of median time ratios only)."""
    medians, _ = benchmark_medians
    ratios = {name: row["ratio"] for name, row in medians.items()}
    fastest = min(ratios, key=ratios.get)
    slowest = max(ratios, key=ratios.get)
    assert fastest.startswith("classification"), f"fastest was {fastest}"
    assert slowest == "triplet+norm+disent+trackreg", f"slowest was {slowest}"


def test_disentangled_triplet_subspace_accuracy(benchmark_medians):
    """For the disentangled triplet variant, per-notion triplet accuracy in
    the notion's own sub-space beats the full space for most notions."""
    medians, _ = benchmark_medians
    row = medians["triplet+norm+disent"]
    notions = [n.name for n in default_label_space().notions]
    wins = sum(row["sub"][n] >= row["full"][n] for n in notions)
    assert wins >= 3, (
        f"sub-space won {wins}/4: "
        + ", ".join(f"{n} {row['sub'][n]:.3f}/{row['full'][n]:.3f}"
                    for n in notions)
    )


# --- masking invariants ------------------------------------------------------


def test_mask_partition_and_subdense_identity():
    """On randomized label spaces, the notion masks partition the embedding
    coordinates orthogonally, and each notion block of the full embedding,
    like the masked embedding, is that notion's own sub-dense relu output,
    all to 1e-12."""
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 61]))
        space = random_space(rng)
        vectors = [mask(space, n.name) for n in space.notions]
        total = np.sum(vectors, axis=0)
        assert np.abs(total - 1.0).max() < 1e-12, f"seed {seed}: partition"
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert abs(np.dot(vectors[i], vectors[j])) < 1e-12, \
                    f"seed {seed}: orthogonality"

        input_dim = int(rng.integers(3, 7))
        net, _ = make_net(space, input_dim, (5,), seed)
        X = rng.normal(size=(4, input_dim))
        E = net.full_embedding(X)[0]
        h = net.backbone(X)
        for notion in space.notions:
            cut = space.block_slice(notion.name)
            block = subdense_block(net, h, notion.name)
            assert np.abs(E[:, cut] - block).max() < 1e-12, \
                f"seed {seed}: {notion.name} block of the full embedding"
            masked = E * mask(space, notion.name)
            padded = np.zeros_like(masked)
            padded[:, cut] = block
            assert np.abs(masked - padded).max() < 1e-12, \
                f"seed {seed}: {notion.name} masked embedding"


# --- determinism -------------------------------------------------------------


def test_benchmark_reports_are_deterministic():
    """Two runs of the same configuration and seed produce byte-identical
    reports once wall-clock fields are removed."""
    space = default_label_space()
    config = ExperimentConfig(
        space=space,
        synthetic=SyntheticSpec(space=space, tracks=80, excerpts_per_track=3,
                                seed=13),
        variants=[
            VariantConfig(family="classification", max_epochs=2, seed=13,
                          hidden=(32, 32)),
            VariantConfig(family="proxy", disentanglement=True, max_epochs=2,
                          seed=13, hidden=(32, 32)),
            VariantConfig(family="triplet", disentanglement=True,
                          track_reg=True, max_epochs=2, seed=13,
                          hidden=(32, 32)),
        ],
        triplets_per_notion=100,
        seed=13,
    )

    def run_once():
        out = run_benchmark(config)
        return json.dumps(
            {"config": out["config"],
             "reports": [strip_timing(r) for r in out["reports"]]},
            sort_keys=True,
        )

    assert run_once() == run_once()
