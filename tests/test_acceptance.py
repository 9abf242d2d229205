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
from disembed.autodiff import Tensor, grad
from disembed.benchmark import run_benchmark
from disembed.config import ExperimentConfig, default_config, default_label_space
from disembed.data import SyntheticSpec
from disembed.evaluation import (
    auc_tags,
    build_prototypes,
    retrieval_recall,
    strip_timing,
    triplet_accuracy,
)
from disembed.labelspace import LabelSpace
from disembed.losses import bce_sum, triplet_batch_loss
from disembed.model import (
    CentroidBank,
    EmbeddingNet,
    NetConfig,
    class_scores,
    init_params,
    masked_embed,
    score_blocks,
)
from disembed.sampling import TripletBatch
from disembed.trainer import VariantConfig

from conftest import finite_difference, relative_error


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


def make_nets(space, input_dim, hidden, seed):
    """Dense and sub-dense nets over the same backbone, plus a shared bank.

    The sub-dense head matrices are the column blocks of the dense head, so
    the two nets compute the same per-notion coordinates.
    """
    dense = EmbeddingNet(
        NetConfig(input_dim=input_dim, embedding_dim=space.embedding_dim,
                  hidden=hidden, head="dense"),
        space,
    )
    sub = EmbeddingNet(
        NetConfig(input_dim=input_dim, embedding_dim=space.embedding_dim,
                  hidden=hidden, head="subdense"),
        space,
    )
    bank = CentroidBank(space)
    init_params(dense, bank, seed)
    for i in range(len(hidden)):
        sub.params[f"W{i}"].values = dense.params[f"W{i}"].values.copy()
        sub.params[f"b{i}"].values = dense.params[f"b{i}"].values.copy()
    H = dense.params["H"].values
    for g, notion in enumerate(space.notions):
        sub.params[f"H{g}"].values = H[:, space.block_slice(notion.name)].copy()
    return dense, sub, bank


# --- per-notion score identities -------------------------------------------


def test_disentangled_score_identities():
    """Per-tag scores agree across equivalent formulations.

    Under head identification, per-notion masked scoring of a dense embedding
    equals sub-dense per-block scoring (max difference below 1e-9 over 100
    random instances), and proxy scoring equals normalized classification
    scoring when the banks coincide (below 1e-12).  The whole sweep must
    finish within ten seconds.
    """
    start = time.perf_counter()
    worst_disent = 0.0
    worst_norm = 0.0
    for seed in range(100):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 41]))
        space = random_space(rng)
        input_dim = int(rng.integers(3, 7))
        dense, sub, bank = make_nets(space, input_dim, (int(rng.integers(4, 8)),),
                                     seed)
        X = rng.normal(size=(3, input_dim))

        s_proxy_dis = class_scores(dense, bank, X, "proxy-disentangled")
        s_class_dis = class_scores(sub, bank, X, "classification-disentangled")
        worst_disent = max(worst_disent,
                           float(np.abs(s_proxy_dis - s_class_dis).max()))

        # independent recomputation: sigmoid of normalized-embedding dot bank
        E = dense.full_embedding(X).values
        U = E / np.maximum(np.linalg.norm(E, axis=1, keepdims=True), ad.NORM_EPS)
        expect = expit(U @ bank.weights.values.T)
        s_proxy = class_scores(dense, bank, X, "proxy")
        s_cnorm = class_scores(dense, bank, X, "classification-normalized")
        worst_norm = max(
            worst_norm,
            float(np.abs(s_proxy - expect).max()),
            float(np.abs(s_cnorm - expect).max()),
            float(np.abs(s_proxy - s_cnorm).max()),
        )
    elapsed = time.perf_counter() - start
    assert worst_disent < 1e-9, f"max disentangled score gap {worst_disent}"
    assert worst_norm < 1e-12, f"max proxy/normalized score gap {worst_norm}"
    assert elapsed < 10.0, f"identity sweep took {elapsed:.1f}s"


# --- gradient suite ---------------------------------------------------------


GRAD_INPUT_DIM = 5
GRAD_HIDDEN = (6,)


def grad_space() -> LabelSpace:
    return LabelSpace(
        [("color", ["red", "blue"]), ("shape", ["round", "square"])],
        embedding_dim=8,
    )


def _min_kink_distance(net, X) -> float:
    """Smallest |pre-activation| across every relu in the forward pass."""
    h = np.asarray(X, dtype=np.float64)
    worst = np.inf
    for i in range(net.n_hidden):
        z = h @ net.params[f"W{i}"].values + net.params[f"b{i}"].values
        worst = min(worst, float(np.abs(z).min()))
        h = np.maximum(z, 0.0)
    if net.config.head == "dense":
        z = h @ net.params["H"].values
        worst = min(worst, float(np.abs(z).min()))
    else:
        for g in range(net.space.num_notions):
            z = h @ net.params[f"H{g}"].values
            worst = min(worst, float(np.abs(z).min()))
    return worst


def _safe_instance(seed, head, batch, loss_of, hinge_of=None, reject=None):
    """Draw net/bank/input where the loss is differentiable near the point.

    Finite differences are only meaningful away from relu and hinge kinks and
    away from zero-norm rows (masked or not), so degenerate draws are
    rejected and redrawn.
    """
    space = grad_space()
    for attempt in range(60):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 43, attempt]))
        net = EmbeddingNet(
            NetConfig(input_dim=GRAD_INPUT_DIM, embedding_dim=space.embedding_dim,
                      hidden=GRAD_HIDDEN, head=head),
            space,
        )
        bank = CentroidBank(space)
        init_params(net, bank, int(rng.integers(1 << 30)))
        X = rng.normal(size=(batch, GRAD_INPUT_DIM))
        if _min_kink_distance(net, X) < 1e-3:
            continue
        E = net.full_embedding(X).values
        if np.linalg.norm(E, axis=1).min() < 1e-2:
            continue
        if reject is not None and reject(net, bank, X):
            continue
        if hinge_of is not None and min(np.abs(hinge_of(net, bank, X))) < 1e-3:
            continue
        return net, bank, X, loss_of(net, bank, X)
    raise AssertionError(f"no differentiable instance found for seed {seed}")


def _check_model_gradient(seed, head, batch, loss_of, hinge_of=None,
                          with_bank=True, reject=None):
    net, bank, X, build = _safe_instance(seed, head, batch, loss_of, hinge_of,
                                         reject)
    params = dict(net.params)
    if with_bank:
        params["C"] = bank.weights
    analytic = grad(build(), params.values())
    numeric = finite_difference(lambda: build().item(), params, step=1e-6)
    for name, p in params.items():
        err = relative_error(analytic[p], numeric[name], floor=1e-6)
        assert err < 1e-4, f"seed {seed} param {name}: rel err {err}"


def _triplet_rows(space, rng, batch):
    """Random anchor/positive/negative input rows plus per-row notion masks."""
    XA = rng.normal(size=(batch, GRAD_INPUT_DIM))
    XP = rng.normal(size=(batch, GRAD_INPUT_DIM))
    XN = rng.normal(size=(batch, GRAD_INPUT_DIM))
    masks = np.stack([
        space.mask(space.notions[int(rng.integers(space.num_notions))].name).vector
        for _ in range(batch)
    ])
    return XA, XP, XN, masks


def test_loss_gradients_match_finite_differences():
    """Reverse-mode gradients of all six training losses, taken through the
    whole network graph, agree with central finite differences to a relative
    error of 1e-4 on twenty random instances per loss, inside a minute."""
    start = time.perf_counter()
    space = grad_space()
    batch = 3

    def triplet_inputs(seed):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 47]))
        return _triplet_rows(space, rng, batch)

    for seed in range(20):
        XA, XP, XN, masks = triplet_inputs(seed)

        def masked_rows_alive(net, bank, X):
            # a masked row collapsing to zero would hit the degenerate-cosine
            # guard, which is a kink finite differences cannot straddle
            return any(
                np.linalg.norm(net.full_embedding(Z).values * masks,
                               axis=1).min() < 1e-2
                for Z in (XA, XP, XN)
            )

        # plain triplet over full embeddings
        def plain_loss(net, bank, X):
            def build():
                return triplet_batch_loss(
                    net.full_embedding(XA), net.full_embedding(XP),
                    net.full_embedding(XN), 0.3,
                )
            return build

        def plain_hinge(net, bank, X):
            EA, EP, EN = (net.full_embedding(Z).values for Z in (XA, XP, XN))
            return _hinge_args(EA, EP, EN, 0.3)

        _check_model_gradient(seed, "dense", batch, plain_loss, plain_hinge,
                              with_bank=False)

        # masked (per-notion) triplet
        def masked_loss(net, bank, X):
            def build():
                return triplet_batch_loss(
                    net.full_embedding(XA), net.full_embedding(XP),
                    net.full_embedding(XN), 0.3, masks=masks,
                )
            return build

        def masked_hinge(net, bank, X):
            EA, EP, EN = (net.full_embedding(Z).values * masks
                          for Z in (XA, XP, XN))
            return _hinge_args(EA, EP, EN, 0.3)

        _check_model_gradient(seed, "dense", batch, masked_loss, masked_hinge,
                              with_bank=False, reject=masked_rows_alive)

        # track-regularized sum: masked tag triplets plus full-space track ones
        def trackreg_loss(net, bank, X):
            def build():
                EA, EP, EN = (net.full_embedding(Z) for Z in (XA, XP, XN))
                tag = triplet_batch_loss(EA, EP, EN, 0.3, masks=masks)
                return tag + 0.7 * triplet_batch_loss(EP, EN, EA, 0.3)
            return build

        def trackreg_hinge(net, bank, X):
            EA, EP, EN = (net.full_embedding(Z).values for Z in (XA, XP, XN))
            return np.concatenate([
                _hinge_args(EA * masks, EP * masks, EN * masks, 0.3),
                _hinge_args(EP, EN, EA, 0.3),
            ])

        _check_model_gradient(seed, "dense", batch, trackreg_loss,
                              trackreg_hinge, with_bank=False,
                              reject=masked_rows_alive)

        # the three score-based binary cross entropies
        def bce_loss(variant):
            def loss_of(net, bank, X):
                rng = np.random.default_rng(np.random.SeedSequence([seed, 53]))
                Y = (rng.random((batch, space.num_tags)) < 0.5).astype(float)

                def build():
                    total = None
                    for tag_idx, block in score_blocks(net, bank, X, variant):
                        term = bce_sum(block, Y[:, tag_idx])
                        total = term if total is None else total + term
                    return total
                return build
            return loss_of

        _check_model_gradient(seed, "dense", batch,
                              bce_loss("proxy-disentangled"))
        _check_model_gradient(seed, "dense", batch,
                              bce_loss("classification-normalized"))
        _check_model_gradient(seed, "subdense", batch,
                              bce_loss("classification-disentangled"))

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
        L = (rng.random((n, T)) < 0.4).astype(float)
        L[L.sum(axis=1) == 0, 0] = 1.0
        if (L.sum(axis=0) == 0).any() or (L.sum(axis=0) == n).all():
            L[0] = 1.0
            L[1] = 0.0
            L[1, 0] = 1.0

        got = retrieval_recall(E, L, [1, 3])
        assert got[1] == brute_recall(E, L, 1), f"seed {seed}: recall@1"
        assert got[3] == brute_recall(E, L, 3), f"seed {seed}: recall@3"

        S = np.round(rng.random((n, T)), 1)  # quantized scores force ties
        assert abs(auc_tags(S, L) - brute_auc_tags(S, L)) < 1e-9, \
            f"seed {seed}: auc"

        rows = np.array([rng.choice(n, size=3, replace=False)
                         for _ in range(15)]).T
        # track triplets read no tag, so any label space serves
        triplets = TripletBatch(*rows, None, None, default_label_space())
        assert triplet_accuracy(E, triplets, mode="full") == \
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
            name = VariantConfig.from_dict(rd["variant"]).name
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
    coordinates orthogonally, and the masked dense embedding equals the
    sub-dense block output, both to 1e-12."""
    for seed in range(10):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 61]))
        space = random_space(rng)
        vectors = [space.mask(n.name).vector for n in space.notions]
        total = np.sum(vectors, axis=0)
        assert np.abs(total - 1.0).max() < 1e-12, f"seed {seed}: partition"
        for i in range(len(vectors)):
            for j in range(i + 1, len(vectors)):
                assert abs(np.dot(vectors[i], vectors[j])) < 1e-12, \
                    f"seed {seed}: orthogonality"

        input_dim = int(rng.integers(3, 7))
        dense, sub, _ = make_nets(space, input_dim, (5,), seed)
        X = rng.normal(size=(4, input_dim))
        E_sub = sub.full_embedding(X).values
        for notion in space.notions:
            masked = masked_embed(dense, X, notion.name)
            padded = E_sub * space.mask(notion.name).vector
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
