"""Evaluation metrics against independent brute-force oracles."""

import numpy as np
import pytest

from disembed import evaluation
from disembed.errors import ConfigurationError
from disembed.evaluation import (
    EvalReport,
    auc_rank,
    auc_tags,
    build_prototypes,
    recall_at_k,
    retrieval_recall,
    strip_timing,
    training_time_ratio,
    triplet_accuracy,
)
from disembed.labelspace import LabelSpace
from disembed.sampling import Triplet, TripletBatch


# --- oracles ---------------------------------------------------------------


def brute_auc(pos, neg):
    """Pair-count AUC: wins + half-credit ties over all pos/neg pairs."""
    wins = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def brute_recall(E, L, k):
    """Per-query cosine ranking with index tie-break, recomputed naively."""
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
        top = [j for _, j in sims[:k]]
        covered = np.zeros(L.shape[1], dtype=bool)
        for j in top:
            covered |= L[j]
        if L[i].sum():
            vals.append((L[i] & covered).sum() / L[i].sum())
    return float(np.mean(vals))


def loop_triplet_accuracy(E, triplets, mode="full", space=None):
    """Per-triplet cosine comparison, one triplet at a time."""
    E = np.asarray(E, dtype=np.float64)
    correct = 0
    for t in triplets:
        ea, ep, en = E[t.anchor], E[t.positive], E[t.negative]
        if mode == "sub":
            sl = space.block_slice(t.notion)
            ea, ep, en = ea[sl], ep[sl], en[sl]
        na = max(np.linalg.norm(ea), 1e-12)
        cp = np.dot(ea, ep) / (na * max(np.linalg.norm(ep), 1e-12))
        cn = np.dot(ea, en) / (na * max(np.linalg.norm(en), 1e-12))
        correct += bool(cp > cn)
    return correct / len(triplets)


def tied_embeddings(rng, n, d=8):
    """Rows with four entries of +-1 and the rest 0, some scaled by a power
    of two, some duplicated, two all-zero: every cosine is an exact multiple
    of 1/4, so equal cosines are equal floats however they are computed."""
    E = np.zeros((n, d))
    for row in E:
        row[rng.choice(d, size=4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    E *= 2.0 ** rng.integers(0, 3, size=(n, 1))
    dup = rng.choice(n, size=n // 4, replace=False)
    E[dup] = E[rng.choice(n, size=len(dup))]
    E[rng.choice(n, size=2, replace=False)] = 0.0
    return E


# --- recall ----------------------------------------------------------------


def test_recall_at_k_hand_case():
    q = np.array([1, 1, 0, 1])
    retrieved = [np.array([1, 0, 0, 0]), np.array([0, 0, 1, 1])]
    # union covers labels 0 and 3 of the query's three labels
    assert recall_at_k(q, retrieved) == pytest.approx(2 / 3)


def test_recall_at_k_rejects_empty_query():
    with pytest.raises(ValueError):
        recall_at_k(np.zeros(3), [np.ones(3)])


@pytest.mark.parametrize("seed", range(8))
def test_retrieval_recall_matches_brute_force(seed):
    rng = np.random.default_rng(seed)
    n, d, T = 12, 5, 6
    E = rng.normal(size=(n, d))
    L = (rng.random((n, T)) < 0.4).astype(float)
    L[L.sum(axis=1) == 0, 0] = 1.0  # no empty queries in this case
    got = retrieval_recall(E, L, [1, 3])
    assert got[1] == pytest.approx(brute_recall(E, L, 1), abs=1e-12)
    assert got[3] == pytest.approx(brute_recall(E, L, 3), abs=1e-12)


def test_retrieval_recall_excludes_zero_label_queries(rng):
    E = rng.normal(size=(6, 4))
    L = np.ones((6, 3))
    L[2] = 0.0
    got = retrieval_recall(E, L, [1])
    # the zero-label item stays a candidate but contributes no query; the
    # brute oracle applies the same rule
    assert got[1] == pytest.approx(brute_recall(E, L, 1), abs=1e-12)


def test_retrieval_tie_break_is_by_index():
    # identical embeddings: similarity ties everywhere; the top-1 neighbor of
    # every query must be the lowest non-self index
    E = np.ones((4, 3))
    L = np.eye(4)
    got = retrieval_recall(E, L, [1])
    # query 0 retrieves item 1 (overlap 0), all others retrieve item 0
    assert got[1] == 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 7])
def test_retrieval_recall_clamps_k_to_other_items(n):
    # the query itself (similarity -inf) is never retrieved, even for k >= n
    rng = np.random.default_rng(n)
    E = rng.normal(size=(n, 3))
    L = np.eye(n)
    ks = sorted({1, n - 1, n, n + 3} - {0})
    got = retrieval_recall(E, L, ks)
    assert got == {k: brute_recall(E, L, k) for k in ks}
    assert got[n] == 0.0  # every query's one label is its own


def test_retrieval_recall_single_item_retrieves_nothing():
    assert retrieval_recall(np.ones((1, 3)), np.ones((1, 2)), [1, 2]) == {
        1: 0.0, 2: 0.0}


def test_retrieval_recall_without_labelled_query_raises():
    E = np.random.default_rng(0).normal(size=(5, 3))
    with pytest.raises(ValueError, match="no query has a label"):
        retrieval_recall(E, np.zeros((5, 4)), [1])


def test_retrieval_recall_rejects_non_finite_embeddings():
    E = np.ones((4, 3))
    E[2, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        retrieval_recall(E, np.eye(4), [1])


@pytest.mark.parametrize("block", [None, 7])
def test_retrieval_recall_exact_under_ties_across_blocks(block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(evaluation, "_RECALL_BLOCK", block)
    n = evaluation._RECALL_BLOCK + 45  # a partial last block
    rng = np.random.default_rng(41)
    E = tied_embeddings(rng, n)
    L = (rng.random((n, 10)) < 0.2).astype(float)
    L[5] = 0.0  # a zero-label query stays a candidate
    ks = [1, 2, 5]
    got = retrieval_recall(E, L, ks)
    assert got == {k: brute_recall(E, L, k) for k in ks}


# --- AUC -------------------------------------------------------------------


def test_auc_hand_case_with_tie():
    # 2 pos, 4 neg; one tie between a positive and a negative
    pos = [0.9, 0.5]
    neg = [0.1, 0.2, 0.5, 0.3]
    # pairs: 0.9 beats all 4; 0.5 beats 3 with one tie -> (4 + 3.5)/8
    assert auc_rank(pos, neg) == pytest.approx(7.5 / 8)
    assert auc_rank(pos, neg) == pytest.approx(brute_auc(pos, neg))


def test_auc_perfect_and_inverted():
    assert auc_rank([0.9, 0.8], [0.1, 0.2]) == pytest.approx(1.0)
    assert auc_rank([0.1, 0.2], [0.9, 0.8]) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(10))
def test_auc_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    # quantized scores force plenty of ties
    pos = np.round(rng.random(rng.integers(1, 15)), 1)
    neg = np.round(rng.random(rng.integers(1, 15)), 1)
    assert auc_rank(pos, neg) == pytest.approx(brute_auc(pos, neg), abs=1e-12)


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        auc_rank([], [0.5])


def test_auc_tags_macro_average_and_skipping(rng):
    n, T = 20, 4
    S = rng.random((n, T))
    L = (rng.random((n, T)) < 0.5).astype(float)
    L[:, 3] = 1.0  # tag with no negatives must be skipped
    got = auc_tags(S, L)
    per_tag = [
        brute_auc(S[L[:, t] > 0, t], S[L[:, t] == 0, t]) for t in range(3)
    ]
    assert got == pytest.approx(np.mean(per_tag), abs=1e-12)


def test_auc_tags_all_single_class_raises():
    S = np.random.default_rng(0).random((4, 2))
    L = np.ones((4, 2))
    with pytest.raises(ValueError):
        auc_tags(S, L)


# --- prototypes ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_prototypes_match_per_tag_means(seed):
    rng = np.random.default_rng(seed)
    E = rng.normal(size=(15, 6))
    L = (rng.random((15, 4)) < 0.4).astype(float)
    protos = build_prototypes(E, L)
    for t in range(4):
        members = E[L[:, t] > 0]
        if len(members):
            assert np.array_equal(protos[t], members.mean(axis=0))
        else:
            assert np.array_equal(protos[t], np.zeros(6))


# --- triplet accuracy ------------------------------------------------------


def make_triplets(n, items, rng, notion=None, space=None):
    """``n`` triplets of distinct ``items``: of the first tag of ``notion`` in
    ``space``, or track triplets without a notion."""
    tag = None
    if notion is not None:
        tag = next(t for t in space.tags if space.notion_of(t) == notion)
    out = []
    for _ in range(n):
        a, p, q = rng.choice(items, size=3, replace=False)
        out.append(Triplet(int(a), int(p), int(q), tag, notion,
                           "tag" if notion else "track"))
    return out


def as_batch(records, space):
    """The ``TripletBatch`` that iterates as ``records`` (all tag or all
    track triplets)."""
    rows = np.array([t[:3] for t in records], dtype=np.int64).reshape(-1, 3).T
    if records and records[0].kind == "track":
        batch = TripletBatch(*rows, None, None, space)
    else:
        tags = np.array([space.tag_index[t.tag] for t in records], dtype=np.int64)
        notions = np.array([space.notion_index(t.notion) for t in records],
                           dtype=np.int64)
        batch = TripletBatch(*rows, tags, notions, space)
    assert list(batch) == records
    return batch


@pytest.mark.parametrize("seed", range(5))
def test_triplet_accuracy_matches_brute_force(seed, small_space):
    rng = np.random.default_rng(seed)
    E = rng.normal(size=(10, 8))
    triplets = make_triplets(30, np.arange(10), rng, "color", small_space)
    got = triplet_accuracy(E, as_batch(triplets, small_space), mode="full")
    correct = 0
    for t in triplets:
        ca = np.dot(E[t.anchor], E[t.positive]) / (
            np.linalg.norm(E[t.anchor]) * np.linalg.norm(E[t.positive])
        )
        cn = np.dot(E[t.anchor], E[t.negative]) / (
            np.linalg.norm(E[t.anchor]) * np.linalg.norm(E[t.negative])
        )
        correct += ca > cn
    assert got == pytest.approx(correct / 30)


def test_triplet_accuracy_sub_space_uses_block(small_space, rng):
    E = rng.normal(size=(8, 8))
    batch = as_batch(make_triplets(20, np.arange(8), rng, "shape", small_space),
                     small_space)
    got = triplet_accuracy(
        E, batch, mode="sub", space=small_space, disentangled=True
    )
    sl = small_space.block_slice("shape")
    expect = triplet_accuracy(E[:, sl].copy(), batch, mode="full")
    assert got == pytest.approx(expect)


def test_triplet_accuracy_ties_are_incorrect(small_space):
    E = np.ones((3, 8))  # all cosines identical -> every comparison ties
    triplets = as_batch([Triplet(0, 1, 2, "red", "color", "tag")], small_space)
    assert triplet_accuracy(E, triplets, mode="full") == 0.0


def test_triplet_accuracy_rejects_an_empty_batch(small_space):
    with pytest.raises(ValueError, match="no triplets"):
        triplet_accuracy(np.ones((3, 8)), as_batch([], small_space))


def near_tied_embeddings(rng, n):
    """Near-collinear rows of very different scales: cosines tie to within
    a few ulps, so any change of summation order flips some comparisons."""
    base = rng.normal(size=8)
    E = (base + 1e-9 * rng.normal(size=(n, 8))) * rng.exponential(size=(n, 1))
    E[:10] = tied_embeddings(rng, 10)
    E[3] = 0.0
    return E


@pytest.mark.parametrize("seed", range(3))
def test_triplet_accuracy_equals_loop_on_near_ties(seed, small_space):
    rng = np.random.default_rng(seed)
    n = 40
    E = near_tied_embeddings(rng, n)
    triplets = make_triplets(300, np.arange(n), rng, "color", small_space)
    triplets += make_triplets(300, np.arange(n), rng, "shape", small_space)
    rng.shuffle(triplets)
    batch = as_batch(triplets, small_space)
    full = triplet_accuracy(E, batch, mode="full")
    sub = triplet_accuracy(
        E, batch, mode="sub", space=small_space, disentangled=True
    )
    assert full == loop_triplet_accuracy(E, triplets)
    assert sub == loop_triplet_accuracy(E, triplets, "sub", small_space)
    assert 0.0 < full < 1.0 and 0.0 < sub < 1.0


@pytest.mark.parametrize("seed", range(3))
def test_triplet_batch_scores_like_its_records(seed, small_space):
    rng = np.random.default_rng(seed)
    n = 40
    E = near_tied_embeddings(rng, n)
    tags = rng.integers(small_space.num_tags, size=600)
    notion_of_tag = [small_space.notion_index(small_space.notion_of(t))
                     for t in small_space.tags]
    rows = np.array([rng.choice(n, 3, replace=False) for _ in tags]).T
    batch = TripletBatch(*rows, tags, np.take(notion_of_tag, tags), small_space)
    records = list(batch)
    assert {t.notion for t in records} == {"color", "shape"}
    assert triplet_accuracy(E, batch) == loop_triplet_accuracy(E, records)
    assert triplet_accuracy(E, batch, mode="sub", space=small_space,
                            disentangled=True) == \
        loop_triplet_accuracy(E, records, "sub", small_space)
    tracks = TripletBatch(*rows, None, None, small_space)
    assert triplet_accuracy(E, tracks) == loop_triplet_accuracy(E, records)


def test_sub_mode_reads_notions_in_the_batch_space(small_space):
    # the same notions in the other order: a batch's notion index 0 is
    # 'color' in its own space and 'shape' in the one passed for the blocks
    swapped = LabelSpace([("shape", ["round", "square"]),
                          ("color", ["red", "blue"])], embedding_dim=8)
    rng = np.random.default_rng(4)
    E = near_tied_embeddings(rng, 40)
    triplets = make_triplets(200, np.arange(40), rng, "color", small_space)
    triplets += make_triplets(200, np.arange(40), rng, "shape", small_space)
    batch = as_batch(triplets, small_space)
    want = loop_triplet_accuracy(E, triplets, "sub", swapped)
    assert want != loop_triplet_accuracy(E, triplets, "sub", small_space)
    assert triplet_accuracy(E, batch, mode="sub", space=swapped,
                            disentangled=True) == want


def test_sub_mode_rejects_track_triplets(small_space):
    E = np.random.default_rng(0).normal(size=(4, 8))
    t = as_batch([Triplet(1, 2, 3, None, None, "track")], small_space)
    with pytest.raises(ConfigurationError, match="no notion"):
        triplet_accuracy(E, t, mode="sub", space=small_space, disentangled=True)


def test_sub_mode_requires_disentangled(small_space):
    E = np.ones((3, 8))
    t = as_batch([Triplet(0, 1, 2, "red", "color", "tag")], small_space)
    with pytest.raises(ConfigurationError):
        triplet_accuracy(E, t, mode="sub", space=small_space, disentangled=False)
    with pytest.raises(ConfigurationError):
        triplet_accuracy(E, t, mode="sub", disentangled=True)


# --- timing ratio and reports ---------------------------------------------


def test_training_time_ratio_floor_is_one():
    ratios = training_time_ratio({"a": 2.0, "b": 1.0, "c": 4.0})
    assert ratios == {"a": 2.0, "b": 1.0, "c": 4.0}
    assert min(ratios.values()) == 1.0


def test_training_time_ratio_validation():
    with pytest.raises(ValueError):
        training_time_ratio({})
    with pytest.raises(ValueError):
        training_time_ratio({"a": 0.0})


def test_report_serialization_and_strip_timing():
    rep = EvalReport(
        variant={"family": "proxy"},
        recall_at={1: 0.5},
        auc=0.9,
        triplet_accuracy={("full", "color"): 0.7},
        training_time_ratio=1.5,
        wall_seconds=3.2,
        cpu_seconds=3.0,
        epochs=10,
    )
    d = rep.to_dict()
    assert d["recall_at"] == {"1": 0.5}
    assert d["triplet_accuracy"] == {"full/color": 0.7}
    assert d["timing"] == {"wall_seconds": 3.2, "cpu_seconds": 3.0,
                           "training_time_ratio": 1.5}
    assert "shared_with" not in d  # only a row that copies another has it
    stripped = strip_timing(d)
    assert "timing" not in stripped
    assert d["timing"]["wall_seconds"] == 3.2  # original untouched
