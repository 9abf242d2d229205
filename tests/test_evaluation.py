"""Evaluation metrics against independent brute-force oracles."""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.stats import rankdata

from disembed import autodiff as ad
from disembed import evaluation
from disembed.errors import ConfigurationError
from disembed.evaluation import (
    EvalReport,
    auc_tags,
    build_prototypes,
    retrieval_recall,
    strip_timing,
    training_time_ratio,
    triplet_accuracy,
    unit_blocks,
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


def rankdata_auc(pos, neg):
    """The rank-statistic AUC as computed with ``scipy.stats.rankdata``."""
    ranks = rankdata(np.concatenate([pos, neg]))
    n_pos, n_neg = len(pos), len(neg)
    return float(
        (ranks[:n_pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    )


def rankdata_auc_tags(S, L):
    """Macro mean of ``rankdata_auc`` over the tags with both classes."""
    aucs = [
        rankdata_auc(S[L[:, t] > 0, t], S[L[:, t] <= 0, t])
        for t in range(L.shape[1])
        if 0 < (L[:, t] > 0).sum() < len(L)
    ]
    return float(np.mean(aucs))


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
    """Per-triplet cosine comparison, one triplet at a time: its three rows,
    or in sub mode their blocks of ``space``, as a 3-row array normalized by
    ``l2_rows`` (``np.linalg.norm`` of a 1-D vector is a BLAS dot, which
    rounds differently)."""
    E = np.asarray(E, dtype=np.float64)
    correct = 0
    for t in triplets:
        rows = E[[t.anchor, t.positive, t.negative]]
        if mode == "sub":
            rows = rows[:, space.block_slice(t.notion)]
        a, p, n = ad.l2_rows(rows)[0]
        correct += bool((a * p).sum() > (a * n).sum())
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


@pytest.mark.parametrize("block", [1, 7, None])
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


@pytest.mark.parametrize("group", [1, 2, None])
def test_retrieval_recall_block_mixes_tied_and_untied_kth(group, monkeypatch):
    # rows of four +-1 entries (cosines are exact multiples of 1/4); each base
    # row comes as a pair or a triple of exact copies, some scaled by a power
    # of two.  With kmax = 2 a triple's two copies are its top 2 alone (and
    # must come in index order), while a pair's second neighbour ties other
    # items; both kinds of row share one block.  Groups of one column make
    # the candidate threshold the kth similarity itself
    if group is not None:
        monkeypatch.setattr(evaluation, "_RECALL_GROUP", group)
    rng = np.random.default_rng(7)
    d, bases = 8, 24
    base = np.zeros((bases, d))
    for row in base:
        row[rng.choice(d, size=4, replace=False)] = rng.choice([-1.0, 1.0], 4)
    copies = np.where(np.arange(bases) % 2 == 0, 2, 3)
    E = np.repeat(base, copies, axis=0)
    E *= 2.0 ** rng.integers(0, 3, size=(len(E), 1))
    E = E[rng.permutation(len(E))]
    L = (rng.random((len(E), 12)) < 0.3).astype(float)
    L[L.sum(axis=1) == 0, 0] = 1.0
    ks = [1, 2]

    U = E / np.linalg.norm(E, axis=1, keepdims=True)
    S = U @ U.T
    np.fill_diagonal(S, -np.inf)
    kth = np.sort(S, axis=1)[:, -max(ks), None]
    tied = np.count_nonzero(S >= kth, axis=1) > max(ks)
    assert len(E) <= evaluation._RECALL_BLOCK
    assert 0 < tied.sum() < len(E)

    got = retrieval_recall(E, L, ks)
    assert got == {k: brute_recall(E, L, k) for k in ks}


@pytest.mark.parametrize("block", [7, None])
def test_retrieval_recall_random_rows_with_partial_last_block(block,
                                                              monkeypatch):
    if block is not None:
        monkeypatch.setattr(evaluation, "_RECALL_BLOCK", block)
    n = evaluation._RECALL_BLOCK + 37  # one full block and a partial one
    rng = np.random.default_rng(block or 0)
    E = rng.normal(size=(n, 6))
    L = (rng.random((n, 8)) < 0.25).astype(float)
    ks = [1, 3, 10]
    got = retrieval_recall(E, L, ks)
    assert got == {k: brute_recall(E, L, k) for k in ks}


def test_retrieval_recall_memory_is_blocks_not_n_squared(rng):
    # one n x n float64 similarity matrix is 8 n^2 bytes (72 MB here); the
    # blocked ranking holds one 256 x n float64 block (6 MB) and a mask of it
    n = 3000
    E = rng.normal(size=(n, 16))
    L = rng.random((n, 20)) < 0.2
    tracemalloc.start()
    try:
        retrieval_recall(E, L, (1, 2, 4, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n**2 / 4


def all_tied_embeddings(kind, n):
    """Rows whose cosines are all exact: every row equal, every row zero, or
    rows alternating between two orthogonal directions at scales 1 and 4."""
    if kind == "identical":
        return np.ones((n, 5))
    if kind == "zero":
        return np.zeros((n, 5))
    E = np.zeros((n, 5))
    E[::2, 0] = 1.0
    E[1::2, 3] = 4.0
    return E


@pytest.mark.parametrize("ks", [(1, 2), (1, 4, 8)], ids=["groups", "columns"])
@pytest.mark.parametrize("kind", ["identical", "zero", "two-directions"])
def test_retrieval_recall_exact_on_all_tied_rows(kind, ks, monkeypatch):
    # every candidate of a row ties with many others: the row keeps only
    # the first of its tied columns by index, across three blocks and a
    # 1-row last block; with kmax = 2 columns are grouped, with 8 not
    monkeypatch.setattr(evaluation, "_RECALL_BLOCK", 16)
    n = 3 * 16 + 1
    E = all_tied_embeddings(kind, n)
    L = (np.random.default_rng(3).random((n, 6)) < 0.3).astype(float)
    L[L.sum(axis=1) == 0, 0] = 1.0
    got = retrieval_recall(E, L, ks)
    assert got == {k: brute_recall(E, L, k) for k in ks}


@pytest.mark.parametrize("kind", ["identical", "zero", "two-directions"])
def test_retrieval_recall_memory_on_all_tied_rows_is_a_few_blocks(kind):
    # a row of ties keeps at most max(kmax, (kmax - 1) c) candidates, so the
    # peak stays within three float64 similarity blocks however many of a
    # row's similarities are equal; sorting every tied column took seven
    n = 3000
    E = all_tied_embeddings(kind, n)
    L = np.random.default_rng(4).random((n, 20)) < 0.2
    tracemalloc.start()
    try:
        retrieval_recall(E, L, (1, 2, 4, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * evaluation._RECALL_BLOCK * n


# --- AUC -------------------------------------------------------------------


def one_tag_auc(pos, neg):
    """``auc_tags`` of one tag column: the positives' scores, then the
    negatives'."""
    S = np.concatenate([np.asarray(pos, dtype=float),
                        np.asarray(neg, dtype=float)])[:, None]
    L = (np.arange(len(S)) < len(pos))[:, None]
    return auc_tags(S, L)


def test_auc_hand_case_with_tie():
    # 2 pos, 4 neg; one tie between a positive and a negative
    pos = [0.9, 0.5]
    neg = [0.1, 0.2, 0.5, 0.3]
    # pairs: 0.9 beats all 4; 0.5 beats 3 with one tie -> (4 + 3.5)/8
    assert one_tag_auc(pos, neg) == pytest.approx(7.5 / 8)
    assert one_tag_auc(pos, neg) == pytest.approx(brute_auc(pos, neg))


def test_auc_perfect_and_inverted():
    assert one_tag_auc([0.9, 0.8], [0.1, 0.2]) == pytest.approx(1.0)
    assert one_tag_auc([0.1, 0.2], [0.9, 0.8]) == pytest.approx(0.0)


@pytest.mark.parametrize("seed", range(10))
def test_auc_matches_pair_counting(seed):
    rng = np.random.default_rng(seed)
    # quantized scores force plenty of ties
    pos = np.round(rng.random(rng.integers(1, 15)), 1)
    neg = np.round(rng.random(rng.integers(1, 15)), 1)
    assert one_tag_auc(pos, neg) == pytest.approx(brute_auc(pos, neg),
                                                  abs=1e-12)


def test_auc_requires_both_classes():
    with pytest.raises(ValueError):
        one_tag_auc([], [0.5])


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


def tie_heavy_scores(rng, shape):
    """Scores on a coarse grid with many exact ties, about a fifth of them
    signed zeros of either sign."""
    S = rng.integers(-3, 4, size=shape) * rng.choice([1.0, 0.25], size=shape)
    zeros = rng.random(shape) < 0.2
    S[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    return S


@pytest.mark.parametrize("seed", range(20))
def test_auc_is_bit_identical_to_rankdata(seed):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 71]))
    n, T = int(rng.integers(2, 120)), int(rng.integers(1, 9))
    S = tie_heavy_scores(rng, (n, T))
    L = rng.random((n, T)) < rng.random(T)
    L[:, 0] = True  # a single-class tag, skipped by both
    L[0, -1], L[1, -1] = True, False  # a tag with both classes
    assert auc_tags(S, L) == rankdata_auc_tags(S, L)
    for t in range(1, T):
        pos, neg = S[L[:, t], t], S[~L[:, t], t]
        if len(pos) and len(neg):
            assert one_tag_auc(pos, neg) == rankdata_auc(pos, neg)


def test_auc_tags_memory_is_below_two_score_matrices():
    # one tag column is sorted at a time; ranking the whole matrix at once
    # held about eight (n, tags) arrays
    rng = np.random.default_rng(np.random.SeedSequence([5, 71]))
    n, T = 3900, 22
    S = tie_heavy_scores(rng, (n, T))
    L = rng.random((n, T)) < 0.1
    expected = rankdata_auc_tags(S, L)
    tracemalloc.start()
    try:
        got = auc_tags(S, L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expected
    assert peak < 2 * S.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_auc_rejects_non_finite_scores(bad):
    with pytest.raises(ValueError, match="finite"):
        one_tag_auc([0.9, bad], [0.1])
    with pytest.raises(ValueError, match="finite"):
        one_tag_auc([0.9], [bad, 0.1])
    S = np.random.default_rng(0).random((6, 3))
    L = np.arange(18).reshape(6, 3) % 2
    S[4, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        auc_tags(S, L)


def test_importing_the_package_leaves_scipy_stats_unloaded():
    # scipy.stats roughly doubles the import's memory; AUC ranks with numpy
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, disembed, disembed.cli; "
            "print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_importing_the_package_loads_no_scipy():
    # the package needs numpy only; scipy.special alone costs about 25 MB
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, disembed, disembed.benchmark, disembed.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


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
    got = triplet_accuracy(E, batch, mode="sub")
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
    sub = triplet_accuracy(E, batch, mode="sub")
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
    assert triplet_accuracy(E, batch, mode="sub") == \
        loop_triplet_accuracy(E, records, "sub", small_space)
    tracks = TripletBatch(*rows, None, None, small_space)
    assert triplet_accuracy(E, tracks) == loop_triplet_accuracy(E, records)


@pytest.mark.parametrize("chunk", [1, 7, None])
def test_triplet_accuracy_of_unit_blocks_in_chunks_equals_loop(
        chunk, small_space, monkeypatch):
    # rows normalized once per mode by unit_blocks and passed with
    # normalized=True score as the raw rows do; the triplets are gathered a
    # chunk at a time, the last chunk partial
    if chunk is not None:
        monkeypatch.setattr(evaluation, "_TRIPLET_CHUNK", chunk)
    rng = np.random.default_rng(5)
    n = 40
    E = near_tied_embeddings(rng, n)
    triplets = make_triplets(300, np.arange(n), rng, "color", small_space)
    triplets += make_triplets(301, np.arange(n), rng, "shape", small_space)
    rng.shuffle(triplets)
    batch = as_batch(triplets, small_space)
    for mode, width in (("full", 8), ("sub", small_space.block_size)):
        expect = loop_triplet_accuracy(E, triplets, mode, small_space)
        assert 0.0 < expect < 1.0
        assert triplet_accuracy(E, batch, mode=mode) == expect
        U = unit_blocks(E, width)
        assert triplet_accuracy(U, batch, mode=mode, normalized=True) == expect


def test_unit_blocks_rejects_a_width_that_does_not_divide_the_rows():
    with pytest.raises(ValueError, match="blocks"):
        unit_blocks(np.ones((3, 8)), 3)


def test_sub_mode_reads_notions_in_the_batch_space(small_space):
    # the same notions in the other order: 'color' is notion 1 and owns the
    # second block in the batch's space, notion 0 and the first block in
    # small_space
    swapped = LabelSpace([("shape", ["round", "square"]),
                          ("color", ["red", "blue"])], embedding_dim=8)
    rng = np.random.default_rng(4)
    E = near_tied_embeddings(rng, 40)
    triplets = make_triplets(200, np.arange(40), rng, "color", swapped)
    triplets += make_triplets(200, np.arange(40), rng, "shape", swapped)
    batch = as_batch(triplets, swapped)
    assert batch.notion.tolist() == [1] * 200 + [0] * 200
    want = loop_triplet_accuracy(E, triplets, "sub", swapped)
    assert want != loop_triplet_accuracy(E, triplets, "sub", small_space)
    assert triplet_accuracy(E, batch, mode="sub") == want


def test_sub_mode_rejects_track_triplets(small_space):
    E = np.random.default_rng(0).normal(size=(4, 8))
    t = as_batch([Triplet(1, 2, 3, None, None, "track")], small_space)
    with pytest.raises(ConfigurationError, match="no notion"):
        triplet_accuracy(E, t, mode="sub")


@pytest.mark.parametrize("width", [4, 12])
def test_sub_mode_rejects_a_width_other_than_the_space(small_space, width):
    # a 12-wide row would reshape into three 4-wide blocks without the check
    E = np.random.default_rng(0).normal(size=(4, width))
    t = as_batch([Triplet(1, 2, 3, "red", "color", "tag")], small_space)
    with pytest.raises(ValueError, match="8-wide"):
        triplet_accuracy(E, t, mode="sub")
    assert 0.0 <= triplet_accuracy(E, t, mode="full") <= 1.0


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
        triplet_accuracy={"full/color": 0.7},
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
