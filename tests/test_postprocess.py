"""Postprocessing chain, each stage against an independent oracle."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from softsrv.errors import ValidationError
from softsrv.postprocess import (
    ROW_CHUNK,
    ClusterAssignment,
    decontaminate,
    decontaminate_report,
    dedup_exact,
    diverse_subsample,
    kmeans_pp_init,
    minibatch_kmeans,
    nearest_centroid,
    normalize_tokens,
    round_robin_subsample,
    svd_reduce,
    tfidf_vectorize,
)

# ---------------------------------------------------------------------------
# dedup


def test_dedup_keeps_first_occurrence_indices():
    docs = ["a", "b", "a", "c", "b", "a"]
    assert dedup_exact(docs) == [0, 1, 3]


def test_dedup_is_exact_not_normalized():
    assert dedup_exact(["a", "A", "a "]) == [0, 1, 2]


@given(st.lists(st.sampled_from(["x", "y", "z", "w"]), min_size=1, max_size=30))
def test_dedup_matches_set_oracle(docs):
    keep = dedup_exact(docs)
    assert [docs[i] for i in keep] == list(dict.fromkeys(docs))
    assert keep == sorted(keep)


# ---------------------------------------------------------------------------
# tf-idf


def oracle_tfidf(docs):
    """Dictionary-based reimplementation: raw tf, smoothed idf, L2 rows."""
    token_re = re.compile(r"[a-z0-9]+")
    toks = [token_re.findall(d.lower()) for d in docs]
    vocab = sorted({t for ts in toks for t in ts})
    n = len(docs)
    idf = {}
    for t in vocab:
        df = sum(1 for ts in toks if t in ts)
        idf[t] = math.log((1 + n) / (1 + df)) + 1.0
    rows = np.zeros((n, len(vocab)))
    for i, ts in enumerate(toks):
        for t in ts:
            rows[i, vocab.index(t)] += 1.0
        rows[i] *= np.array([idf[t] for t in vocab])
        norm = np.linalg.norm(rows[i])
        if norm > 0:
            rows[i] /= norm
    return rows, vocab


def test_tfidf_matches_dictionary_oracle():
    docs = [
        "Ben has 4 apples and buys 3 more.",
        "Mara has 9 pears. How many pears?",
        "apples and pears and apples",
    ]
    matrix = tfidf_vectorize(docs)
    want, vocab = oracle_tfidf(docs)
    assert matrix.vocabulary == vocab
    np.testing.assert_allclose(matrix.block(0, len(docs)), want, rtol=1e-12, atol=1e-15)


def loop_tfidf(docs):
    """The per-token count loop tfidf_vectorize replaces, same arithmetic."""
    toks = [re.findall(r"[a-z0-9]+", d.lower()) for d in docs]
    vocab = sorted({t for ts in toks for t in ts})
    counts = np.zeros((len(docs), len(vocab)))
    for i, ts in enumerate(toks):
        for t in ts:
            counts[i, vocab.index(t)] += 1.0
    df = (counts > 0).sum(axis=0)
    rows = counts * (np.log((1.0 + len(docs)) / (1.0 + df)) + 1.0)
    norms = np.sqrt((rows * rows).sum(axis=1))
    return rows / np.where(norms > 0, norms, 1.0)[:, None], norms, vocab


def test_tfidf_equals_the_count_loop_exactly():
    rng = np.random.default_rng(2)
    words = [f"w{i}" for i in range(40)]
    docs = [" ".join(rng.choice(words, size=int(rng.integers(0, 30)))) for _ in range(60)]
    matrix = tfidf_vectorize(docs)
    rows, norms, vocab = loop_tfidf(docs)
    assert matrix.vocabulary == vocab
    np.testing.assert_array_equal(matrix.block(0, len(docs)), rows)
    np.testing.assert_array_equal(matrix.row_norms, norms)


def random_docs(n, n_words, seed):
    """Zipf-like word draws, lengths 0-29, so some documents are empty."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    p = 1.0 / np.arange(1, n_words + 1)
    return [" ".join(rng.choice(words, size=int(rng.integers(0, 30)), p=p / p.sum())) for _ in range(n)]


@pytest.mark.parametrize("n", [ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1, 2 * ROW_CHUNK + 3])
def test_tfidf_blocks_equal_the_count_loop_exactly(n):
    docs = random_docs(n, 40, seed=n)
    docs[0], docs[n // 2], docs[-1] = "", "?? -- !!", ""  # empty and token-free documents
    matrix = tfidf_vectorize(docs)
    rows, norms, vocab = loop_tfidf(docs)
    assert matrix.vocabulary == vocab
    assert matrix.shape == rows.shape
    np.testing.assert_array_equal(matrix.row_norms, norms)
    for lo in range(0, n, ROW_CHUNK):
        hi = min(lo + ROW_CHUNK, n)
        np.testing.assert_array_equal(matrix.block(lo, hi), rows[lo:hi])
    # ranges that straddle a chunk boundary, one row and no rows
    for lo, hi in [(ROW_CHUNK - 5, n), (n // 2, n // 2 + 1), (n, n), (0, n)]:
        np.testing.assert_array_equal(matrix.block(lo, hi), rows[lo:hi])


def test_tfidf_rows_are_unit_norm():
    matrix = tfidf_vectorize(["a b c", "c d", "e"])
    np.testing.assert_allclose(np.linalg.norm(matrix.block(0, 3), axis=1), 1.0, rtol=1e-12)


def test_tfidf_empty_document_gets_zero_row():
    matrix = tfidf_vectorize(["a b", "???", "b"])
    assert np.linalg.norm(matrix.block(1, 2)) == 0.0


def test_tfidf_rejects_empty_corpus():
    with pytest.raises(ValidationError):
        tfidf_vectorize([])


# ---------------------------------------------------------------------------
# svd reduction


def test_svd_scores_match_dense_decomposition():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 7))
    reduced = svd_reduce(X, 4)
    # projecting onto the top right-singular vectors preserves exactly the
    # energy of the top singular values
    _, s, _ = np.linalg.svd(X, full_matrices=False)
    got = float(np.sum(reduced**2))
    want = float(np.sum(s[:4] ** 2))
    assert got == pytest.approx(want, rel=1e-10)
    assert reduced.shape == (12, 4)


def test_svd_reconstruction_error_matches_truncation_bound():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((9, 6))
    reduced = svd_reduce(X, 3)
    _, s, _ = np.linalg.svd(X, full_matrices=False)
    residual = float(np.sum(X**2) - np.sum(reduced**2))
    assert residual == pytest.approx(float(np.sum(s[3:] ** 2)), rel=1e-9, abs=1e-9)


def test_svd_output_is_deterministic_up_to_exact_equality():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((8, 5))
    a = svd_reduce(X, 2)
    b = svd_reduce(X, 2)
    np.testing.assert_array_equal(a, b)


def oneshot_svd(X, dims):
    """svd_reduce before row blocks: one Gram product and one projection."""
    n, f = X.shape
    if f <= n:
        evals, evecs = np.linalg.eigh(X.T @ X)
        V = evecs[:, np.argsort(evals)[::-1][:dims]]
    else:
        evals, evecs = np.linalg.eigh(X @ X.T)
        order = np.argsort(evals)[::-1][:dims]
        sv = np.sqrt(np.maximum(evals[order], 0.0))
        V = np.zeros((f, dims))
        nz = sv > 1e-12
        V[:, nz] = (X.T @ evecs[:, order][:, nz]) / sv[nz]
    for j in range(dims):
        pivot = int(np.argmax(np.abs(V[:, j])))
        if V[pivot, j] < 0:
            V[:, j] = -V[:, j]
    return X @ V


@pytest.mark.parametrize(
    "n,n_words",
    [(30, 200), (ROW_CHUNK - 1, 40), (ROW_CHUNK, 40), (ROW_CHUNK + 1, 40), (2 * ROW_CHUNK + 3, 40)],
    ids=["f>n", "chunk-1", "chunk", "chunk+1", "2chunk+3"],
)
def test_svd_of_tfidf_blocks_matches_the_one_shot_products(n, n_words):
    matrix = tfidf_vectorize(random_docs(n, n_words, seed=n + 1))
    dense = matrix.block(0, n)
    reduced = svd_reduce(matrix, 8)
    # the dense matrix takes the same row blocks, so it agrees exactly at any n
    np.testing.assert_array_equal(reduced, svd_reduce(dense, 8))
    scores = oneshot_svd(dense, 8)
    if n <= ROW_CHUNK:
        np.testing.assert_array_equal(reduced, scores)
    else:
        # the Gram sum runs block by block, so only the last bits may move
        np.testing.assert_allclose(reduced, scores, rtol=1e-9, atol=1e-12)


def test_tfidf_and_svd_memory_stay_small_without_a_dense_matrix():
    # 25k docs over 500 words: the dense (n, f) float64 matrix alone is 100 MB
    rng = np.random.default_rng(15)
    words = np.array([f"w{i}" for i in range(500)])
    docs = [" ".join(words[rng.integers(0, 500, size=20)]) for _ in range(25_000)]
    tracemalloc.start()
    try:
        matrix = tfidf_vectorize(docs)
        reduced = svd_reduce(matrix, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak
    assert matrix.shape == (25_000, 500)
    assert reduced.shape == (25_000, 16)
    column = {w: j for j, w in enumerate(matrix.vocabulary)}
    for doc, row in zip(docs[-20:], matrix.block(25_000 - 20, 25_000)):
        assert set(np.flatnonzero(row).tolist()) == {column[w] for w in doc.split()}


def test_svd_dims_validated():
    X = np.eye(3)
    with pytest.raises(ValidationError):
        svd_reduce(X, 0)
    with pytest.raises(ValidationError):
        svd_reduce(X, 4)


# ---------------------------------------------------------------------------
# k-means


def blobs(n_per, centers, spread, seed):
    rng = np.random.default_rng(seed)
    pts = []
    for cx, cy in centers:
        pts.append(rng.normal((cx, cy), spread, size=(n_per, 2)))
    return np.vstack(pts)


def broadcast_nearest(X, centroids):
    """The dense (n, k, d) assignment nearest_centroid replaces."""
    d2 = ((X[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return d2.argmin(axis=1)


@pytest.mark.parametrize("n", [37, ROW_CHUNK - 1, ROW_CHUNK, ROW_CHUNK + 1])
def test_nearest_centroid_matches_the_broadcast_oracle(n):
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 5))
    centroids = rng.standard_normal((9, 5))
    np.testing.assert_array_equal(nearest_centroid(X, centroids), broadcast_nearest(X, centroids))


def test_nearest_centroid_ties_resolve_to_the_lowest_id():
    rng = np.random.default_rng(12)
    base = rng.standard_normal((4, 3))
    # first occurrences: base[2] at 0, base[0] at 1, base[1] at 3, base[3] at 6
    centroids = base[[2, 0, 2, 1, 0, 1, 3, 3]]
    X = np.vstack([base, rng.standard_normal((60, 3))])
    labels = nearest_centroid(X, centroids)
    assert labels[:4].tolist() == [1, 3, 0, 6]
    assert set(labels.tolist()) <= {0, 1, 3, 6}
    np.testing.assert_array_equal(labels, broadcast_nearest(X, centroids))


def test_nearest_centroid_memory_stays_small_at_paper_shape():
    # 100k docs, k=700, 100 dims: the (n, k, d) broadcast would allocate about 56 GB
    rng = np.random.default_rng(13)
    X = rng.standard_normal((100_000, 100))
    centroids = X[rng.choice(len(X), size=700, replace=False)]
    tracemalloc.start()
    try:
        labels = nearest_centroid(X, centroids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6, peak
    np.testing.assert_array_equal(labels[-20:], broadcast_nearest(X[-20:], centroids))


def loop_minibatch_kmeans(X, k, batch_size, iterations, seed):
    """The per-point centroid update the round-based minibatch_kmeans replaces."""
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    sub = rng.choice(n, size=min(n, max(3 * k, 3 * batch_size)), replace=False)
    centroids = kmeans_pp_init(X[sub], k, rng)
    counts = np.zeros(k, dtype=np.int64)
    for _ in range(iterations):
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        for point, c in zip(X[idx], broadcast_nearest(X[idx], centroids)):
            counts[c] += 1
            eta = 1.0 / counts[c]
            centroids[c] = (1.0 - eta) * centroids[c] + eta * point
    return broadcast_nearest(X, centroids), centroids


@pytest.mark.parametrize("n,k,batch", [(40, 1, 16), (80, 6, 32), (30, 4, 30)], ids=["k=1", "batch>k", "batch=n"])
def test_round_based_update_equals_the_per_point_loop(n, k, batch):
    X = np.random.default_rng(n + k).standard_normal((n, 4))
    got = minibatch_kmeans(X, k, batch_size=batch, iterations=15, seed=k)
    labels, centroids = loop_minibatch_kmeans(X, k, batch, 15, k)
    np.testing.assert_array_equal(got.labels, labels)
    np.testing.assert_array_equal(got.centroids, centroids)


def test_kmeans_pp_fallback_draws_as_the_list_scan_did():
    # three distinct points, so picks 4-7 have no distance mass left
    X = np.repeat(np.eye(3), 4, axis=0)
    rng, oracle = np.random.default_rng(14), np.random.default_rng(14)
    centroids = kmeans_pp_init(X, 7, rng)
    chosen = [int(oracle.integers(12))]
    d2 = ((X - X[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < 7:
        if d2.sum() <= 0:
            pool = [i for i in range(12) if i not in set(chosen)]
            nxt = pool[int(oracle.integers(len(pool)))]
        else:
            nxt = int(np.searchsorted(np.cumsum(d2), oracle.random() * d2.sum(), side="right"))
        chosen.append(nxt)
        d2 = np.minimum(d2, ((X - X[nxt]) ** 2).sum(axis=1))
    np.testing.assert_array_equal(centroids, X[chosen])
    assert rng.random() == oracle.random()


def test_kmeans_separates_well_spaced_blobs():
    centers = [(0, 0), (30, 0), (0, 30), (30, 30)]
    X = blobs(25, centers, 0.5, seed=6)
    assignment = minibatch_kmeans(X, k=4, batch_size=16, iterations=40, seed=7)
    # every true blob maps to exactly one cluster label
    labels = assignment.labels.reshape(4, 25)
    for blob_labels in labels:
        assert len(set(blob_labels.tolist())) == 1
    assert len({row[0] for row in labels.tolist()}) == 4


def test_kmeans_with_k_equal_n_is_near_zero_inertia():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((6, 3)) * 10
    assignment = minibatch_kmeans(X, k=6, batch_size=6, iterations=30, seed=9)
    diffs = X - assignment.centroids[assignment.labels]
    assert float((diffs * diffs).sum()) < 1e-6


def test_kmeans_is_deterministic():
    X = blobs(10, [(0, 0), (10, 10)], 1.0, seed=10)
    a = minibatch_kmeans(X, k=2, batch_size=8, iterations=20, seed=11)
    b = minibatch_kmeans(X, k=2, batch_size=8, iterations=20, seed=11)
    np.testing.assert_array_equal(a.labels, b.labels)
    np.testing.assert_array_equal(a.centroids, b.centroids)


def test_kmeans_validates_k():
    X = np.zeros((3, 2))
    with pytest.raises(ValidationError):
        minibatch_kmeans(X, k=0)
    with pytest.raises(ValidationError):
        minibatch_kmeans(X, k=4)


# ---------------------------------------------------------------------------
# round-robin subsampling


def water_fill_counts(cluster_sizes, n_s):
    """Independent oracle: cycle clusters ascending, draw one at a time."""
    remaining = dict(enumerate(cluster_sizes))
    counts = {i: 0 for i in remaining}
    while n_s > 0 and any(v > 0 for v in remaining.values()):
        for cid in sorted(remaining):
            if n_s == 0:
                break
            if remaining[cid] > 0:
                remaining[cid] -= 1
                counts[cid] += 1
                n_s -= 1
    return counts


def test_round_robin_balances_over_uneven_clusters():
    labels = np.array([0] * 50 + [1] * 3 + [2] * 10)
    assignment = ClusterAssignment(labels=labels, centroids=np.zeros((3, 2)))
    picked = round_robin_subsample(assignment, 21, seed=3)
    assert len(picked) == 21
    counts = {c: 0 for c in range(3)}
    for i in picked:
        counts[int(labels[i])] += 1
    assert counts == water_fill_counts([50, 3, 10], 21)  # 9, 3, 9


def test_round_robin_output_is_sorted_and_unique():
    labels = np.array([0, 1, 0, 1, 0, 1, 0])
    assignment = ClusterAssignment(labels=labels, centroids=np.zeros((2, 2)))
    picked = round_robin_subsample(assignment, 5, seed=4)
    assert picked == sorted(set(picked))


def test_round_robin_requesting_everything_returns_everything():
    labels = np.array([0, 1, 2, 0, 1])
    assignment = ClusterAssignment(labels=labels, centroids=np.zeros((3, 2)))
    assert round_robin_subsample(assignment, 5, seed=5) == [0, 1, 2, 3, 4]


def test_round_robin_rejects_out_of_range_requests():
    labels = np.array([0, 1])
    assignment = ClusterAssignment(labels=labels, centroids=np.zeros((2, 2)))
    with pytest.raises(ValidationError):
        round_robin_subsample(assignment, 0, seed=5)
    with pytest.raises(ValidationError):
        round_robin_subsample(assignment, 3, seed=5)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    labels=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=40),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_round_robin_counts_match_water_filling(data, labels, seed):
    n_s = data.draw(st.integers(min_value=1, max_value=len(labels)))
    labels = np.array(labels)
    k = int(labels.max()) + 1
    assignment = ClusterAssignment(labels=labels, centroids=np.zeros((k, 2)))
    picked = round_robin_subsample(assignment, n_s, seed=seed)
    sizes = [int(np.sum(labels == c)) for c in range(k)]
    want = water_fill_counts(sizes, n_s)
    got = {c: 0 for c in range(k)}
    for i in picked:
        got[int(labels[i])] += 1
    assert got == want
    assert len(picked) == len(set(picked))


def test_diverse_subsample_end_to_end_is_deterministic_and_diverse():
    docs = (
        [f"apples and pears number {i}" for i in range(20)]
        + [f"rivers and boats number {i}" for i in range(20)]
        + ["apples and pears number 0"] * 5  # exact duplicates vanish first
    )
    a = diverse_subsample(docs, 10, svd_dims=4, k=2, seed=6)
    b = diverse_subsample(docs, 10, svd_dims=4, k=2, seed=6)
    assert a == b
    assert len(a) == 10
    assert len(set(a)) == 10
    texts = [docs[i] for i in a]
    assert any("apples" in t for t in texts)
    assert any("rivers" in t for t in texts)


def test_diverse_subsample_small_input_returns_unique_set():
    docs = ["a", "b", "a", "c"]
    assert diverse_subsample(docs, 10) == [0, 1, 3]


# ---------------------------------------------------------------------------
# decontamination


def oracle_overlap(candidate, reference_docs, n):
    """Brute force: nested loops over every n-window pair."""
    def norm(text):
        out = []
        for raw in text.lower().split():
            word = "".join(ch for ch in raw if ch.isalpha())
            if word:
                out.append(word)
        return out

    c = norm(candidate)
    for ref in reference_docs:
        r = norm(ref)
        for i in range(len(c) - n + 1):
            for j in range(len(r) - n + 1):
                if c[i:i + n] == r[j:j + n]:
                    return True
    return False


def test_normalization_strips_case_digits_punctuation():
    assert normalize_tokens("Ben has 12 apples, right?!") == ["ben", "has", "apples", "right"]


def test_overlap_at_exactly_n_tokens_is_removed():
    ref = ["one two three four five six seven eight nine ten eleven twelve thirteen"]
    candidate = "ZZZ one two three four five six seven eight nine ten eleven twelve thirteen YYY"
    kept, removed = decontaminate([candidate], ref, n=13)
    assert kept == []
    assert removed == [candidate]


def test_overlap_of_twelve_tokens_survives_thirteen_gram_filter():
    ref = ["one two three four five six seven eight nine ten eleven twelve thirteen"]
    candidate = "one two three four five six seven eight nine ten eleven twelve"
    kept, removed = decontaminate([candidate], ref, n=13)
    assert kept == [candidate]
    assert removed == []


def test_texts_shorter_than_n_are_always_kept():
    kept, removed = decontaminate(["tiny text"], ["tiny text"], n=13)
    assert kept == ["tiny text"]


def test_digits_do_not_defeat_the_filter():
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa lam mu nu"
    noisy = "alpha beta 77 gamma delta epsilon zeta eta theta iota kappa lam mu nu"
    kept, removed = decontaminate([noisy], [base], n=13)
    assert removed == [noisy]


def test_report_carries_first_matching_ngram():
    ref = ["a b c d e f g h i j k l m"]
    kept_idx, removed = decontaminate_report(["x " + ref[0]], ref, n=13)
    assert kept_idx == []
    (idx, gram), = removed
    assert idx == 0
    assert gram == tuple("abcdefghijklm")


@settings(max_examples=60, deadline=None)
@given(
    cand=st.lists(st.sampled_from("aa bb cc dd ee".split()), min_size=0, max_size=12),
    ref=st.lists(st.sampled_from("aa bb cc dd ee".split()), min_size=0, max_size=12),
    n=st.integers(min_value=1, max_value=4),
)
def test_decontamination_matches_brute_force_oracle(cand, ref, n):
    candidate = " ".join(cand)
    reference = " ".join(ref)
    if not candidate.strip():
        return
    kept, removed = decontaminate([candidate], [reference], n=n)
    expect_removed = oracle_overlap(candidate, [reference], n)
    assert (len(removed) == 1) == expect_removed
