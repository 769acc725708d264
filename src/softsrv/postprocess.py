"""Diversity subsampling and n-gram decontamination for raw generations.

The subsampling chain runs in a fixed order: exact dedup, TF-IDF over
lowercase word tokens, truncated SVD via eigendecomposition of the Gram
matrix, minibatch k-means with k-means++ seeding, then a seeded round-robin
draw across clusters. Decontamination removes any candidate sharing at
least one normalized n-gram (default n=13) with a reference set; texts
shorter than n tokens are kept. Everything here is deterministic given its
seed and is checked against brute-force oracles in the tests.
"""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

_WORD_RE = re.compile(r"[a-z0-9]+")

# decontamination normalization drops punctuation and digit characters
_STRIP_TABLE = str.maketrans("", "", string.punctuation + string.digits)


def dedup_exact(docs: list[str]) -> list[int]:
    """Indices of first occurrences, in original order."""
    seen: set[str] = set()
    out = []
    for i, doc in enumerate(docs):
        if doc not in seen:
            seen.add(doc)
            out.append(i)
    return out


@dataclass
class CorpusMatrix:
    rows: np.ndarray                 # (n, dims)
    dims: int
    row_norms: np.ndarray            # L2 norms before any normalization
    vocabulary: list[str] | None = None


def tfidf_vectorize(docs: list[str]) -> CorpusMatrix:
    """TF-IDF with raw counts, idf = ln((1+N)/(1+df)) + 1, rows L2-normalized.

    Tokens are lowercase alphanumeric runs; columns follow sorted vocabulary
    order so the matrix is deterministic.
    """
    if not docs:
        raise ValidationError("empty document list")
    tokenized = [_WORD_RE.findall(doc.lower()) for doc in docs]
    vocab = sorted({tok for toks in tokenized for tok in toks})
    if not vocab:
        raise ValidationError("no word tokens in any document")
    col = {tok: j for j, tok in enumerate(vocab)}
    n, f = len(docs), len(vocab)
    row_ids = np.repeat(np.arange(n, dtype=np.int64), [len(toks) for toks in tokenized])
    col_ids = np.fromiter((col[tok] for toks in tokenized for tok in toks), np.int64, len(row_ids))
    # float weights make bincount return the float64 count matrix directly
    rows = np.bincount(row_ids * f + col_ids, weights=np.ones(len(row_ids)), minlength=n * f).reshape(n, f)
    df = np.count_nonzero(rows, axis=0)
    rows *= np.log((1.0 + n) / (1.0 + df)) + 1.0
    norms = np.sqrt((rows * rows).sum(axis=1))
    rows /= np.where(norms > 0, norms, 1.0)[:, None]
    return CorpusMatrix(rows=rows, dims=f, row_norms=norms, vocabulary=vocab)


def svd_reduce(matrix: CorpusMatrix, dims: int) -> CorpusMatrix:
    """Project rows onto the top right-singular directions (truncated SVD scores).

    Computed by eigendecomposition of the smaller Gram matrix. Each
    component's sign is fixed by making its largest-magnitude loading
    positive, so the output is fully deterministic.
    """
    X = matrix.rows
    n, f = X.shape
    if not 0 < dims <= min(n, f):
        raise ValidationError(f"dims={dims} outside [1, min(n={n}, f={f})]")
    if f <= n:
        gram = X.T @ X
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1][:dims]
        V = evecs[:, order]
    else:
        gram = X @ X.T
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1][:dims]
        lam = np.maximum(evals[order], 0.0)
        U = evecs[:, order]
        sv = np.sqrt(lam)
        V = np.zeros((f, dims))
        nz = sv > 1e-12
        V[:, nz] = (X.T @ U[:, nz]) / sv[nz]
    # sign convention: largest-magnitude loading of each component positive
    for j in range(dims):
        pivot = int(np.argmax(np.abs(V[:, j])))
        if V[pivot, j] < 0:
            V[:, j] = -V[:, j]
    scores = X @ V
    norms = np.sqrt((scores * scores).sum(axis=1))
    return CorpusMatrix(rows=scores, dims=dims, row_norms=norms)


def kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first uniform, then proportional to squared distance."""
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside [1, {n}]")
    chosen = [int(rng.integers(n))]
    d2 = ((X - X[chosen[0]]) ** 2).sum(axis=1)
    while len(chosen) < k:
        total = d2.sum()
        if total <= 0:
            # all remaining mass on already-covered points: pick any unchosen
            taken = set(chosen)
            pool = [i for i in range(n) if i not in taken]
            nxt = pool[int(rng.integers(len(pool)))]
        else:
            u = rng.random() * total
            nxt = int(np.searchsorted(np.cumsum(d2), u, side="right"))
            nxt = min(nxt, n - 1)
        chosen.append(nxt)
        d2 = np.minimum(d2, ((X - X[nxt]) ** 2).sum(axis=1))
    return X[chosen].astype(np.float64).copy()


@dataclass
class ClusterAssignment:
    labels: np.ndarray     # (n,) int cluster ids
    centroids: np.ndarray  # (k, dims)
    k: int


# rows per distance block in nearest_centroid; at k=700 a block is under 6 MB
NEAREST_CHUNK = 1024


def nearest_centroid(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid; equal distances resolve to the lowest id.

    Squared distances are ||x||^2 - 2 x.c + ||c||^2, one matmul per block of
    NEAREST_CHUNK rows, so memory grows with chunk * k rather than n * k * d.
    That form rounds differently from summing (x - c)^2: identical centroids
    always tie, but two distinct centroids at nearly or exactly the same
    distance may rank either way, and the cancellation grows with ||x||
    against the spread of the centroids.
    """
    c2 = (centroids * centroids).sum(axis=1)
    labels = np.empty(X.shape[0], dtype=np.intp)
    for start in range(0, X.shape[0], NEAREST_CHUNK):
        block = X[start:start + NEAREST_CHUNK]
        d2 = block @ centroids.T
        d2 *= -2.0
        d2 += (block * block).sum(axis=1)[:, None]
        d2 += c2
        labels[start:start + NEAREST_CHUNK] = d2.argmin(axis=1)
    return labels


def minibatch_kmeans(
    X: np.ndarray | CorpusMatrix,
    k: int,
    batch_size: int = 64,
    iterations: int = 50,
    seed: int = 0,
) -> ClusterAssignment:
    """Minibatch k-means: per-centroid counts act as learning-rate denominators.

    Seeding runs k-means++ on a seeded subsample; the final labels come from
    one full assignment pass over all rows.
    """
    if isinstance(X, CorpusMatrix):
        X = X.rows
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n == 0:
        raise ValidationError("empty matrix")
    if not 1 <= k <= n:
        raise ValidationError(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    init_size = min(n, max(3 * k, 3 * batch_size))
    sub = rng.choice(n, size=init_size, replace=False)
    centroids = kmeans_pp_init(X[sub], k, rng)
    counts = np.zeros(k, dtype=np.int64)
    for _ in range(iterations):
        idx = rng.choice(n, size=min(batch_size, n), replace=False)
        batch = X[idx]
        labels = nearest_centroid(batch, centroids)
        # round r moves every centroid that has an r-th member in the batch,
        # so each centroid takes its members one at a time in batch order
        order = np.argsort(labels, kind="stable")
        grouped = labels[order]
        rank = np.arange(len(order)) - np.searchsorted(grouped, grouped)
        for r in range(rank.max(initial=-1) + 1):
            members = order[rank == r]
            c = labels[members]
            counts[c] += 1
            eta = (1.0 / counts[c])[:, None]
            centroids[c] = (1.0 - eta) * centroids[c] + eta * batch[members]
    return ClusterAssignment(labels=nearest_centroid(X, centroids), centroids=centroids, k=k)


def inertia(X: np.ndarray | CorpusMatrix, assignment: ClusterAssignment) -> float:
    if isinstance(X, CorpusMatrix):
        X = X.rows
    diffs = X - assignment.centroids[assignment.labels]
    return float((diffs * diffs).sum())


def round_robin_subsample(assignment: ClusterAssignment, n_s: int, seed: int = 0) -> list[int]:
    """Cycle clusters in ascending id order, drawing one unseen member
    uniformly per visit; exhausted clusters are skipped. Returns sorted
    row indices."""
    n = len(assignment.labels)
    if not 1 <= n_s <= n:
        raise ValidationError(f"n_s={n_s} outside [1, {n}]")
    pools: list[list[int]] = [[] for _ in range(assignment.k)]
    for i, lab in enumerate(assignment.labels):
        pools[int(lab)].append(i)
    rng = np.random.default_rng(seed)
    selected: list[int] = []
    while len(selected) < n_s:
        for pool in pools:
            if len(selected) == n_s:
                break
            if not pool:
                continue
            j = int(rng.integers(len(pool)))
            selected.append(pool.pop(j))
    return sorted(selected)


def diverse_subsample(
    docs: list[str],
    n_s: int,
    svd_dims: int = 16,
    k: int = 32,
    batch_size: int = 64,
    iterations: int = 50,
    seed: int = 0,
) -> list[int]:
    """The full chain; returns sorted indices into the original doc list.

    dims and k clamp down on small inputs so the output size is exactly
    min(n_s, number of distinct docs).
    """
    if not docs:
        raise ValidationError("empty document list")
    keep = dedup_exact(docs)
    unique_docs = [docs[i] for i in keep]
    n_s_eff = min(n_s, len(unique_docs))
    if len(unique_docs) <= n_s_eff:
        return sorted(keep)
    matrix = tfidf_vectorize(unique_docs)
    dims_eff = max(1, min(svd_dims, len(unique_docs), matrix.dims))
    reduced = svd_reduce(matrix, dims_eff)
    k_eff = max(1, min(k, len(unique_docs)))
    assignment = minibatch_kmeans(reduced, k_eff, batch_size, iterations, seed)
    picked = round_robin_subsample(assignment, n_s_eff, seed)
    return sorted(keep[i] for i in picked)


# ---------------------------------------------------------------------------
# decontamination

def normalize_tokens(text: str) -> list[str]:
    """Lowercase, delete punctuation and digit characters, split on whitespace."""
    return text.lower().translate(_STRIP_TABLE).split()


def _ngrams(tokens: list[str], n: int):
    return (tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def decontaminate_report(
    candidates: list[str],
    reference: list[str],
    n: int = 13,
) -> tuple[list[int], list[tuple[int, tuple[str, ...]]]]:
    """Returns (kept indices, [(removed index, first matching n-gram), ...])."""
    if n < 1:
        raise ValidationError("n must be >= 1")
    ref_grams: set[tuple[str, ...]] = set()
    for doc in reference:
        ref_grams.update(_ngrams(normalize_tokens(doc), n))
    kept, removed = [], []
    for i, doc in enumerate(candidates):
        toks = normalize_tokens(doc)
        match = next((g for g in _ngrams(toks, n) if g in ref_grams), None)
        if match is None:
            kept.append(i)  # includes texts shorter than n tokens
        else:
            removed.append((i, match))
    return kept, removed


def decontaminate(candidates: list[str], reference: list[str], n: int = 13) -> tuple[list[str], list[str]]:
    """Split candidates into (kept, removed) against the reference n-gram set."""
    kept_idx, removed = decontaminate_report(candidates, reference, n)
    removed_idx = [i for i, _ in removed]
    return [candidates[i] for i in kept_idx], [candidates[i] for i in removed_idx]
