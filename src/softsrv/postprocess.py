"""Diversity subsampling and n-gram decontamination for raw generations.

The subsampling chain runs in a fixed order: exact dedup, TF-IDF over
lowercase word tokens, truncated SVD via eigendecomposition of the Gram
matrix, minibatch k-means with k-means++ seeding, then a seeded round-robin
draw across clusters. Decontamination removes any candidate sharing at
least one normalized n-gram (default n=13) with a reference set; texts
shorter than n tokens are kept. Everything here is deterministic given its
seed and is checked against brute-force oracles in the tests.

The corpus is never held as one dense (n, f) TF-IDF array when f <= n.
tfidf_vectorize keeps each document's token column ids and rebuilds dense
rows one block of ROW_CHUNK rows at a time. svd_reduce sums the f x f Gram
matrix B.T @ B over those blocks, starting from the first block, so a corpus
of at most ROW_CHUNK rows gets the one-shot X.T @ X bit for bit. It then
projects block by block and returns the (n, dims) scores as a plain
array; it computes no row norms, since no step of the chain reads them.
Larger corpora sum the Gram matrix in a different order, so their scores
differ from the one-shot product in the last bits. When f > n the smaller
Gram matrix is n x n and the rows are materialised, which costs at most
f * f values.
"""

from __future__ import annotations

import re
import string
from array import array
from collections import defaultdict
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


# rows per block wherever rows are processed in blocks: nearest_centroid,
# the TF-IDF rows and svd_reduce; at k=700 a distance block is under 6 MB
ROW_CHUNK = 1024


def _blocks(n: int):
    """[lo, hi) ranges of ROW_CHUNK rows covering range(n)."""
    return ((lo, min(lo + ROW_CHUNK, n)) for lo in range(0, n, ROW_CHUNK))


def _count_block(columns: np.ndarray, offsets: np.ndarray, f: int, lo: int, hi: int) -> np.ndarray:
    """Raw term counts of rows [lo, hi) as a dense float64 (hi - lo, f) block."""
    cols = columns[offsets[lo]:offsets[hi]]
    local = np.repeat(np.arange(hi - lo), np.diff(offsets[lo:hi + 1]))
    # float weights make bincount return float64 counts directly, except for
    # a block without tokens, where it returns int64 zeros
    counts = np.bincount(local * f + cols, weights=np.ones(len(cols)), minlength=(hi - lo) * f)
    return counts.astype(np.float64, copy=False).reshape(hi - lo, f)


@dataclass
class TfidfMatrix:
    """TF-IDF rows kept as token column ids; dense rows exist one block at a time.

    Document i's tokens, in text order, are columns[offsets[i]:offsets[i + 1]].
    """
    columns: np.ndarray              # (tokens,) column ids, document after document
    offsets: np.ndarray              # (n + 1,)
    idf: np.ndarray                  # (dims,)
    row_norms: np.ndarray            # (n,) L2 norms before normalization
    vocabulary: list[str]

    @property
    def dims(self) -> int:
        return len(self.vocabulary)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_norms), self.dims

    def block(self, lo: int, hi: int) -> np.ndarray:
        """L2-normalized TF-IDF rows [lo, hi) as a dense (hi - lo, dims) array."""
        rows = _count_block(self.columns, self.offsets, self.dims, lo, hi)
        rows *= self.idf
        norms = self.row_norms[lo:hi]
        rows /= np.where(norms > 0, norms, 1.0)[:, None]
        return rows


def tfidf_vectorize(docs: list[str]) -> TfidfMatrix:
    """TF-IDF with raw counts, idf = ln((1+N)/(1+df)) + 1, rows L2-normalized.

    Tokens are lowercase alphanumeric runs; columns follow sorted vocabulary
    order so the matrix is deterministic. Documents are tokenized one at a
    time into column ids; df and the row norms are taken over ROW_CHUNK-row
    dense count blocks, with the same per-row arithmetic as one dense matrix.
    """
    if not docs:
        raise ValidationError("empty document list")
    # a token's first sighting gives it the next free id
    first_seen: defaultdict[str, int] = defaultdict()
    first_seen.default_factory = first_seen.__len__
    ids = array("i")
    lengths = array("q")
    for doc in docs:
        toks = _WORD_RE.findall(doc.lower())
        ids.extend(map(first_seen.__getitem__, toks))
        lengths.append(len(toks))
    if not first_seen:
        raise ValidationError("no word tokens in any document")
    vocab = sorted(first_seen)
    n, f = len(docs), len(vocab)
    rank = np.empty(f, dtype=np.intc)
    rank[np.fromiter(map(first_seen.__getitem__, vocab), np.intp, f)] = np.arange(f)
    columns = rank[np.frombuffer(ids, dtype=np.intc)]
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.frombuffer(lengths, dtype=np.int64), out=offsets[1:])
    df = np.zeros(f, dtype=np.intp)
    for lo, hi in _blocks(n):
        df += np.count_nonzero(_count_block(columns, offsets, f, lo, hi), axis=0)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    norms = np.empty(n)
    for lo, hi in _blocks(n):
        rows = _count_block(columns, offsets, f, lo, hi)
        rows *= idf
        norms[lo:hi] = np.sqrt((rows * rows).sum(axis=1))
    return TfidfMatrix(columns=columns, offsets=offsets, idf=idf, row_norms=norms, vocabulary=vocab)


def _orient(V: np.ndarray) -> np.ndarray:
    """Sign convention: the largest-magnitude loading of each component is positive."""
    for j in range(V.shape[1]):
        pivot = int(np.argmax(np.abs(V[:, j])))
        if V[pivot, j] < 0:
            V[:, j] = -V[:, j]
    return V


def svd_reduce(matrix: TfidfMatrix | np.ndarray, dims: int) -> np.ndarray:
    """Project rows onto the top right-singular directions: the (n, dims) scores.

    matrix is a TfidfMatrix or a dense (n, f) array. Computed by
    eigendecomposition of the smaller Gram matrix. Each component's sign is
    fixed by making its largest-magnitude loading positive, so the output
    is fully deterministic.
    """
    block = matrix.block if isinstance(matrix, TfidfMatrix) else lambda lo, hi: matrix[lo:hi]
    n, f = matrix.shape
    if not 0 < dims <= min(n, f):
        raise ValidationError(f"dims={dims} outside [1, min(n={n}, f={f})]")
    if f <= n:
        gram = None
        for lo, hi in _blocks(n):
            B = block(lo, hi)
            if gram is None:
                gram = B.T @ B
            else:
                gram += B.T @ B
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1][:dims]
        V = _orient(evecs[:, order])
        scores = np.empty((n, dims))
        for lo, hi in _blocks(n):
            scores[lo:hi] = block(lo, hi) @ V
    else:
        X = block(0, n)
        gram = X @ X.T
        evals, evecs = np.linalg.eigh(gram)
        order = np.argsort(evals)[::-1][:dims]
        lam = np.maximum(evals[order], 0.0)
        U = evecs[:, order]
        sv = np.sqrt(lam)
        V = np.zeros((f, dims))
        nz = sv > 1e-12
        V[:, nz] = (X.T @ U[:, nz]) / sv[nz]
        scores = X @ _orient(V)
    return scores


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


def nearest_centroid(X: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Index of each row's nearest centroid; equal distances resolve to the lowest id.

    Squared distances are ||x||^2 - 2 x.c + ||c||^2, one matmul per block of
    ROW_CHUNK rows, so memory grows with chunk * k rather than n * k * d.
    That form rounds differently from summing (x - c)^2: identical centroids
    always tie, but two distinct centroids at nearly or exactly the same
    distance may rank either way, and the cancellation grows with ||x||
    against the spread of the centroids.
    """
    c2 = (centroids * centroids).sum(axis=1)
    labels = np.empty(X.shape[0], dtype=np.intp)
    for lo, hi in _blocks(X.shape[0]):
        block = X[lo:hi]
        d2 = block @ centroids.T
        d2 *= -2.0
        d2 += (block * block).sum(axis=1)[:, None]
        d2 += c2
        labels[lo:hi] = d2.argmin(axis=1)
    return labels


def minibatch_kmeans(
    X: np.ndarray,
    k: int,
    batch_size: int = 64,
    iterations: int = 50,
    seed: int = 0,
) -> ClusterAssignment:
    """Minibatch k-means: per-centroid counts act as learning-rate denominators.

    Seeding runs k-means++ on a seeded subsample; the final labels come from
    one full assignment pass over all rows.
    """
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
    return ClusterAssignment(labels=nearest_centroid(X, centroids), centroids=centroids)


def round_robin_subsample(assignment: ClusterAssignment, n_s: int, seed: int = 0) -> list[int]:
    """Cycle clusters in ascending id order, drawing one unseen member
    uniformly per visit; exhausted clusters are skipped. Returns sorted
    row indices."""
    n = len(assignment.labels)
    if not 1 <= n_s <= n:
        raise ValidationError(f"n_s={n_s} outside [1, {n}]")
    pools: list[list[int]] = [[] for _ in assignment.centroids]
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
