"""Distribution-similarity score between generated and reference text clouds.

Both sides embed to mean-pooled context vectors, the union is quantized by
full-batch k-means (k-means++ seeding, Lloyd to convergence) into a pair of
cluster histograms (p for generated, q for reference), and a divergence
curve is traced over mixtures r = lam*p + (1-lam)*q:

    x(lam) = exp(-c * KL(q || r)),   y(lam) = exp(-c * KL(p || r))

with natural logs and the 0*ln(0/.) = 0 convention. c is DEFAULT_C and
the curve has one point for each of DEFAULT_GRID lambdas spaced evenly
over [_LAM_EDGE, 1 - _LAM_EDGE]: the score has this one definition. It is
the trapezoidal area under the curve augmented with the endpoints (0,1)
and (1,0), clamped to [0, 1]. The union is put in canonical row order
before clustering so swapping the two sides yields the identical score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .postprocess import kmeans_pp_init, nearest_centroid

DEFAULT_K = 32
DEFAULT_C = 5.0
DEFAULT_GRID = 101
_LAM_EDGE = 1e-6
_LLOYD_MAX_ITER = 100


@dataclass
class QuantizedPair:
    p: np.ndarray  # generated-side histogram, sums to 1
    q: np.ndarray  # reference-side histogram, sums to 1


@dataclass
class MauveReport:
    score: float
    curve: list[tuple[float, float]]
    c: float
    k: int

    def to_text(self) -> str:
        lines = [f"mauve_score\t{self.score:.10g}", f"c\t{self.c:.10g}", f"k\t{self.k}", "curve\tx\ty"]
        for x, y in self.curve:
            lines.append(f"\t{x:.10g}\t{y:.10g}")
        return "\n".join(lines) + "\n"


def _check_cloud(vecs, name: str) -> np.ndarray:
    vecs = np.asarray(vecs, dtype=np.float64)
    if vecs.ndim != 2 or vecs.shape[0] == 0:
        raise ValidationError(f"{name} must be a nonempty (n, d_e) array")
    if not np.all(np.isfinite(vecs)):
        raise ValidationError(f"{name} contains non-finite entries")
    return vecs


def _lloyd(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centroids = kmeans_pp_init(X, k, rng)
    # one contiguous row per coordinate: bincount adds each cluster's members
    # in row order, the same sequential sum as X[labels == c].sum(axis=0)
    columns = np.ascontiguousarray(X.T)
    labels = None
    for _ in range(_LLOYD_MAX_ITER):
        new_labels = nearest_centroid(X, centroids)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        counts = np.bincount(labels, minlength=k)
        sums = np.stack([np.bincount(labels, weights=col, minlength=k) for col in columns], axis=1)
        filled = counts > 0  # empty clusters keep their previous centroid
        centroids[filled] = sums[filled] / counts[filled, None]
    return centroids


def quantize(gen_vecs, ref_vecs, k: int = DEFAULT_K, seed: int = 0) -> QuantizedPair:
    """Joint k-means over the union; histograms of each side's labels."""
    gen = _check_cloud(gen_vecs, "gen_vecs")
    ref = _check_cloud(ref_vecs, "ref_vecs")
    if gen.shape[1] != ref.shape[1]:
        raise ValidationError("gen and ref vectors must share dimensionality")
    union = np.vstack([gen, ref])
    if not 1 <= k <= union.shape[0]:
        raise ValidationError(f"k={k} outside [1, {union.shape[0]}]")
    # canonical order: clustering must not depend on which side came first
    order = np.lexsort(tuple(union[:, j] for j in reversed(range(union.shape[1]))))
    centroids = _lloyd(union[order], k, np.random.default_rng(seed))

    def hist(side: np.ndarray) -> np.ndarray:
        labels = nearest_centroid(side, centroids)
        return np.bincount(labels, minlength=k).astype(np.float64) / len(side)

    return QuantizedPair(p=hist(gen), q=hist(ref))


def _kl(a: np.ndarray, r: np.ndarray) -> float:
    mask = a > 0
    return float(np.sum(a[mask] * np.log(a[mask] / r[mask])))


def divergence_curve(pair: QuantizedPair) -> list[tuple[float, float]]:
    """The curve's (x, y) point at each lambda of the grid, in ascending lambda."""
    pts = []
    for lam in np.linspace(_LAM_EDGE, 1.0 - _LAM_EDGE, DEFAULT_GRID):
        r = lam * pair.p + (1.0 - lam) * pair.q
        pts.append((float(np.exp(-DEFAULT_C * _kl(pair.q, r))), float(np.exp(-DEFAULT_C * _kl(pair.p, r)))))
    return pts


def _trapezoid_area(points: list[tuple[float, float]]) -> float:
    area = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:]):
        area += (x1 - x0) * (y1 + y0) / 2.0
    return area


def mauve_score(gen_vecs, ref_vecs, k: int = DEFAULT_K, seed: int = 0) -> MauveReport:
    """Quantize, trace the curve, integrate. Higher is more similar."""
    pair = quantize(gen_vecs, ref_vecs, k=k, seed=seed)
    pts = divergence_curve(pair) + [(0.0, 1.0), (1.0, 0.0)]
    # ascending x; at ties the higher y comes first so degenerate point
    # stacks (identical distributions) integrate to area 1
    pts.sort(key=lambda xy: (xy[0], -xy[1]))
    score = min(1.0, max(0.0, _trapezoid_area(pts)))
    return MauveReport(score=score, curve=pts, c=DEFAULT_C, k=k)
