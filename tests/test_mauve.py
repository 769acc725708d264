"""Divergence-frontier similarity score.

Oracles here are closed forms: when the two quantized histograms have
disjoint support the curve is ((1-lam)^c, lam^c) exactly, and its area
is c!c!/(2c)! * c for integer c (1/252 at c=5).
"""

import math

import numpy as np
import pytest

from softsrv.errors import ValidationError
from softsrv.mauve import (
    DEFAULT_C,
    DEFAULT_GRID,
    DEFAULT_K,
    MauveReport,
    QuantizedPair,
    _LAM_EDGE,
    _lloyd,
    divergence_curve,
    mauve_score,
    quantize,
)
from softsrv.postprocess import kmeans_pp_init, nearest_centroid

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def gaussian_cloud(n, d, center, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(n, d)) + np.asarray(center)


def test_defaults_are_pinned():
    assert DEFAULT_K == 32
    assert DEFAULT_C == 5.0
    assert DEFAULT_GRID == 101


def test_point_mass_curve_matches_closed_form():
    pair = QuantizedPair(p=np.array([1.0, 0.0]), q=np.array([0.0, 1.0]))
    grid = np.linspace(_LAM_EDGE, 1 - _LAM_EDGE, DEFAULT_GRID)  # the lambdas divergence_curve traces
    pts = divergence_curve(pair)
    assert len(pts) == DEFAULT_GRID
    for lam, (x, y) in zip(grid, pts):
        assert x == pytest.approx((1.0 - lam) ** 5, abs=1e-10)
        assert y == pytest.approx(lam**5, abs=1e-10)


def test_identical_histograms_give_flat_curve_at_one():
    p = np.array([0.25, 0.5, 0.25])
    pair = QuantizedPair(p=p, q=p.copy())
    for x, y in divergence_curve(pair):
        assert x == pytest.approx(1.0, abs=1e-12)
        assert y == pytest.approx(1.0, abs=1e-12)


def test_quantize_histograms_on_forced_clustering():
    # k equals the number of distinct union points, so every distinct
    # value becomes its own centroid and the histograms are just counts
    gen = np.array([[0.0], [10.0]])
    ref = np.array([[0.0], [10.0], [20.0]])
    pair = quantize(gen, ref, k=3, seed=0)
    assert sorted(pair.p.tolist()) == pytest.approx([0.0, 0.5, 0.5])
    assert sorted(pair.q.tolist()) == pytest.approx([1 / 3, 1 / 3, 1 / 3])
    assert pair.p.sum() == pytest.approx(1.0)
    assert pair.q.sum() == pytest.approx(1.0)


def test_quantize_is_side_order_canonical():
    a = gaussian_cloud(30, 4, 0.0, seed=1)
    b = gaussian_cloud(25, 4, 0.8, seed=2)
    ab = quantize(a, b, k=6, seed=3)
    ba = quantize(b, a, k=6, seed=3)
    np.testing.assert_array_equal(ab.p, ba.q)
    np.testing.assert_array_equal(ab.q, ba.p)


def test_self_similarity_is_essentially_one():
    cloud = gaussian_cloud(50, 8, 0.0, seed=4)
    report = mauve_score(cloud, cloud.copy(), k=8, seed=5)
    assert report.score >= 0.99
    assert report.score == pytest.approx(1.0, abs=1e-9)


def test_far_apart_clouds_score_near_closed_form_floor():
    gen = gaussian_cloud(40, 2, (0.0, 0.0), seed=6) * 0.3
    ref = gaussian_cloud(40, 2, (1000.0, 1000.0), seed=7) * 0.3
    report = mauve_score(gen, ref, k=8, seed=8)
    # disjoint histograms: exact area is 1/252
    assert report.score == pytest.approx(1.0 / 252.0, abs=2e-3)
    assert report.score <= 0.05


def test_score_is_symmetric_under_swapping_sides():
    a = gaussian_cloud(40, 4, 0.0, seed=9)
    b = gaussian_cloud(45, 4, 1.2, seed=10)
    s_ab = mauve_score(a, b, k=8, seed=11).score
    s_ba = mauve_score(b, a, k=8, seed=11).score
    assert s_ab == pytest.approx(s_ba, abs=1e-9)


def test_score_decreases_as_clouds_translate_apart():
    ref = gaussian_cloud(60, 4, 0.0, seed=12)
    base = gaussian_cloud(60, 4, 0.0, seed=13)
    scores = []
    for offset in [0.0, 1.0, 2.0, 4.0, 8.0]:
        gen = base + offset
        scores.append(mauve_score(gen, ref, k=8, seed=14).score)
    for closer, farther in zip(scores, scores[1:]):
        assert farther <= closer + 0.02
    assert scores[0] > 0.5
    assert scores[-1] < 0.05


def test_score_matches_independent_trapezoid_integration():
    gen = gaussian_cloud(35, 3, 0.0, seed=15)
    ref = gaussian_cloud(35, 3, 0.7, seed=16)
    report = mauve_score(gen, ref, k=6, seed=17)
    pts = sorted(report.curve, key=lambda xy: (xy[0], -xy[1]))
    xs = np.array([x for x, _ in pts])
    ys = np.array([y for _, y in pts])
    want = float(trapezoid(ys, xs))
    assert report.score == pytest.approx(min(1.0, max(0.0, want)), abs=1e-12)


def test_report_text_round_trips_the_score():
    cloud = gaussian_cloud(20, 2, 0.0, seed=18)
    report = mauve_score(cloud, cloud + 0.5, k=4, seed=19)
    text = report.to_text()
    first = text.splitlines()[0]
    key, value = first.split("\t")
    assert key == "mauve_score"
    assert float(value) == pytest.approx(report.score, rel=1e-9)


def test_determinism_across_calls():
    a = gaussian_cloud(30, 3, 0.0, seed=20)
    b = gaussian_cloud(30, 3, 0.5, seed=21)
    r1 = mauve_score(a, b, k=8, seed=22)
    r2 = mauve_score(a, b, k=8, seed=22)
    assert r1.score == r2.score
    assert r1.curve == r2.curve


def test_validation_rejects_bad_inputs():
    good = gaussian_cloud(10, 2, 0.0, seed=23)
    with pytest.raises(ValidationError):
        quantize(np.zeros((0, 2)), good, k=2)
    with pytest.raises(ValidationError):
        quantize(good, gaussian_cloud(10, 3, 0.0, seed=24), k=2)
    with pytest.raises(ValidationError):
        quantize(good, good, k=0)
    with pytest.raises(ValidationError):
        quantize(good, good, k=21)
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(ValidationError):
        quantize(bad, good, k=2)


def loop_lloyd(X, k, rng):
    """The per-cluster boolean gather _lloyd replaces, same stopping rule."""
    centroids = kmeans_pp_init(X, k, rng)
    labels = None
    for _ in range(100):
        new_labels = nearest_centroid(X, centroids)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = X[labels == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    return centroids


@pytest.mark.parametrize("case", ["clouds", "empty-clusters"])
def test_lloyd_grouped_sums_equal_the_per_cluster_means_exactly(case):
    if case == "clouds":
        X, k = np.vstack([gaussian_cloud(3000, 6, [0.0] * 6, 1), gaussian_cloud(2000, 6, [3.0] * 6, 2)]), 9
    else:
        # three distinct points and k=5: two centroids duplicate others and stay empty
        X, k = np.repeat(np.eye(3) * 0.7, 4, axis=0), 5
    got = _lloyd(X, k, np.random.default_rng(3))
    np.testing.assert_array_equal(got, loop_lloyd(X, k, np.random.default_rng(3)))
