"""Unit tests for the from-scratch DBSCAN implementation."""

import numpy as np
import pytest

from repro.cluster.dbscan import DBSCAN, NOISE, dbscan_labels_batch, k_distances


def two_blobs(n=30, separation=10.0, seed=0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.3, size=(n, 2))
    b = rng.normal(separation, 0.3, size=(n, 2))
    return np.vstack([a, b])


class TestKDistances:
    def test_shape(self):
        pts = two_blobs()
        assert k_distances(pts, 3).shape == (60,)

    def test_line_geometry(self):
        pts = np.asarray([[0.0], [1.0], [2.0], [3.0]])
        kd = k_distances(pts, 1)
        assert list(kd) == [1.0, 1.0, 1.0, 1.0]

    def test_k_larger_than_points_clamped(self):
        pts = np.asarray([[0.0], [1.0]])
        kd = k_distances(pts, 10)
        assert kd.shape == (2,)

    def test_single_point(self):
        assert k_distances(np.asarray([[0.0]]), 3)[0] == 0.0

    def test_empty(self):
        assert k_distances(np.zeros((0, 2)), 3).size == 0

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            k_distances(two_blobs(), 0)

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            k_distances(np.zeros(5), 1)


class TestDBSCAN:
    def test_two_blobs_two_clusters(self):
        labels = DBSCAN(eps=1.0, min_pts=3).fit_predict(two_blobs())
        assert set(labels[:30]) == {labels[0]}
        assert set(labels[30:]) == {labels[30]}
        assert labels[0] != labels[30]

    def test_isolated_point_is_noise(self):
        pts = np.vstack([two_blobs(), [[100.0, 100.0]]])
        labels = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts)
        assert labels[-1] == NOISE

    def test_auto_eps_heuristic(self):
        clusterer = DBSCAN(eps=None, min_pts=3).fit(two_blobs())
        kd = k_distances(two_blobs(), 3)
        expected = max(float(kd.max()) / 4.0, float(np.quantile(kd, 0.95)))
        assert clusterer.eps_ == pytest.approx(expected)

    def test_min_pts_controls_core_points(self):
        # a pair of close points cannot form a cluster with min_pts=3
        pts = np.asarray([[0.0, 0.0], [0.1, 0.0], [50.0, 50.0], [50.1, 50.0]])
        labels = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts)
        assert all(l == NOISE for l in labels)

    def test_min_pts_one_every_point_core(self):
        pts = np.asarray([[0.0, 0.0], [100.0, 100.0]])
        labels = DBSCAN(eps=1.0, min_pts=1).fit_predict(pts)
        assert NOISE not in labels
        assert labels[0] != labels[1]

    def test_border_point_joins_cluster(self):
        # chain: dense core plus one point within eps of the edge
        core = np.asarray([[0.0], [0.1], [0.2]])
        border = np.asarray([[1.0]])
        labels = DBSCAN(eps=0.9, min_pts=3).fit_predict(np.vstack([core, border]))
        assert labels[3] == labels[0]

    def test_identical_points_single_cluster(self):
        pts = np.zeros((10, 3))
        labels = DBSCAN(eps=None, min_pts=3).fit_predict(pts)
        assert set(labels) == {0}

    def test_1d_input_promoted(self):
        labels = DBSCAN(eps=1.0, min_pts=2).fit_predict(
            np.asarray([0.0, 0.1, 50.0, 50.1])
        )
        assert labels[0] == labels[1] != labels[2]

    def test_empty_input(self):
        clusterer = DBSCAN(eps=1.0).fit(np.zeros((0, 2)))
        assert clusterer.labels_.size == 0

    def test_cluster_sizes(self):
        clusterer = DBSCAN(eps=1.0, min_pts=3).fit(two_blobs())
        sizes = clusterer.cluster_sizes()
        assert sorted(sizes.values()) == [30, 30]

    def test_cluster_sizes_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            DBSCAN().cluster_sizes()

    def test_bad_min_pts_rejected(self):
        with pytest.raises(ValueError):
            DBSCAN(min_pts=0)

    def test_deterministic(self):
        pts = two_blobs(seed=5)
        l1 = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts)
        l2 = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts)
        assert np.array_equal(l1, l2)

    def test_single_point_min_pts_one_is_cluster(self):
        # regression: a lone point with min_pts=1 is its own (trivially
        # dense) cluster, not noise
        labels = DBSCAN(eps=1.0, min_pts=1).fit_predict(np.asarray([[0.0]]))
        assert list(labels) == [0]
        labels = DBSCAN(eps=None, min_pts=1).fit_predict(np.asarray([[3.0]]))
        assert list(labels) == [0]

    def test_border_point_keeps_first_cluster(self):
        # a border point within eps of two clusters' cores belongs to the
        # cluster that expands first (no later relabeling)
        cluster_a = np.asarray([[0.0], [0.1], [0.2], [0.3]])
        cluster_b = np.asarray([[2.0], [2.1], [2.2], [2.3]])
        border = np.asarray([[1.15]])
        pts = np.vstack([cluster_a, cluster_b, border])
        labels = DBSCAN(eps=0.9, min_pts=4).fit_predict(pts)
        assert labels[8] == labels[0]
        assert labels[0] != labels[4]

    def test_no_redundant_core_relabeling(self):
        # every point's final label comes from the first cluster that
        # claims it — run twice with point order reversed and check the
        # partition (not the ids) is identical
        pts = two_blobs(n=40, separation=4.0, seed=8)
        forward = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts)
        backward = DBSCAN(eps=1.0, min_pts=3).fit_predict(pts[::-1])[::-1]
        for labels in (forward, backward):
            assert set(labels[:40]) == {labels[0]}
            assert set(labels[40:]) == {labels[40]}


class TestGridIndex:
    """The serial fit against the batched kernel with the ε heuristic.

    The uniform-grid neighbour index these tests once checked against
    the dense path is gone; every fit now reads ε and its neighbour
    lists off one dense distance matrix, and the independent reference
    for that is :func:`dbscan_labels_batch`, which shares none of the
    BFS code."""

    def random_points(self, n, d, seed):
        rng = np.random.default_rng(seed)
        return np.vstack(
            [
                rng.normal(0.0, 0.5, size=(n // 2, d)),
                rng.normal(3.0, 0.5, size=(n - n // 2, d)),
            ]
        )

    @staticmethod
    def assert_fit_matches_batch(pts):
        fit = DBSCAN(eps=None, min_pts=3).fit(pts)
        labels, eps = dbscan_labels_batch(pts[None], min_pts=3)
        assert fit.eps_ == eps[0]
        assert np.array_equal(fit.labels_, labels[0])

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_grid_matches_dense_labels(self, d):
        for seed in range(5):
            self.assert_fit_matches_batch(self.random_points(120, d, seed))

    def test_grid_matches_dense_with_auto_eps(self):
        self.assert_fit_matches_batch(self.random_points(150, 3, seed=42))


class TestChunkedKDistances:
    def test_chunked_matches_unchunked(self):
        from tests.golden_stream import golden_k_distances

        pts = two_blobs(n=50, seed=6)
        np.testing.assert_allclose(
            k_distances(pts, 3), golden_k_distances(pts, 3), atol=1e-9
        )
