"""DBSCAN (Ester et al., KDD 1996) implemented from scratch.

DBSherlock's automatic anomaly detector (Section 7) clusters normalized
telemetry points with DBSCAN, fixing ``minPts = 3`` and deriving ``ε`` from
the k-dist curve: ``ε = max(Lk) / 4`` where ``Lk`` lists each point's
distance to its k-th nearest neighbour.

A fit takes ``ε`` from :func:`k_distances` (the k-th order statistic of
each row of the dense distance matrix, by ``np.partition``) and its
ε-neighbour lists from one dense matrix; cluster expansion is then a
vectorized BFS that labels, visits and expands the whole frontier with
array operations instead of a per-point ``deque`` walk.  A matrix is
O(n²) floats — 18 MB at the 1,500 rows of the longest run any bench
builds.

:func:`dbscan_labels_batch` clusters a stack of equal-sized point sets
(the fleet's fallout windows) with the same arithmetic over the leading
axis and bitwise-equal output; the serial BFS is its reference.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.obs import metrics

__all__ = ["DBSCAN", "NOISE", "dbscan_labels_batch", "k_distances"]

_DENSE_FITS = metrics.REGISTRY.counter(
    "repro_dbscan_dense_fits_total",
    "DBSCAN fits served by the dense distance matrix",
)
_LAST_CLUSTERS = metrics.REGISTRY.gauge(
    "repro_dbscan_last_clusters", "Clusters found by the most recent fit"
)
_BATCH_FITS = metrics.REGISTRY.counter(
    "repro_dbscan_batch_fits_total",
    "DBSCAN fits served by the batched multi-set path",
)

#: Cluster id assigned to noise points.
NOISE = -1


def _pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Dense Euclidean distance matrices over the last two axes.

    *points* is one ``(n, d)`` set or a stack ``(..., n, d)``.
    ``2.0 * points @ points.T`` binds as ``(2.0 * points) @ points.T``:
    the doubling happens before the matrix product, in the serial fit
    and the batch path alike, which keeps them equal ulp for ulp.
    """
    sq = np.sum(points * points, axis=-1)
    d2 = (
        sq[..., :, None]
        + sq[..., None, :]
        - 2.0 * points @ np.swapaxes(points, -1, -2)
    )
    np.maximum(d2, 0.0, out=d2)
    return np.sqrt(d2)


def _kth_neighbour(distances: np.ndarray, k: int) -> np.ndarray:
    """Each row's distance to its k-th nearest neighbour.

    Entry 0 of a sorted row is the self-distance (0), so the k-th
    neighbour is order statistic k, which ``np.partition`` finds
    directly; ``k`` is capped at the other points available.
    """
    k = min(k, distances.shape[-1] - 1)
    if k == 0:
        return np.zeros(distances.shape[:-1])
    return np.partition(distances, k, axis=-1)[..., k]


def k_distances(points: np.ndarray, k: int) -> np.ndarray:
    """Distance from each point to its k-th nearest neighbour (k-dist list).

    ``k`` counts neighbours excluding the point itself, following the
    original DBSCAN paper's sorted k-dist graph heuristic.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D array")
    if points.shape[0] == 0:
        return np.zeros(0)
    if k < 1:
        raise ValueError("k must be at least 1")
    return _kth_neighbour(_pairwise_distances(points), k)


def _auto_eps(kd: np.ndarray) -> np.ndarray:
    """DBSherlock's ``ε = max(Lk)/4`` over the last axis, floored.

    When the k-dist curve is flat the heuristic can land below the
    typical neighbour distance and dissolve every cluster, so ε is
    floored at the 95th percentile of Lk (keeping cluster-dense points
    core).
    """
    return np.maximum(kd.max(axis=-1) / 4.0, np.quantile(kd, 0.95, axis=-1))


class DBSCAN:
    """Density-based clustering.

    Parameters
    ----------
    eps:
        Neighbourhood radius.  ``None`` derives ``ε = max(Lk)/4`` from the
        k-dist list at fit time (the DBSherlock heuristic).
    min_pts:
        Minimum neighbourhood size (including the point itself) for a core
        point.  DBSherlock fixes this to 3.
    """

    def __init__(self, eps: Optional[float] = None, min_pts: int = 3) -> None:
        if min_pts < 1:
            raise ValueError("min_pts must be at least 1")
        self.eps = eps
        self.min_pts = min_pts
        self.labels_: Optional[np.ndarray] = None
        self.eps_: Optional[float] = None

    def fit(self, points: np.ndarray) -> "DBSCAN":
        """Cluster *points*; labels land in ``labels_`` (NOISE = -1)."""
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points[:, None]
        n = points.shape[0]
        if n == 0:
            self.labels_ = np.zeros(0, dtype=np.int64)
            self.eps_ = self.eps or 0.0
            return self

        eps = self.eps
        if eps is None:
            # ε from its own k-dist pass, not the matrix below: this fit is
            # the serial leg of bench_fleet.py's storm floor (ROADMAP 3).
            eps = float(_auto_eps(k_distances(points, self.min_pts)))
        if eps <= 0:
            # Degenerate geometry (all points identical): one cluster.
            self.labels_ = np.zeros(n, dtype=np.int64)
            self.eps_ = eps
            return self
        self.eps_ = eps

        _DENSE_FITS.inc()
        within = _pairwise_distances(points) <= eps
        neighbours = [np.flatnonzero(row) for row in within]
        counts = within.sum(axis=1)
        labels = np.full(n, NOISE, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        cluster_id = 0
        for i in range(n):
            if visited[i]:
                continue
            visited[i] = True
            if counts[i] < self.min_pts:
                continue  # stays noise unless captured as a border point
            labels[i] = cluster_id
            frontier = neighbours[i]
            while frontier.size:
                # Label every still-noise frontier point (core or border).
                # A point already owned by an earlier cluster keeps its
                # label — border points belong to the first cluster that
                # reaches them.
                unclaimed = frontier[labels[frontier] == NOISE]
                labels[unclaimed] = cluster_id
                fresh = frontier[~visited[frontier]]
                visited[fresh] = True
                cores = fresh[counts[fresh] >= self.min_pts]
                if cores.size:
                    frontier = np.unique(
                        np.concatenate([neighbours[c] for c in cores])
                    )
                else:
                    break
            cluster_id += 1
        self.labels_ = labels
        _LAST_CLUSTERS.set(cluster_id)
        return self

    def fit_predict(self, points: np.ndarray) -> np.ndarray:
        """Fit and return the label array."""
        self.fit(points)
        assert self.labels_ is not None
        return self.labels_

    def cluster_sizes(self) -> dict:
        """Mapping of cluster id → size (noise excluded)."""
        if self.labels_ is None:
            raise RuntimeError("fit() has not been called")
        members = self.labels_[self.labels_ != NOISE]
        ids, counts = np.unique(members, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}


#: Element budget for one batched ``(block, n, n)`` distance stack —
#: bounds peak memory however many sets the caller stacks.
_BATCH_ELEMENT_BUDGET = 4_000_000


def _component_labels(
    within: np.ndarray, core: np.ndarray
) -> np.ndarray:
    """Serial-equal cluster labels from a ``(B, n, n)`` neighbour stack.

    The serial BFS numbers components by the smallest core index that
    starts them (the ascending outer loop reaches every component first
    at its minimal core point) and gives border points to the
    lowest-numbered cluster owning a core neighbour.  Both rules reduce
    to pure array ops: propagate the minimum core index over core-core
    adjacency until fixpoint (with pointer jumping, so long chains
    converge in O(log n) sweeps), rank the surviving component roots in
    ascending order, and label every point by the rank of the smallest
    root among its core neighbours (a core point's own root for cores;
    first-cluster-wins for borders).
    """
    b, n, _ = within.shape
    sentinel = n
    # int32 indices: the propagation sweeps are memory-bound on the
    # (B, n, n) where/min temporaries, and window counts never approach
    # 2**31 — halving the element width halves the traffic.  The final
    # labels are still produced from an int64 rank table.
    idx = np.arange(n, dtype=np.int32)
    labels_like = np.where(core, idx[None, :], np.int32(sentinel))
    adjacency = within & core[:, :, None] & core[:, None, :]
    current = labels_like
    while True:
        candidate = np.where(
            adjacency, current[:, None, :], np.int32(sentinel)
        ).min(axis=2)
        nxt = np.minimum(current, candidate)
        hop = np.take_along_axis(nxt, np.minimum(nxt, n - 1), axis=1)
        nxt = np.where(nxt < sentinel, np.minimum(nxt, hop), np.int32(sentinel))
        if np.array_equal(nxt, current):
            break
        current = nxt
    roots = current  # min core index of the component; sentinel for non-core
    present = np.zeros((b, n + 1), dtype=bool)
    np.put_along_axis(present, roots, True, axis=1)
    present[:, n] = False
    rank = np.cumsum(present, axis=1).astype(np.int64) - 1
    rank = np.concatenate([rank, np.full((b, 1), NOISE, dtype=np.int64)], axis=1)
    # Min component root over core neighbours (self included for cores);
    # sentinel rows (no core neighbour at all) index the NOISE column.
    neighbour_root = np.where(
        within & core[:, None, :], roots[:, None, :], np.int32(sentinel)
    ).min(axis=2)
    lookup = np.where(neighbour_root < sentinel, neighbour_root, n + 1)
    return np.take_along_axis(rank, lookup, axis=1)


def dbscan_labels_batch(
    points: np.ndarray, min_pts: int = 3
) -> tuple:
    """DBSCAN over a stack of point sets in a handful of numpy passes.

    *points* is ``(n_sets, n_rows, n_dims)``; every set is clustered with
    the DBSherlock ε heuristic exactly as ``DBSCAN(eps=None,
    min_pts=min_pts).fit_predict(points[i])`` would — the k-dist
    extraction, ε derivation, core test, component numbering, and border
    ownership are all the same arithmetic, just evaluated across the
    leading axis — so the returned ``(labels, eps)`` pair is
    bitwise-identical to the serial loop (asserted by the equivalence
    tests).  Sets are processed in blocks of at most
    ``_BATCH_ELEMENT_BUDGET`` distance entries.
    """
    points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if points.ndim != 3:
        raise ValueError("points must be (n_sets, n_rows, n_dims)")
    if min_pts < 1:
        raise ValueError("min_pts must be at least 1")
    n_sets, n, _d = points.shape
    labels = np.zeros((n_sets, n), dtype=np.int64)
    eps_out = np.zeros(n_sets)
    if n_sets == 0 or n == 0:
        return labels, eps_out
    _BATCH_FITS.inc(n_sets)
    block_size = max(1, _BATCH_ELEMENT_BUDGET // (n * n))
    for start in range(0, n_sets, block_size):
        stop = min(start + block_size, n_sets)
        dist = _pairwise_distances(points[start:stop])
        eps = _auto_eps(_kth_neighbour(dist, min_pts))
        eps_out[start:stop] = eps
        active = eps > 0
        if not bool(active.any()):
            continue  # degenerate lanes keep their all-zeros labels
        within = dist <= eps[:, None, None]
        counts = within.sum(axis=2)
        core = (counts >= min_pts) & active[:, None]
        block_labels = _component_labels(within, core)
        block_labels[~active] = 0
        labels[start:stop] = block_labels
    _LAST_CLUSTERS.set(int((labels[-1].max() + 1) if n else 0))
    return labels, eps_out
