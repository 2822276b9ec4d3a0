"""Unit tests for automatic anomaly detection (Section 7)."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.anomaly import (
    AnomalyDetector,
    mask_to_regions,
    median_of_sorted,
    potential_power,
)
from repro.core.separation import normalize_values
from repro.data.dataset import Dataset
from tests.golden_stream import golden_potential_power


def step_series(n=200, start=100, width=40, lo=0.0, hi=1.0, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    values = np.full(n, lo) + rng.normal(0, noise, n)
    values[start : start + width] = hi + rng.normal(0, noise, width)
    return values


# Small values with repeats and both signed zeros, so lanes tie often.
_TIES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0])
_SPREAD = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@st.composite
def _padded_lanes(draw):
    """Lanes of *k* slots, the first *n* of each drawn and the rest padding.

    *n* is one scalar or one count per leading index over a prefix of
    the lane axes; padding is NaN or ``+inf``, both of which sort last.
    """
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    k = draw(st.integers(1, 7))
    size = int(np.prod(lead, dtype=np.int64)) * k
    cells = np.asarray(
        draw(
            st.lists(
                st.one_of(_TIES, _SPREAD), min_size=size, max_size=size
            )
        ),
        dtype=np.float64,
    ).reshape(lead + (k,))
    prefix = draw(st.integers(0, len(lead)))
    if prefix == 0 and draw(st.booleans()):
        counts = draw(st.integers(0, k))
    else:
        shape = lead[:prefix]
        total = int(np.prod(shape, dtype=np.int64))
        counts = np.asarray(
            draw(st.lists(st.integers(0, k), min_size=total, max_size=total)),
            dtype=np.int64,
        ).reshape(shape)
    pad = draw(st.sampled_from([np.nan, np.inf]))
    return cells, counts, pad


class TestMedianOfSorted:
    @settings(max_examples=150, deadline=None)
    @given(case=_padded_lanes())
    @example(case=(np.array([[-0.0, 0.0, 1.0]]), 2, np.nan))
    @example(case=(np.array([[1.0, 2.0], [3.0, 4.0]]), np.array([0, 2]), np.inf))
    @example(case=(np.array([5.0, 1.0, 3.0]), 0, np.inf))
    def test_matches_numpy_median_of_valid_prefix(self, case):
        """Each lane reads ``np.median`` of its first *n* sorted entries
        (NaN when *n* is 0), through ties, signed zeros, scalar and
        per-lane counts, and NaN or ``+inf`` padding."""
        cells, counts, pad = case
        lead, k = cells.shape[:-1], cells.shape[-1]
        tail = (1,) * (len(lead) - np.ndim(counts))
        per_lane = np.broadcast_to(
            np.reshape(counts, np.shape(counts) + tail), lead
        )
        padded = np.where(
            np.arange(k) < per_lane[..., None], cells, pad
        )
        ordered = np.sort(padded, axis=-1)
        got = median_of_sorted(ordered, counts)
        assert got.shape == lead
        for idx in np.ndindex(*lead):
            n = int(per_lane[idx])
            if n == 0:
                assert np.isnan(got[idx])
            else:
                assert got[idx] == np.median(ordered[idx][:n])


class TestPotentialPower:
    def test_flat_series_zero_power(self):
        assert potential_power(np.zeros(100)) == 0.0

    def test_step_has_high_power(self):
        values = normalize_values(step_series())
        assert potential_power(values, window=20) > 0.9

    def test_short_blip_low_power(self):
        # a 3-sample blip cannot dominate a 20-sample window median
        values = np.zeros(200)
        values[100:103] = 1.0
        assert potential_power(values, window=20) < 0.2

    def test_window_longer_than_series(self):
        values = np.asarray([0.0, 1.0, 0.0])
        assert potential_power(values, window=50) == 0.0

    def test_empty_series(self):
        assert potential_power(np.asarray([])) == 0.0

    def test_power_bounded_by_one_for_normalized(self):
        values = normalize_values(step_series(noise=0.05, seed=3))
        assert 0.0 <= potential_power(values) <= 1.0


class TestMaskToRegions:
    def test_single_run(self):
        ts = np.arange(10, dtype=float)
        mask = np.zeros(10, dtype=bool)
        mask[3:6] = True
        regions = mask_to_regions(ts, mask)
        assert len(regions) == 1
        assert (regions[0].start, regions[0].end) == (3.0, 5.0)

    def test_multiple_runs(self):
        ts = np.arange(10, dtype=float)
        mask = np.asarray([1, 1, 0, 0, 1, 0, 0, 1, 1, 1], dtype=bool)
        regions = mask_to_regions(ts, mask)
        assert len(regions) == 3
        assert (regions[2].start, regions[2].end) == (7.0, 9.0)

    def test_empty_mask(self):
        assert mask_to_regions(np.arange(5.0), np.zeros(5, dtype=bool)) == []

    def test_full_mask(self):
        regions = mask_to_regions(np.arange(5.0), np.ones(5, dtype=bool))
        assert len(regions) == 1
        assert regions[0].duration == 4.0


class TestAttributeSelection:
    def dataset(self):
        n = 300
        return Dataset(
            np.arange(n, dtype=float),
            numeric={
                "stepped": step_series(n, 150, 50, noise=0.02, seed=1),
                "flat": np.full(n, 7.0),
                "noisy_flat": np.random.default_rng(2).normal(0, 1, n),
            },
            categorical={"mode": ["x"] * n},
        )

    def test_selects_stepped_attribute(self):
        selected = AnomalyDetector().select_attributes(self.dataset())
        assert "stepped" in selected

    def test_rejects_flat_attributes(self):
        selected = AnomalyDetector().select_attributes(self.dataset())
        assert "flat" not in selected

    def test_rejects_stationary_noise(self):
        selected = AnomalyDetector().select_attributes(self.dataset())
        assert "noisy_flat" not in selected

    def test_explicit_attribute_list(self):
        selected = AnomalyDetector().select_attributes(
            self.dataset(), attributes=["flat"]
        )
        assert selected == []


class TestDetection:
    def dataset(self, n=400, start=200, width=50):
        rng = np.random.default_rng(4)
        numeric = {}
        for i in range(5):
            numeric[f"m{i}"] = step_series(
                n, start, width, lo=10.0, hi=30.0, noise=0.3, seed=10 + i
            )
        numeric["flat"] = np.full(n, 1.0)
        return Dataset(np.arange(n, dtype=float), numeric=numeric)

    def test_detects_window(self):
        result = AnomalyDetector().detect(self.dataset())
        assert result.found
        region = max(result.regions, key=lambda r: r.duration)
        assert abs(region.start - 200.0) <= 5.0
        assert abs(region.end - 249.0) <= 5.0

    def test_detection_mask_matches_regions(self):
        ds = self.dataset()
        result = AnomalyDetector().detect(ds)
        rebuilt = np.zeros(ds.n_rows, dtype=bool)
        for region in result.regions:
            rebuilt |= region.contains(ds.timestamps)
        assert np.array_equal(rebuilt, result.mask)

    def test_no_selected_attributes_no_detection(self):
        n = 100
        ds = Dataset(np.arange(n, dtype=float), numeric={"flat": np.ones(n)})
        result = AnomalyDetector().detect(ds)
        assert not result.found
        assert result.selected_attributes == []

    def test_to_region_spec(self):
        result = AnomalyDetector().detect(self.dataset())
        spec = result.to_region_spec()
        assert spec.normal is None
        assert len(spec.abnormal) == len(result.regions)

    def test_min_region_filters_slivers(self):
        detector = AnomalyDetector(min_region_s=60.0)
        result = detector.detect(self.dataset(width=50))
        # the 50 s anomaly itself is filtered at this threshold
        assert all(r.duration + 1.0 > 60.0 for r in result.regions)

    def test_empty_dataset(self):
        ds = Dataset(np.zeros(0), numeric={"a": np.zeros(0)})
        result = AnomalyDetector().detect(ds)
        assert not result.found
        assert result.mask.shape == (0,)
        assert result.regions == []
        assert result.eps == 0.0

    def test_window_longer_than_dataset(self):
        # Equation 4 clamps the window to the series length: a single
        # whole-series window has zero power, so nothing is selected
        ds = Dataset(
            np.arange(10.0),
            numeric={"a": np.r_[np.zeros(5), np.ones(5)]},
        )
        result = AnomalyDetector(window=50).detect(ds)
        assert not result.found
        assert result.selected_attributes == []

    def test_two_level_attribute_eps_zero_one_cluster(self):
        # an attribute taking exactly two values normalizes to {0, 1}:
        # every point has >= min_pts identical companions, the k-dist list
        # is all zeros, eps degenerates to 0 and everything is one big
        # (normal) cluster
        n = 100
        values = np.zeros(n)
        values[40:70] = 1.0
        ds = Dataset(np.arange(n, dtype=float), numeric={"a": values})
        result = AnomalyDetector(window=20).detect(ds)
        assert result.selected_attributes == ["a"]
        assert result.eps == 0.0
        assert not result.found

    def test_include_noise_false_masks_subset(self):
        ds = self.dataset()
        loose = AnomalyDetector(include_noise=True).detect(ds)
        strict = AnomalyDetector(include_noise=False).detect(ds)
        assert strict.selected_attributes == loose.selected_attributes
        # dropping noise can only unflag rows (before smoothing), and the
        # clustered anomaly window must survive either way
        assert strict.found
        assert int(strict.mask.sum()) <= int(loose.mask.sum())


class TestPotentialPowerBatch:
    """Stacked lanes: each row's power equals the seed loop on that row."""

    def test_matches_scalar_on_random_series(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(1, 120))
            window = int(rng.integers(1, 40))
            matrix = rng.normal(size=(int(rng.integers(1, 6)), n))
            matrix = np.vstack(
                [normalize_values(row)[None, :] for row in matrix]
            )
            batch = potential_power(matrix, window)
            for i, row in enumerate(matrix):
                assert batch[i] == potential_power(row, window)
                assert batch[i] == golden_potential_power(row, window)

    def test_matches_scalar_on_step(self):
        values = normalize_values(step_series())
        batch = potential_power(values[None, :], 20)
        assert batch[0] == potential_power(values, window=20)
        assert batch[0] == golden_potential_power(values, window=20)

    def test_empty_matrix(self):
        assert potential_power(np.zeros((0, 50)), 10).shape == (0,)
