"""Tests for the streaming detection engine (``repro.stream``).

The load-bearing suite here is :class:`TestExactEquivalence`: in
``mode="exact"`` the :class:`StreamingDetector` must produce *identical*
output — mask, regions, selected attributes, ε — to running the batch
:class:`AnomalyDetector` from scratch on every shared window of seeded
scenario runs, and both must match the frozen seed implementations in
``tests.golden_stream``.
"""

import numpy as np
import pytest

from repro.core.anomaly import AnomalyDetector, potential_power
from repro.core.separation import normalize_values
from repro.data.dataset import Dataset
from repro.eval.harness import replay_rows, simulate_run
from repro.stream import (
    StreamingDetector,
    StreamingDiagnoser,
)
from tests.golden_stream import GoldenAnomalyDetector


# ---------------------------------------------------------------------------
# incremental potential power
# ---------------------------------------------------------------------------
class TestIncrementalPotentialPower:
    def test_matches_batch_on_sliding_windows(self):
        rng = np.random.default_rng(21)
        stream = rng.normal(size=150)
        stream[90:115] += 4.0
        capacity, w = 40, 10
        detector = StreamingDetector(capacity=capacity, window=w)
        for i, value in enumerate(stream):
            detector.observe(float(i), {"a": float(value)})
            window = detector.window
            power = detector.fleet.arena.stats().powers[0, 0]
            expected = potential_power(
                normalize_values(window.column("a")), window=w
            )
            assert power == pytest.approx(expected, abs=1e-12)

    def test_zero_while_buffer_at_most_one_window(self):
        detector = StreamingDetector(capacity=30, window=10)
        for i in range(10):
            detector.observe(float(i), {"a": float(i % 3)})
            assert detector.fleet.arena.stats().powers[0, 0] == 0.0

    def test_zero_for_constant_attribute(self):
        detector = StreamingDetector(capacity=30, window=5)
        for i in range(30):
            detector.observe(float(i), {"a": 2.5})
        assert detector.fleet.arena.stats().powers[0, 0] == 0.0


# ---------------------------------------------------------------------------
# exact-mode equivalence: streaming == batch == frozen seed
# ---------------------------------------------------------------------------
def assert_results_equal(streamed, batched):
    assert np.array_equal(streamed.mask, batched.mask)
    assert streamed.regions == batched.regions
    assert streamed.selected_attributes == batched.selected_attributes
    assert streamed.eps == batched.eps


class TestExactEquivalence:
    @pytest.mark.parametrize(
        "anomaly_key,seed",
        [("cpu_saturation", 101), ("network_congestion", 202)],
    )
    def test_streaming_matches_batch_on_every_window(self, anomaly_key, seed):
        dataset, _, _ = simulate_run(
            anomaly_key, duration_s=40, seed=seed, normal_s=80
        )
        capacity = 60
        streaming = StreamingDetector(capacity=capacity, mode="exact")
        batch = AnomalyDetector()
        for t, numeric_row, categorical_row in replay_rows(dataset):
            streaming.observe(t, numeric_row, categorical_row)
            if not streaming.window.full:
                continue
            streamed = streaming.detect()
            batched = batch.detect(streaming.window.to_dataset())
            assert_results_equal(streamed, batched)

    @pytest.mark.parametrize("anomaly_key,seed", [("lock_contention", 303)])
    def test_batch_matches_frozen_seed_detector(self, anomaly_key, seed):
        dataset, _, _ = simulate_run(
            anomaly_key, duration_s=40, seed=seed, normal_s=80
        )
        live = AnomalyDetector().detect(dataset)
        golden = GoldenAnomalyDetector().detect(dataset)
        assert_results_equal(live, golden)

    def test_tick_equals_observe_plus_detect(self):
        rng = np.random.default_rng(5)
        stream = rng.normal(size=80)
        stream[50:70] += 5.0
        a = StreamingDetector(capacity=40)
        b = StreamingDetector(capacity=40)
        for i, value in enumerate(stream):
            update = a.tick(float(i), {"a": float(value)})
            b.observe(float(i), {"a": float(value)})
            assert_results_equal(update.result, b.detect())


# ---------------------------------------------------------------------------
# delta emission and incremental mode
# ---------------------------------------------------------------------------
def step_stream(n=200, start=120, width=20, seed=9, attrs=4):
    # width stays under cluster_fraction × capacity (0.2 × 120 = 24 rows)
    # so the abnormal cluster remains flagged until the region closes
    rng = np.random.default_rng(seed)
    columns = {}
    for i in range(attrs):
        values = rng.normal(10.0, 0.3, n)
        values[start : start + width] += 20.0 + rng.normal(0, 0.3, width)
        columns[f"m{i}"] = values
    return columns


class TestClosedRegions:
    def test_region_emitted_exactly_once(self):
        columns = step_stream()
        detector = StreamingDetector(capacity=120)
        emitted = []
        for i in range(200):
            row = {a: float(v[i]) for a, v in columns.items()}
            update = detector.tick(float(i), row)
            emitted.extend(
                (region.start, region.end)
                for region in update.closed_regions
            )
        assert len(emitted) == 1
        start, end = emitted[0]
        assert abs(start - 120.0) <= 5.0
        assert abs(end - 139.0) <= 5.0

    def test_no_emission_without_anomaly(self):
        rng = np.random.default_rng(13)
        detector = StreamingDetector(capacity=60)
        for i in range(120):
            update = detector.tick(
                float(i), {"a": float(rng.normal()), "b": float(rng.normal())}
            )
            assert update.closed_regions == []


class TestStreamingDiagnoser:
    def test_closed_region_is_diagnosed(self):
        from repro import DBSherlock

        columns = step_stream(attrs=3)
        diagnoser = StreamingDiagnoser(
            DBSherlock(), StreamingDetector(capacity=120)
        )
        for i in range(200):
            row = {a: float(v[i]) for a, v in columns.items()}
            diagnoser.tick(float(i), row)
        assert len(diagnoser.diagnoses) == 1
        region, explanation = diagnoser.diagnoses[0]
        assert abs(region.start - 120.0) <= 5.0
        assert explanation.predicates is not None


class TestAttributeFilter:
    def test_only_filtered_attributes_selected(self):
        columns = step_stream(attrs=3)
        detector = StreamingDetector(capacity=120, attributes=["m0"])
        last = None
        for i in range(170):
            row = {a: float(v[i]) for a, v in columns.items()}
            last = detector.tick(float(i), row).result
        assert last.selected_attributes == ["m0"]
