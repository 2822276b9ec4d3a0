"""The single-stream detector as a one-lane fleet.

:class:`StreamingDetector` is a facade over ``FleetDetector(1, ...)``.
These tests pin what the facade itself owns: its window (the arena lane
plus the categorical columns it keeps), the version-1 checkpoint format
written by the earlier per-attribute implementation, a window wider
than the capacity, and errors raised inside detection.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.stream import StreamingDetector

FIXTURE = Path(__file__).parent / "data" / "stream_checkpoint_v1.json"


def _fixture_rows():
    """The ticks behind ``data/stream_checkpoint_v1.json``.

    The fixture is ``json.dump(det.checkpoint(), indent=1,
    sort_keys=True)`` after feeding these 60 ticks through ``det.tick``,
    with ``det = StreamingDetector(capacity=24, window=4,
    min_region_s=2.0, quarantine_after=4)`` as implemented before the
    detector became a one-lane fleet (per-attribute sliding medians and
    its own ring buffer).  The rows exercise every part of the schema:
    a closed region (cpu/io step at ticks 30-35), a NaN cell (tick 20),
    a missing numeric cell (tick 41), missing categoricals (ticks 25 and
    44), a dropped stale timestamp (tick 50) and a stuck-at quarantine
    (``stuck``).
    """
    rng = np.random.default_rng(7)
    for i in range(60):
        t = float(i)
        row = {
            "cpu": float(10 + rng.normal()),
            "io": float(5 + rng.normal()),
            "stuck": 1.0,
        }
        if 30 <= i < 36:
            row["cpu"] += 15.0
            row["io"] += 12.0
        if i == 20:
            row["io"] = float("nan")
        if i == 41:
            del row["cpu"]
        cat = {"state": "busy" if 30 <= i < 36 else "idle"}
        if i in (25, 44):
            cat = {}
        if i == 50:
            t = 49.0
        yield t, row, cat


def _fixture_detector():
    return StreamingDetector(
        capacity=24, window=4, min_region_s=2.0, quarantine_after=4
    )


class TestVersionOneCheckpoint:
    def test_facade_writes_the_same_checkpoint(self):
        expected = json.loads(FIXTURE.read_text())
        det = _fixture_detector()
        for t, row, cat in _fixture_rows():
            det.tick(t, row, cat)
        assert json.loads(json.dumps(det.checkpoint())) == expected

    def test_restores_and_rewrites_an_equal_dict(self):
        state = json.loads(FIXTURE.read_text())
        restored = StreamingDetector.from_checkpoint(state)
        assert restored.checkpoint() == state
        assert restored.quarantined == {"stuck"}
        assert restored.dropped_ticks == 1
        assert restored.sanitized_values == 4
        assert restored.window.column("state")[-1] == "idle"

    def test_restored_detector_continues_identically(self):
        state = json.loads(FIXTURE.read_text())
        restored = StreamingDetector.from_checkpoint(state)
        live = _fixture_detector()
        for t, row, cat in _fixture_rows():
            live.tick(t, row, cat)
        rng = np.random.default_rng(70)
        for i in range(60, 100):
            row = {a: float(rng.normal()) for a in ("cpu", "io")}
            row["stuck"] = 1.0
            a = live.tick(float(i), row, {"state": "idle"})
            b = restored.tick(float(i), row, {"state": "idle"})
            assert np.array_equal(a.result.mask, b.result.mask)
            assert a.result.regions == b.result.regions
            assert a.result.eps == b.result.eps
            assert a.closed_regions == b.closed_regions
        assert live.checkpoint() == restored.checkpoint()

    def test_idle_checkpoint_round_trips(self):
        det = StreamingDetector(capacity=30, attributes=["a"])
        det.detect()
        state = det.checkpoint()
        assert state["window"] is None and state["tick_count"] == 1
        restored = StreamingDetector.from_checkpoint(state)
        assert restored.checkpoint() == state
        restored.observe(0.0, {"a": 1.0, "b": 2.0})
        assert restored.tick_count == 1
        assert restored.window.numeric_attributes == ["a", "b"]


class TestModes:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            StreamingDetector(mode="incremental")
        with pytest.raises(ValueError):
            StreamingDetector(mode="sometimes")
        with pytest.raises(ValueError):
            StreamingDetector(capacity=1)
        with pytest.raises(ValueError):
            StreamingDetector(quarantine_after=1)

    def test_window_wider_than_capacity_never_selects(self):
        det = StreamingDetector(capacity=16)  # default window is 20
        rng = np.random.default_rng(1)
        for i in range(50):
            value = float(rng.normal() + (30.0 if 20 <= i < 28 else 0.0))
            update = det.tick(float(i), {"a": value, "b": -value})
            assert update.result.selected_attributes == []
            assert not update.result.mask.any()
            assert np.all(det.fleet.arena.stats().powers == 0.0)
        assert det.window.n_rows == 16


class TestLaneErrors:
    def test_error_reaches_the_caller_and_lane_stays_live(self):
        columns = np.random.default_rng(3).normal(10.0, 0.3, (120, 2))
        columns[70:85] += 20.0
        det = StreamingDetector(capacity=60)
        calls = []

        def hook(stream, view):
            calls.append(stream)
            if len(calls) == 1:
                raise ZeroDivisionError("pathological window")

        raised = 0
        for i, (a, b) in enumerate(columns):
            if i == 1:  # the lane exists once the first row fixed the schema
                det.fleet.install_lane_fault(hook)
            try:
                det.tick(float(i), {"a": float(a), "b": float(b)})
            except RuntimeError as exc:
                assert "ZeroDivisionError: pathological window" in str(exc)
                raised += 1
                assert not det.fleet.poisoned[0]
                assert det.window.n_rows == min(i + 1, 60)
        assert raised == 1
        assert len(calls) > 1  # later ticks still re-clustered
        assert det.window.timestamps[-1] == 119.0
        assert det.fleet.poison_skipped[0] == 0

    def test_detect_raises_too(self):
        det = StreamingDetector(capacity=40)
        rng = np.random.default_rng(5)
        values = rng.normal(size=80)
        values[50:70] += 5.0
        for i, v in enumerate(values):
            det.observe(float(i), {"a": float(v)})

        def hook(stream, view):
            raise ValueError("boom")

        det.fleet.install_lane_fault(hook)
        with pytest.raises(RuntimeError, match="ValueError: boom"):
            det.detect()
        det.fleet.install_lane_fault(None)
        assert det.detect().selected_attributes == ["a"]
        assert det.observe(80.0, {"a": 0.0})


class TestStreamWindow:
    """The facade's window: arena lane 0 plus its categorical columns."""

    def test_grows_until_capacity_then_evicts(self):
        det = StreamingDetector(capacity=3, window=1)
        for i in range(3):
            det.observe(float(i), {"a": 10.0 + i})
            assert det.window.n_rows == i + 1
        assert det.window.full
        det.observe(3.0, {"a": 13.0})
        assert det.window.n_rows == 3
        assert det.window.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert det.window.column("a").tolist() == [11.0, 12.0, 13.0]

    def test_views_after_wraparound(self):
        det = StreamingDetector(capacity=4, window=2)
        for i in range(11):
            det.observe(float(i), {"a": float(i) * 2.0}, {"c": f"v{i}"})
        window = det.window
        assert list(window.timestamps) == [7.0, 8.0, 9.0, 10.0]
        assert list(window.column("a")) == [14.0, 16.0, 18.0, 20.0]
        assert list(window.column("c")) == ["v7", "v8", "v9", "v10"]
        assert window.oldest_seq == 7
        assert window.appended == 11

    def test_views_are_zero_copy(self):
        det = StreamingDetector(capacity=4, window=2)
        for i in range(6):
            det.observe(float(i), {"a": float(i)})
        assert det.window.column("a").base is det.fleet.arena._vals
        assert det.window.timestamps.base is det.fleet.arena._ts

    def test_to_dataset_roundtrip(self):
        det = StreamingDetector(capacity=5, window=2)
        for i in range(8):
            det.observe(
                float(i), {"a": float(i), "b": -float(i)}, {"c": "x"}
            )
        ds = det.window.to_dataset(name="snap")
        assert ds.name == "snap"
        assert ds.n_rows == 5
        assert list(ds.timestamps) == [3.0, 4.0, 5.0, 6.0, 7.0]
        assert list(ds.column("b")) == [-3.0, -4.0, -5.0, -6.0, -7.0]
        assert list(ds.column("c")) == ["x"] * 5
        # the snapshot must be a copy, detached from the live buffer
        det.observe(8.0, {"a": 0.0, "b": 0.0}, {"c": "y"})
        assert list(ds.timestamps) == [3.0, 4.0, 5.0, 6.0, 7.0]
        assert list(ds.column("c")) == ["x"] * 5

    def test_validation(self):
        det = StreamingDetector(capacity=2, window=1)
        assert det.window is None
        det.observe(0.0, {"a": 1.0})
        with pytest.raises(KeyError):
            det.window.column("missing")

    def test_dropped_row_leaves_categoricals_aligned(self):
        det = StreamingDetector(capacity=4, window=2)
        det.observe(0.0, {"a": 1.0}, {"c": "p"})
        assert not det.observe(0.0, {"a": 2.0}, {"c": "q"})
        det.observe(1.0, {"a": 3.0}, {})
        assert list(det.window.column("c")) == ["p", "p"]
        assert det.sanitized_values == 1
