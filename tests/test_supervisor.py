"""Tests for checkpoint/restore and the crash-recovery supervisor.

The contract under test: :meth:`StreamingDetector.checkpoint` is
JSON-able and :meth:`from_checkpoint` rebuilds a detector whose
subsequent output is *bit-identical* to the uninterrupted one, and
:class:`StreamSupervisor` turns a mid-stream :class:`CollectorFault`
into a restart whose final region output matches a run that never
crashed.
"""

import json

import numpy as np
import pytest

from repro.eval.harness import replay_rows, simulate_run
from repro.faults import CollectorCrash, CollectorFault, FaultPlan
from repro.faults import fs as fsmod
from repro.faults.fs import FlakyIO, FullDisk, StorageShim
from repro.obs import metrics
from repro.stream import StreamingDetector, StreamSupervisor


def scenario_rows(n_ticks=140):
    # a short anomaly relative to the window, so the detector both opens
    # and *closes* abnormal regions within the stream
    dataset, _, _ = simulate_run(
        "cpu_saturation", duration_s=20, seed=17, normal_s=120
    )
    return list(replay_rows(dataset))[:n_ticks]


def make_detector(**kwargs):
    return StreamingDetector(capacity=120, min_region_s=5.0, **kwargs)


def region_bounds(regions):
    return [(r.start, r.end) for r in regions]


# ---------------------------------------------------------------------------
# checkpoint / restore
# ---------------------------------------------------------------------------
class TestCheckpointRestore:
    def test_checkpoint_is_json_serializable(self):
        detector = make_detector()
        rows = scenario_rows(80)
        for t, num, cat in rows:
            detector.tick(t, num, cat)
        state = json.loads(json.dumps(detector.checkpoint()))
        restored = StreamingDetector.from_checkpoint(state)
        assert restored.window.n_rows == detector.window.n_rows

    def test_restore_is_replay_exact(self):
        rows = scenario_rows()
        baseline = make_detector()
        resumed = None
        for i, (t, num, cat) in enumerate(rows):
            base_update = baseline.tick(t, num, cat)
            if i == 99:  # checkpoint mid-stream, through a JSON round trip
                state = json.loads(json.dumps(baseline.checkpoint()))
                resumed = StreamingDetector.from_checkpoint(state)
                continue
            if resumed is not None:
                res_update = resumed.tick(t, num, cat)
                assert np.array_equal(
                    base_update.result.mask, res_update.result.mask
                )
                assert region_bounds(
                    base_update.result.regions
                ) == region_bounds(res_update.result.regions)
                assert (
                    base_update.result.selected_attributes
                    == res_update.result.selected_attributes
                )
        assert resumed is not None

    def test_restore_preserves_counters_and_emitted_regions(self):
        detector = make_detector()
        for t, num, cat in scenario_rows(120):
            detector.tick(t, num, cat)
        restored = StreamingDetector.from_checkpoint(detector.checkpoint())
        assert restored.tick_count == detector.tick_count
        assert restored.dropped_ticks == detector.dropped_ticks
        assert restored.sanitized_values == detector.sanitized_values
        assert restored.quarantined == detector.quarantined

    def test_version_mismatch_rejected(self):
        state = make_detector().checkpoint()
        state["version"] = 999
        with pytest.raises(ValueError):
            StreamingDetector.from_checkpoint(state)


# ---------------------------------------------------------------------------
# degraded-input hygiene inside the detector
# ---------------------------------------------------------------------------
class TestDetectorHygiene:
    def test_non_monotone_timestamps_dropped(self):
        detector = make_detector()
        assert detector.observe(0.0, {"a": 1.0})
        assert detector.observe(1.0, {"a": 2.0})
        assert not detector.observe(1.0, {"a": 3.0})  # stale repeat
        assert not detector.observe(0.5, {"a": 4.0})  # goes backwards
        assert detector.dropped_ticks == 2
        assert detector.window.n_rows == 2

    def test_nan_cells_sanitized_with_last_seen(self):
        detector = make_detector()
        detector.observe(0.0, {"a": 5.0})
        detector.observe(1.0, {"a": float("nan")})
        assert detector.sanitized_values == 1
        assert detector.window.column("a")[1] == 5.0

    def test_missing_cells_filled(self):
        detector = make_detector()
        detector.observe(0.0, {"a": 5.0, "b": 7.0})
        detector.observe(1.0, {"a": 6.0})  # 'b' vanished this tick
        assert detector.sanitized_values == 1
        assert detector.window.column("b")[1] == 7.0

    def test_stuck_attribute_quarantined_then_released(self):
        detector = make_detector(quarantine_after=3)
        for i in range(5):
            detector.observe(float(i), {"a": 42.0, "b": float(i)})
        assert "a" in detector.quarantined
        assert "b" not in detector.quarantined
        detector.observe(5.0, {"a": 43.0, "b": 5.0})  # counter un-sticks
        assert "a" not in detector.quarantined


# ---------------------------------------------------------------------------
# crash-recovery supervisor
# ---------------------------------------------------------------------------
class TestStreamSupervisor:
    def test_recovers_and_matches_uninterrupted_run(self):
        rows = scenario_rows()

        baseline = make_detector()
        expected_ends = set()
        for t, num, cat in rows:
            for region in baseline.tick(t, num, cat).closed_regions:
                expected_ends.add(region.end)
        assert expected_ends  # the scenario must exercise region closure

        crash = FaultPlan([CollectorCrash(at_tick=95)], seed=29)

        def source_factory(attempt):
            if attempt == 0:
                return crash.wrap(iter(rows))
            return iter(rows)

        supervisor = StreamSupervisor(
            make_detector(),
            source_factory,
            checkpoint_every=10,
            sleep=lambda s: None,
        )
        report = supervisor.run()
        assert report.restarts == 1
        assert report.backoff_waits == [supervisor.backoff_s]
        assert report.checkpoints > 0
        assert {r.end for r in report.closed_regions} == expected_ends

    def test_backoff_grows_without_progress_and_resets_on_progress(self):
        rows = scenario_rows(60)
        calls = []

        def source_factory(attempt):
            calls.append(attempt)
            if attempt < 3:
                # dies immediately: no progress, delay keeps doubling
                def dead():
                    raise CollectorFault("down")
                    yield  # pragma: no cover

                return dead()
            if attempt == 3:
                # makes progress then dies: delay resets
                return FaultPlan(
                    [CollectorCrash(at_tick=20)], seed=1
                ).wrap(iter(rows))
            return iter(rows)

        supervisor = StreamSupervisor(
            make_detector(),
            source_factory,
            max_retries=10,
            backoff_s=0.1,
            backoff_factor=2.0,
            sleep=lambda s: None,
        )
        report = supervisor.run()
        assert report.restarts == 4
        assert report.backoff_waits == pytest.approx([0.1, 0.2, 0.4, 0.1])
        assert calls == [0, 1, 2, 3, 4]

    def test_reraises_past_max_retries(self):
        def source_factory(attempt):
            def dead():
                raise CollectorFault("hard down")
                yield  # pragma: no cover

            return dead()

        supervisor = StreamSupervisor(
            make_detector(),
            source_factory,
            max_retries=2,
            sleep=lambda s: None,
        )
        with pytest.raises(CollectorFault):
            supervisor.run()

    def test_clean_source_needs_no_restart(self):
        rows = scenario_rows(60)
        supervisor = StreamSupervisor(
            make_detector(),
            lambda attempt: iter(rows),
            sleep=lambda s: None,
        )
        report = supervisor.run()
        assert report.restarts == 0
        assert report.backoff_waits == []
        assert report.ticks_processed == 60

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            StreamSupervisor(make_detector(), lambda a: [], max_retries=-1)
        with pytest.raises(ValueError):
            StreamSupervisor(make_detector(), lambda a: [], backoff_s=0.0)
        with pytest.raises(ValueError):
            StreamSupervisor(
                make_detector(), lambda a: [], checkpoint_every=-1
            )


# ---------------------------------------------------------------------------
# one tenant directory, two readers: fleet <-> supervisor interchange
# ---------------------------------------------------------------------------
class TestFleetInterchange:
    """A durable tenant directory is one format, whoever wrote it.

    A :class:`~repro.fleet.scheduler.FleetScheduler` tenant can be peeled
    off into a plain :class:`StreamSupervisor`, and a supervisor's
    ``wal_dir`` can be adopted by :meth:`FleetScheduler.recover`; either
    way the resumed detector ends bitwise-equal to one that never
    stopped.
    """

    @staticmethod
    def numeric_rows(n_ticks=140):
        return [(t, num, {}) for t, num, _ in scenario_rows(n_ticks)]

    @staticmethod
    def uninterrupted(rows):
        baseline = make_detector()
        regions = []
        for t, num, cat in rows:
            regions.extend(baseline.tick(t, num, cat).closed_regions)
        return baseline, regions

    def test_fleet_tenant_resumes_under_a_supervisor(self, tmp_path):
        from repro.fleet import FleetDetector, FleetScheduler

        rows = self.numeric_rows()
        attrs = list(rows[0][1])
        half = len(rows) // 2 + 3  # not on the checkpoint cadence
        baseline, expected = self.uninterrupted(rows)
        assert expected  # the scenario must exercise region closure

        tenants = ["other", "peel"]
        sched = FleetScheduler(
            FleetDetector(len(tenants), attrs, capacity=120, min_region_s=5.0),
            tenants=tenants,
            root_dir=tmp_path,
            durable=tenants,
            checkpoint_every=10,
            label_metrics=False,
        )
        fleet_regions = []
        for t, num, _ in rows[:half]:
            vector = [num[a] for a in attrs]
            tick = sched.run_round(np.array([t, t]), np.array([vector, vector]))
            fleet_regions.extend(tick.closed.get(1, []))
        sched.close()  # stopped mid-stream, no final checkpoint

        supervisor = StreamSupervisor(
            make_detector(),
            lambda attempt: iter(rows),
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path / "peel",
        )
        report = supervisor.run()
        assert report.reprocessed_ticks == 0
        assert report.wal_replayed_ticks == half % 10
        assert report.ticks_processed == len(rows) - half
        assert supervisor.detector.checkpoint() == baseline.checkpoint()
        combined = region_bounds(fleet_regions) + [
            b
            for b in region_bounds(report.closed_regions)
            if b not in region_bounds(fleet_regions)
        ]
        assert combined == region_bounds(expected)

    @pytest.mark.parametrize(
        "missing_cell", [False, True], ids=["full_rows", "missing_cell"]
    )
    def test_supervisor_dir_recovers_into_a_fleet(self, tmp_path, missing_cell):
        from repro.fleet import FleetScheduler

        rows = self.numeric_rows()
        half = len(rows) // 2 + 3
        if missing_cell:
            # a cell missing from a logged tick the fleet replays is
            # repaired as the supervisor repairs it (last valid value)
            t, num, cat = rows[half - 2]
            rows[half - 2] = (t, {a: v for a, v in list(num.items())[1:]}, cat)
        baseline, _ = self.uninterrupted(rows)

        StreamSupervisor(
            make_detector(),
            lambda attempt: iter(rows[:half]),  # "process dies" mid-stream
            checkpoint_every=10,
            sleep=lambda s: None,
            wal_dir=tmp_path / "solo",
        ).run()

        fleet = FleetScheduler.recover(tmp_path, ["solo"], label_metrics=False)
        assert fleet.recovery_report.recovered == ["solo"]
        assert fleet.recovery_report.outcome("solo").replayed_ticks == half % 10
        attrs = fleet.detector.attributes
        for t, num, _ in rows[half:]:
            fleet.run_round(np.array([t]), np.array([[num[a] for a in attrs]]))
        assert fleet.detector.stream_checkpoint(0) == baseline.checkpoint()
        fleet.close()


# ---------------------------------------------------------------------------
# a sick disk under the supervisor: degrade, keep going, lose nothing
# ---------------------------------------------------------------------------
class TestSupervisorStorageFaults:
    """The supervisor shares the fleet's per-tenant durability policy.

    A full disk drops the stream into acknowledged-but-volatile mode and
    a flaky one is retried; either way the run finishes, a collector
    crash in the middle recovers from the WAL plus the volatile buffer,
    and the output is bitwise the uninterrupted run's.
    """

    @pytest.mark.parametrize(
        "fault, counter",
        [
            (
                lambda: FullDisk(after_writes=20, path_filter="ticks.wal"),
                "repro_storage_degraded_transitions_total",
            ),
            (
                lambda: FlakyIO(rate=0.3, seed=5, path_filter="ticks.wal"),
                "repro_storage_retries_total",
            ),
        ],
        ids=["full_disk", "flaky_io"],
    )
    def test_supervised_run_survives_the_fault(self, tmp_path, fault, counter):
        rows = scenario_rows()
        baseline = make_detector()
        expected = []
        for t, num, cat in rows:
            expected.extend(baseline.tick(t, num, cat).closed_regions)

        crash = FaultPlan([CollectorCrash(at_tick=57)], seed=3)

        def source_factory(attempt):
            return crash.wrap(iter(rows)) if attempt == 0 else iter(rows)

        family = metrics.REGISTRY.get(counter)
        before = family.value
        with fsmod.scoped_fs(StorageShim([fault()])):
            supervisor = StreamSupervisor(
                make_detector(),
                source_factory,
                checkpoint_every=10,
                sleep=lambda s: None,
                wal_dir=tmp_path,
            )
            report = supervisor.run()
        assert family.value > before
        assert report.restarts == 1
        assert report.reprocessed_ticks == 0
        assert region_bounds(report.closed_regions) == region_bounds(expected)
        assert supervisor.detector.checkpoint() == baseline.checkpoint()
