"""Online anomaly detection: the Section 7 pipeline, one row at a time.

:class:`StreamingDetector` is a one-lane fleet: a thin facade over
``FleetDetector(1, ...)`` (:mod:`repro.fleet.engine`), which keeps the
telemetry window in its arena and runs drop, sanitize, stuck-at
quarantine, the incremental Equation 4 potential power, selection and
the DBSCAN re-cluster as vectorized stages.  The facade adds what a
dict-fed single stream needs on top:

* the column schema is learned from the first row, and each row is
  mapped to a NaN-padded vector, so missing and NaN cells both go
  through the fleet's sanitize;
* categorical columns — never used by detection — are kept here, in a
  ring aligned with the arena's, with last-category sanitize, and are
  folded into :attr:`StreamingDetector.window`'s ``to_dataset`` and
  into the checkpoint.

Per tick, the verdict equals ``AnomalyDetector.detect`` re-run from
scratch on the identical window — mask, regions, selected attributes and
ε; the equivalence suites in ``tests/test_stream.py`` and
``tests/test_fleet.py`` assert it on every window.

:class:`StreamingDiagnoser` closes the loop with the diagnosis path:
when a flagged region can no longer be extended (the gap behind it
exceeds ``gap_fill_s``), it is handed to ``DBSherlock.explain`` — which
shares one :class:`~repro.perf.cache.LabeledSpaceCache` between predicate
generation and ``CausalModelStore.rank``.
"""

from __future__ import annotations

import copy
import time as _time
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.anomaly import DetectionResult
from repro.data.regions import Region, RegionSpec
from repro.fleet.arena import ArenaWindow
from repro.fleet.engine import FleetDetector

__all__ = [
    "StreamTick",
    "StreamWindow",
    "StreamingDetector",
    "StreamingDiagnoser",
]

_LANE = np.ones(1, dtype=bool)
_NO_ROW = np.zeros(1, dtype=bool)


@dataclass
class StreamTick:
    """What the streaming detector emits for one telemetry tick."""

    time: float
    result: DetectionResult
    #: abnormal regions that can no longer grow (gap behind them exceeds
    #: the gap-fill horizon) — ready for diagnosis; each emitted once.
    closed_regions: List[Region] = field(default_factory=list)
    #: True when this tick ran a full DBSCAN re-cluster.
    reclustered: bool = False


class StreamWindow(ArenaWindow):
    """The detector's window: lane 0 of its arena plus its categoricals."""

    __slots__ = ("_categorical",)

    def __init__(self, detector: "StreamingDetector") -> None:
        super().__init__(detector.fleet.arena, 0)
        self._categorical = detector._categorical

    @property
    def categorical_attributes(self) -> List[str]:
        return list(self._categorical)

    def column(self, attr: str) -> np.ndarray:
        ring = self._categorical.get(attr)
        if ring is None:
            return super().column(attr)
        return np.array(ring, dtype=object)


class StreamingDetector:
    """Per-tick automatic anomaly detection for one telemetry stream.

    Parameters mirror :class:`~repro.core.anomaly.AnomalyDetector`.

    Parameters
    ----------
    capacity:
        Window length — the detection window, in rows/seconds.
    attributes:
        Optional subset of numeric attributes to consider for selection
        (all numeric attributes are still buffered for diagnosis).
    mode:
        Only ``"exact"``: every tick re-clusters, and the output is
        identical to the batch detector on the same window.
    quarantine_after:
        Degraded telemetry: an attribute whose value has been *exactly*
        identical for this many consecutive ticks (a stuck-at counter) is
        quarantined — excluded from attribute selection until its value
        moves again.  ``None`` (default) disables quarantine.
    quarantine_rel_epsilon:
        Variance-based quarantine: instead of requiring *exact* equality,
        quarantine an attribute whose rolling ``quarantine_after``-tick
        standard deviation falls to or below this fraction of the
        window's mean magnitude — catching stuck-at sensors that jitter
        in the low bits.  Requires ``quarantine_after`` (the window
        length).  ``None`` (default) keeps the exact-equality rule.
    """

    def __init__(
        self,
        capacity: int = 120,
        window: int = 20,
        pp_threshold: float = 0.3,
        min_pts: int = 3,
        cluster_fraction: float = 0.2,
        include_noise: bool = True,
        min_region_s: float = 5.0,
        gap_fill_s: float = 3.0,
        attributes: Optional[Sequence[str]] = None,
        mode: str = "exact",
        quarantine_after: Optional[int] = None,
        quarantine_rel_epsilon: Optional[float] = None,
    ) -> None:
        if mode != "exact":
            raise ValueError("mode must be 'exact'")
        self.capacity = int(capacity)
        self.mode = mode
        #: the one-lane fleet, built once the first row fixes the schema.
        self.fleet: Optional[FleetDetector] = None
        # Until then the detector's whole state is a checkpoint dict.  A
        # lane over a placeholder column validates the configuration and
        # writes the state of a detector that has seen nothing.
        self._idle: Optional[Dict[str, object]] = FleetDetector(
            1,
            ["_"],
            capacity=capacity,
            window=window,
            pp_threshold=pp_threshold,
            min_pts=min_pts,
            cluster_fraction=cluster_fraction,
            include_noise=include_noise,
            min_region_s=min_region_s,
            gap_fill_s=gap_fill_s,
            tracked=attributes,
            quarantine_after=quarantine_after,
            quarantine_rel_epsilon=quarantine_rel_epsilon,
        ).stream_checkpoint(0)
        # categorical columns: one ring per attribute, aligned with the
        # arena's retained rows
        self._categorical: Dict[str, Deque[str]] = {}
        self._last_cat: Dict[str, str] = {}
        self._cat_sanitized = 0

    # ------------------------------------------------------------------
    @property
    def window(self) -> Optional[StreamWindow]:
        """The live telemetry window (None before the first row)."""
        return StreamWindow(self) if self.fleet is not None else None

    def _counter(self, key: str, lanes: str) -> int:
        if self.fleet is None:
            return int(self._idle[key])  # type: ignore[index]
        return int(getattr(self.fleet, lanes)[0])

    @property
    def tick_count(self) -> int:
        return self._counter("tick_count", "tick_counts")

    @property
    def recluster_count(self) -> int:
        return self._counter("recluster_count", "recluster_counts")

    @property
    def dropped_ticks(self) -> int:
        """Rows discarded because their timestamp did not advance."""
        return self._counter("dropped_ticks", "dropped_counts")

    @property
    def sanitized_values(self) -> int:
        """NaN / missing cells repaired on ingest."""
        numeric = self._counter("sanitized_values", "sanitized_counts")
        return numeric + self._cat_sanitized

    @property
    def quarantined(self) -> Set[str]:
        """Attributes currently quarantined as stuck-at."""
        if self.fleet is None:
            return set(self._idle["quarantined"])  # type: ignore[index]
        lane = self.fleet.quarantined[0]
        return {a for a, q in zip(self.fleet.attributes, lane) if q}

    # ------------------------------------------------------------------
    def _lane_row(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The row as the lane's ``(times, values)`` arrays.

        The first row fixes the schema and builds the lane.  A missing
        cell becomes ``None`` and numpy turns ``None`` into NaN, so
        missing and NaN cells are both repaired by the fleet's sanitize.
        """
        if self.fleet is None:
            self.fleet = FleetDetector.from_checkpoints(
                [self._idle], attributes=list(numeric_row)  # type: ignore[list-item]
            )
            self._idle = None
            self._categorical = {
                a: deque(maxlen=self.capacity) for a in (categorical_row or {})
            }
        get = numeric_row.get
        values = np.array(
            [[get(a) for a in self.fleet.arena.attributes]], dtype=np.float64
        )
        return np.array([float(time)]), values

    def _ingest_categorical(
        self, categorical_row: Optional[Mapping[str, str]]
    ) -> None:
        """Append an accepted row's categories; missing ones repeat."""
        row = categorical_row or {}
        for attr, ring in self._categorical.items():
            if attr in row:
                value = row[attr]
                self._last_cat[attr] = value
            else:
                value = self._last_cat.get(attr, "")
                self._cat_sanitized += 1
            ring.append(value)

    def observe(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]] = None,
    ) -> bool:
        """Ingest one telemetry row (no detection).

        Degraded telemetry is repaired on the way in: rows whose
        timestamp does not advance are dropped (``dropped_ticks``), NaN
        and missing cells are filled with the attribute's last valid
        value (``sanitized_values``), and exactly-constant runs feed the
        stuck-at quarantine.  Returns ``True`` when the row was ingested.
        """
        times, values = self._lane_row(time, numeric_row, categorical_row)
        _, accepted, _ = self.fleet._ingest(
            times, values, _LANE, _time.perf_counter()
        )
        if accepted[0]:
            self._ingest_categorical(categorical_row)
        return bool(accepted[0])

    def detect(self) -> DetectionResult:
        """Run detection on the current window contents."""
        if self.fleet is None:
            self._idle["tick_count"] += 1  # type: ignore[index, operator]
            return DetectionResult(
                mask=np.zeros(0, dtype=bool),
                regions=[],
                selected_attributes=[],
                eps=0.0,
            )
        fleet = self.fleet
        out = fleet._detect(
            _time.perf_counter(), fleet.last_time, _LANE, _NO_ROW, _NO_ROW
        )
        self._raise_lane_error(out.lane_errors)
        return out.result(0)

    def tick(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]] = None,
    ) -> StreamTick:
        """Ingest one row, detect, and emit deltas."""
        times, values = self._lane_row(time, numeric_row, categorical_row)
        out = self.fleet.tick(times, values)
        if out.accepted[0]:
            self._ingest_categorical(categorical_row)
        self._raise_lane_error(out.lane_errors)
        return StreamTick(
            time=float(time),
            result=out.result(0),
            closed_regions=out.closed.get(0, []),
            reclustered=bool(out.reclustered[0]),
        )

    def _raise_lane_error(self, lane_errors: Mapping[int, str]) -> None:
        """Surface a contained fallout error instead of abstaining.

        The fleet bulkhead would poison the lane and skip every later
        row; a single stream has no other lanes to protect, so the lane
        is readmitted (its state is the consistent post-ingest state)
        and the error reaches the caller.  The containment still counts
        in ``repro_fleet_poisoned_lanes_total``.
        """
        if lane_errors:
            self.fleet.unpoison(0)  # type: ignore[union-attr]
            raise RuntimeError(f"stream detection failed: {lane_errors[0]}")

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> Dict[str, object]:
        """Serialize the full detector state as a JSON-able dict.

        The version-1 schema of :meth:`FleetDetector.stream_checkpoint`
        with this detector's categorical columns folded in;
        :meth:`from_checkpoint` rebuilds a detector whose subsequent
        output is bit-identical to the uninterrupted one.
        """
        if self.fleet is None:
            return copy.deepcopy(self._idle)  # type: ignore[arg-type]
        state = self.fleet.stream_checkpoint(0)
        state["sanitized_values"] += self._cat_sanitized  # type: ignore[operator]
        state["last_cat"] = dict(self._last_cat)
        win = state["window"]
        win["categorical_attrs"] = list(self._categorical)  # type: ignore[index]
        win["categorical"] = {  # type: ignore[index]
            a: [str(v) for v in ring] for a, ring in self._categorical.items()
        }
        return state

    @classmethod
    def from_checkpoint(cls, state: Mapping[str, object]) -> "StreamingDetector":
        """Rebuild a detector from a :meth:`checkpoint` dict."""
        win = state.get("window")
        # the engine validates the version and the stored params; a
        # state without a window restores over the placeholder column
        fleet = FleetDetector.from_checkpoints(
            [state], attributes=None if win is not None else ["_"]
        )
        detector = cls(capacity=fleet.capacity)
        if win is None:
            detector._idle = copy.deepcopy(dict(state))
            return detector
        detector.fleet = fleet
        detector._idle = None
        detector._categorical = {
            a: deque(win["categorical"][a], maxlen=detector.capacity)
            for a in win["categorical_attrs"]
        }
        detector._last_cat = dict(state["last_cat"])  # type: ignore[arg-type]
        # sanitized_values came back whole in the fleet's counter, so
        # _cat_sanitized counts repairs from here on
        return detector


class StreamingDiagnoser:
    """Feed closed abnormal regions into the DBSherlock diagnosis path.

    Wraps a :class:`StreamingDetector` and a
    :class:`~repro.core.explain.DBSherlock` facade; every region the
    detector closes is explained (predicates + ranked known causes) on
    the current window snapshot.  The facade's shared
    :class:`~repro.perf.cache.LabeledSpaceCache` makes consecutive
    diagnoses on overlapping windows cheap.
    """

    def __init__(self, sherlock, detector: Optional[StreamingDetector] = None):
        self.sherlock = sherlock
        self.detector = detector or StreamingDetector()
        #: ``(region, explanation)`` pairs, most recent last.
        self.diagnoses: List[Tuple[Region, object]] = []

    def tick(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]] = None,
    ) -> StreamTick:
        """Ingest one row; diagnose any regions that closed this tick."""
        update = self.detector.tick(time, numeric_row, categorical_row)
        for region in update.closed_regions:
            dataset = self.detector.window.to_dataset(name="stream-window")
            spec = RegionSpec(abnormal=[region], normal=None)
            explanation = self.sherlock.explain(dataset, spec)
            self.diagnoses.append((region, explanation))
        return update
