"""Cross-stream columnar tick arena.

All N tenants' current telemetry windows live in one contiguous
``(streams, attributes, 2 × capacity)`` float64 ring with a double-write
layout — every sample lands at its slot *and* at ``slot + capacity`` —
so any stream's window is always a zero-copy contiguous slice
regardless of where its ring has wrapped.  Every lane's order
statistics (overall median, trailing-``w`` median, buffer min/max,
window-median extrema — everything Equation 4 needs) come from sorting
that ring, a fixed number of dense numpy calls over the whole fleet:

* :meth:`FleetArena.append` gathers each lane's last ``w`` samples (one
  contiguous run ending at the write slot's upper copy), sorts them,
  and scatters the completed window medians into a NaN-padded
  ``(capacity − w + 1, streams, attributes)`` FIFO ring, whose
  ``fmin/fmax`` reduction gives the extrema of the window medians still
  inside the buffer (min/max are order-independent, so ring rotation is
  immaterial);
* :meth:`FleetArena.stats` sorts the lower copy of the ring — a
  stream's retained rows in ring order plus never-written ``+inf``
  slots, and order inside the ring does not matter to a sort — and
  reads median, min and max off the sorted rows.

Medians are read off the sorted lanes by
:func:`repro.core.anomaly.median_of_sorted`, the same reader the batch
:func:`~repro.core.anomaly.potential_power` uses — the exact
``np.median`` reduction.

:class:`ArenaWindow` presents one stream's slice of the arena as a
telemetry window (``timestamps`` / ``column`` / ``bounds`` /
``to_dataset``), which is what the fallout clustering
(:func:`repro.fleet.fallout.cluster_window`) and diagnosis read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.anomaly import median_of_sorted
from repro.data.dataset import Dataset

__all__ = ["ArenaStats", "ArenaWindow", "FleetArena"]


@dataclass
class ArenaStats:
    """Per-lane statistics for one fleet tick, all ``(streams, attrs)``."""

    #: retained rows per stream (``(streams,)``).
    sizes: np.ndarray
    #: per-lane buffer minima (Equation 2 lower bounds).
    mins: np.ndarray
    #: per-lane buffer maxima (Equation 2 upper bounds).
    maxs: np.ndarray
    #: per-lane Equation 4 potential power, already normalized by span.
    powers: np.ndarray


class FleetArena:
    """Columnar ring storage + order statistics for a whole fleet.

    Parameters
    ----------
    n_streams:
        Number of tenant streams.
    attributes:
        Numeric attribute names, shared by every stream (the fleet's
        column schema; per-stream attribute *selection* happens above).
    capacity:
        Ring length per stream — the detection window, in rows.
    window:
        Equation 4 sliding-window width ``w``.  A window wider than
        *capacity* never completes inside the buffer, so every power
        stays 0.
    """

    def __init__(
        self,
        n_streams: int,
        attributes: Sequence[str],
        capacity: int,
        window: int,
    ) -> None:
        if n_streams < 1:
            raise ValueError("n_streams must be at least 1")
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        if window < 1:
            raise ValueError("window must be at least 1")
        self.attributes = list(attributes)
        if not self.attributes:
            raise ValueError("arena needs at least one attribute")
        self.n_streams = int(n_streams)
        self.capacity = int(capacity)
        self.window = int(window)
        S, A, cap = self.n_streams, len(self.attributes), self.capacity
        self._attr_index: Dict[str, int] = {
            a: j for j, a in enumerate(self.attributes)
        }
        self._ts = np.zeros((S, 2 * cap))
        # Slots start at +inf.  A stream only ever gains rows or
        # overwrites its oldest, so the lower copy holds exactly its
        # retained rows plus never-written +inf slots, which sort last.
        self._vals = np.full((S, A, 2 * cap), np.inf)
        #: total rows ever appended per stream (monotone; checkpoint
        #: restore re-bases it so replayed rows keep their sequence math).
        self.appended = np.zeros(S, dtype=np.int64)
        #: rows currently retained per stream (counted since creation or
        #: restore, so it — not ``appended`` — says whether a lane holds
        #: a full trailing window).
        self.sizes = np.zeros(S, dtype=np.int64)
        self._rows = np.arange(S)
        # one slot per window median the buffer can hold (none when
        # w > capacity; the ring then stays all-NaN)
        self._ring_len = max(cap - self.window + 1, 1)
        # Ring-major so the per-tick extrema reduce over the leading
        # axis: elementwise fmin/fmax of contiguous (streams, attrs)
        # planes instead of thousands of short strided reductions.
        self._medring = np.full((self._ring_len, S, A), np.nan)

    # ------------------------------------------------------------------
    def append(
        self, times: np.ndarray, values: np.ndarray, active: np.ndarray
    ) -> None:
        """Append one sanitized row per active stream, fleet-wide.

        *times* is ``(streams,)``, *values* ``(streams, attrs)`` finite
        float64, *active* a bool mask of streams receiving a row this
        tick.  Inactive streams are untouched.
        """
        cap, w = self.capacity, self.window
        times = np.asarray(times, dtype=np.float64)
        values = np.asarray(values, dtype=np.float64)
        active = np.asarray(active, dtype=bool)
        slot = self.appended % cap

        rows = np.nonzero(active)[0]
        wslots = slot[rows]
        self._ts[rows, wslots] = times[rows]
        self._ts[rows, wslots + cap] = times[rows]
        self._vals[rows, :, wslots] = values[rows]
        self._vals[rows, :, wslots + cap] = values[rows]
        sizes = self.sizes + (active & (self.sizes < cap))

        # Streams whose trailing window is complete publish its median
        # into the FIFO ring, keyed (mod ring length) by the row's
        # sequence number, so the ring holds exactly the medians of the
        # windows that start inside the buffer.  The last w samples are
        # one contiguous run ending at the write slot's upper copy, read
        # through a sliding-window view of the ring.
        ready = np.nonzero(active & (sizes >= w))[0]
        if ready.size:
            runs = sliding_window_view(self._vals, w, axis=2)
            trailing = runs[self._rows, :, slot + (cap - w + 1)]
            trailing.sort(axis=2)
            meds = median_of_sorted(trailing, w)
            ring_slot = self.appended[ready] % self._ring_len
            self._medring[ring_slot, ready] = meds[ready]

        self.appended = self.appended + active
        self.sizes = sizes

    # ------------------------------------------------------------------
    def stats(self) -> ArenaStats:
        """Bounds and Equation 4 potential power for every lane at once."""
        n = self.sizes
        ordered = np.sort(self._vals[:, :, : self.capacity], axis=2)
        mins = ordered[:, :, 0].copy()
        maxs = ordered[self._rows, :, np.maximum(n - 1, 0)]
        overall = median_of_sorted(ordered, n)
        med_min = np.fmin.reduce(self._medring, axis=0)
        med_max = np.fmax.reduce(self._medring, axis=0)
        with np.errstate(invalid="ignore"):  # empty lanes: inf - inf
            span = maxs - mins
        # Power is zero while the buffer holds at most one full window,
        # when no window median exists yet, or for a constant lane —
        # the degenerate cases of the batch potential_power.
        live = (
            (n[:, None] > self.window)
            & ~np.isnan(med_min)
            & (span > 0)
        )
        deviation = np.fmax(
            np.abs(overall - med_min), np.abs(overall - med_max)
        )
        powers = np.where(
            live, deviation / np.where(span > 0, span, 1.0), 0.0
        )
        return ArenaStats(sizes=n, mins=mins, maxs=maxs, powers=powers)

    # ------------------------------------------------------------------
    def view(self, stream: int) -> "ArenaWindow":
        """A zero-copy read view of one stream's window."""
        return ArenaWindow(self, int(stream))


class ArenaWindow:
    """Read adapter: one stream's arena slice as a telemetry window.

    ``n_rows``, ``timestamps``, ``column``, ``bounds``, ``to_dataset``
    and the attribute lists, over zero-copy arena views.  The arena
    stores numeric columns only; a subclass that also keeps categorical
    columns overrides ``categorical_attributes`` and ``column``.
    """

    __slots__ = ("_arena", "_stream")

    def __init__(self, arena: FleetArena, stream: int) -> None:
        if not 0 <= stream < arena.n_streams:
            raise IndexError(f"stream {stream} out of range")
        self._arena = arena
        self._stream = stream

    @property
    def capacity(self) -> int:
        return self._arena.capacity

    @property
    def n_rows(self) -> int:
        return int(self._arena.sizes[self._stream])

    def __len__(self) -> int:
        return self.n_rows

    @property
    def full(self) -> bool:
        return self.n_rows == self._arena.capacity

    @property
    def appended(self) -> int:
        return int(self._arena.appended[self._stream])

    @property
    def oldest_seq(self) -> int:
        return self.appended - self.n_rows

    @property
    def numeric_attributes(self) -> List[str]:
        return list(self._arena.attributes)

    @property
    def categorical_attributes(self) -> List[str]:
        return []

    def _start(self) -> int:
        arena = self._arena
        return int(
            (arena.appended[self._stream] - arena.sizes[self._stream])
            % arena.capacity
        )

    @property
    def timestamps(self) -> np.ndarray:
        start = self._start()
        return self._arena._ts[self._stream, start : start + self.n_rows]

    def column(self, attr: str) -> np.ndarray:
        ai = self._arena._attr_index[attr]
        start = self._start()
        return self._arena._vals[
            self._stream, ai, start : start + self.n_rows
        ]

    def bounds(self, attr: str) -> Tuple[float, float]:
        if self.n_rows == 0:
            return 0.0, 0.0
        col = self.column(attr)
        return float(col.min()), float(col.max())

    def to_dataset(self, name: str = "") -> Dataset:
        """The window as a :class:`Dataset` copy, detached from the ring."""
        return Dataset(
            self.timestamps.copy(),
            numeric={
                a: self.column(a).copy() for a in self._arena.attributes
            },
            categorical={
                a: self.column(a).copy() for a in self.categorical_attributes
            },
            name=name,
        )
