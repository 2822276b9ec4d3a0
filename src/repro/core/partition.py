"""Partition spaces: equi-width discretization and labeling (Sections 4.1-4.2).

For a numeric attribute, DBSherlock discretizes the value range into ``R``
equi-width partitions; for a categorical attribute, one partition per
distinct value.  Each partition is then labeled:

* numeric — ``Abnormal`` when every tuple falling in it is abnormal,
  ``Normal`` when every tuple is normal, ``Empty`` otherwise (no tuples, or
  a mix of both regions);
* categorical — by majority: ``Abnormal`` when more abnormal than normal
  tuples fall in it, ``Normal`` for the converse, ``Empty`` on ties.

Tuples outside both regions are ignored (Section 4).

Degraded telemetry: NaN cells (dropped samples, dead probes) are treated
as *absent* — the value range is taken over the valid samples only, NaN
values map to partition index ``-1``, and labeling counts only valid
tuples.  An attribute with no valid samples (or a constant one) collapses
to a single neutral partition rather than producing NaN/inf bounds.  The
clean path is bitwise-unchanged: every NaN branch is gated on a NaN
actually being present.
"""

from __future__ import annotations

import enum
import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec

__all__ = [
    "Label",
    "NumericPartitionSpace",
    "CategoricalPartitionSpace",
    "index_rows",
    "count_rows",
    "label_rows",
    "midpoint_rows",
]


class Label(enum.IntEnum):
    """Partition labels used throughout Algorithm 1."""

    EMPTY = 0
    NORMAL = 1
    ABNORMAL = 2


def _per_row(value, dtype) -> np.ndarray:
    """A scalar or per-row parameter, shaped to broadcast over the last axis."""
    return np.asarray(value, dtype=dtype)[..., None]


def index_rows(
    values: np.ndarray, minimum, width, n_partitions
) -> np.ndarray:
    """Equi-width partition index of every value, along the last axis.

    *values* is one row ``(R,)`` or stacked rows ``(K, R)``; *minimum*,
    *width* and *n_partitions* are scalars or one per row.  Values at the
    maximum land in the last partition; a zero-width space (a constant
    attribute) has the single index 0.  NaN values map to ``-1`` (no
    partition); callers that count tuples must ignore negative indices.
    """
    values = np.asarray(values, dtype=np.float64)
    width = _per_row(width, np.float64)
    nan_mask = np.isnan(values)
    has_nan = bool(nan_mask.any())
    with np.errstate(invalid="ignore"):
        raw = np.floor(
            (values - _per_row(minimum, np.float64))
            / np.where(width == 0.0, 1.0, width)
        )
    if has_nan:
        raw = np.where(nan_mask, 0.0, raw)
    idx = np.clip(raw.astype(np.int64), 0, _per_row(n_partitions, np.int64) - 1)
    if has_nan:
        idx[nan_mask] = -1
    return idx


def count_rows(
    values: np.ndarray,
    minimum,
    width,
    n_partitions,
    abnormal_mask: np.ndarray,
    normal_mask: np.ndarray,
    grid: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Abnormal and normal tuple counts per partition, along the last axis.

    Takes :func:`index_rows`'s arguments plus the region masks (one
    shared by every row, or one per row) and returns two ``(..., grid)``
    count arrays; *grid* defaults to the largest ``n_partitions``.  NaN
    tuples are ignored on both sides.  All rows share one offset
    ``np.bincount`` per region: row ``k`` owns the ``grid + 1`` bins from
    ``k*(grid + 1)``, the first of which collects its NaN tuples (index
    -1) and is dropped.
    """
    idx = index_rows(values, minimum, width, n_partitions)
    if grid is None:
        grid = int(np.max(n_partitions))
    rows = idx.reshape(math.prod(idx.shape[:-1]), idx.shape[-1])
    n_rows = rows.shape[0]
    rows = rows + (np.arange(n_rows, dtype=np.int64) * (grid + 1) + 1)[:, None]
    shape = idx.shape[:-1] + (grid + 1,)

    def count(mask) -> np.ndarray:
        mask = np.asarray(mask, dtype=bool)
        picked = rows[:, mask] if mask.ndim == 1 else rows[mask.reshape(rows.shape)]
        counts = np.bincount(picked.ravel(), minlength=n_rows * (grid + 1))
        return counts.reshape(shape)[..., 1:]

    return count(abnormal_mask), count(normal_mask)


def label_rows(
    values: np.ndarray,
    minimum,
    width,
    n_partitions,
    abnormal_mask: np.ndarray,
    normal_mask: np.ndarray,
    grid: Optional[int] = None,
) -> np.ndarray:
    """Section 4.2 numeric labeling, along the last axis.

    A partition is ``Abnormal`` when every (valid) tuple in it is
    abnormal, ``Normal`` when every one is normal, ``Empty`` otherwise.
    Arguments as :func:`count_rows`; returns ``(..., grid)`` int labels
    (columns past a row's own ``n_partitions`` stay Empty).
    """
    counts_abnormal, counts_normal = count_rows(
        values, minimum, width, n_partitions, abnormal_mask, normal_mask, grid
    )
    labels = np.full(counts_abnormal.shape, int(Label.EMPTY), dtype=np.int64)
    labels[(counts_abnormal > 0) & (counts_normal == 0)] = int(Label.ABNORMAL)
    labels[(counts_normal > 0) & (counts_abnormal == 0)] = int(Label.NORMAL)
    return labels


def midpoint_rows(minimum, width, n_partitions: int) -> np.ndarray:
    """Partition centres ``(minimum + i*width) + width/2``, along the last axis.

    *minimum* and *width* are scalars or one per row.  A zero-width
    (constant) space has one partition, centred on its minimum.
    """
    minimum = np.asarray(minimum, dtype=np.float64)
    width = np.asarray(width, dtype=np.float64)
    if width.ndim:  # one space per row
        minimum, width = minimum[:, None], width[:, None]
    steps = np.arange(n_partitions, dtype=np.float64)
    return (minimum + steps * width) + width / 2.0


class NumericPartitionSpace:
    """``R`` equi-width partitions over a numeric attribute's observed range.

    Partition ``Pj`` covers ``[lb(Pj), ub(Pj))``; values equal to the global
    maximum are assigned to the last partition so every tuple belongs to
    exactly one partition.
    """

    def __init__(self, attr: str, values: np.ndarray, n_partitions: int) -> None:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            raise ValueError("cannot partition an empty attribute")
        if np.isnan(values).any():
            valid = values[~np.isnan(values)]
            values = valid if valid.size else np.zeros(1)
        self._set_range(attr, values.min(), values.max(), n_partitions)

    def _set_range(
        self, attr: str, minimum: float, maximum: float, n_partitions: int
    ) -> None:
        if n_partitions < 1:
            raise ValueError("n_partitions must be at least 1")
        self.attr = attr
        self.minimum = float(minimum)
        self.maximum = float(maximum)
        if not (np.isfinite(self.minimum) and np.isfinite(self.maximum)):
            # no valid samples (or non-finite ones): a neutral space
            self.minimum = self.maximum = 0.0
        if self.maximum > self.minimum:
            self.n_partitions = int(n_partitions)
        else:
            # A constant attribute collapses to a single partition.
            self.n_partitions = 1
        self.width = (self.maximum - self.minimum) / self.n_partitions

    def lower_bound(self, index: int) -> float:
        """``lb(P_index)``."""
        self._check_index(index)
        return self.minimum + index * self.width

    def upper_bound(self, index: int) -> float:
        """``ub(P_index)``."""
        self._check_index(index)
        if index == self.n_partitions - 1:
            return self.maximum
        return self.minimum + (index + 1) * self.width

    def midpoint(self, index: int) -> float:
        """Representative value of a partition (its centre)."""
        self._check_index(index)
        return float(self.midpoints()[index])

    def midpoints(self) -> np.ndarray:
        """Representative values of every partition (:func:`midpoint_rows`)."""
        return midpoint_rows(self.minimum, self.width, self.n_partitions)

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.n_partitions:
            raise IndexError(f"partition index {index} out of range")

    def partition_indices(self, values: np.ndarray) -> np.ndarray:
        """Partition index of each value (:func:`index_rows`; NaN -> -1)."""
        return index_rows(values, self.minimum, self.width, self.n_partitions)

    def label(
        self,
        values: np.ndarray,
        abnormal_mask: np.ndarray,
        normal_mask: np.ndarray,
    ) -> np.ndarray:
        """Label every partition from the region masks (:func:`label_rows`).

        Returns an ``int`` array of :class:`Label` values, one per partition.
        NaN tuples (partition index ``-1``) are ignored on both sides.
        """
        return label_rows(
            values, self.minimum, self.width, self.n_partitions,
            abnormal_mask, normal_mask,
        )

    @classmethod
    def from_dataset(
        cls, dataset: Dataset, attr: str, n_partitions: int
    ) -> "NumericPartitionSpace":
        """Build the partition space over all rows of *dataset*."""
        return cls(attr, dataset.column(attr), n_partitions)

    @classmethod
    def from_stats(
        cls, attr: str, minimum: float, maximum: float, n_partitions: int
    ) -> "NumericPartitionSpace":
        """Build a space from precomputed min/max (the batched labelers).

        Applies exactly the constructor's rules (constant range collapses
        to one partition; ``width = (max - min) / n_partitions``) without
        re-scanning the value vector.
        """
        space = cls.__new__(cls)
        space._set_range(attr, minimum, maximum, n_partitions)
        return space

    def labeled_from_spec(
        self, dataset: Dataset, spec: RegionSpec
    ) -> np.ndarray:
        """Convenience: label using the spec's region masks on *dataset*."""
        return self.label(
            dataset.column(self.attr),
            spec.abnormal_mask(dataset),
            spec.normal_mask(dataset),
        )


class CategoricalPartitionSpace:
    """One partition per distinct category value (order is irrelevant)."""

    def __init__(self, attr: str, values: np.ndarray) -> None:
        values = np.asarray(values, dtype=object)
        if values.size == 0:
            raise ValueError("cannot partition an empty attribute")
        self.attr = attr
        self.categories: List[str] = sorted({str(v) for v in values})
        # Sorted unicode array for vectorized searchsorted lookups; numpy's
        # codepoint ordering matches Python's str ordering.
        self._categories_arr = np.asarray(self.categories)

    @property
    def n_partitions(self) -> int:
        """Number of distinct categories."""
        return len(self.categories)

    def partition_indices(self, values: np.ndarray) -> np.ndarray:
        """Partition index of each value; unseen categories map to -1.

        Vectorized: the distinct input values (usually few) are located in
        the sorted category array via ``searchsorted``, then scattered
        back through ``np.unique``'s inverse mapping.
        """
        values = np.asarray(values, dtype=object)
        if values.size == 0:
            return np.zeros(0, dtype=np.int64)
        strings = values.astype(str)
        distinct, inverse = np.unique(strings, return_inverse=True)
        pos = np.searchsorted(self._categories_arr, distinct)
        pos = np.clip(pos, 0, self.n_partitions - 1)
        found = self._categories_arr[pos] == distinct
        mapped = np.where(found, pos, -1).astype(np.int64)
        return mapped[inverse.reshape(strings.shape)]

    def label(
        self,
        values: np.ndarray,
        abnormal_mask: np.ndarray,
        normal_mask: np.ndarray,
    ) -> np.ndarray:
        """Majority labeling for categorical partitions (Section 4.2)."""
        idx = self.partition_indices(values)
        labels = np.full(self.n_partitions, int(Label.EMPTY), dtype=np.int64)
        valid = idx >= 0
        counts_abnormal = np.bincount(
            idx[valid & abnormal_mask], minlength=self.n_partitions
        )
        counts_normal = np.bincount(
            idx[valid & normal_mask], minlength=self.n_partitions
        )
        labels[counts_abnormal > counts_normal] = int(Label.ABNORMAL)
        labels[counts_normal > counts_abnormal] = int(Label.NORMAL)
        return labels

    @classmethod
    def from_dataset(cls, dataset: Dataset, attr: str) -> "CategoricalPartitionSpace":
        """Build the partition space over all rows of *dataset*."""
        return cls(attr, dataset.column(attr))

    def labeled_from_spec(self, dataset: Dataset, spec: RegionSpec) -> np.ndarray:
        """Convenience: label using the spec's region masks on *dataset*."""
        return self.label(
            dataset.column(self.attr),
            spec.abnormal_mask(dataset),
            spec.normal_mask(dataset),
        )
