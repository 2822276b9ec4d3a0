"""Separation power and attribute normalization (Equations 1 and 2).

The separation power of a predicate is the fraction of abnormal tuples it
covers minus the fraction of normal tuples it covers; DBSherlock searches
for predicates maximising it.  Normalization maps each numeric attribute to
[0, 1] so the ``|µA − µN| > θ`` gate (Section 4.5) is scale free.
"""

from __future__ import annotations

import warnings
from typing import Tuple

import numpy as np

from repro.core.predicates import Predicate
from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec

__all__ = [
    "separation_power",
    "normalized_difference",
    "normalize_values",
    "region_means",
]


def separation_power(
    predicate: Predicate, dataset: Dataset, spec: RegionSpec
) -> float:
    """Equation 1: ``|Pred(TA)|/|TA| − |Pred(TN)|/|TN|`` over raw tuples."""
    abnormal = spec.abnormal_mask(dataset)
    normal = spec.normal_mask(dataset)
    n_abnormal = int(abnormal.sum())
    n_normal = int(normal.sum())
    if n_abnormal == 0 or n_normal == 0:
        raise ValueError("both regions must contain tuples")
    satisfied = predicate.evaluate(dataset)
    ratio_abnormal = float((satisfied & abnormal).sum()) / n_abnormal
    ratio_normal = float((satisfied & normal).sum()) / n_normal
    return ratio_abnormal - ratio_normal


def normalize_values(values: np.ndarray) -> np.ndarray:
    """Equation 2: map values to [0, 1]; constant vectors map to zeros.

    Works along the last axis, so one attribute ``(R,)`` and stacked
    attributes ``(K, R)`` take the same path and every row is scaled by
    its own range with the same ``(v - lo) / span`` expression.

    NaN cells (degraded telemetry) are ignored when computing the range
    and stay NaN in the output (an all-NaN row stays all-NaN);
    downstream consumers either gate on them (Equation 4) or impute them
    (the detector's clustering stage).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    nan_mask = np.isnan(values)
    if nan_mask.any():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            lo = np.nanmin(values, axis=-1, keepdims=True)
            hi = np.nanmax(values, axis=-1, keepdims=True)
    else:
        lo = values.min(axis=-1, keepdims=True)
        hi = values.max(axis=-1, keepdims=True)
    span = hi - lo
    if span.min() > 0:  # False when any row is constant (or all-NaN)
        return (values - lo) / span
    scaled = span > 0
    out = (values - lo) / np.where(scaled, span, 1.0)
    return np.where(scaled, out, np.where(nan_mask, np.nan, 0.0))


def region_means(
    values: np.ndarray, abnormal: np.ndarray, normal: np.ndarray
) -> Tuple[float, float]:
    """Mean of *values* over the abnormal and normal row masks.

    NaN cells are excluded; a region with no valid samples yields a NaN
    mean, which callers treat as "no evidence" (the θ gate rejects it).
    """
    if not abnormal.any() or not normal.any():
        raise ValueError("both regions must contain tuples")
    values = np.asarray(values, dtype=np.float64)
    if np.isnan(values).any():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return (
                float(np.nanmean(values[abnormal])),
                float(np.nanmean(values[normal])),
            )
    return float(values[abnormal].mean()), float(values[normal].mean())


def normalized_difference(
    attr: str, dataset: Dataset, spec: RegionSpec
) -> float:
    """``d = |µA − µN|`` of the normalized attribute (Section 4.5 gate)."""
    if not dataset.is_numeric(attr):
        raise TypeError(f"attribute {attr!r} is categorical")
    normalized = normalize_values(dataset.column(attr))
    mu_abnormal, mu_normal = region_means(
        normalized, spec.abnormal_mask(dataset), spec.normal_mask(dataset)
    )
    return abs(mu_abnormal - mu_normal)
