"""Batched numeric labeling: every attribute of a dataset in one pass.

Algorithm 1 labels each numeric attribute's partitions independently;
done one attribute at a time that is hundreds of (cheap) numpy calls per
dataset.  Here all numeric columns are stacked into one
``(n_attrs, n_rows)`` float64 matrix and labeled by a single
:func:`repro.core.partition.label_rows` call, the same Section 4.2
kernel :meth:`NumericPartitionSpace.label` runs on one row — so each
attribute's labels are those of the serial path by construction.
"""

from __future__ import annotations

import warnings
from typing import Dict, Sequence, Tuple

import numpy as np

__all__ = ["label_numeric_batch"]


def label_numeric_batch(
    dataset,
    attrs: Sequence[str],
    abnormal_mask: np.ndarray,
    normal_mask: np.ndarray,
    n_partitions: int,
) -> Dict[str, Tuple[object, np.ndarray]]:
    """Label every numeric attribute in one pass.

    Returns ``{attr: (NumericPartitionSpace, labels)}`` where both parts
    are bitwise-identical to ``space = NumericPartitionSpace(attr, values,
    n_partitions); space.label(values, abnormal_mask, normal_mask)``.
    """
    from repro.core import partition

    attrs = list(attrs)
    if not attrs:
        return {}
    if int(n_partitions) < 1:
        raise ValueError("n_partitions must be at least 1")

    matrix = np.stack([dataset.column(a) for a in attrs], axis=0)
    if np.isnan(matrix).any():
        # degraded telemetry: min/max over the valid cells per attribute;
        # an all-NaN attribute degrades to a neutral constant space.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            mins = np.nanmin(matrix, axis=1)
            maxs = np.nanmax(matrix, axis=1)
    else:
        mins = matrix.min(axis=1)
        maxs = matrix.max(axis=1)
    spaces = [
        partition.NumericPartitionSpace.from_stats(attr, lo, hi, n_partitions)
        for attr, lo, hi in zip(attrs, mins.tolist(), maxs.tolist())
    ]
    labels = partition.label_rows(
        matrix,
        [space.minimum for space in spaces],
        [space.width for space in spaces],
        [space.n_partitions for space in spaces],
        abnormal_mask,
        normal_mask,
        grid=int(n_partitions),
    )
    return {
        space.attr: (space, labels[j, : space.n_partitions].copy())
        for j, space in enumerate(spaces)
    }
