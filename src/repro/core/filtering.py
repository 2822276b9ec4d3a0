"""Partition filtering and gap filling (Sections 4.3-4.4).

Both steps apply to numeric attributes only.  *Filtering* erases non-Empty
partitions whose label disagrees with either of their nearest non-Empty
neighbours — all decisions taken simultaneously on the original labels, so
partitions cannot cascade-filter each other (the paper's Figure 5 note).
*Gap filling* then assigns every Empty partition the label of the closer
non-Empty side, with the distance to the Abnormal side inflated by the
anomaly distance multiplier ``δ`` (δ > 1 yields more specific predicates).

Every step works over the last axis: one label row ``(R,)`` or a stack of
rows ``(K, R)`` (the fused diagnosis batch), each row decided on its own.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.core.partition import Label

__all__ = ["filter_partitions", "fill_gaps", "abnormal_blocks"]


def _neighbours(labels: np.ndarray) -> tuple:
    """Nearest non-Empty partition on each side, along the last axis.

    Returns ``(pos, left, right, left_label, right_label)`` where ``pos``
    numbers every partition by its flat position in ``labels.ravel()``
    and ``left``/``right`` hold the flat position of the neighbour, -1
    where the row has none (the neighbour label is then meaningless).
    Prefix max / suffix min scans within each row, integer ops only.
    """
    size = labels.size
    pos = np.arange(size, dtype=np.int64).reshape(labels.shape)
    nonempty = labels != int(Label.EMPTY)
    left = np.empty(labels.shape, dtype=np.int64)
    left[..., 0] = -1
    last = np.where(nonempty, pos, -1)
    left[..., 1:] = np.maximum.accumulate(last, axis=-1)[..., :-1]
    right = np.empty(labels.shape, dtype=np.int64)
    right[..., -1] = -1
    nxt = np.where(nonempty, pos, size)[..., ::-1]
    right[..., :-1] = np.minimum.accumulate(nxt, axis=-1)[..., -2::-1]
    right[right == size] = -1
    flat = labels.ravel()
    return pos, left, right, flat[np.maximum(left, 0)], flat[np.maximum(right, 0)]


def filter_partitions(labels: np.ndarray) -> np.ndarray:
    """Section 4.3 filtering, applied simultaneously.

    A non-Empty partition keeps its label only when *both* of its nearest
    non-Empty neighbours carry the same label (Figure 5, Scenario 1).
    Partitions at either end of the non-Empty run (with a single neighbour)
    are never filtered — the paper notes that an incremental version would
    wrongly erode them.  A lone Abnormal (or lone Normal) partition is
    deemed significant and kept regardless of its neighbours.
    """
    labels = np.asarray(labels, dtype=np.int64)
    result = labels.copy()
    if labels.size == 0:
        return result
    _, left, right, left_label, right_label = _neighbours(labels)
    eligible = (labels != int(Label.EMPTY)) & (left >= 0) & (right >= 0)
    for label in (int(Label.ABNORMAL), int(Label.NORMAL)):
        is_label = labels == label
        lone = is_label.sum(axis=-1, keepdims=True) == 1
        if lone.any():
            eligible &= ~(lone & is_label)
    disagree = (left_label != labels) | (right_label != labels)
    result[eligible & disagree] = int(Label.EMPTY)
    return result


def fill_gaps(
    labels: np.ndarray,
    delta: float,
    normal_mean_partition: Union[None, int, Sequence[int], np.ndarray] = None,
) -> np.ndarray:
    """Section 4.4 gap filling with anomaly distance multiplier ``δ``.

    Every Empty partition takes the label of its closer non-Empty side,
    where the distance to an Abnormal side is multiplied by ``δ``; ties go
    Normal (consistent with δ > 1 favouring specific predicates).  When
    only Abnormal partitions remain, the partition holding the normal
    region's average value (``normal_mean_partition``) is force-labeled
    Normal first, so a predicate direction can be determined.

    ``normal_mean_partition`` is one index for every row or one per row;
    a negative index means the row has none (as ``partition_indices``
    marks a value in no partition).  An Abnormal-only row without one
    raises ``ValueError``.

    Returns fully non-Empty rows (a row with no non-Empty partitions at
    all is returned unchanged).
    """
    labels = np.array(labels, dtype=np.int64)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if labels.size == 0:
        return labels

    has_abnormal = (labels == int(Label.ABNORMAL)).any(axis=-1)
    has_normal = (labels == int(Label.NORMAL)).any(axis=-1)
    if not (has_abnormal | has_normal).any():
        return labels
    need = has_abnormal & ~has_normal
    if need.any():
        if normal_mean_partition is None:
            targets = np.full(need.shape, -1, dtype=np.int64)
        else:
            targets = np.broadcast_to(
                np.asarray(normal_mean_partition, dtype=np.int64), need.shape
            )
        if (targets[need] < 0).any():
            raise ValueError(
                "only Abnormal partitions remain; normal_mean_partition required"
            )
        rows = labels.reshape(-1, labels.shape[-1])
        need_rows = np.flatnonzero(need)
        rows[need_rows, targets.reshape(-1)[need_rows]] = int(Label.NORMAL)

    pos, left, right, left_label, right_label = _neighbours(labels)
    filled = labels.copy()
    empty = labels == int(Label.EMPTY)

    only_left = empty & (left >= 0) & (right < 0)
    filled[only_left] = left_label[only_left]
    only_right = empty & (left < 0) & (right >= 0)
    filled[only_right] = right_label[only_right]

    both = empty & (left >= 0) & (right >= 0)
    agree = both & (left_label == right_label)
    filled[agree] = left_label[agree]

    dist_left = (pos - left).astype(np.float64)
    dist_right = (right - pos).astype(np.float64)
    left_is_abnormal = left_label == int(Label.ABNORMAL)
    dist_abnormal = np.where(left_is_abnormal, dist_left, dist_right)
    dist_normal = np.where(left_is_abnormal, dist_right, dist_left)
    abnormal_label = np.where(left_is_abnormal, left_label, right_label)
    normal_label = np.where(left_is_abnormal, right_label, left_label)
    chosen = np.where(dist_abnormal * delta < dist_normal, abnormal_label, normal_label)
    disagree = both & (left_label != right_label)
    filled[disagree] = chosen[disagree]
    return filled


def abnormal_blocks(labels: np.ndarray) -> list:
    """Contiguous runs of Abnormal partitions as ``(start, end)`` inclusive.

    A label row gives one list of runs; a ``(K, R)`` stack gives one such
    list per row.  One padded ``np.diff`` + ``np.nonzero`` finds every run
    edge; the row-major order of ``np.nonzero`` pairs the k-th start of a
    row with its k-th end.
    """
    labels = np.asarray(labels, dtype=np.int64)
    pad = np.zeros(labels.shape[:-1] + (1,), dtype=np.int8)
    abnormal = (labels == int(Label.ABNORMAL)).astype(np.int8)
    edges = np.diff(np.concatenate([pad, abnormal, pad], axis=-1), axis=-1)
    starts = np.nonzero(edges == 1)
    ends = (np.nonzero(edges == -1)[-1] - 1).tolist()
    if labels.ndim == 1:
        return list(zip(starts[0].tolist(), ends))
    blocks: list = [[] for _ in range(labels.shape[0])]
    for r, s, e in zip(starts[0].tolist(), starts[1].tolist(), ends):
        blocks[r].append((s, e))
    return blocks
