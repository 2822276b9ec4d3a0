"""Shared-representation performance layer for batch diagnosis.

The evaluation protocols (Sections 8.3/8.5) are model x dataset
cross-products: every confidence score (Equation 3) re-discretizes the
same dataset columns into the same partitions, and Algorithm 1 walks
attributes one at a time.  This package amortizes that redundancy:

``cache``     :class:`LabeledSpaceCache` — memoized partition spaces,
              labels, region masks, and normalized region means, shared
              between predicate generation and confidence scoring;
``batch``     batched numeric labeling — all numeric columns of a
              dataset through one Section 4.2 kernel call;
``parallel``  :func:`parallel_map` — deterministic process-pool mapping
              with a serial fallback and a ``REPRO_JOBS`` override.

Every fast path is bitwise-identical to the serial one it replaces;
``tests/test_perf_engine.py`` enforces that against the frozen seed
copies in ``tests/golden_perf.py``.
"""

from repro.perf.batch import label_numeric_batch
from repro.perf.cache import LabeledSpaceCache
from repro.perf.parallel import parallel_map, resolve_jobs

__all__ = [
    "LabeledSpaceCache",
    "label_numeric_batch",
    "parallel_map",
    "resolve_jobs",
]
