"""Shared infrastructure for the reproduction benches.

Each bench regenerates one table or figure of the paper's evaluation
(Section 8 + Appendices).  The paper's full corpus is 110 datasets
(10 anomaly classes x 11 durations) with 50-trial protocols; benches scale
that down via the constants below so the whole suite runs on a laptop in
minutes, while preserving the protocols exactly.  Suites are cached at
module scope because several benches share them.

Output convention: every bench prints the paper's rows/series side by
side with our measured values, so ``pytest benchmarks/ --benchmark-only``
doubles as the experiment log for EXPERIMENTS.md.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.causal import CausalModel
from repro.eval.harness import (
    AnomalyDataset,
    build_merged_models,
    build_model,
    build_suite,
    rank_models,
)
from repro.eval.metrics import (
    margin_of_confidence,
    score_predicates_mean,
    topk_contains,
)
from repro.perf.cache import LabeledSpaceCache
from repro.perf.parallel import parallel_map

#: Bench scale: 4 anomaly durations per class (the paper uses 11).
BENCH_DURATIONS: Tuple[int, ...] = (30, 45, 60, 75)

#: Random split trials for merged-model protocols (the paper uses 50).
BENCH_TRIALS = 8

#: θ defaults from the paper.
SINGLE_THETA = 0.2
MERGED_THETA = 0.05

SUITE_SEED = 2016  # the paper's publication year, for determinism


def results_path(name: str, scale: str) -> Path:
    """Where a bench run at *scale* writes its results file *name*.

    Only a ``bench``-scale run replaces the recorded ``BENCH_*.json`` at
    the repo root; smoke scales write ``bench_out/<name>`` (ignored by
    git, uploaded by CI), so a local smoke run never overwrites a
    recorded result.
    """
    root = Path(__file__).resolve().parents[1]
    if scale == "bench":
        return root / name
    out = root / "bench_out"
    out.mkdir(exist_ok=True)
    return out / name


@lru_cache(maxsize=None)
def suite(workload: str = "tpcc"):
    """The bench dataset corpus for a workload (cached across benches)."""
    return build_suite(
        workload=workload, durations=BENCH_DURATIONS, seed=SUITE_SEED
    )


def _build_single_model(run):
    """Top-level builder so :func:`parallel_map` can pickle it."""
    return build_model(run, SINGLE_THETA)


@lru_cache(maxsize=None)
def single_models(workload: str = "tpcc") -> Tuple[Tuple[str, tuple], ...]:
    """One θ=0.2 model per dataset, keyed by cause (cached, hashable).

    Model builds fan out via ``parallel_map`` (``REPRO_JOBS`` processes,
    serial by default) — each model depends only on its own run.
    """
    result = []
    for cause, runs in suite(workload).items():
        models = tuple(parallel_map(_build_single_model, runs))
        result.append((cause, models))
    return tuple(result)


def merged_protocol_trials(
    workload: str = "tpcc",
    n_train: int = 2,
    n_trials: int = BENCH_TRIALS,
    theta: float = MERGED_THETA,
    seed: int = 7,
):
    """Generator over (models, test_runs) pairs of the Section 8.5 protocol.

    Each trial randomly assigns ``n_train`` datasets per cause to build
    merged models; the remaining datasets are the test set.
    """
    corpus = suite(workload)
    rng = np.random.default_rng(seed)
    n_runs = len(next(iter(corpus.values())))
    for _ in range(n_trials):
        train_indices = {
            cause: tuple(
                sorted(rng.choice(n_runs, size=n_train, replace=False))
            )
            for cause in corpus
        }
        models = build_merged_models(corpus, train_indices, theta=theta)
        test_runs: List[AnomalyDataset] = []
        for cause, runs in corpus.items():
            chosen = set(train_indices[cause])
            test_runs.extend(
                run for i, run in enumerate(runs) if i not in chosen
            )
        yield models, test_runs


def evaluate_topk(
    models: Sequence[CausalModel],
    test_runs: Sequence[AnomalyDataset],
    ks: Sequence[int] = (1, 2),
    cache: Optional[LabeledSpaceCache] = None,
) -> Dict[int, float]:
    """Fraction of test runs whose correct cause is in the top-k ranking.

    One labeled-space cache spans the whole sweep, so each test dataset
    is discretized once regardless of how many models are ranked.
    """
    cache = cache if cache is not None else LabeledSpaceCache()
    hits = {k: 0 for k in ks}
    for run in test_runs:
        scores = rank_models(models, run.dataset, run.spec, cache=cache)
        for k in ks:
            hits[k] += int(topk_contains(scores, run.cause, k))
    return {k: hits[k] / len(test_runs) for k in ks}


def print_table(title: str, headers: Sequence[str], rows) -> None:
    """Render an aligned ASCII table to stdout (the bench report format)."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) if rows else len(headers[i])
        for i in range(len(headers))
    ]
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    print(f"\n=== {title} ===")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)))


def pct(value: float) -> str:
    """Format a fraction as a percent string."""
    return f"{100.0 * value:.1f}%"
