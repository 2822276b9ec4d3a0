"""Self-tests of the benchmark: attribution and determinism.

Run from the repository root (about three minutes)::

    python3 -m pytest perfbench/selftest.py -q

The file name keeps these slow tests out of the repository's default
``pytest`` collection; they exercise the benchmark, not the program.
"""

from __future__ import annotations

import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path[:0] = [str(SRC), str(HERE)]

import run as bench  # noqa: E402

bench.pin_threads()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from repro.core.causal import CausalModelStore  # noqa: E402
from repro.fleet.arena import FleetArena  # noqa: E402


def run(name: str, seed: int, seconds: float, traced: bool = True):
    tracer = tracing.Tracer() if traced else None
    saved = tracing.install(tracer) if traced else []
    try:
        OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            outcome = workloads.WORKLOADS[name](
                seed, seconds, tracer, Path(tmp), SRC
            )
    finally:
        tracing.uninstall(saved)
    return outcome, tracer


@contextmanager
def delayed(owner, attr: str, delay_s: float):
    """Make every call of ``owner.attr`` sleep *delay_s* first."""
    original = owner.__dict__[attr]

    def slow(*args, **kwargs):
        time.sleep(delay_s)
        return original(*args, **kwargs)

    setattr(owner, attr, slow)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def check_attribution(name, seconds, owner, attr, layer, metric, delay_s):
    base, base_tracer = run(name, 3, seconds)
    with delayed(owner, attr, delay_s):
        slow, slow_tracer = run(name, 3, seconds)
    calls = slow_tracer.layer_metrics()[f"{layer}_calls"]
    assert calls == base_tracer.layer_metrics()[f"{layer}_calls"] > 0
    injected = delay_s * calls
    before = base_tracer.self_totals_s()
    after = slow_tracer.self_totals_s()
    grown = after[layer] - before[layer]
    assert 0.9 * injected <= grown <= 1.3 * injected, (grown, injected)
    for other, total in before.items():
        if other != layer:
            # machine speed on a shared 2-core box drifts by up to a third
            assert abs(after.get(other, 0.0) - total) <= (
                0.5 * total + 0.1 * injected
            ), (other, total, after.get(other))
    # a sleep takes wall time whatever the machine speed: compare raw
    moved = slow.raw[metric] - base.raw[metric]
    assert moved >= 0.8 * delay_s * 1e3, (metric, moved)


def test_rank_delay_is_attributed_to_rank_on_diagnose():
    check_attribution(
        "diagnose", 2, CausalModelStore, "rank", "core.causal.rank",
        "op_ms.p50", 0.05,
    )


def test_stats_delay_is_attributed_to_arena_stats_on_fleet_steady():
    check_attribution(
        "fleet_steady", 2, FleetArena, "stats", "fleet.arena.stats",
        "op_ms.p50", 0.02,
    )


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.recording = True
    inner = tracer.wrap("inner", lambda: time.sleep(0.02), None)
    outer = tracer.wrap("outer", lambda: (time.sleep(0.01), inner()), None)
    outer()
    totals = tracer.self_totals_s()
    assert 0.01 <= totals["outer"] < 0.02
    assert 0.02 <= totals["inner"] < 0.03


def test_same_seed_repeats_counts_and_other_seed_changes_inputs():
    for name, seconds, counts in [
        ("diagnose", 2, ["requests", "top1_correct", "feedbacks"]),
        ("fleet_steady", 1, ["closed_regions", "diagnoses"]),
        ("fleet_storm", 2, ["closed_regions", "diagnoses",
                            "timed_diagnoses"]),
    ]:
        first, first_tracer = run(name, 5, seconds)
        again, again_tracer = run(name, 5, seconds)
        other, _ = run(name, 6, seconds, traced=False)
        for key in counts:
            assert first.counts[key] == again.counts[key], (name, key)
        assert first.metrics["accuracy"] == again.metrics["accuracy"]
        assert (
            first_tracer.counts["core.generator.predicates"]
            == again_tracer.counts["core.generator.predicates"]
        ), name
        assert (
            first.counts["input_fingerprint"]
            != other.counts["input_fingerprint"]
        ), name


if __name__ == "__main__":
    import pytest

    sys.exit(pytest.main([__file__, "-q"]))
