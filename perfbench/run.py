"""Repository benchmark: ``diagnose``, ``fleet_steady`` and ``fleet_storm``.

Run from the repository root::

    python3 perfbench/run.py --workload diagnose --seed 1 --seconds 20 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``.
``--trace 1`` runs the workload once untraced and once with every layer
entry point wrapped (see ``tracer.py``), prints every per-layer metric,
writes the spans to ``perfbench/out/``, and reports the tracing overhead
(traced minus untraced, per end-to-end metric) in the record line.  The
last stdout line is the result object; the line before it is the full
record with provenance and exact counts.  The program is imported from
``src/`` of the checkout and nowhere else: without it the benchmark exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def pin_threads() -> None:
    """One BLAS thread, set before numpy loads.

    The load is one client thread plus at most one diagnosis worker
    (nproc = 2).  OpenBLAS's own thread pool breaks that, and with it one
    DBSCAN call swung between 7 and 40 ms.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _import_program():
    """Import ``repro`` from this checkout's ``src/`` or exit with code 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        sys.exit(2)


def _git(*args: str):
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


def at_nominal_speed(layers: dict, factor: float) -> dict:
    """Program times at the nominal machine speed, like the end-to-end
    metrics; load-generator times stay raw."""
    return {
        name: value * factor
        if (name.endswith("_ms") or "_ms." in name)
        and not name.startswith("loadgen.")
        else value
        for name, value in layers.items()
    }


def layer_metrics(tracer, traced) -> dict:
    """Per-layer metrics of one traced pass, zero where a layer was idle."""
    layers = tracer.layer_metrics()
    counts = tracer.counts

    def per_call(count: str, layer: str) -> float:
        calls = layers[f"{layer}_calls"]
        return counts.get(count, 0.0) / calls if calls else 0.0

    layers["core.generator.predicates"] = counts.get(
        "core.generator.predicates", 0.0
    )
    layers["core.causal.models"] = per_call(
        "core.causal.models", "core.causal.rank"
    )
    layers["fleet.engine.fallout_streams"] = per_call(
        "fleet.engine.fallout_streams", "fleet.engine.tick"
    )
    layers["perf.jobs_per_batch"] = per_call("perf.jobs", "perf.explain_batch")
    layers.update(traced.layers)
    return at_nominal_speed(layers, traced.speed_factor)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pin_threads()
    _import_program()
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    run = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        untraced = run(args.seed, args.seconds, None, tmp, SRC)
        outcomes = [untraced]
        if args.trace:
            tracer = tracing.Tracer()
            saved = tracing.install(tracer)
            try:
                traced = run(args.seed, args.seconds, tracer, tmp, SRC)
            finally:
                tracing.uninstall(saved)
            outcomes.append(traced)
            values = layer_metrics(tracer, traced)
            wanted = spec["per_layer"]
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.dump(spans)
        else:
            values = untraced.metrics
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "counts": untraced.counts,
        "end_to_end": untraced.metrics,
        "end_to_end_raw": untraced.raw,
        "speed_factor": untraced.speed_factor,
        "layers": at_nominal_speed(untraced.layers, untraced.speed_factor),
        "attempted": attempted,
        "failed": failed,
    }
    if args.trace:
        record["per_layer"] = values
        record["trace_overhead"] = {
            name: traced.metrics[name] - untraced.metrics[name]
            for name in untraced.metrics
        }
        record["spans"] = str(spans.relative_to(ROOT))
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            # an idle layer reads 0; an end-to-end metric must be measured
            m["name"]: {"value": float(values.get(m["name"], 0.0)
                                       if args.trace else values[m["name"]]),
                        "unit": m["unit"]}
            for m in wanted
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
