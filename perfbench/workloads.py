"""The three benchmark workloads.

Each ``run_<workload>(seed, seconds, tracer, tmp_dir, src_dir)`` makes its
inputs from *seed*, sets the system up several times (``setup_s`` is the
median), measures for about *seconds*, checks outputs outside the timed
sections, and returns a :class:`Outcome`.  Request and round counts are
fixed functions of *seconds* (sized from the rates measured on a 2-core
x86-64 container), never of the wall clock, so a seed repeats every count
exactly.  Why each workload exists, and which layer metric should move
which end-to-end metric, is in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.anomalies.library import ANOMALY_CAUSES
from repro.core.explain import DBSherlock
from repro.core.knowledge import MYSQL_LINUX_RULES
from repro.data.regions import RegionSpec
from repro.eval.harness import DEFAULT_NORMAL_S
from repro.fleet.engine import FleetDetector
from repro.fleet.scheduler import FleetScheduler
from repro.fleet.sim import FleetSimSource
from repro.obs.flight import FlightRecorder
from repro.stream.detector import StreamingDetector
from repro.stream.wal import TickWAL

from tracer import Tracer


@dataclass
class Outcome:
    """What one pass of a workload measured and checked."""

    #: end-to-end metric name → value (names as in BENCHMARK.json)
    metrics: Dict[str, float]
    attempted: int
    failed: int
    #: exact, seed-determined counts (requests, rounds, regions, ...)
    counts: Dict[str, object]
    #: layer numbers the workload reads from the program's own reports
    layers: Dict[str, float] = field(default_factory=dict)
    #: the end-to-end metrics before speed normalization
    raw: Dict[str, float] = field(default_factory=dict)
    #: PROBE_NOMINAL_S / median probe time (multiplies every time)
    speed_factor: float = 1.0


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _fingerprint(payload: bytes) -> str:
    return hashlib.sha1(payload).hexdigest()[:16]


#: Thread CPU seconds of one :class:`SpeedProbe` kernel on an unloaded
#: 2-core x86-64 container; every time is reported at this speed.
PROBE_NOMINAL_S = 0.004


class SpeedProbe:
    """Machine-speed reference: a fixed kernel timed in thread CPU time.

    On a shared 2-core machine the CPU's speed drifts by up to a third
    within seconds: one fixed ``explain`` moves between 24 and 40 ms, and
    the same kernel here between 3.5 and 5.5 ms.  The workloads run the
    kernel between requests or rounds, outside the timed sections, and
    :func:`_finish` reports every time at the nominal kernel speed (raw
    time x ``PROBE_NOMINAL_S`` / median kernel time).  Thread CPU time
    leaves out waits for the GIL or for a CPU, so a program that makes the
    client thread wait still reads as slower.  The kernel mixes
    interpreter work with small and cache-sized numpy passes, like the
    program, and allocates no Python containers, so the program's heap
    does not change its cost.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((400, 60))
        self._big = rng.standard_normal((6000, 60))
        self._order = np.argsort(self._big, axis=1)
        self.samples: List[float] = []

    def sample(self) -> None:
        t0 = time.thread_time()
        for _ in range(3):
            np.sort(self._small, axis=1)
            np.median(self._small, axis=0)
        np.take_along_axis(self._big, self._order, axis=1)
        acc = 0
        for i in range(20000):
            acc += (i * i) % 7
        self.samples.append(time.thread_time() - t0)

    def burst(self) -> None:
        """Sample between set-up repetitions, which are few and long."""
        for _ in range(10):
            self.sample()

    def factor(self) -> float:
        return PROBE_NOMINAL_S / statistics.median(self.samples)


def _finish(metrics: Dict[str, float], setup: List[float], attempted: int,
            failed: int, probe: SpeedProbe,
            setup_probe: SpeedProbe) -> Tuple[dict, dict, float]:
    """(metrics at nominal speed, raw metrics, measured-phase factor).

    ``setup_s`` is scaled by the probe sampled around the set-up
    repetitions, everything else by the probe of the measured phase.
    """
    metrics["setup_s"] = statistics.median(setup)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    metrics["ok_fraction"] = (attempted - failed) / attempted
    factor = probe.factor()
    scaled = dict(metrics)
    scaled["setup_s"] = metrics["setup_s"] * setup_probe.factor()
    for name in metrics:
        if "_ms." in name:
            scaled[name] = metrics[name] * factor
        elif name == "throughput_per_s":
            scaled[name] = metrics[name] / factor
    return scaled, metrics, factor


# ----------------------------------------------------------------------
# diagnose: one DBA client, closed loop
# ----------------------------------------------------------------------
#: Requests per measured second: ~40 ms mean explain cost at a 2:1
#: marked:auto mix, measured at nominal speed.
DIAGNOSE_REQUESTS_PER_S = 20
#: Table 7 long-run layout: at the default 120 s of normal rows the
#: anomaly exceeds the detector's 20 % cluster fraction and is missed.
AUTO_NORMAL_S = 300
TRAIN_PER_CAUSE = 3
TRAIN_SEED = 20160626
DIAGNOSE_SETUP_REPS = 3
#: Requests simulated per generator round trip (bounds resident inputs).
CHUNK = 40
FEEDBACK_EVERY = 5


class SimPool:
    """Two generator processes that simulate only when asked.

    Item ``i`` of *specs* is simulated by worker ``i % 2``; :meth:`take`
    asks both workers for their share of the next *n* items and returns
    them in order, so generation runs in parallel but never overlaps a
    measured section.
    """

    def __init__(self, specs: List[Tuple[str, int, int]], src_dir: Path):
        script = Path(__file__).with_name("genworker.py")
        self._procs = [
            subprocess.Popen(
                [sys.executable, str(script), str(src_dir),
                 json.dumps(specs[w::2])],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
            for w in range(2)
        ]
        self._next = 0
        self.simulate_s: List[float] = []

    def take(self, n: int) -> list:
        idx = range(self._next, self._next + n)
        for w, proc in enumerate(self._procs):
            share = sum(1 for i in idx if i % 2 == w)
            if share:
                proc.stdin.write(f"{share}\n".encode())
                proc.stdin.flush()
        out = []
        for i in idx:
            item = pickle.load(self._procs[i % 2].stdout)
            self.simulate_s.append(item[3])
            out.append(item[:3])
        self._next += n
        return out

    def close(self) -> None:
        for proc in self._procs:
            proc.stdin.close()
        for proc in self._procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


def plan_diagnose(seed: int, seconds: float):
    """(training specs, request specs, request kinds) for one run.

    The training corpus is the same for every seed: the trained store is
    the system's configuration, and a per-seed corpus made top-1 accuracy
    swing by eight points between seeds.  Every simulation seed is
    distinct, so each request is an anomaly the model store and the
    labeled-space cache have never seen.
    """
    rng = np.random.default_rng([seed, 1])
    n = max(6, int(round(seconds * DIAGNOSE_REQUESTS_PER_S)))
    k = len(ANOMALY_CAUSES)
    train = [
        (ANOMALY_CAUSES[i % k], TRAIN_SEED + i, DEFAULT_NORMAL_S)
        for i in range(TRAIN_PER_CAUSE * k)
    ]
    base = int(rng.integers(TRAIN_SEED + len(train), 2**30))
    # Every cause gets the same share of marked and auto requests, so the
    # latency percentiles do not move with the seed's cause mix.
    pairs = [
        (ANOMALY_CAUSES[(i // 3) % k], i % 3 == 2) for i in range(n)
    ]
    order = rng.permutation(n)
    auto = np.array([pairs[j][1] for j in order])
    requests = [
        (pairs[j][0], base + i,
         AUTO_NORMAL_S if pairs[j][1] else DEFAULT_NORMAL_S)
        for i, j in enumerate(order)
    ]
    return train, requests, auto


def _scores_sorted(scores) -> bool:
    return all(a[1] >= b[1] for a, b in zip(scores, scores[1:]))


def run_diagnose(seed: int, seconds: float, tracer: Optional[Tracer],
                 tmp_dir: Path, src_dir: Path) -> Outcome:
    train_specs, request_specs, auto = plan_diagnose(seed, seconds)
    probe, setup_probe = SpeedProbe(), SpeedProbe()
    pool = SimPool(train_specs + request_specs, src_dir)
    try:
        train = pool.take(len(train_specs))
        setup = []
        setup_probe.burst()
        for _ in range(DIAGNOSE_SETUP_REPS):
            t0 = time.perf_counter()
            sherlock = DBSherlock(rules=MYSQL_LINUX_RULES)
            for dataset, spec, cause in train:
                sherlock.feedback(cause, sherlock.explain(dataset, spec))
            setup.append(time.perf_counter() - t0)
            setup_probe.burst()
        del train

        cache_before = sherlock.cache.stats()
        marked_ms: List[float] = []
        auto_ms: List[float] = []
        busy_s = 0.0
        attempted = failed = top1 = feedbacks = 0
        for start in range(0, len(request_specs), CHUNK):
            batch = pool.take(min(CHUNK, len(request_specs) - start))
            if tracer is not None:
                tracer.recording = True
            for offset, (dataset, spec, cause) in enumerate(batch):
                i = start + offset
                attempted += 1
                t0 = time.perf_counter()
                try:
                    explanation = sherlock.explain(
                        dataset, None if auto[i] else spec
                    )
                except Exception:  # counted as failed; the run goes on
                    traceback.print_exc()
                    failed += 1
                    continue
                elapsed = time.perf_counter() - t0
                busy_s += elapsed
                (auto_ms if auto[i] else marked_ms).append(elapsed * 1e3)
                scores = explanation.all_cause_scores
                if not _scores_sorted(scores) or (
                    not auto[i] and not explanation.predicates.predicates
                ):
                    failed += 1
                if scores and scores[0][0] == cause:
                    top1 += 1
                if i % FEEDBACK_EVERY == FEEDBACK_EVERY - 1 and (
                    explanation.predicates.predicates
                ):
                    t0 = time.perf_counter()
                    sherlock.feedback(cause, explanation)
                    busy_s += time.perf_counter() - t0
                    feedbacks += 1
                probe.sample()
            if tracer is not None:
                tracer.recording = False
    finally:
        pool.close()

    cache = sherlock.cache.stats()
    lookups = (cache["hits"] - cache_before["hits"]) + (
        cache["misses"] - cache_before["misses"]
    )
    n = len(request_specs)
    metrics = {
        "op_ms.p50": _pct(marked_ms, 50),
        "op_ms.p90": _pct(marked_ms, 90),
        "result_ms.p50": _pct(auto_ms, 50),
        "result_ms.p90": _pct(auto_ms, 90),
        "throughput_per_s": (n - failed) / busy_s,
        "accuracy": top1 / n,
    }
    metrics, raw, factor = _finish(
        metrics, setup, attempted, failed, probe, setup_probe
    )
    return Outcome(
        metrics=metrics,
        raw=raw,
        speed_factor=factor,
        attempted=attempted,
        failed=failed,
        counts={
            "requests": n,
            "marked_requests": len(marked_ms),
            "auto_requests": len(auto_ms),
            "top1_correct": top1,
            "feedbacks": feedbacks,
            "models": len(sherlock.store),
            "input_fingerprint": _fingerprint(
                json.dumps(train_specs + request_specs).encode()
            ),
        },
        layers={
            "perf.cache.hit_ratio": (
                (cache["hits"] - cache_before["hits"]) / lookups
                if lookups else 0.0
            ),
            "perf.cache.misses_per_explain": (
                (cache["misses"] - cache_before["misses"]) / n
            ),
            "perf.cache.resident_mb": cache["resident_bytes"] / 2**20,
            "engine.simulate_s": statistics.mean(pool.simulate_s),
        },
    )


# ----------------------------------------------------------------------
# Fleet workloads
# ----------------------------------------------------------------------
FLEET_ATTRS = [f"m{j}" for j in range(8)]
#: Detector settings of the fleet bench (``benchmarks/bench_fleet.py``).
FLEET_DETECTOR = dict(
    capacity=60,
    window=10,
    pp_threshold=0.4,
    min_pts=3,
    cluster_fraction=0.2,
    min_region_s=2.0,
    gap_fill_s=3.0,
)
#: Rounds before measurement: the ring buffers fill up to capacity.
WARM_ROUNDS = FLEET_DETECTOR["capacity"] + 10

STEADY_TENANTS = 3000
#: Closed-loop rounds per measured second (~61 ms per round).
STEADY_ROUNDS_PER_S = 15
MIRRORS = 8
#: Building a 3,000-tenant scheduler takes ~15 ms, so take many.
STEADY_SETUP_REPS = 15


def _verdict_key(result, closed) -> tuple:
    return (
        list(result.selected_attributes),
        result.mask.tobytes(),
        list(result.regions),
        result.eps,
        list(closed),
    )


def run_fleet_steady(seed: int, seconds: float, tracer: Optional[Tracer],
                     tmp_dir: Path, src_dir: Path) -> Outcome:
    source = FleetSimSource(
        STEADY_TENANTS,
        FLEET_ATTRS,
        seed=seed,
        anomaly_fraction=0.002,
        anomaly_period=40,
        anomaly_duration=16,
        anomaly_scale=14.0,
    )
    timed = max(20, int(round(seconds * STEADY_ROUNDS_PER_S)))
    rounds = list(source.take(WARM_ROUNDS + timed))
    rng = np.random.default_rng([seed, 2])
    anomalous = np.nonzero(source.anomalous)[0]
    quiet = np.nonzero(~source.anomalous)[0]
    k = min(MIRRORS // 2, anomalous.size)
    mirrors = sorted(
        int(s) for s in np.concatenate([
            rng.choice(anomalous, size=k, replace=False),
            rng.choice(quiet, size=MIRRORS - k, replace=False),
        ])
    )

    probe, setup_probe = SpeedProbe(), SpeedProbe()
    setup = []
    setup_probe.burst()
    for rep in range(STEADY_SETUP_REPS):
        t0 = time.perf_counter()
        scheduler = FleetScheduler(
            FleetDetector(STEADY_TENANTS, FLEET_ATTRS, **FLEET_DETECTOR),
            sherlock=DBSherlock(),
            diagnose_jobs=1,
            label_metrics=False,
        )
        setup.append(time.perf_counter() - t0)
        setup_probe.sample()
        if rep < STEADY_SETUP_REPS - 1:
            scheduler.close()

    round_ms: List[float] = []
    verdict_ms: List[np.ndarray] = []
    busy_s = 0.0
    stream_ticks = 0
    failed_rounds = set()
    seen = {s: [] for s in mirrors}
    try:
        for r, (times, values, active) in enumerate(rounds):
            measured = r >= WARM_ROUNDS
            if tracer is not None:
                tracer.recording = measured
            t0 = time.perf_counter()
            try:
                tick = scheduler.run_round(times, values, active)
            except Exception:  # counted as failed; the run goes on
                traceback.print_exc()
                failed_rounds.add(r)
                continue
            elapsed = time.perf_counter() - t0
            if measured:
                busy_s += elapsed
                round_ms.append(elapsed * 1e3)
                stream_ticks += int(active.sum())
                lat = tick.verdict_latency[active]
                verdict_ms.append(lat[np.isfinite(lat)] * 1e3)
            for s in mirrors:
                seen[s].append(
                    _verdict_key(tick.result(s), tick.closed.get(s, []))
                )
            probe.sample()
        if tracer is not None:
            tracer.recording = False
        scheduler.drain()
        checkpoints = {
            s: scheduler.detector.stream_checkpoint(s) for s in mirrors
        }
        report = scheduler.report
    finally:
        scheduler.close()

    # Output check: each mirrored tenant replayed through the single-stream
    # detector must give the same verdict every round and the same final
    # checkpoint, bit for bit.
    agree = total = bad_checkpoints = 0
    for s in mirrors:
        det = StreamingDetector(mode="exact", **FLEET_DETECTOR)
        verdicts = iter(seen[s])
        for r, (times, values, active) in enumerate(rounds):
            if r in failed_rounds:
                continue
            row = {a: values[s, j] for j, a in enumerate(FLEET_ATTRS)}
            ref = det.tick(times[s], row, {})
            total += 1
            if next(verdicts) == _verdict_key(ref.result, ref.closed_regions):
                agree += 1
            else:
                failed_rounds.add(r)
        if checkpoints[s] != det.checkpoint():
            bad_checkpoints += 1

    attempted = len(rounds) + len(mirrors)
    failed = len(failed_rounds) + bad_checkpoints
    metrics = {
        "op_ms.p50": _pct(round_ms, 50),
        "op_ms.p90": _pct(round_ms, 90),
        "result_ms.p50": _pct(np.concatenate(verdict_ms), 50),
        "result_ms.p90": _pct(np.concatenate(verdict_ms), 90),
        "throughput_per_s": stream_ticks / busy_s,
        "accuracy": agree / total,
    }
    metrics, raw, factor = _finish(
        metrics, setup, attempted, failed, probe, setup_probe
    )
    return Outcome(
        metrics=metrics,
        raw=raw,
        speed_factor=factor,
        attempted=attempted,
        failed=failed,
        counts={
            "rounds": len(rounds),
            "timed_rounds": timed,
            "tenants": STEADY_TENANTS,
            "closed_regions": report.closed_regions,
            "diagnoses": report.diagnoses,
            "mirrored_tenants": mirrors,
            "input_fingerprint": _fingerprint(rounds[-1][1].tobytes()),
        },
    )


STORM_TENANTS = 400
#: Fixed open-loop round rate: about a third of the closed-loop capacity
#: (16 rounds/s with diagnosis running) measured on the parent commit in a
#: slow phase of the shared machine.  At 8/s and 6/s a slower phase
#: pushed rounds into diagnosis waves and the p90s swung by a third.
STORM_RATE = 5.0
STORM_SOURCE = dict(
    anomaly_fraction=0.25,
    anomaly_period=40,
    anomaly_duration=6,
    anomaly_scale=14.0,
)
#: Tenant groups whose bursts are out of phase, so closed regions arrive
#: in small waves every few rounds instead of one fleet-wide wave per
#: period (whose size and timing made the latency tails swing).
STORM_PHASES = 8
#: Rounds of a separate fleet (another seed) whose closed regions train
#: the causal models.
HARVEST_ROUNDS = 90
TRAIN_JOBS = 40
#: Set-up includes the warm-up rounds: creating 400 tenant directories
#: alone varies threefold from run to run with the file system's state.
STORM_SETUP_REPS = 3
#: Admit every wave of closed regions without shedding.
STORM_MAX_PENDING = 512
POLL_S = 0.0005
DRAIN_TIMEOUT_S = 60.0


class StormSource:
    """``STORM_PHASES`` :class:`FleetSimSource` groups side by side.

    Group ``k`` starts ``k / STORM_PHASES`` of a burst period into its
    history, so its bursts (and timestamps) lead the previous group's.
    """

    def __init__(self, seed: int) -> None:
        size = STORM_TENANTS // STORM_PHASES
        self._groups = [
            FleetSimSource(size, FLEET_ATTRS, seed=seed * STORM_PHASES + k,
                           **STORM_SOURCE)
            for k in range(STORM_PHASES)
        ]
        step = STORM_SOURCE["anomaly_period"] // STORM_PHASES
        for k, group in enumerate(self._groups):
            for _ in range(k * step):
                group.batch()
        self.anomalous = np.concatenate([g.anomalous for g in self._groups])

    def take(self, n: int) -> List[tuple]:
        rounds = []
        for _ in range(n):
            parts = [g.batch() for g in self._groups]
            rounds.append(tuple(np.concatenate(p) for p in zip(*parts)))
        return rounds


def _harvest(seed: int) -> List[tuple]:
    """(window dataset, region, cause) for closed regions of a warm-up fleet."""
    source = StormSource(seed)
    detector = FleetDetector(STORM_TENANTS, FLEET_ATTRS, **FLEET_DETECTOR)
    jobs: Dict[str, list] = {"burst": [], "noise": []}
    for times, values, active in source.take(HARVEST_ROUNDS):
        tick = detector.tick(times, values, active)
        for s, regions in sorted(tick.closed.items()):
            dataset = detector.arena.view(s).to_dataset(name=f"harvest:{s}")
            cause = "burst" if source.anomalous[s] else "noise"
            jobs[cause].extend((dataset, region, cause) for region in regions)
    per_cause = TRAIN_JOBS // len(jobs)
    return [job for group in jobs.values() for job in group[:per_cause]]


def run_fleet_storm(seed: int, seconds: float, tracer: Optional[Tracer],
                    tmp_dir: Path, src_dir: Path) -> Outcome:
    tenants = [f"t{i:04d}" for i in range(STORM_TENANTS)]
    stream_of = {name: s for s, name in enumerate(tenants)}
    source = StormSource(seed)
    timed = max(20, int(round(seconds * STORM_RATE)))
    rounds = source.take(WARM_ROUNDS + timed)
    train = _harvest(seed + 7919)

    probe, setup_probe = SpeedProbe(), SpeedProbe()
    setup = []
    setup_probe.burst()
    for rep in range(STORM_SETUP_REPS):
        root = Path(tempfile.mkdtemp(dir=tmp_dir))
        t0 = time.perf_counter()
        sherlock = DBSherlock()
        for dataset, region, cause in train:
            spec = RegionSpec(abnormal=[region], normal=None)
            sherlock.feedback(cause, sherlock.explain(dataset, spec))
        flight = FlightRecorder()
        scheduler = FleetScheduler(
            FleetDetector(STORM_TENANTS, FLEET_ATTRS, **FLEET_DETECTOR),
            tenants=tenants,
            sherlock=sherlock,
            root_dir=root,
            durable=tenants,
            diagnose_jobs=1,
            max_pending=STORM_MAX_PENDING,
            flight=flight,
        )
        for times, values, active in rounds[:WARM_ROUNDS]:
            scheduler.run_round(times, values, active)
        scheduler.drain()
        setup.append(time.perf_counter() - t0)
        setup_probe.burst()
        if rep < STORM_SETUP_REPS - 1:
            scheduler.close()
            shutil.rmtree(root)

    due_of: Dict[tuple, float] = {}
    diagnosis_ms: List[float] = []
    named = explained = 0
    seen = 0

    def poll() -> None:
        nonlocal seen, named, explained
        n = len(scheduler.diagnoses)
        if n == seen:
            return
        now = time.perf_counter()
        for tenant, region, explanation in scheduler.diagnoses[seen:n]:
            due = due_of.get((tenant, region.start, region.end))
            if due is None:  # closed during warm-up
                continue
            diagnosis_ms.append((now - due) * 1e3)
            if source.anomalous[stream_of[tenant]]:
                explained += 1
                named += any(
                    p.attr in FLEET_ATTRS[:2]
                    for p in explanation.predicates.predicates
                )
        seen = n

    def settled() -> bool:
        report = scheduler.report
        return (
            report.diagnoses + report.shed + report.diagnosis_failures
            >= report.closed_regions
        )

    round_ms: List[float] = []
    verdict_ms: List[np.ndarray] = []
    lateness_ms: List[float] = []
    busy_s = 0.0
    stream_ticks = 0
    failed_rounds = 0
    try:
        seen = len(scheduler.diagnoses)

        if tracer is not None:
            tracer.recording = True
        interval = 1.0 / STORM_RATE
        t_start = time.perf_counter() + interval
        for k, (times, values, active) in enumerate(rounds[WARM_ROUNDS:]):
            due = t_start + k * interval
            while True:
                poll()
                now = time.perf_counter()
                if now >= due:
                    break
                time.sleep(min(POLL_S, due - now))
            lateness_ms.append((now - due) * 1e3)
            try:
                tick = scheduler.run_round(times, values, active)
            except Exception:  # counted as failed; the run goes on
                traceback.print_exc()
                failed_rounds += 1
                continue
            end = time.perf_counter()
            busy_s += end - now
            round_ms.append((end - due) * 1e3)
            stream_ticks += int(active.sum())
            lat = tick.verdict_latency[active]
            verdict_ms.append(lat[np.isfinite(lat)] * 1e3)
            for s, regions in tick.closed.items():
                for region in regions:
                    due_of[(tenants[s], region.start, region.end)] = due
            poll()
            if settled():  # never hold the GIL from a diagnosis
                probe.sample()
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while not settled() and time.perf_counter() < deadline:
            poll()
            time.sleep(POLL_S)
        poll()
        report = scheduler.report
        if tracer is not None:
            tracer.recording = False
        scheduler.drain()
        flight_stats = flight.stats()
        wal_bytes = sum(scheduler.wal_bytes().values())
    finally:
        scheduler.close()

    # Output checks: every closed region is accounted for, and every
    # tenant's WAL replays every acknowledged tick.
    unaccounted = report.closed_regions - (
        report.diagnoses + report.shed + report.diagnosis_failures
    )
    bad_wals = 0
    for s, tenant in enumerate(tenants):
        wal = TickWAL(root / tenant / "ticks.wal")
        try:
            replayed = [t for t, _numeric, _cat in wal.replay()]
        finally:
            wal.close()
        if replayed != [float(r[0][s]) for r in rounds]:
            bad_wals += 1
    shutil.rmtree(root)

    queue_wait_ms = []
    if tracer is not None:
        for start, keys in tracer.batch_starts:
            for key in keys:
                due = due_of.get(key)
                if due is not None:
                    queue_wait_ms.append((start - due) * 1e3)

    attempted = len(rounds) + report.closed_regions + len(tenants)
    failed = (
        failed_rounds + report.shed + report.diagnosis_failures
        + abs(unaccounted) + bad_wals
    )
    metrics = {
        "op_ms.p50": _pct(round_ms, 50),
        "op_ms.p90": _pct(round_ms, 90),
        "result_ms.p50": _pct(np.concatenate(verdict_ms), 50),
        "result_ms.p90": _pct(np.concatenate(verdict_ms), 90),
        "throughput_per_s": stream_ticks / busy_s,
        "accuracy": named / explained if explained else 0.0,
    }
    layers = {
        "fleet.scheduler.shed": report.shed,
        "fleet.scheduler.failures": report.diagnosis_failures,
        "fleet.scheduler.retries": report.retries,
        "fleet.scheduler.deadline_misses": report.deadline_misses,
        "obs.flight.kept_ticks": flight_stats["kept_ticks"],
        "obs.flight.retained_bytes": flight_stats["retained_bytes"],
        "stream.wal.bytes_per_tick": wal_bytes / report.stream_ticks,
        "loadgen.lateness_ms.p95": _pct(lateness_ms, 95),
    }
    if diagnosis_ms:
        # Not an end-to-end gate: in two sets of ten 20-s runs on a shared
        # 2-core machine its p90 spread by 10 % and 31 % between runs.
        layers["fleet.scheduler.diagnosis_ms.p50"] = _pct(diagnosis_ms, 50)
        layers["fleet.scheduler.diagnosis_ms.p90"] = _pct(diagnosis_ms, 90)
    if queue_wait_ms:
        layers["fleet.scheduler.queue_wait_ms.p50"] = _pct(queue_wait_ms, 50)
        layers["fleet.scheduler.queue_wait_ms.p95"] = _pct(queue_wait_ms, 95)
    metrics, raw, factor = _finish(
        metrics, setup, attempted, failed, probe, setup_probe
    )
    return Outcome(
        metrics=metrics,
        raw=raw,
        speed_factor=factor,
        attempted=attempted,
        failed=failed,
        counts={
            "rounds": len(rounds),
            "timed_rounds": timed,
            "tenants": STORM_TENANTS,
            "closed_regions": report.closed_regions,
            "diagnoses": report.diagnoses,
            "timed_diagnoses": len(diagnosis_ms),
            "train_jobs": len(train),
            "input_fingerprint": _fingerprint(rounds[-1][1].tobytes()),
        },
        layers=layers,
    )


WORKLOADS = {
    "diagnose": run_diagnose,
    "fleet_steady": run_fleet_steady,
    "fleet_storm": run_fleet_storm,
}
