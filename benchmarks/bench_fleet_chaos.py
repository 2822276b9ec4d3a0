"""Fleet chaos bench: blast radius under tenant-targeted failure.

Drives the fleet with 20 % of its tenants actively hostile — the
``storm`` :data:`repro.eval.chaos.FLEET_PROFILES` profile — and asserts
the containment contract the robustness tentpole claims:

* **blast radius** — a fleet where the faulted slice's detection lanes
  raise mid-fallout (:class:`~repro.faults.LaneExceptionFault`) and the
  slice's diagnoses hang a worker thread
  (:class:`~repro.faults.DiagnosisHang`) is driven over the *same*
  materialized rounds as a fault-free twin.  Every clean tenant's tick
  outputs — selection, powers, fallout verdicts, closed regions — and
  final checkpoint must be *equal*, not approximately equal; zero
  exceptions may escape ``run_round``; and the job-conservation
  invariant (``diagnoses + shed + failures == closed regions``) must
  hold even with hostile tenants in the mix;
* **breaker drill** — a controlled diagnosis replay pushes hanging
  tenants through the soft/hard deadline tiers: soft misses publish
  degraded cached-models-only rankings, hard misses shed the jobs and
  trip the per-tenant circuit breaker (hostile tenants ejected, clean
  tenants untouched), and once the hang clears a half-open probe
  readmits the recovered tenant;
* **partial recovery** — one durable tenant's checkpoint is corrupted
  on disk between shutdown and
  :meth:`~repro.fleet.scheduler.FleetScheduler.recover`; the recovery
  report must name *exactly* that tenant as corrupt while every other
  durable tenant restores bitwise and replays its WAL tail.

Results land in ``BENCH_fleet_chaos.json`` at the repo root
(``bench_out/`` below bench scale).  Run
standalone (``PERF_BENCH_SCALE=tiny`` is the CI smoke scale):

    python benchmarks/bench_fleet_chaos.py

or via ``pytest benchmarks/ --benchmark-only`` (tiny scale, no JSON).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
if __name__ == "__main__":  # allow `python benchmarks/bench_fleet_chaos.py`
    sys.path.insert(0, str(_REPO_ROOT / "src"))

from _shared import results_path  # noqa: E402
from repro.core.explain import DBSherlock  # noqa: E402
from repro.data.dataset import Dataset  # noqa: E402
from repro.data.regions import Region, RegionSpec  # noqa: E402
from repro.eval.chaos import FLEET_PROFILES  # noqa: E402
from repro.faults import (  # noqa: E402
    CorruptTenantState,
    DiagnosisHang,
    LaneExceptionFault,
)
from repro.fleet import FleetDetector, FleetSimSource  # noqa: E402
from repro.fleet.scheduler import FleetScheduler  # noqa: E402

SCALES = {
    # CI smoke: a small fleet, but the same 20 % hostile slice and the
    # same containment assertions as the recorded run.
    "tiny": dict(
        n_tenants=40,
        n_attrs=6,
        rounds=60,
        extra_rounds=6,
        readmit_rounds=5,
        diagnose_jobs=4,
    ),
    # The recorded run.
    "bench": dict(
        n_tenants=200,
        n_attrs=8,
        rounds=80,
        extra_rounds=8,
        readmit_rounds=5,
        diagnose_jobs=8,
    ),
}

# The storm detector configuration from bench_fleet.py: a hot fleet
# where every tenant degrades, so hostile tenants are guaranteed to
# fall out, close regions, and exercise the containment seams.
STORM_KW = dict(
    capacity=40,
    window=8,
    pp_threshold=0.3,
    min_pts=3,
    cluster_fraction=0.2,
    min_region_s=2.0,
    gap_fill_s=3.0,
)


def _seed_sherlock(attrs: list) -> DBSherlock:
    """A sherlock with one accepted causal model over *attrs*."""
    rows, lo, hi = 80, 30, 50
    rng = np.random.default_rng(11)
    cols = {}
    for i, a in enumerate(attrs):
        base = rng.normal(50.0 + 3 * i, 2.0, size=rows)
        base[lo : hi + 1] += 14.0
        cols[a] = base
    ds = Dataset(
        np.arange(rows, dtype=np.float64), numeric=cols, name="chaos-seed"
    )
    sherlock = DBSherlock()
    explanation = sherlock.explain(
        ds, RegionSpec(abnormal=[Region(float(lo), float(hi))], normal=None)
    )
    sherlock.feedback("storm overload", explanation, ds)
    return sherlock


def _mask_rows(arr: np.ndarray, clean_idx: np.ndarray, S: int) -> np.ndarray:
    """Project a per-stream bool mask or stream-index array onto clean."""
    arr = np.asarray(arr)
    if arr.dtype == bool and arr.shape[:1] == (S,):
        return arr[clean_idx]
    return np.intersect1d(arr, clean_idx)


def _clean_signature(tick, clean_idx: np.ndarray, clean_set: set, S: int):
    """Everything a clean tenant's verdict consists of, this tick."""
    results = {}
    for s, res in tick.results.items():
        if s in clean_set:
            results[int(s)] = (
                list(res.selected_attributes),
                res.mask.tobytes(),
                int(res.mask.size),
                list(res.regions),
                float(res.eps),
            )
    closed = {
        int(s): list(regs) for s, regs in tick.closed.items() if s in clean_set
    }
    return (
        tick.selected[clean_idx].copy(),
        tick.powers[clean_idx].copy(),
        _mask_rows(tick.accepted, clean_idx, S),
        _mask_rows(tick.dropped, clean_idx, S),
        _mask_rows(tick.reclustered, clean_idx, S),
        results,
        closed,
    )


def _assert_signatures_equal(faulted, baseline, tick_no: int) -> None:
    names = (
        "selection",
        "powers",
        "accepted",
        "dropped",
        "reclustered",
    )
    for name, a, b in zip(names, faulted[:5], baseline[:5]):
        assert np.array_equal(a, b, equal_nan=True), (
            f"tick {tick_no}: clean-tenant {name} diverges under chaos"
        )
    assert faulted[5] == baseline[5], (
        f"tick {tick_no}: clean-tenant fallout verdicts diverge under chaos"
    )
    assert faulted[6] == baseline[6], (
        f"tick {tick_no}: clean-tenant closed regions diverge under chaos"
    )


def run_blast_radius(scale: str) -> dict:
    """The combined leg: lane faults + hangs + one corrupt durable tenant."""
    params = SCALES[scale]
    S = params["n_tenants"]
    attrs = [f"m{j}" for j in range(params["n_attrs"])]
    tenants = [f"t{i:04d}" for i in range(S)]
    profile = FLEET_PROFILES["storm"]
    roles = profile.assign(tenants, seed=7)
    index_of = {name: i for i, name in enumerate(tenants)}
    lane_streams = [index_of[t] for t in roles["lane"]]
    clean_idx = np.asarray([index_of[t] for t in roles["clean"]], dtype=int)
    clean_set = set(int(i) for i in clean_idx)

    # every tenant storms, so every hostile tenant actually falls out
    src = FleetSimSource(
        S,
        attrs,
        seed=2016,
        anomaly_fraction=1.0,
        anomaly_period=25,
        anomaly_duration=16,
        anomaly_scale=14.0,
    )
    rounds = list(src.take(params["rounds"]))

    def drive(sched: FleetScheduler, materialized) -> tuple:
        sigs, errors = [], []
        for times, values, active in materialized:
            try:
                tick = sched.run_round(times, values, active)
            except Exception:
                errors.append(traceback.format_exc(limit=4))
                sigs.append(None)
                continue
            sigs.append(_clean_signature(tick, clean_idx, clean_set, S))
        return sigs, errors

    # --- fault-free twin -------------------------------------------------
    baseline = FleetScheduler(
        FleetDetector(S, attrs, **STORM_KW),
        tenants=tenants,
        sherlock=_seed_sherlock(attrs),
        diagnose_jobs=params["diagnose_jobs"],
        max_pending=64,
        shed_policy="drop_oldest",
        label_metrics=False,
    )
    base_sigs, base_errors = drive(baseline, rounds)
    baseline.drain()
    base_ckpts = {
        int(s): baseline.detector.stream_checkpoint(int(s)) for s in clean_idx
    }
    base_report = baseline.report
    baseline.close()

    # --- faulted fleet ---------------------------------------------------
    durable = roles["corrupt"] + roles["clean"][:3]
    lane_fault = LaneExceptionFault(lane_streams, after_fallouts=1)
    hang = DiagnosisHang(roles["hang"], hang_s=profile.hang_s)
    with tempfile.TemporaryDirectory(prefix="fleet-chaos-") as tmp:
        root = Path(tmp)
        sched = FleetScheduler(
            FleetDetector(S, attrs, **STORM_KW),
            tenants=tenants,
            sherlock=hang.wrap(_seed_sherlock(attrs)),
            root_dir=root,
            durable=durable,
            diagnose_jobs=params["diagnose_jobs"],
            max_pending=64,
            shed_policy="drop_oldest",
            label_metrics=False,
        )
        sched.detector.install_lane_fault(lane_fault)
        t0 = time.perf_counter()
        fault_sigs, fault_errors = drive(sched, rounds)
        sched.drain()
        chaos_s = time.perf_counter() - t0

        # Zero uncaught exceptions may escape run_round — on either run.
        assert not base_errors, f"fault-free run raised:\n{base_errors[0]}"
        assert not fault_errors, (
            f"chaos escaped run_round ({len(fault_errors)} raised):\n"
            f"{fault_errors[0]}"
        )
        # Every clean tenant's tick outputs and verdicts are bitwise
        # equal to the fault-free run's, tick by tick.
        assert len(fault_sigs) == len(base_sigs)
        for tick_no, (fs, bs) in enumerate(zip(fault_sigs, base_sigs)):
            _assert_signatures_equal(fs, bs, tick_no)
        for s in clean_idx:
            assert (
                sched.detector.stream_checkpoint(int(s)) == base_ckpts[int(s)]
            ), f"stream {int(s)}: clean checkpoint diverges under chaos"

        # The bulkhead poisoned exactly the raising lanes, nothing else.
        poisoned = {int(s) for s in np.nonzero(sched.detector.poisoned)[0]}
        assert poisoned == set(lane_streams), (
            f"poisoned lanes {sorted(poisoned)} != "
            f"faulted lanes {sorted(lane_streams)}"
        )
        for t in roles["lane"]:
            assert sched.health.state(t) == "quarantined", t
        for t in roles["clean"]:
            assert sched.health.state(t) == "healthy", t

        # Conservation: every closed region was diagnosed, shed, or
        # failed terminally — hostile tenants cannot make work vanish.
        report = sched.report
        conserved = (
            report.diagnoses + report.shed + report.diagnosis_failures
            == report.closed_regions
        )
        assert conserved, (
            f"{report.diagnoses} diagnosed + {report.shed} shed + "
            f"{report.diagnosis_failures} failed != "
            f"{report.closed_regions} closed"
        )

        # A fixed lane is readmitted and resumes producing verdicts.
        readmit_tenant = roles["lane"][0]
        lane_fault.active = False
        sched.readmit(readmit_tenant)
        for times, values, active in src.take(params["readmit_rounds"]):
            sched.run_round(times, values, active)
        s_readmit = index_of[readmit_tenant]
        assert not bool(sched.detector.poisoned[s_readmit])
        assert sched.health.state(readmit_tenant) == "healthy"

        # Durability: checkpoint, keep ticking so the WAL has a tail,
        # rot one tenant's checkpoint on disk, then partially recover.
        sched.checkpoint()
        for times, values, active in src.take(params["extra_rounds"]):
            sched.run_round(times, values, active)
        sched.drain()
        ref_ckpts = {
            name: sched.detector.stream_checkpoint(index_of[name])
            for name in durable
        }
        sched.close()

        corrupted = CorruptTenantState(roles["corrupt"], mode="checkpoint")
        assert corrupted.apply(root) == roles["corrupt"]
        recovered = FleetScheduler.recover(root, durable, label_metrics=False)
        rec_report = recovered.recovery_report
        assert rec_report is not None
        assert rec_report.corrupt == roles["corrupt"], (
            f"recovery blamed {rec_report.corrupt}, "
            f"expected exactly {roles['corrupt']}"
        )
        survivors = [t for t in durable if t not in roles["corrupt"]]
        assert rec_report.recovered == survivors
        replayed = 0
        for i, name in enumerate(durable):
            outcome = rec_report.outcome(name)
            if name in roles["corrupt"]:
                assert recovered.health.state(name) == "quarantined"
                continue
            assert outcome.replayed_ticks > 0, (
                f"{name}: WAL tail was not replayed"
            )
            replayed += outcome.replayed_ticks
            assert (
                recovered.detector.stream_checkpoint(i) == ref_ckpts[name]
            ), f"{name}: recovered checkpoint diverges"
        recovered.close()

    return {
        "n_tenants": S,
        "rounds": params["rounds"],
        "profile": profile.name,
        "tenants_faulted": len(roles["lane"])
        + len(roles["hang"])
        + len(roles["corrupt"]),
        "lane_tenants": len(roles["lane"]),
        "hang_tenants": len(roles["hang"]),
        "corrupt_tenants": roles["corrupt"],
        "clean_tenants": len(roles["clean"]),
        "chaos_wall_s": round(chaos_s, 3),
        "uncaught_exceptions": len(fault_errors),
        "diagnosis_hangs": hang.hangs,
        "lanes_poisoned": len(poisoned),
        "clean_bitwise_equal": True,  # the assertions above would have raised
        "conservation_holds": bool(conserved),
        "lane_readmitted": readmit_tenant,
        "closed_regions": report.closed_regions,
        "diagnoses": report.diagnoses,
        "shed": report.shed,
        "diagnosis_failures": report.diagnosis_failures,
        "recovery": rec_report.to_dict(),
        "replayed_ticks": replayed,
    }


def run_breaker_drill() -> dict:
    """Deadline tiers + circuit breaker on a controlled diagnosis replay.

    Fixed-size at every scale: the drill is about state transitions, not
    throughput.  Hanging tenants are submitted as tenant-pure batches so
    every breaker verdict is attributable.
    """
    attrs = [f"m{j}" for j in range(6)]
    clean = [f"c{i}" for i in range(4)]
    hostile = [f"h{i}" for i in range(3)]
    tenants = clean + hostile
    soft_s, hard_s, hang_s = 0.2, 0.4, 0.5
    rows, lo, hi = 60, 20, 35
    rng = np.random.default_rng(29)

    def job_dataset(tenant: str, j: int) -> Dataset:
        cols = {}
        for i, a in enumerate(attrs):
            base = rng.normal(50.0 + 3 * i, 2.0, size=rows)
            base[lo : hi + 1] += 14.0
            cols[a] = base
        return Dataset(
            np.arange(rows, dtype=np.float64),
            numeric=cols,
            name=f"fleet:{tenant}",
        )

    region = Region(float(lo), float(hi))
    hang = DiagnosisHang(hostile, hang_s=hang_s)
    # pp_threshold 0.9: the quiet rounds that age the breaker cooldown
    # must not fall out and enqueue their own diagnoses
    detector = FleetDetector(
        len(tenants), attrs, capacity=40, window=8, pp_threshold=0.9
    )
    sched = FleetScheduler(
        detector,
        tenants=tenants,
        sherlock=hang.wrap(_seed_sherlock(attrs)),
        diagnose_jobs=2,
        max_pending=1_000_000,
        shed_policy="drop_oldest",
        label_metrics=False,
        soft_deadline_s=soft_s,
        hard_deadline_s=hard_s,
        breaker_threshold=2,
        breaker_cooldown_rounds=3,
    )

    def submit_pair(tenant: str) -> None:
        s = tenants.index(tenant)
        for j in range(2):  # 2 == diagnose_jobs: tenant-pure batches
            sched.submit_diagnosis(s, region, dataset=job_dataset(tenant, j))

    def quiet_rounds(n: int, start: float) -> None:
        Sd = len(tenants)
        for k in range(n):
            times = np.full(Sd, start + k, dtype=np.float64)
            values = rng.normal(50.0, 1.0, size=(Sd, len(attrs)))
            sched.run_round(times, values)

    # Phase 1: clean tenants diagnose normally, no deadline pressure.
    for t in clean:
        submit_pair(t)
    sched.drain()
    assert sched.report.diagnoses == 2 * len(clean)
    assert sched.report.deadline_misses == 0
    assert all(
        sched.health.breakers[t].state == "closed" for t in tenants
    )

    # Phase 2: hostile tenants hang past both tiers.  Soft settles each
    # batch as a degraded cached-models-only ranking; the still-running
    # zombie worker is charged the hard tier when it finally returns,
    # tripping the breaker (threshold 2 = one pure batch).
    for t in hostile:
        submit_pair(t)
    sched.drain()
    # let every zombie worker finish and self-report its hard overrun
    time.sleep(hang_s * 2 * 2 + 0.5)
    report = sched.report
    assert report.breaker_opens == len(hostile), (
        f"breaker opened {report.breaker_opens}x, "
        f"expected once per hostile tenant ({len(hostile)})"
    )
    for t in hostile:
        assert sched.health.breakers[t].state == "open", t
        assert sched.health.state(t) == "ejected", t
    for t in clean:
        assert sched.health.breakers[t].state == "closed", t
        assert sched.health.state(t) == "healthy", t
    assert report.degraded_rankings >= 2 * len(hostile)
    assert report.deadline_misses >= 2 * 2 * len(hostile)  # soft + hard
    degraded_published = report.degraded_rankings

    # Phase 3: clean tenants are untouched by the ejections.
    before = sched.report.diagnoses
    misses_before = sched.report.deadline_misses
    for t in clean:
        submit_pair(t)
    sched.drain()
    assert sched.report.diagnoses - before == 2 * len(clean)
    assert sched.report.deadline_misses == misses_before

    # Phase 4: an open breaker sheds instead of diagnosing.
    shed_before = sched.report.shed
    sched.submit_diagnosis(
        tenants.index(hostile[0]), region, dataset=job_dataset(hostile[0], 9)
    )
    sched.drain()
    assert sched.report.shed == shed_before + 1

    # Phase 5: the tenant recovers; after the cooldown a half-open
    # probe is admitted, succeeds, and readmits it.
    hang.active = False
    quiet_rounds(5, start=1.0)  # cooldown_rounds=3
    sched.submit_diagnosis(
        tenants.index(hostile[0]), region, dataset=job_dataset(hostile[0], 10)
    )
    sched.drain()
    assert sched.report.breaker_readmits == 1
    assert sched.health.breakers[hostile[0]].state == "closed"
    assert sched.health.state(hostile[0]) == "healthy"
    summary = {
        "clean_tenants": len(clean),
        "hostile_tenants": len(hostile),
        "soft_deadline_s": soft_s,
        "hard_deadline_s": hard_s,
        "hang_s": hang_s,
        "breaker_opens": report.breaker_opens,
        "breaker_readmits": sched.report.breaker_readmits,
        "degraded_rankings": degraded_published,
        "deadline_misses": sched.report.deadline_misses,
        "retries": sched.report.retries,
        "shed": sched.report.shed,
        "readmitted_tenant": hostile[0],
        "clean_untouched": True,  # phase 3 assertions would have raised
    }
    sched.close()
    return summary


def run_chaos_bench(scale: str = "bench", write_json: bool = True) -> dict:
    summary = {
        "scale": scale,
        "blast_radius": run_blast_radius(scale),
        "breaker_drill": run_breaker_drill(),
    }
    if write_json:
        out = results_path("BENCH_fleet_chaos.json", scale)
        out.write_text(json.dumps(summary, indent=2) + "\n")
        summary["json"] = str(out)
    return summary


def _report(summary: dict) -> None:
    blast = summary["blast_radius"]
    print(f"\n=== fleet chaos bench ({summary['scale']} scale) ===")
    print(
        f"{blast['n_tenants']} tenants, {blast['rounds']} rounds, "
        f"profile '{blast['profile']}': {blast['tenants_faulted']} hostile "
        f"({blast['lane_tenants']} raising lanes, "
        f"{blast['hang_tenants']} hanging diagnoses, "
        f"{len(blast['corrupt_tenants'])} corrupt durable)"
    )
    print(
        f"blast radius      {blast['lanes_poisoned']} lanes poisoned, "
        f"{blast['clean_tenants']} clean tenants bitwise-equal: "
        f"{blast['clean_bitwise_equal']}, uncaught exceptions: "
        f"{blast['uncaught_exceptions']}"
    )
    print(
        f"conservation      {blast['diagnoses']} diagnosed + "
        f"{blast['shed']} shed + {blast['diagnosis_failures']} failed "
        f"== {blast['closed_regions']} closed: "
        f"{blast['conservation_holds']}"
    )
    rec = blast["recovery"]
    print(
        f"recovery          recovered {len(rec['recovered'])}, corrupt "
        f"{rec['corrupt']}, {blast['replayed_ticks']} WAL ticks replayed"
    )
    drill = summary["breaker_drill"]
    print(
        f"breaker drill     {drill['breaker_opens']} opens "
        f"(threshold 2 @ hard {drill['hard_deadline_s']}s), "
        f"{drill['degraded_rankings']} degraded rankings, "
        f"{drill['breaker_readmits']} readmitted "
        f"({drill['readmitted_tenant']}), clean untouched: "
        f"{drill['clean_untouched']}"
    )


def _check(summary: dict) -> None:
    blast = summary["blast_radius"]
    assert blast["uncaught_exceptions"] == 0
    assert blast["clean_bitwise_equal"]
    assert blast["conservation_holds"]
    assert blast["lanes_poisoned"] == blast["lane_tenants"]
    assert blast["tenants_faulted"] >= 0.15 * blast["n_tenants"]
    assert blast["diagnosis_hangs"] > 0, "hang fault never fired"
    assert blast["recovery"]["corrupt"] == blast["corrupt_tenants"]
    assert blast["replayed_ticks"] > 0
    drill = summary["breaker_drill"]
    assert drill["breaker_opens"] == drill["hostile_tenants"]
    assert drill["breaker_readmits"] == 1
    assert drill["degraded_rankings"] >= 2 * drill["hostile_tenants"]
    assert drill["clean_untouched"]


def test_fleet_chaos(benchmark):
    summary = benchmark.pedantic(
        lambda: run_chaos_bench("tiny", write_json=False),
        rounds=1,
        iterations=1,
    )
    _report(summary)
    _check(summary)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--scale",
        default=os.environ.get("PERF_BENCH_SCALE", "bench"),
        choices=sorted(SCALES),
    )
    cli = parser.parse_args()
    bench_summary = run_chaos_bench(cli.scale)
    _report(bench_summary)
    _check(bench_summary)
    print(f"wrote {bench_summary['json']}")
