"""Chaos evaluation: diagnosis accuracy under degraded telemetry.

The paper's protocols assume clean, gap-free telemetry.  Real collection
is not: samples drop, probes die and flat-line, cells arrive as NaN,
clocks skew, and collector upgrades rename or drop whole attributes.
This harness replays the anomaly scenario suite under graded *fault
profiles* — composable :mod:`repro.faults` plans applied to the test
datasets only (causal models are always built from clean training runs,
as an operator's model library would be) — and reports how correct-cause
confidence margins and top-1 accuracy degrade.  Ranking always goes
through a :class:`~repro.schema.reconcile.SchemaReconciler`: a no-op on
unchanged schemas, and the recovery mechanism under the ``drift``
profile's :class:`~repro.faults.SchemaDrift`.

The headline robustness claim (asserted by ``benchmarks/bench_chaos.py``):
under the *moderate* profile every scenario completes end-to-end with no
exceptions, and the mean confidence margin degrades by a bounded amount.
"""

from __future__ import annotations

import traceback
from dataclasses import asdict, dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.eval.harness import (
    AnomalyDataset,
    build_model,
    build_suite,
    rank_models,
    SINGLE_MODEL_THETA,
)
from repro.eval.metrics import margin_of_confidence, topk_contains
from repro.faults import (
    ClockSkew,
    DropTicks,
    DuplicateTicks,
    FaultInjector,
    FaultPlan,
    FlakyIO,
    FSFault,
    FullDisk,
    NaNValues,
    ReadCorruption,
    SchemaDrift,
    SlowFsync,
    SpikeCorruption,
    StuckAtCounter,
    TornRename,
)
from repro.schema.reconcile import SchemaReconciler

__all__ = [
    "FaultProfile",
    "PROFILES",
    "FleetFaultProfile",
    "FLEET_PROFILES",
    "StorageFaultProfile",
    "STORAGE_PROFILES",
    "run_chaos_suite",
]


@dataclass(frozen=True)
class FaultProfile:
    """A named, graded bundle of collection faults.

    Rates are per-tick (drop/duplicate) or per-cell (nan/spike)
    probabilities; ``stuck_attrs`` counts randomly chosen attributes
    frozen at their onset value.  :meth:`plan` compiles the profile into
    a deterministic :class:`~repro.faults.FaultPlan` for a given seed.
    """

    name: str
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    nan_rate: float = 0.0
    stuck_attrs: int = 0
    spike_rate: float = 0.0
    clock_offset_s: float = 0.0
    clock_drift: float = 0.0
    #: schema drift (collector upgrade): per-attribute rename/drop
    #: probabilities and junk columns appended.
    rename_rate: float = 0.0
    schema_drop_rate: float = 0.0
    add_junk: int = 0

    def plan(self, seed: int) -> FaultPlan:
        """Compile into a seeded fault plan (identical plan per seed)."""
        injectors: List[FaultInjector] = []
        if self.clock_offset_s or self.clock_drift:
            injectors.append(
                ClockSkew(offset_s=self.clock_offset_s, drift=self.clock_drift)
            )
        if self.drop_rate:
            injectors.append(DropTicks(self.drop_rate))
        if self.duplicate_rate:
            injectors.append(DuplicateTicks(self.duplicate_rate))
        if self.nan_rate:
            injectors.append(NaNValues(self.nan_rate))
        if self.spike_rate:
            injectors.append(SpikeCorruption(self.spike_rate))
        for _ in range(self.stuck_attrs):
            injectors.append(StuckAtCounter())
        if self.rename_rate or self.schema_drop_rate or self.add_junk:
            # last, so the drifted names are what every earlier fault's
            # survivors get published under
            injectors.append(
                SchemaDrift(
                    rename_rate=self.rename_rate,
                    drop_rate=self.schema_drop_rate,
                    add_junk=self.add_junk,
                )
            )
        return FaultPlan(injectors, seed=seed)


#: The graded profile ladder.  ``moderate`` is the acceptance profile:
#: 5 % dropped ticks, 2 % NaN cells, one stuck-at attribute.
PROFILES: Dict[str, FaultProfile] = {
    "clean": FaultProfile(name="clean"),
    "light": FaultProfile(name="light", drop_rate=0.01, nan_rate=0.005),
    "moderate": FaultProfile(
        name="moderate", drop_rate=0.05, nan_rate=0.02, stuck_attrs=1
    ),
    "heavy": FaultProfile(
        name="heavy",
        drop_rate=0.15,
        duplicate_rate=0.05,
        nan_rate=0.08,
        stuck_attrs=3,
        spike_rate=0.01,
        clock_offset_s=2.0,
        clock_drift=0.001,
    ),
    # collector upgrade: ~a third of the numeric attributes renamed, a
    # few dropped, junk columns appended — recovered by schema
    # reconciliation, not by the telemetry repair path.
    "drift": FaultProfile(
        name="drift", rename_rate=0.35, schema_drop_rate=0.02, add_junk=3
    ),
}


@dataclass(frozen=True)
class FleetFaultProfile:
    """A tenant-targeted fault bundle for fleet chaos runs.

    Unlike :class:`FaultProfile`, which corrupts *telemetry*, this
    profile picks hostile *tenants*: a deterministic
    ``tenant_fraction`` slice of the fleet is partitioned into lanes
    that raise mid-detection (:class:`~repro.faults.LaneExceptionFault`),
    tenants whose diagnoses hang past the scheduler's deadlines
    (:class:`~repro.faults.DiagnosisHang`), and tenants whose durable
    state rots on disk between shutdown and recovery
    (:class:`~repro.faults.CorruptTenantState`).  Everything outside the
    slice must be bitwise-unaffected — that blast-radius bound is what
    ``benchmarks/bench_fleet_chaos.py`` asserts.
    """

    name: str
    #: fraction of the fleet that is faulted at all.
    tenant_fraction: float = 0.2
    #: share of the faulted slice whose detection lane raises; the
    #: remainder (minus the corrupt tenants) hangs in diagnosis.
    lane_share: float = 0.5
    #: how long a hanging tenant's explain sleeps, seconds.
    hang_s: float = 0.3
    #: tenants whose on-disk state is corrupted before recovery.
    corrupt_tenants: int = 1
    #: corruption flavour — see ``CorruptTenantState.MODES``.
    corrupt_mode: str = "checkpoint"

    def assign(self, tenants: Sequence[str], seed: int) -> Dict[str, List[str]]:
        """Deterministically partition ``tenants`` into fault roles.

        Returns ``{"lane": [...], "hang": [...], "corrupt": [...],
        "clean": [...]}`` — disjoint, covering every tenant, and
        identical for identical ``(tenants, seed)``.  Corrupt tenants
        are drawn from the faulted slice first so the total blast
        radius never exceeds ``tenant_fraction``.
        """
        names = list(tenants)
        n_fault = int(round(len(names) * self.tenant_fraction))
        n_fault = max(0, min(len(names), n_fault))
        rng = np.random.default_rng(seed)
        picked = sorted(
            rng.choice(len(names), size=n_fault, replace=False).tolist()
        )
        faulted = [names[i] for i in picked]
        n_corrupt = min(self.corrupt_tenants, len(faulted))
        corrupt = faulted[:n_corrupt]
        rest = faulted[n_corrupt:]
        n_lane = int(round(len(rest) * self.lane_share))
        lane = rest[:n_lane]
        hang = rest[n_lane:]
        faulted_set = set(faulted)
        clean = [n for n in names if n not in faulted_set]
        return {"lane": lane, "hang": hang, "corrupt": corrupt, "clean": clean}


#: Fleet chaos ladder.  ``storm`` is the acceptance profile: 20 % of
#: tenants faulted, split between raising lanes and hanging diagnoses,
#: with one durably corrupted tenant.
FLEET_PROFILES: Dict[str, FleetFaultProfile] = {
    "calm": FleetFaultProfile(
        name="calm", tenant_fraction=0.05, corrupt_tenants=0
    ),
    "storm": FleetFaultProfile(name="storm", tenant_fraction=0.2),
    "monsoon": FleetFaultProfile(
        name="monsoon", tenant_fraction=0.4, corrupt_tenants=2, hang_s=0.5
    ),
}


@dataclass(frozen=True)
class StorageFaultProfile:
    """A tenant-targeted *disk* fault bundle for storage chaos runs.

    Where :class:`FleetFaultProfile` corrupts computation (lanes,
    diagnoses), this profile makes the filesystem misbehave underneath
    a slice of the fleet: full disks (ENOSPC), flaky transient EIO,
    torn atomic renames, and read corruption, built from the
    :mod:`repro.faults.fs` injectors.  Fault path filters target each
    victim tenant's ``ticks.wal`` and ``checkpoint.json`` specifically
    — never ``health.log`` — so the health journal keeps recording the
    degraded/re-promoted transitions the storage faults cause (the
    invariant ``benchmarks/bench_storage_chaos.py`` asserts).
    """

    name: str
    #: fraction of the fleet whose disk misbehaves at all.
    tenant_fraction: float = 0.25
    #: tenants whose disk fills (ENOSPC) after a few good writes.
    full_disk_tenants: int = 1
    #: tenants whose next checkpoint replace tears.
    torn_rename_tenants: int = 1
    #: tenants whose reads come back rotted.
    read_corrupt_tenants: int = 1
    #: per-op transient-EIO rate for the remaining faulted tenants.
    flaky_rate: float = 0.05
    #: fsync latency injection for flaky tenants (0 disables).
    slow_fsync_s: float = 0.0
    #: writes a full-disk tenant gets before the disk fills.
    full_disk_after_writes: int = 24

    def assign(self, tenants: Sequence[str], seed: int) -> Dict[str, List[str]]:
        """Deterministically partition ``tenants`` into disk-fault roles.

        Returns ``{"full_disk": [...], "torn": [...], "read_corrupt":
        [...], "flaky": [...], "clean": [...]}`` — disjoint, covering
        every tenant, identical for identical ``(tenants, seed)``.
        """
        names = list(tenants)
        n_fault = int(round(len(names) * self.tenant_fraction))
        n_fault = max(0, min(len(names), n_fault))
        rng = np.random.default_rng(seed)
        picked = sorted(
            rng.choice(len(names), size=n_fault, replace=False).tolist()
        )
        faulted = [names[i] for i in picked]
        roles: Dict[str, List[str]] = {
            "full_disk": [],
            "torn": [],
            "read_corrupt": [],
            "flaky": [],
        }
        quota = [
            ("full_disk", self.full_disk_tenants),
            ("torn", self.torn_rename_tenants),
            ("read_corrupt", self.read_corrupt_tenants),
        ]
        rest = list(faulted)
        for role, count in quota:
            take = min(count, len(rest))
            roles[role] = rest[:take]
            rest = rest[take:]
        roles["flaky"] = rest
        faulted_set = set(faulted)
        roles["clean"] = [n for n in names if n not in faulted_set]
        return roles

    def build(
        self,
        root_dir,
        roles: Mapping[str, Sequence[str]],
        seed: int,
    ) -> List[FSFault]:
        """Instantiate the storage faults for an assigned role partition.

        ``root_dir`` is the fleet's durability root; each fault's path
        filter lists the victim tenant's WAL directory and checkpoint
        paths (current + previous generation + temp), leaving the
        health journal untouched.
        """
        from pathlib import Path

        from repro.stream.durability import CHECKPOINT_FILE, WAL_FILE

        root = Path(root_dir)

        def targets(tenant: str) -> List[str]:
            return [
                str(root / tenant / WAL_FILE),
                str(root / tenant / CHECKPOINT_FILE),
            ]

        faults: List[FSFault] = []
        for tenant in roles.get("full_disk", ()):
            faults.append(
                FullDisk(
                    path_filter=targets(tenant),
                    after_writes=self.full_disk_after_writes,
                )
            )
        for i, tenant in enumerate(roles.get("torn", ())):
            faults.append(
                TornRename(path_filter=targets(tenant), nth=3 + i)
            )
        for i, tenant in enumerate(roles.get("read_corrupt", ())):
            faults.append(
                ReadCorruption(
                    mode="bitflip" if i % 2 == 0 else "truncate",
                    rate=1.0,
                    seed=seed * 31 + i,
                    path_filter=targets(tenant),
                )
            )
        for i, tenant in enumerate(roles.get("flaky", ())):
            if self.flaky_rate:
                faults.append(
                    FlakyIO(
                        rate=self.flaky_rate,
                        seed=seed * 97 + i,
                        path_filter=targets(tenant),
                    )
                )
            if self.slow_fsync_s:
                faults.append(
                    SlowFsync(
                        self.slow_fsync_s, path_filter=targets(tenant)
                    )
                )
        return faults


#: Storage chaos ladder.  ``thrash`` is the acceptance profile: a
#: quarter of the fleet on misbehaving disks — one filling up, one
#: tearing renames, one rotting reads, the rest flaky — all healable.
STORAGE_PROFILES: Dict[str, StorageFaultProfile] = {
    "scratch": StorageFaultProfile(
        name="scratch",
        tenant_fraction=0.1,
        torn_rename_tenants=0,
        read_corrupt_tenants=0,
        flaky_rate=0.02,
    ),
    "thrash": StorageFaultProfile(name="thrash"),
    "grind": StorageFaultProfile(
        name="grind",
        tenant_fraction=0.5,
        full_disk_tenants=2,
        torn_rename_tenants=2,
        read_corrupt_tenants=2,
        flaky_rate=0.1,
        slow_fsync_s=0.001,
    ),
}


@dataclass
class _ScenarioOutcome:
    """Per (profile, cause) result."""

    margin: Optional[float] = None
    top1: Optional[bool] = None
    error: Optional[str] = None


def run_chaos_suite(
    workload: str = "tpcc",
    durations: Sequence[int] = (40, 60),
    anomaly_keys: Optional[Sequence[str]] = None,
    seed: int = 0,
    normal_s: int = 90,
    profiles: Optional[Dict[str, FaultProfile]] = None,
    theta: float = SINGLE_MODEL_THETA,
    jobs: Optional[int] = None,
) -> dict:
    """Replay the scenario suite under every fault profile.

    Per cause, the first-duration run trains a (clean) causal model and
    the second-duration run is the test anomaly; each profile corrupts
    the test dataset (and maps its region spec through any time-warping
    injectors) before the full ranking pipeline runs.  Exceptions are
    caught per scenario and recorded — a robust pipeline reports zero.

    Returns a JSON-able report with per-profile mean margin, top-1
    accuracy, error counts, and deltas against the clean profile.
    """
    if len(durations) < 2:
        raise ValueError("need a train duration and a test duration")
    profiles = dict(profiles) if profiles is not None else dict(PROFILES)
    suite = build_suite(
        workload=workload,
        durations=list(durations)[:2],
        anomaly_keys=anomaly_keys,
        seed=seed,
        normal_s=normal_s,
        jobs=jobs,
    )
    causes = list(suite)
    models = [build_model(suite[c][0], theta=theta) for c in causes]
    # one reconciler for the whole sweep: on clean schemas every model
    # attribute exact-matches, so the ranking is identical to the
    # unreconciled path; under the drift profile it maps renamed
    # attributes back via the persisted fingerprints
    reconciler = SchemaReconciler()

    outcomes: Dict[str, Dict[str, _ScenarioOutcome]] = {}
    for p_idx, (p_name, profile) in enumerate(profiles.items()):
        per_cause: Dict[str, _ScenarioOutcome] = {}
        for c_idx, cause in enumerate(causes):
            test: AnomalyDataset = suite[cause][1]
            outcome = _ScenarioOutcome()
            try:
                plan = profile.plan(seed=seed * 1009 + p_idx * 101 + c_idx)
                dataset = plan.apply(test.dataset)
                spec = plan.transform_spec(test.spec)
                scores = rank_models(
                    models, dataset, spec, reconciler=reconciler
                )
                outcome.margin = float(margin_of_confidence(scores, cause))
                outcome.top1 = bool(topk_contains(scores, cause, 1))
            except Exception:
                outcome.error = traceback.format_exc(limit=3)
            per_cause[cause] = outcome
        outcomes[p_name] = per_cause

    report: dict = {
        "workload": workload,
        "causes": causes,
        "train_duration_s": int(durations[0]),
        "test_duration_s": int(durations[1]),
        "normal_s": int(normal_s),
        "theta": float(theta),
        "seed": int(seed),
        "profiles": {},
    }
    clean_margin: Optional[float] = None
    clean_top1: Optional[float] = None
    for p_name, per_cause in outcomes.items():
        ok = [o for o in per_cause.values() if o.error is None]
        margins = [o.margin for o in ok if o.margin is not None]
        top1s = [o.top1 for o in ok if o.top1 is not None]
        mean_margin = float(np.mean(margins)) if margins else 0.0
        top1_accuracy = float(np.mean(top1s)) if top1s else 0.0
        entry = {
            "profile": asdict(profiles[p_name]),
            "mean_margin": round(mean_margin, 4),
            "top1_accuracy": round(top1_accuracy, 4),
            "errors": sum(1 for o in per_cause.values() if o.error is not None),
            "error_details": {
                cause: o.error
                for cause, o in per_cause.items()
                if o.error is not None
            },
            "per_cause": {
                cause: {
                    "margin": None if o.margin is None else round(o.margin, 4),
                    "top1": o.top1,
                }
                for cause, o in per_cause.items()
            },
        }
        if p_name == "clean":
            clean_margin = mean_margin
            clean_top1 = top1_accuracy
        if clean_margin is not None:
            entry["margin_delta_vs_clean"] = round(
                mean_margin - clean_margin, 4
            )
            entry["top1_delta_vs_clean"] = round(
                top1_accuracy - clean_top1, 4
            )
        report["profiles"][p_name] = entry
    return report
