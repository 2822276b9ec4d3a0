"""The durable-tenant protocol: layout, payload, policy, and loader.

A durable tenant (a fleet lane or a supervised stream) owns a directory
holding a write-ahead tick log and a checkpoint store.  Only this module
knows that layout and the checkpoint payload, so a directory written by
:class:`~repro.fleet.scheduler.FleetScheduler` resumes under
:class:`~repro.stream.supervisor.StreamSupervisor`, and back.

* :func:`load_tenant` reads a tenant directory back for recovery.
* :func:`classify_storage_error` sorts an ``OSError`` into the taxonomy
  from docs/ROBUSTNESS.md — ``"full_disk"`` (ENOSPC/EDQUOT: retrying
  immediately is pointless), ``"transient"`` (EIO/EAGAIN/EINTR/
  ETIMEDOUT/EBUSY: worth bounded retries), or ``"fatal"`` (everything
  else: fail fast).
* :class:`TenantDurability` wraps one tenant's WAL + checkpoint store.
  Transient errors are retried with bounded exponential backoff; when
  retries exhaust (or the disk is full, or the error is fatal) the
  tenant drops into **degraded in-memory persistence mode**: appends are
  acknowledged but buffered in a bounded in-memory deque instead of the
  WAL — explicitly *volatile*, surfaced through ``HealthTracker``
  transitions, ``repro_storage_*`` metrics, and the durability column in
  ``fleet status``.  Every ``probe_every`` appends (and before any
  checkpoint attempt) the manager probes the disk by draining the
  buffer back through the WAL; a full drain re-promotes the tenant to
  durable mode automatically.

Buffered ticks are popped only once they are known to be in the log, a
partially written line from a failed append is skipped by WAL replay's
CRC check, and an append whose write landed but whose batch fsync
failed is retried as a *flush* rather than a second append — so the
retry/degrade/probe/re-promote cycle can neither lose an acknowledged
tick silently nor write one twice.
"""

from __future__ import annotations

import errno
import time as _time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, Iterable, List, Mapping, Optional, Union

from repro.faults import fs as _fs
from repro.obs import metrics
from repro.stream.wal import CheckpointStore, RawTick, TickWAL, WALReplayReport
from repro.stream.wal import DEFAULT_FSYNC_EVERY, DEFAULT_SEGMENT_BYTES

__all__ = [
    "CHECKPOINT_FILE",
    "FULL_DISK_ERRNOS",
    "MAX_WAL_BYTES",
    "TRANSIENT_ERRNOS",
    "TenantDurability",
    "TenantLoad",
    "WAL_FILE",
    "classify_storage_error",
    "load_tenant",
]

#: a tenant directory's write-ahead tick log and checkpoint store.
WAL_FILE = "ticks.wal"
CHECKPOINT_FILE = "checkpoint.json"

#: version of the ``{"version", "detector", "processed_until"}`` payload.
PAYLOAD_VERSION = 1

#: retained-WAL cap per tenant, kept by compaction at every checkpoint.
MAX_WAL_BYTES = 8 * 1024 * 1024

#: the disk itself is out of space — retrying immediately is pointless.
FULL_DISK_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT})

#: worth retrying with bounded backoff.
TRANSIENT_ERRNOS = frozenset(
    {errno.EIO, errno.EAGAIN, errno.EINTR, errno.ETIMEDOUT, errno.EBUSY}
)


def classify_storage_error(exc: OSError) -> str:
    """``"full_disk"``, ``"transient"``, or ``"fatal"`` for *exc*."""
    code = getattr(exc, "errno", None)
    if code in FULL_DISK_ERRNOS:
        return "full_disk"
    if code in TRANSIENT_ERRNOS:
        return "transient"
    return "fatal"


_DEGRADED_TRANSITIONS = metrics.REGISTRY.counter(
    "repro_storage_degraded_transitions_total",
    "Tenants dropped into degraded in-memory persistence mode",
)
_REPROMOTIONS = metrics.REGISTRY.counter(
    "repro_storage_repromotions_total",
    "Tenants re-promoted from degraded to durable persistence",
)
_RETRIES = metrics.REGISTRY.counter(
    "repro_storage_retries_total",
    "Transient storage errors absorbed by bounded-backoff retries",
)
_PROBES = metrics.REGISTRY.counter(
    "repro_storage_probes_total",
    "Disk-heal probes attempted by degraded tenants",
)
_VOLATILE_TICKS = metrics.REGISTRY.counter(
    "repro_storage_volatile_ticks_total",
    "Ticks acknowledged into the volatile in-memory buffer while degraded",
)
_VOLATILE_DROPPED = metrics.REGISTRY.counter(
    "repro_storage_volatile_dropped_total",
    "Volatile buffered ticks evicted because the degraded buffer filled",
)
_DEGRADED_TENANTS = metrics.REGISTRY.gauge(
    "repro_storage_degraded_tenants",
    "Tenants currently in degraded in-memory persistence mode",
)
_TENANT_DURABILITY = metrics.REGISTRY.gauge(
    "repro_fleet_tenant_durability",
    "Per-tenant persistence mode (0 durable, 1 degraded)",
    labelnames=("tenant",),
)

#: persistence modes a tenant can be in.
DURABLE = "durable"
DEGRADED = "degraded"


class TenantDurability:
    """Durability policy for one tenant's WAL + checkpoint store.

    Parameters
    ----------
    tenant:
        Name used in transition callbacks and labeled metrics.
    wal, checkpoints:
        The persistence primitives being guarded.
    max_retries:
        Transient-error retries per operation before degrading.
    backoff_s, backoff_factor, max_backoff_s:
        Bounded exponential backoff between retries.
    probe_every:
        While degraded, probe the disk after this many buffered appends.
    max_volatile_ticks:
        Degraded-buffer cap; the oldest buffered tick is evicted (and
        counted in ``repro_storage_volatile_dropped_total``) beyond it.
    sleep:
        Injectable clock for tests (defaults to ``time.sleep``).
    on_transition:
        Called as ``on_transition(mode, reason)`` on every degrade /
        re-promote, letting the scheduler journal health transitions.
    label_metrics:
        When True, exports the per-tenant
        ``repro_fleet_tenant_durability`` gauge (label-cardinality
        opt-in, matching the fleet's other per-tenant families).
    """

    def __init__(
        self,
        tenant: str,
        wal: TickWAL,
        checkpoints: CheckpointStore,
        max_retries: int = 2,
        backoff_s: float = 0.01,
        backoff_factor: float = 2.0,
        max_backoff_s: float = 0.5,
        probe_every: int = 8,
        max_volatile_ticks: int = 4096,
        sleep: Callable[[float], None] = _time.sleep,
        on_transition: Optional[Callable[[str, str], None]] = None,
        label_metrics: bool = False,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if probe_every < 1:
            raise ValueError("probe_every must be at least 1")
        if max_volatile_ticks < 1:
            raise ValueError("max_volatile_ticks must be at least 1")
        self.tenant = tenant
        self.wal = wal
        self.checkpoints = checkpoints
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        self.backoff_factor = float(backoff_factor)
        self.max_backoff_s = float(max_backoff_s)
        self.probe_every = int(probe_every)
        self.max_volatile_ticks = int(max_volatile_ticks)
        self._sleep = sleep
        self._on_transition = on_transition
        self._label_metrics = bool(label_metrics)
        #: current persistence mode: ``"durable"`` or ``"degraded"``.
        self.mode = DURABLE
        #: acknowledged-but-volatile ticks held while degraded.
        self.buffer: Deque[RawTick] = deque()
        #: why the tenant last degraded (classification + errno text).
        self.degraded_reason = ""
        self._since_probe = 0
        #: cumulative counts for reports.
        self.degraded_count = 0
        self.repromoted_count = 0
        self.volatile_dropped = 0
        if self._label_metrics:
            _TENANT_DURABILITY.labels(tenant=tenant).set(0)

    @classmethod
    def open(
        cls,
        tenant_dir: Union[str, Path],
        fsync_every: int = DEFAULT_FSYNC_EVERY,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        **policy,
    ) -> "TenantDurability":
        """The policy over a tenant directory, named after it."""
        tenant_dir = Path(tenant_dir)
        wal = TickWAL(tenant_dir / WAL_FILE, fsync_every, segment_bytes)
        store = CheckpointStore(tenant_dir / CHECKPOINT_FILE)
        return cls(tenant_dir.name, wal, store, **policy)

    # -- mode transitions ----------------------------------------------
    def _degrade(self, reason: str) -> None:
        if self.mode == DEGRADED:
            return
        self.mode = DEGRADED
        self.degraded_reason = reason
        self.degraded_count += 1
        self._since_probe = 0
        _DEGRADED_TRANSITIONS.inc()
        _DEGRADED_TENANTS.inc()
        if self._label_metrics:
            _TENANT_DURABILITY.labels(tenant=self.tenant).set(1)
        if self._on_transition is not None:
            self._on_transition(DEGRADED, reason)

    def _promote(self) -> None:
        if self.mode == DURABLE:
            return
        self.mode = DURABLE
        self.degraded_reason = ""
        self.repromoted_count += 1
        _REPROMOTIONS.inc()
        _DEGRADED_TENANTS.dec()
        if self._label_metrics:
            _TENANT_DURABILITY.labels(tenant=self.tenant).set(0)
        if self._on_transition is not None:
            self._on_transition(DURABLE, "disk healed")

    # -- retry machinery -----------------------------------------------
    def _with_retries(self, op: Callable[[], None]) -> None:
        """Run *op*, absorbing up to ``max_retries`` transient failures.

        Re-raises the final ``OSError`` when retries exhaust, the disk
        is full, or the error is fatal — the caller decides to degrade.
        """
        delay = self.backoff_s
        for attempt in range(self.max_retries + 1):
            try:
                op()
                return
            except OSError as exc:
                _fs.count_write_error()
                kind = classify_storage_error(exc)
                if kind != "transient" or attempt == self.max_retries:
                    raise
                _RETRIES.inc()
                if delay > 0:
                    self._sleep(min(delay, self.max_backoff_s))
                delay *= self.backoff_factor

    # -- the persistence API the scheduler calls ------------------------
    def append(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]] = None,
    ) -> bool:
        """Persist one tick; True when it reached the WAL (durable path).

        While degraded the tick is acknowledged into the bounded
        volatile buffer and False is returned; every ``probe_every``
        buffered appends the disk is probed and, if it drains, this very
        tick lands durably after all.
        """
        if self.mode == DEGRADED:
            self._buffer_tick(time, numeric_row, categorical_row)
            self._since_probe += 1
            if self._since_probe >= self.probe_every:
                self._since_probe = 0
                self._probe()
            return self.mode == DURABLE
        # ``wal.appended`` advances exactly when a record's write lands,
        # so a failed append whose counter moved means only the batch
        # fsync failed: the retry (and any later probe) must flush, not
        # re-append — the log never holds the tick twice.
        before = self.wal.appended

        def _append_once() -> None:
            if self.wal.appended == before:
                self.wal.append(time, numeric_row, categorical_row)
            else:
                self.wal.flush()

        try:
            self._with_retries(_append_once)
            return True
        except OSError as exc:
            self._degrade(f"{classify_storage_error(exc)}: {exc}")
            if self.wal.appended == before:
                self._buffer_tick(time, numeric_row, categorical_row)
            return False

    def save_checkpoint(self, payload: Mapping[str, object]) -> bool:
        """Persist a checkpoint; True only when it durably landed.

        A degraded tenant probes the disk first — a checkpoint attempt
        is exactly the moment a healed disk should be noticed — and
        declines (returns False) while still degraded, so callers never
        mistake a volatile epoch for a durable one.
        """
        if self.mode == DEGRADED:
            self._probe()
            if self.mode == DEGRADED:
                return False
        try:
            self._with_retries(lambda: self.checkpoints.save(payload))
            return True
        except OSError as exc:
            self._degrade(f"{classify_storage_error(exc)}: {exc}")
            return False

    def checkpoint(
        self,
        state: Mapping[str, object],
        processed_until: Optional[float],
        *,
        mark: bool = True,
        max_bytes: int = MAX_WAL_BYTES,
    ) -> bool:
        """Save *state* (covering ticks up to *processed_until*), then
        :meth:`retire_wal`; True when the checkpoint durably landed."""
        saved = self.save_checkpoint(
            {
                "version": PAYLOAD_VERSION,
                "detector": state,
                "processed_until": processed_until,
            }
        )
        if saved:
            self.retire_wal(mark=mark, max_bytes=max_bytes)
        return saved

    def retire_wal(self, *, mark: bool, max_bytes: int) -> bool:
        """Advance WAL retention after a checkpoint; never raises.

        Retention is maintenance, not an acknowledged durability
        promise: a rotation fsync that keeps failing past its transient
        retries simply leaves the mark where it was — everything on
        disk stays replayable and the next checkpoint tries again — so
        the tenant is not degraded over it.  Compaction runs regardless
        of the mark's fate: a sick disk must not also become an
        unbounded one.  Returns True when both steps landed.
        """
        ok = True
        if mark:
            try:
                self._with_retries(self.wal.mark_checkpoint)
            except OSError:
                ok = False
        try:
            self.wal.compact(max_bytes)
        except OSError:
            _fs.count_write_error()
            ok = False
        return ok

    # -- degraded-mode internals ----------------------------------------
    def _buffer_tick(
        self,
        time: float,
        numeric_row: Mapping[str, float],
        categorical_row: Optional[Mapping[str, str]],
    ) -> None:
        self.buffer.append(
            (
                float(time),
                {a: float(v) for a, v in numeric_row.items()},
                {a: str(v) for a, v in (categorical_row or {}).items()},
            )
        )
        _VOLATILE_TICKS.inc()
        if len(self.buffer) > self.max_volatile_ticks:
            self.buffer.popleft()
            self.volatile_dropped += 1
            _VOLATILE_DROPPED.inc()

    def _probe(self) -> bool:
        """Try draining the volatile buffer to disk; True on re-promote.

        Each buffered tick is popped only after its append succeeds —
        a mid-drain failure leaves the remainder buffered, and the
        half-written line it may have left behind fails its CRC on
        replay, so a later retry cannot duplicate the tick.
        """
        _PROBES.inc()
        try:
            while self.buffer:
                t, num, cat = self.buffer[0]
                before = self.wal.appended
                try:
                    self.wal.append(t, num, cat)
                except OSError:
                    if self.wal.appended > before:
                        # the write landed, only its fsync failed: the
                        # tick is in the log, so a later probe must not
                        # append it again
                        self.buffer.popleft()
                    raise
                self.buffer.popleft()
            self.wal.flush()
        except OSError:
            _fs.count_write_error()
            return False
        self._promote()
        return True

    def ticks_after(self, until: Optional[float]) -> List[RawTick]:
        """Acknowledged ticks after *until*: the WAL's, then the buffer's."""
        return _after(self.wal.replay(), until) + _after(self.buffer, until)

    def flush_volatile(self) -> int:
        """Final drain attempt (for close); returns ticks still stranded."""
        if self.buffer:
            self._probe()
        return len(self.buffer)

    def close(self) -> None:
        """Final drain attempt, then release the WAL handle."""
        self.flush_volatile()
        self.wal.close()


def _after(ticks: Iterable[RawTick], until: Optional[float]) -> List[RawTick]:
    """The ticks strictly after the *until* watermark (all when None)."""
    return [tick for tick in ticks if until is None or tick[0] > until]


@dataclass
class TenantLoad:
    """A tenant directory read back for recovery (:func:`load_tenant`)."""

    #: ``"ok"``, ``"missing"`` (no checkpoint on disk) or ``"corrupt"``,
    #: and why (for ``"ok"``: the WAL records replay had to skip, if any).
    status: str
    detail: str = ""
    #: the validated detector checkpoint and the time of the last tick
    #: it covers (``None`` unless ``"ok"``).
    detector: Optional[Dict[str, object]] = None
    watermark: Optional[float] = None
    #: logged ticks after that watermark (all of them when missing).
    ticks: List[RawTick] = field(default_factory=list)
    wal_report: Optional[WALReplayReport] = None


def load_tenant(tenant_dir: Union[str, Path]) -> TenantLoad:
    """Read a durable tenant directory back for recovery.

    The checkpoint store falls back a generation on its own; a checkpoint
    that is still unreadable, or whose payload is not a version-1
    detector checkpoint, makes the tenant ``"corrupt"``, as does a WAL
    whose replay raises.  Corrupt WAL *records* are skipped by replay
    and named in the detail of an ``"ok"`` load.
    """
    from repro.fleet.engine import FleetDetector  # repro.fleet imports us

    tenant_dir = Path(tenant_dir)
    ckpt_path = tenant_dir / CHECKPOINT_FILE
    stored = CheckpointStore(ckpt_path).load()
    load = TenantLoad("ok")
    if stored is None:
        # load() returns None for absent and unreadable payloads alike
        status = "corrupt" if ckpt_path.exists() else "missing"
        load = TenantLoad(status, f"checkpoint {status} at {ckpt_path}")
        if status == "corrupt":
            return load
    else:
        state, until = stored.get("detector"), stored.get("processed_until")
        if (
            stored.get("version") != PAYLOAD_VERSION
            or not isinstance(state, dict)
            or state.get("version") != FleetDetector.CHECKPOINT_VERSION
        ):
            return TenantLoad("corrupt", "malformed checkpoint payload")
        load.detector = state
        load.watermark = None if until is None else float(until)
    wal = TickWAL(tenant_dir / WAL_FILE)
    try:
        ticks, report = wal.replay_report()
    except Exception as exc:
        return TenantLoad("corrupt", f"WAL replay failed: {exc}")
    finally:
        wal.close()
    load.ticks = _after(ticks, load.watermark)
    load.wal_report = report
    if load.status == "ok" and (
        report.corrupt_records or report.corrupt_segments
    ):
        load.detail = (
            f"wal corruption: {report.corrupt_records} records / "
            f"{report.corrupt_segments} segments skipped"
        )
    return load
