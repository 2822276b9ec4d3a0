"""In-memory span tracing around each layer's public entry points.

The benchmark never edits the program: :func:`install` replaces a fixed
list of entry points (class methods and module functions) with timing
wrappers for the duration of a traced run, and :func:`uninstall` puts the
originals back.  Each call becomes one span ``(id, parent, layer, start,
end, self)``; spans nest per thread, so a span's self time is its
duration minus the time its direct child spans cover on that thread.
Spans stay in memory until :meth:`Tracer.dump` writes them out at the end
of the run.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import repro.cluster.dbscan as dbscan_mod
import repro.core.explain as explain_mod
from repro.cluster.dbscan import DBSCAN
from repro.core.anomaly import AnomalyDetector
from repro.core.causal import CausalModelStore
from repro.core.explain import DBSherlock
from repro.core.generator import PredicateGenerator
from repro.fleet.arena import ArenaWindow, FleetArena
from repro.fleet.engine import FleetDetector
from repro.fleet.scheduler import FleetScheduler
from repro.stream.durability import TenantDurability
from repro.stream.wal import TickWAL


def _count_predicates(tracer: "Tracer", result, args, start) -> None:
    tracer.add_count("core.generator.predicates", len(result.predicates))


def _count_models(tracer: "Tracer", result, args, start) -> None:
    tracer.add_count("core.causal.models", len(args[0]))


def _count_fallout(tracer: "Tracer", result, args, start) -> None:
    tracer.add_count("fleet.engine.fallout_streams", len(result.results))


def _record_batch(tracer: "Tracer", result, args, start) -> None:
    """Note when each fleet job's explain_batch started (queue wait)."""
    tracer.add_count("perf.jobs", len(result))
    keys = [
        (dataset.name.partition(":")[2], spec.abnormal[0].start,
         spec.abnormal[0].end)
        for dataset, spec in args[1]
    ]
    with tracer._lock:
        tracer.batch_starts.append((start, keys))


#: ``(layer, owner, attribute, on_result)`` — every entry point the traced
#: run wraps.  The layer name is the per-layer metric prefix.
ENTRY_POINTS: List[Tuple[str, object, str, Optional[Callable]]] = [
    ("core.explain", DBSherlock, "explain", None),
    ("perf.explain_batch", DBSherlock, "explain_batch", _record_batch),
    ("core.generator.generate", PredicateGenerator, "generate",
     _count_predicates),
    # explain() calls the name bound in its own module
    ("core.knowledge.prune", explain_mod, "prune_secondary_symptoms", None),
    ("core.causal.rank", CausalModelStore, "rank", _count_models),
    ("core.causal.add", CausalModelStore, "add", None),
    ("core.anomaly.detect", AnomalyDetector, "detect", None),
    ("cluster.dbscan", DBSCAN, "fit", None),
    # cluster_windows_batch imports this name at call time
    ("cluster.dbscan_batch", dbscan_mod, "dbscan_labels_batch", None),
    ("fleet.scheduler.round", FleetScheduler, "run_round", None),
    ("fleet.engine.tick", FleetDetector, "tick", _count_fallout),
    ("fleet.arena.append", FleetArena, "append", None),
    ("fleet.arena.stats", FleetArena, "stats", None),
    ("data.to_dataset", ArenaWindow, "to_dataset", None),
    ("stream.durability.append", TenantDurability, "append", None),
    ("stream.wal.flush", TickWAL, "flush", None),
]

LAYERS = [layer for layer, _, _, _ in ENTRY_POINTS]


class Tracer:
    """Span sink shared by every wrapper of one traced run."""

    def __init__(self) -> None:
        #: ``(span_id, parent_id, layer, start, end, self_s, thread)``
        self.spans: List[tuple] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: ``(start, [(tenant, region start, region end), ...])`` per
        #: explain_batch call.
        self.batch_starts: List[tuple] = []
        self.recording = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def add_count(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def wrap(self, layer: str, fn: Callable, on_result: Optional[Callable]):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]  # [id, time covered by direct children]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans.append(
                    (span_id, parent, layer, start, end,
                     end - start - frame[1], threading.get_ident())
                )
            if on_result is not None:
                on_result(tracer, result, args, start)
            return result

        traced.__wrapped__ = fn
        return traced

    def layer_metrics(self) -> Dict[str, float]:
        """Per layer: calls, mean ms per call, mean self ms per call."""
        by_layer: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        for _sid, _parent, layer, start, end, self_s, _thread in self.spans:
            by_layer[layer].append((end - start, self_s))
        out: Dict[str, float] = {}
        for layer in LAYERS:
            rows = by_layer.get(layer, [])
            calls = len(rows)
            out[f"{layer}_calls"] = calls
            out[f"{layer}_ms"] = (
                1e3 * sum(r[0] for r in rows) / calls if calls else 0.0
            )
            out[f"{layer}_self_ms"] = (
                1e3 * sum(r[1] for r in rows) / calls if calls else 0.0
            )
        return out

    def self_totals_s(self) -> Dict[str, float]:
        """Total self time per layer, in seconds."""
        totals: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            totals[span[2]] += span[5]
        return dict(totals)

    def dump(self, path) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        t0 = min((s[3] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sid, parent, layer, start, end, self_s, thread in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "layer": layer,
                    "start_ms": (start - t0) * 1e3,
                    "dur_ms": (end - start) * 1e3,
                    "self_ms": self_s * 1e3, "thread": thread,
                }) + "\n")


def install(tracer: Tracer) -> List[Tuple[object, str, object]]:
    """Wrap every entry point; returns what :func:`uninstall` restores."""
    saved = []
    for layer, owner, attr, on_result in ENTRY_POINTS:
        original = (
            owner.__dict__[attr] if isinstance(owner, type)
            else getattr(owner, attr)
        )
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(layer, original, on_result))
    return saved


def uninstall(saved: List[Tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)
