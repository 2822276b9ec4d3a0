"""LabeledSpaceCache: the shared partition-space representation.

Ranking K causal models over one anomaly (Equation 3) labels the same
dataset columns into the same partitions once per predicate occurrence —
O(models x predicates) redundant discretizations.  This cache memoizes,
per ``(dataset, region-spec, attribute, n_partitions)``:

* the partition space (numeric or categorical),
* the initial partition labels,
* the Section 4.3 filtered labels (lazily, on first request),
* the Section 4.4 gap-filled labels and Abnormal blocks (lazily, per δ),
* the partition representatives (midpoints / category values, lazily),

plus, keyed per ``(dataset, region-spec)``, the abnormal/normal row masks
and, per ``(dataset, region-spec, attribute)``, the normalized region
means used by the θ gate — so the predicate generator and confidence
scoring share one labeling of each attribute.

Keying and invalidation
-----------------------
Datasets are keyed by identity (``id``) and held via ``weakref`` so that
entries are evicted automatically when a dataset is garbage-collected;
region specs are keyed *structurally* (their interval bounds), so two
equal specs share entries.  Datasets are treated as immutable — call
:meth:`LabeledSpaceCache.invalidate` after mutating one in place.  Cached
label arrays are shared with callers and must not be written to.

Concurrency
-----------
The tables are split across ``n_shards`` lock-striped shards keyed by
the hash of the full entry key, so concurrent diagnosis workers
(:mod:`repro.fleet.scheduler` at ``diagnose_jobs > 1``) contend only
when they touch the same shard.  The *hit* path takes no lock at all: a
shard's tables are plain dicts read with one atomic ``dict.get``, and
every published value is immutable-by-convention, so a reader either
sees the complete entry or misses.  Writers compute off-lock, then
check-then-publish under the shard lock (first writer wins; losers
return the winner's entry so sharing semantics are preserved).

Weakref eviction is *deferred*: a dataset's GC callback — which CPython
may fire at any bytecode boundary, including while this very thread is
inside a shard lock — only appends the dead token to a pending list
(``list.append`` is atomic and allocation-free enough for GC context).
The actual table mutation happens at the next cache entry point, under
the proper locks, which is what fixes the historical
``RuntimeError: dictionary changed size during iteration`` from the
callback racing ``stats()`` / ``get()``.  ``hits``/``misses`` are
per-shard best-effort counters: exact when unshared (every existing
test), monotone and at-most-slightly-under under contention.
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics

__all__ = ["LabeledAttribute", "LabeledSpaceCache"]

_UNSET = object()

_CACHE_HITS = metrics.REGISTRY.counter(
    "repro_cache_hits_total", "Labeled-space cache hits"
)
_CACHE_MISSES = metrics.REGISTRY.counter(
    "repro_cache_misses_total", "Labeled-space cache misses"
)
_CACHE_EVICTIONS = metrics.REGISTRY.counter(
    "repro_cache_evictions_total",
    "Labeled-space cache entries dropped by eviction or invalidation",
)
_CACHE_RESIDENT_BYTES = metrics.REGISTRY.gauge(
    "repro_cache_resident_bytes",
    "Bytes held by cached label arrays (refreshed on stats()/resident_bytes())",
)


class LabeledAttribute:
    """One attribute's labeled partition space, with lazy derived forms."""

    __slots__ = (
        "attr",
        "is_numeric",
        "space",
        "labels_initial",
        "_labels_filtered",
        "_representatives",
        "_regions_filtered",
        "_regions_initial",
        "_filled",
    )

    def __init__(self, attr, is_numeric, space, labels_initial) -> None:
        self.attr = attr
        self.is_numeric = is_numeric
        self.space = space
        self.labels_initial = labels_initial
        self._labels_filtered: Optional[np.ndarray] = None
        self._representatives: Optional[np.ndarray] = None
        self._regions_filtered = _UNSET
        self._regions_initial = _UNSET
        self._filled: Dict[tuple, Tuple[np.ndarray, list]] = {}

    def filtered_labels(self) -> np.ndarray:
        """Section 4.3 filtered labels (categorical spaces are never filtered)."""
        if self._labels_filtered is None:
            if self.is_numeric:
                from repro.core.filtering import filter_partitions

                self._labels_filtered = filter_partitions(self.labels_initial)
            else:
                self._labels_filtered = self.labels_initial
        return self._labels_filtered

    def filled_blocks(
        self, delta: float, normal_mean_partition: Optional[int] = None
    ) -> Tuple[np.ndarray, list]:
        """Gap-filled labels and their Abnormal blocks, memoized per δ.

        The fill step is deterministic given the filtered labels, δ, and
        the normal-mean partition, so one computation serves every
        diagnosis of the same anomaly — and the fused
        :meth:`repro.core.explain.DBSherlock.explain_batch` path can seed
        this memo from its batched kernels.
        """
        key = (float(delta), normal_mean_partition)
        got = self._filled.get(key)
        if got is None:
            from repro.core.filtering import abnormal_blocks, fill_gaps

            filled = fill_gaps(
                self.filtered_labels(), delta, normal_mean_partition
            )
            got = (filled, abnormal_blocks(filled))
            self._filled[key] = got
        return got

    def representatives(self) -> np.ndarray:
        """Per-partition representative values (midpoints / categories)."""
        if self._representatives is None:
            if self.is_numeric:
                self._representatives = self.space.midpoints()
            else:
                self._representatives = np.asarray(
                    self.space.categories, dtype=object
                )
        return self._representatives

    def region_partitions(self, apply_filtering: bool = True):
        """Representatives and counts of the Abnormal/Normal partitions.

        Returns ``(reps_abnormal, reps_normal, n_abnormal, n_normal)``, or
        ``None`` when either region has no labeled partitions.  Evaluating
        a predicate on just these subsets yields the exact same satisfied
        counts as masking a full-space evaluation, so the Equation 3 term
        is bitwise-identical while touching far fewer partitions.
        """
        slot = "_regions_filtered" if apply_filtering else "_regions_initial"
        regions = getattr(self, slot)
        if regions is _UNSET:
            from repro.core.partition import Label

            labels = (
                self.filtered_labels() if apply_filtering else self.labels_initial
            )
            abnormal_idx = np.flatnonzero(labels == int(Label.ABNORMAL))
            normal_idx = np.flatnonzero(labels == int(Label.NORMAL))
            if abnormal_idx.size == 0 or normal_idx.size == 0:
                regions = None
            else:
                reps = self.representatives()
                regions = (
                    reps[abnormal_idx],
                    reps[normal_idx],
                    int(abnormal_idx.size),
                    int(normal_idx.size),
                )
            setattr(self, slot, regions)
        return regions


def _spec_key(spec) -> tuple:
    """Structural key of a RegionSpec: its interval bounds."""
    normal = (
        None
        if spec.normal is None
        else tuple((r.start, r.end) for r in spec.normal)
    )
    return (tuple((r.start, r.end) for r in spec.abnormal), normal)


class _Shard:
    """One lock stripe: its own tables, lock, and hit/miss counters."""

    __slots__ = ("lock", "entries", "masks", "norm_means", "hits", "misses")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.entries: Dict[tuple, LabeledAttribute] = {}
        self.masks: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self.norm_means: Dict[tuple, Tuple[float, float]] = {}
        self.hits = 0
        self.misses = 0


class LabeledSpaceCache:
    """Memoized partition spaces, labels, masks, and region statistics."""

    DEFAULT_SHARDS = 16

    def __init__(self, n_shards: int = DEFAULT_SHARDS) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self._shards = tuple(_Shard() for _ in range(int(n_shards)))
        self._n_shards = len(self._shards)
        self._reg_lock = threading.Lock()
        self._dataset_refs: Dict[int, Optional[weakref.ref]] = {}
        self._by_dataset: Dict[int, set] = {}
        #: tokens whose dataset died; drained at the next entry point.
        self._pending: List[int] = []
        self.evictions = 0

    # ------------------------------------------------------------------
    # Counters (summed across shards; settable only via clear())
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(shard.hits for shard in self._shards)

    @property
    def misses(self) -> int:
        return sum(shard.misses for shard in self._shards)

    def _shard_of(self, key: tuple) -> _Shard:
        return self._shards[hash(key) % self._n_shards]

    # ------------------------------------------------------------------
    # Keying and eviction
    # ------------------------------------------------------------------
    def _token(self, dataset) -> int:
        self._reap()
        token = id(dataset)
        stored = self._dataset_refs.get(token, _UNSET)
        if stored is not _UNSET:
            if stored is None or stored() is dataset:
                return token
            # id() reuse: the old dataset died (its eviction is pending or
            # its callback never ran) and this token now names a new one.
            self._evict_now(token)
        with self._reg_lock:
            if token not in self._dataset_refs:
                try:
                    self._dataset_refs[token] = weakref.ref(
                        dataset,
                        # GC context: only an atomic append, never a table
                        # mutation (see module docstring).
                        lambda _ref, t=token: self._pending.append(t),
                    )
                except TypeError:  # un-weakref-able object: no auto-eviction
                    self._dataset_refs[token] = None
                self._by_dataset[token] = set()
        return token

    def _register(self, token: int, table: str, key: tuple) -> bool:
        """Record *key* against its dataset; False if it was evicted."""
        with self._reg_lock:
            members = self._by_dataset.get(token)
            if members is None:
                return False
            members.add((table, key))
            return True

    def _reap(self) -> None:
        """Drain pending weakref deaths under the proper locks."""
        while self._pending:
            try:
                token = self._pending.pop()
            except IndexError:
                break
            stored = self._dataset_refs.get(token, _UNSET)
            if stored is _UNSET:
                continue  # already evicted (invalidate/clear/reuse guard)
            if stored is not None and stored() is not None:
                continue  # token reused by a live dataset; already handled
            self._evict_now(token)

    def _evict_now(self, token: int) -> None:
        with self._reg_lock:
            keys = self._by_dataset.pop(token, ())
            self._dataset_refs.pop(token, None)
        evicted = 0
        for table, key in keys:
            shard = self._shard_of(key)
            with shard.lock:
                if getattr(shard, table).pop(key, None) is not None:
                    evicted += 1
        if evicted:
            with self._reg_lock:
                self.evictions += evicted
            _CACHE_EVICTIONS.inc(evicted)

    def invalidate(self, dataset=None) -> None:
        """Drop entries for *dataset* (all entries when omitted)."""
        self._reap()
        if dataset is None:
            self.clear()
        else:
            self._evict_now(id(dataset))

    def clear(self) -> None:
        """Drop every entry and zero the counters.

        A cleared cache reads as a fresh one: ``stats()`` afterwards
        reports zeros, not the totals of a previous lifetime.  (The
        process-wide obs counters are cumulative and unaffected.)
        """
        self._reap()
        dropped = 0
        for shard in self._shards:
            with shard.lock:
                dropped += (
                    len(shard.entries)
                    + len(shard.masks)
                    + len(shard.norm_means)
                )
                shard.entries.clear()
                shard.masks.clear()
                shard.norm_means.clear()
                shard.hits = 0
                shard.misses = 0
        with self._reg_lock:
            self._dataset_refs.clear()
            self._by_dataset.clear()
            del self._pending[:]
            self.evictions = 0
        if dropped:
            _CACHE_EVICTIONS.inc(dropped)

    def resident_bytes(self) -> int:
        """Bytes held by cached arrays (labels, derived forms, masks)."""
        total = 0
        for shard in self._shards:
            with shard.lock:
                entries = list(shard.entries.values())
                mask_values = list(shard.masks.values())
            for entry in entries:
                total += entry.labels_initial.nbytes
                if entry._labels_filtered is not None and (
                    entry._labels_filtered is not entry.labels_initial
                ):
                    total += entry._labels_filtered.nbytes
                if entry._representatives is not None:
                    total += entry._representatives.nbytes
                for filled, _blocks in list(entry._filled.values()):
                    total += filled.nbytes
            for abnormal, normal in mask_values:
                total += abnormal.nbytes + normal.nbytes
        _CACHE_RESIDENT_BYTES.set(total)
        return total

    def stats(self) -> Dict[str, int]:
        """Observable cache state, for tests and bench reports."""
        self._reap()
        n_entries = n_masks = 0
        for shard in self._shards:
            with shard.lock:
                n_entries += len(shard.entries)
                n_masks += len(shard.masks)
        with self._reg_lock:
            datasets = len(self._by_dataset)
            evictions = self.evictions
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": evictions,
            "entries": n_entries,
            "mask_entries": n_masks,
            "datasets": datasets,
            "shards": self._n_shards,
            "resident_bytes": self.resident_bytes(),
        }

    # ------------------------------------------------------------------
    # Cached computations
    # ------------------------------------------------------------------
    def _publish(self, shard: _Shard, table: str, token: int, key: tuple, value):
        """Check-then-publish *value*; return the table's winning value."""
        mapping = getattr(shard, table)
        with shard.lock:
            existing = mapping.get(key)
            if existing is not None:
                return existing
            mapping[key] = value
        if not self._register(token, table, key):
            # the dataset was evicted between compute and publish: keep the
            # value for the caller but do not leave an orphan in the table
            with shard.lock:
                mapping.pop(key, None)
        return value

    def masks(self, dataset, spec) -> Tuple[np.ndarray, np.ndarray]:
        """The (abnormal, normal) row masks of *spec* on *dataset*."""
        token = self._token(dataset)
        key = (token, _spec_key(spec))
        shard = self._shard_of(key)
        cached = shard.masks.get(key)  # lock-free hit path
        if cached is not None:
            shard.hits += 1
            _CACHE_HITS.inc()
            return cached
        shard.misses += 1
        _CACHE_MISSES.inc()
        computed = (spec.abnormal_mask(dataset), spec.normal_mask(dataset))
        return self._publish(shard, "masks", token, key, computed)

    def entries(
        self,
        dataset,
        spec,
        attrs: Sequence[str],
        n_partitions: int,
    ) -> Dict[str, LabeledAttribute]:
        """Labeled spaces for *attrs*, batch-computing the missing ones."""
        token = self._token(dataset)
        skey = _spec_key(spec)
        found: Dict[str, LabeledAttribute] = {}
        missing_numeric: List[str] = []
        missing_categorical: List[str] = []
        n_hits = 0
        for attr in attrs:
            key = (token, skey, attr, int(n_partitions))
            entry = self._shard_of(key).entries.get(key)  # lock-free
            if entry is not None:
                n_hits += 1
                found[attr] = entry
            elif dataset.is_numeric(attr):
                missing_numeric.append(attr)
            else:
                missing_categorical.append(attr)
        if n_hits:
            # batch the counter updates: one locked inc per call, not per attr
            self._shard_of((token, skey)).hits += n_hits
            _CACHE_HITS.inc(n_hits)
        if missing_numeric or missing_categorical:
            n_missing = len(missing_numeric) + len(missing_categorical)
            self._shard_of((token, skey)).misses += n_missing
            _CACHE_MISSES.inc(n_missing)
            abnormal, normal = self.masks(dataset, spec)
            if missing_numeric:
                from repro.perf.batch import label_numeric_batch

                labeled = label_numeric_batch(
                    dataset, missing_numeric, abnormal, normal, n_partitions
                )
                for attr, (space, labels) in labeled.items():
                    found[attr] = self._store(
                        token, skey, attr, n_partitions,
                        LabeledAttribute(attr, True, space, labels),
                    )
            for attr in missing_categorical:
                from repro.core.partition import CategoricalPartitionSpace

                values = dataset.column(attr)
                space = CategoricalPartitionSpace(attr, values)
                labels = space.label(values, abnormal, normal)
                found[attr] = self._store(
                    token, skey, attr, n_partitions,
                    LabeledAttribute(attr, False, space, labels),
                )
        return found

    def entry(
        self, dataset, spec, attr: str, n_partitions: int
    ) -> LabeledAttribute:
        """Labeled space for a single attribute (direct-hit fast path)."""
        key = (id(dataset), _spec_key(spec), attr, int(n_partitions))
        shard = self._shard_of(key)
        cached = shard.entries.get(key)  # lock-free hit path
        if cached is not None:
            shard.hits += 1
            _CACHE_HITS.inc()
            return cached
        return self.entries(dataset, spec, [attr], n_partitions)[attr]

    def _store(
        self, token, skey, attr, n_partitions, entry: LabeledAttribute
    ) -> LabeledAttribute:
        key = (token, skey, attr, int(n_partitions))
        return self._publish(
            self._shard_of(key), "entries", token, key, entry
        )

    def peek_entries(
        self, dataset, spec, attrs: Sequence[str], n_partitions: int
    ) -> Dict[str, LabeledAttribute]:
        """Lock-free lookup of the subset of *attrs* already cached.

        Batch seeding (:meth:`repro.core.explain.DBSherlock._seed_batch`)
        uses this to decide which lanes still need labeling without
        skewing the hit/miss statistics the serial path will produce, so
        it counts neither hits nor misses.
        """
        token = id(dataset)
        skey = _spec_key(spec)
        npart = int(n_partitions)
        found: Dict[str, LabeledAttribute] = {}
        for attr in attrs:
            key = (token, skey, attr, npart)
            entry = self._shard_of(key).entries.get(key)
            if entry is not None:
                found[attr] = entry
        return found

    def peek_norm_means(
        self, dataset, spec, attrs: Sequence[str]
    ) -> Dict[str, Tuple[float, float]]:
        """Bulk lock-free lookup of cached normalized-means pairs.

        Returns the subset of *attrs* whose means are already published;
        like :meth:`peek_entries` this counts neither hits nor misses.
        The predicate generator prefetches a whole attribute list this
        way and only falls back to :meth:`normalized_means` (one key
        build and shard probe per call) on the residue.
        """
        token = id(dataset)
        skey = _spec_key(spec)
        found: Dict[str, Tuple[float, float]] = {}
        for attr in attrs:
            key = (token, skey, attr)
            means = self._shard_of(key).norm_means.get(key)
            if means is not None:
                found[attr] = means
        return found

    def seed_job(
        self,
        dataset,
        spec,
        n_partitions: int,
        entries: Optional[Dict[str, LabeledAttribute]] = None,
        norm_means: Optional[Dict[str, Tuple[float, float]]] = None,
        masks: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Dict[str, LabeledAttribute]:
        """Publish one job's batch-kernel outputs in a few locked passes.

        The fused :meth:`~repro.core.explain.DBSherlock.explain_batch`
        seeds many attributes per ``(dataset, spec)``; publishing them
        key-by-key costs two lock round-trips each.  This groups the
        whole job by shard — one lock acquisition per touched shard plus
        one registration pass.  Every value must be bitwise-identical to
        what :meth:`entries` / :meth:`normalized_means` would compute for
        the same key.  First writer wins per key, exactly like the serial
        path's publication; returns the winning labeled entries keyed by
        attribute.  Counts neither hits nor misses.  *masks* optionally
        seeds the job's ``(abnormal, normal)`` row masks.
        """
        token = self._token(dataset)
        skey = _spec_key(spec)
        items: List[Tuple[str, tuple, object]] = []
        if entries:
            for attr, entry in entries.items():
                items.append(
                    ("entries", (token, skey, attr, int(n_partitions)), entry)
                )
        if norm_means:
            for attr, means in norm_means.items():
                items.append(
                    ("norm_means", (token, skey, attr), tuple(means))
                )
        if masks is not None:
            items.append(("masks", (token, skey), tuple(masks)))
        if not items:
            return {}
        by_shard: Dict[int, List[Tuple[str, tuple, object]]] = {}
        for item in items:
            by_shard.setdefault(hash(item[1]) % self._n_shards, []).append(
                item
            )
        winners: Dict[str, LabeledAttribute] = {}
        published: List[Tuple[str, tuple]] = []
        for shard_idx, group in by_shard.items():
            shard = self._shards[shard_idx]
            with shard.lock:
                for table, key, value in group:
                    mapping = getattr(shard, table)
                    existing = mapping.get(key)
                    if existing is None:
                        mapping[key] = value
                        published.append((table, key))
                        existing = value
                    if table == "entries":
                        winners[key[2]] = existing
        if published:
            with self._reg_lock:
                members = self._by_dataset.get(token)
                evicted = members is None
                if not evicted:
                    members.update(published)
            if evicted:
                # the dataset died between compute and publish: no orphans
                for table, key in published:
                    shard = self._shard_of(key)
                    with shard.lock:
                        getattr(shard, table).pop(key, None)
        return winners

    def normalized_means(
        self, dataset, spec, attr: str
    ) -> Tuple[float, float]:
        """Normalized abnormal/normal region means of a numeric attribute.

        Independent of ``n_partitions`` (Equation 2 operates on rows), so
        keyed without it.
        """
        token = self._token(dataset)
        key = (token, _spec_key(spec), attr)
        shard = self._shard_of(key)
        cached = shard.norm_means.get(key)  # lock-free hit path
        if cached is not None:
            shard.hits += 1
            _CACHE_HITS.inc()
            return cached
        shard.misses += 1
        _CACHE_MISSES.inc()
        from repro.core.separation import normalize_values, region_means

        abnormal, normal = self.masks(dataset, spec)
        normalized = normalize_values(dataset.column(attr))
        computed = region_means(normalized, abnormal, normal)
        return self._publish(shard, "norm_means", token, key, computed)
