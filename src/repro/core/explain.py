"""The ``DBSherlock`` facade: explain, diagnose, learn from feedback.

Ties together the predicate generator (Section 4), domain-knowledge
pruning (Section 5), the causal-model store (Section 6), and the automatic
anomaly detector (Section 7) behind the workflow of Figure 2:

1. the user marks an anomaly (or calls :meth:`DBSherlock.detect`),
2. :meth:`DBSherlock.explain` returns predicates plus any known causes
   whose confidence clears the display threshold λ,
3. once the user confirms the actual cause, :meth:`DBSherlock.feedback`
   stores (and merges) a causal model for future diagnoses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.anomaly import AnomalyDetector, DetectionResult
from repro.core.causal import CausalModel, CausalModelStore
from repro.core.generator import GeneratorConfig, PredicateGenerator
from repro.core.knowledge import (
    DEFAULT_KAPPA_THRESHOLD,
    DomainRule,
    prune_secondary_symptoms,
)
from repro.core.predicates import Conjunction, Predicate
from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec
from repro.obs import metrics, trace
from repro.schema.fingerprint import fingerprint_attributes
from repro.schema.reconcile import (
    DEFAULT_COVERAGE_FLOOR,
    ReconciliationReport,
    SchemaReconciler,
)

__all__ = ["DBSherlock", "Explanation"]

DEFAULT_LAMBDA = 0.2

_CONFIDENCE = metrics.REGISTRY.histogram(
    "repro_rank_confidence",
    "Per-model Eq. 3 confidence at ranking time",
    buckets=(0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
)
_ABSTENTIONS = metrics.REGISTRY.counter(
    "repro_rank_abstentions_total",
    "Models that declined to score (reconciliation coverage below floor)",
)
_RECONCILED_RANKS = metrics.REGISTRY.counter(
    "repro_rank_reconciled_total",
    "Rankings that fell back to schema reconciliation (drifted input)",
)
_CLEAN_RANKS = metrics.REGISTRY.counter(
    "repro_rank_clean_total",
    "Rankings served on the clean (no-drift) path",
)
_COVERAGE = metrics.REGISTRY.gauge(
    "repro_reconciliation_coverage",
    "Attribute coverage of the most recent schema reconciliation",
)
_EXPLAINS = metrics.REGISTRY.counter(
    "repro_explains_total", "DBSherlock.explain invocations"
)
_EXPLAIN_BATCHES = metrics.REGISTRY.counter(
    "repro_explain_batches_total",
    "Fused explain_batch passes (cross-anomaly kernel seeding)",
)


def _observe_rank(scores, report, abstained) -> None:
    """Fold one ranking pass into the registry (shared with the harness)."""
    for _cause, confidence in scores:
        _CONFIDENCE.observe(confidence)
    if abstained:
        _ABSTENTIONS.inc(len(abstained))
    if report is not None:
        _RECONCILED_RANKS.inc()
        matches = report.matches
        if matches:
            matched = sum(1 for m in matches.values() if m.matched)
            _COVERAGE.set(matched / len(matches))
    else:
        _CLEAN_RANKS.inc()


@dataclass
class Explanation:
    """What DBSherlock shows the user for one anomaly.

    Attributes
    ----------
    predicates:
        The explanatory conjunction (after domain-knowledge pruning).
    pruned:
        Predicates removed as secondary symptoms, kept for transparency.
    causes:
        ``(cause, confidence)`` pairs from causal models clearing λ,
        ordered by decreasing confidence.
    all_cause_scores:
        Every model's score regardless of λ (useful for evaluation).
    reconciliation:
        The :class:`~repro.schema.reconcile.ReconciliationReport` the
        causes were scored under, when schema reconciliation ran
        (``None`` on the clean path where every model attribute was
        present verbatim).
    abstained:
        Causes whose models declined to score because too few of their
        attributes could be reconciled (coverage below the floor).
    """

    predicates: Conjunction
    pruned: List[Predicate] = field(default_factory=list)
    causes: List[Tuple[str, float]] = field(default_factory=list)
    all_cause_scores: List[Tuple[str, float]] = field(default_factory=list)
    reconciliation: Optional[ReconciliationReport] = None
    abstained: List[str] = field(default_factory=list)

    @property
    def top_cause(self) -> Optional[str]:
        """The highest-confidence cause above λ, if any."""
        return self.causes[0][0] if self.causes else None

    def __str__(self) -> str:
        lines = [f"predicates: {self.predicates}"]
        for cause, confidence in self.causes:
            lines.append(f"cause: {cause} (confidence {confidence:.1%})")
        return "\n".join(lines)


class DBSherlock:
    """Performance-anomaly explanation for OLTP telemetry.

    Parameters
    ----------
    config:
        Predicate-generation parameters (R, δ, θ).
    rules:
        Domain-knowledge rules for secondary-symptom pruning; empty
        disables pruning (the paper shows only a 2-3 % accuracy drop).
    kappa_threshold:
        Independence-test threshold κt (default 0.15).
    lambda_threshold:
        Minimum confidence λ for a cause to be displayed (default 20 %).
    detector:
        Automatic anomaly detector; defaults to the Section 7 settings.
        Any object with ``detect(dataset) -> DetectionResult`` works —
        e.g. the alternative strategies in :mod:`repro.detect`.
    reconciler:
        Schema reconciler used when the diagnosis data is missing model
        attributes (collector drift).  Defaults to a
        :class:`~repro.schema.reconcile.SchemaReconciler` with no alias
        table; pass one with aliases after a known collector upgrade.
    coverage_floor:
        Minimum fraction of a model's attributes that must reconcile for
        the model to score; below it the model abstains.
    """

    def __init__(
        self,
        config: Optional[GeneratorConfig] = None,
        rules: Sequence[DomainRule] = (),
        kappa_threshold: float = DEFAULT_KAPPA_THRESHOLD,
        lambda_threshold: float = DEFAULT_LAMBDA,
        detector: Optional[AnomalyDetector] = None,
        reconciler: Optional[SchemaReconciler] = None,
        coverage_floor: float = DEFAULT_COVERAGE_FLOOR,
    ) -> None:
        from repro.perf.cache import LabeledSpaceCache

        self.config = config or GeneratorConfig()
        # One shared labeled-space cache: explain() generates predicates
        # and ranks stored models on the same (dataset, spec), so each
        # attribute is discretized and labeled exactly once per anomaly.
        self.cache = LabeledSpaceCache()
        self.generator = PredicateGenerator(self.config, cache=self.cache)
        self.rules = list(rules)
        self.kappa_threshold = kappa_threshold
        self.lambda_threshold = lambda_threshold
        self.detector = detector or AnomalyDetector()
        self.reconciler = reconciler or SchemaReconciler()
        self.coverage_floor = coverage_floor
        self.store = CausalModelStore()

    # ------------------------------------------------------------------
    def explain(
        self,
        dataset: Dataset,
        spec: Optional[RegionSpec] = None,
        attributes: Optional[Sequence[str]] = None,
    ) -> Explanation:
        """Explain an anomaly on *dataset*.

        When *spec* is omitted the automatic detector locates the abnormal
        region first; a detector miss yields an empty explanation.
        """
        _EXPLAINS.inc()
        with trace.span(
            "explain", dataset=getattr(dataset, "name", None)
        ) as sp:
            if spec is None:
                detection = self.detect(dataset)
                if not detection.found:
                    sp.set(detected=False)
                    return Explanation(predicates=Conjunction())
                spec = detection.to_region_spec()

            conjunction = self.generator.generate(dataset, spec, attributes)
            with trace.span("prune", candidates=len(conjunction.predicates)):
                kept, pruned = prune_secondary_symptoms(
                    conjunction.predicates, dataset, self.rules,
                    self.kappa_threshold,
                )
            scores, report, abstained = self._rank(dataset, spec)
            visible = [
                (cause, confidence)
                for cause, confidence in scores
                if confidence > self.lambda_threshold
            ]
            sp.set(
                predicates=len(kept),
                pruned=len(pruned),
                causes_visible=len(visible),
                abstained=len(abstained),
            )
            return Explanation(
                predicates=Conjunction(kept),
                pruned=pruned,
                causes=visible,
                all_cause_scores=scores,
                reconciliation=report,
                abstained=abstained,
            )

    def explain_batch(
        self,
        jobs: Sequence[Tuple[Dataset, Optional[RegionSpec]]],
        attributes: Optional[Sequence[str]] = None,
    ) -> List[Explanation]:
        """:meth:`explain` for many anomalies, fused through batch kernels.

        The per-anomaly result is **identical** to calling
        :meth:`explain` serially — this method only *seeds* the shared
        :class:`~repro.perf.cache.LabeledSpaceCache` first: the Section
        4.2 labels, the Section 4.3 filter, the Section 4.4 gap fill, and
        the θ-gate normalized means for every job are computed by calling
        the same core kernels once over stacked rows (each kernel works
        along the last axis, so a row of the stack is exactly the serial
        call on that row), and published as cache entries.  The
        unchanged serial :meth:`explain` then runs per job and hits the
        cache everywhere, so a batch of K diagnoses costs a few kernels
        plus K cheap cache-hit walks instead of K full Algorithm 1 runs.
        Jobs the kernels cannot express exactly (NaN telemetry, ablation
        configs, missing specs) are simply not seeded and take the
        serial path inside :meth:`explain` as usual.
        """
        jobs = list(jobs)
        if (
            len(jobs) > 1
            and self.config.enable_filtering
            and self.config.enable_fill
        ):
            _EXPLAIN_BATCHES.inc()
            self._seed_batch(jobs, attributes)
        return [self.explain(ds, spec, attributes) for ds, spec in jobs]

    def _seed_batch(
        self,
        jobs: Sequence[Tuple[Dataset, Optional[RegionSpec]]],
        attributes: Optional[Sequence[str]],
    ) -> None:
        """Warm the labeled-space cache for *jobs* via batch kernels."""
        import numpy as np

        from repro.core.filtering import (
            abnormal_blocks,
            fill_gaps,
            filter_partitions,
        )
        from repro.core.partition import (
            Label,
            NumericPartitionSpace,
            label_rows,
            midpoint_rows,
        )
        from repro.core.separation import normalize_values
        from repro.perf.cache import LabeledAttribute

        n_partitions = self.config.n_partitions
        grid = int(n_partitions)
        delta = float(self.config.delta)
        seen: set = set()
        numeric_entries: List[object] = []

        def collect(entry) -> None:
            if entry is None or not entry.is_numeric:
                return
            if id(entry) in seen:
                return
            seen.add(id(entry))
            if entry.labels_initial.shape[0] == grid:
                numeric_entries.append(entry)

        def degrade(dataset, spec, numeric) -> None:
            # degraded job (NaN cells, mixed dtypes, empty regions):
            # label it per-dataset; explain() falls back serially
            for entry in self.cache.entries(
                dataset, spec, numeric, n_partitions
            ).values():
                collect(entry)

        # Group fusable candidates by row count so each group stacks into
        # one (total_attrs, rows) matrix: jobs of equal length share the
        # NaN scan, normalization, min/max, and labeling kernels no
        # matter the tenant.  (Invalid specs are caught by the validate
        # inside explain(); seeding never consumes the region bounds
        # beyond building masks.)
        groups: dict = {}
        for dataset, spec in jobs:
            if spec is None:
                continue
            names = (
                list(attributes)
                if attributes is not None
                else dataset.attributes
            )
            numeric = [a for a in names if dataset.is_numeric(a)]
            if not numeric:
                continue
            columns = [np.asarray(dataset.column(a)) for a in numeric]
            if all(
                c.dtype == np.float64 and c.ndim == 1
                and c.shape == columns[0].shape
                for c in columns
            ):
                groups.setdefault(columns[0].shape[0], []).append(
                    (dataset, spec, numeric, columns)
                )
            else:
                degrade(dataset, spec, numeric)

        # Per-job publication staged for one bulk seed_job call each —
        # (dataset, spec, norm_means, entries, masks); entries fill in
        # during the stacked labeling pass below.
        pending: List[tuple] = []
        for group in groups.values():
            big = np.stack(
                [c for _, _, _, cols in group for c in cols]
            )
            nan_rows = np.isnan(big).any(axis=1)
            starts: List[int] = []
            offset = 0
            for _, _, numeric, _ in group:
                starts.append(offset)
                offset += len(numeric)
            # Region masks for the whole group in two comparisons — the
            # single-abnormal-region / implicit-normal shape the fleet
            # produces; other spec shapes fall back to per-job masks.
            simple = [
                len(spec.abnormal) == 1 and spec.normal is None
                for _, spec, _, _ in group
            ]
            ab_all = None
            if any(simple):
                stamps = np.stack([ds.timestamps for ds, _, _, _ in group])
                lo = np.array(
                    [spec.abnormal[0].start for _, spec, _, _ in group]
                )[:, None]
                hi = np.array(
                    [spec.abnormal[0].end for _, spec, _, _ in group]
                )[:, None]
                ab_all = (stamps >= lo) & (stamps <= hi)
            # θ-gate means for every attribute in two masked reductions —
            # mean(axis=1) reduces each contiguous row with the exact
            # pairwise summation of the serial values[mask].mean()
            big_norm = normalize_values(big)
            big_mins = big.min(axis=1).tolist()
            big_maxs = big.max(axis=1).tolist()
            lanes: List[tuple] = []
            for j, (dataset, spec, numeric, _) in enumerate(group):
                s = starts[j]
                e = s + len(numeric)
                if bool(nan_rows[s:e].any()):
                    degrade(dataset, spec, numeric)
                    continue
                if simple[j]:
                    abnormal = ab_all[j]
                    normal = ~abnormal
                else:
                    abnormal, normal = self.cache.masks(dataset, spec)
                if not (bool(abnormal.any()) and bool(normal.any())):
                    degrade(dataset, spec, numeric)
                    continue
                sub = big_norm[s:e]
                mu_abnormal = sub[:, abnormal].mean(axis=1).tolist()
                mu_normal = sub[:, normal].mean(axis=1).tolist()
                job_means: dict = {}
                job_entries: dict = {}
                job_masks = (abnormal, normal) if simple[j] else None
                pending.append(
                    (dataset, spec, job_means, job_entries, job_masks)
                )
                cached_entries = self.cache.peek_entries(
                    dataset, spec, numeric, n_partitions
                )
                for i, attr in enumerate(numeric):
                    job_means[attr] = (mu_abnormal[i], mu_normal[i])
                    cached = cached_entries.get(attr)
                    if cached is not None:
                        collect(cached)
                    else:
                        space = NumericPartitionSpace.from_stats(
                            attr, big_mins[s + i], big_maxs[s + i],
                            n_partitions,
                        )
                        lanes.append(
                            (job_entries, space, s + i, abnormal, normal)
                        )
            if not lanes:
                continue
            # One Section 4.2 labeling pass over every lane of the group,
            # with the per-job region masks expanded to lane rows.
            spaces = [lane[1] for lane in lanes]
            labels = label_rows(
                big[[lane[2] for lane in lanes]],
                [space.minimum for space in spaces],
                [space.width for space in spaces],
                [space.n_partitions for space in spaces],
                np.stack([lane[3] for lane in lanes]),
                np.stack([lane[4] for lane in lanes]),
                grid=grid,
            )
            for (job_entries, space, _, _, _), row in zip(lanes, labels):
                job_entries[space.attr] = LabeledAttribute(
                    space.attr, True, space, row[: space.n_partitions].copy()
                )
        # One grouped-by-shard publication per job instead of two lock
        # round-trips per (attribute, table) key.
        for dataset, spec, job_means, job_entries, job_masks in pending:
            winners = self.cache.seed_job(
                dataset,
                spec,
                n_partitions,
                entries=job_entries or None,
                norm_means=job_means or None,
                masks=job_masks,
            )
            for entry in winners.values():
                collect(entry)
        unfiltered = [
            e for e in numeric_entries if e._labels_filtered is None
        ]
        if unfiltered:
            filtered = filter_partitions(
                np.stack([e.labels_initial for e in unfiltered])
            )
            # Also seed the derived forms the ranking path asks for: the
            # partition representatives and the filtered Abnormal/Normal
            # region views built from them.
            reps_all = midpoint_rows(
                [e.space.minimum for e in unfiltered],
                [e.space.width for e in unfiltered],
                grid,
            )
            # One nonzero over the whole matrix; np.split hands each row
            # its ascending column indices — the same values flatnonzero
            # yields per row.
            cuts = np.arange(1, len(unfiltered))
            ab_rows, ab_cols = np.nonzero(filtered == int(Label.ABNORMAL))
            ab_split = np.split(ab_cols, np.searchsorted(ab_rows, cuts))
            no_rows, no_cols = np.nonzero(filtered == int(Label.NORMAL))
            no_split = np.split(no_cols, np.searchsorted(no_rows, cuts))
            for entry, row, reps, ab_idx, no_idx in zip(
                unfiltered, filtered, reps_all, ab_split, no_split
            ):
                entry._labels_filtered = row
                entry._representatives = reps
                entry._regions_filtered = (
                    None
                    if ab_idx.size == 0 or no_idx.size == 0
                    else (
                        reps[ab_idx],
                        reps[no_idx],
                        int(ab_idx.size),
                        int(no_idx.size),
                    )
                )
        if delta <= 0:
            return
        # Only lanes where both labels survive the filter take the
        # normal_mean_partition=None fill the generator will ask for;
        # abnormal-only lanes need the per-job mean partition and fall
        # to the serial fill inside explain().  The seeded region view
        # answers "both labels present?" without rescanning; entries
        # carried over from earlier batches answer it memoized the same
        # way via region_partitions.
        fill_todo = []
        for entry in numeric_entries:
            if (delta, None) in entry._filled:
                continue
            if entry.region_partitions(apply_filtering=True) is not None:
                fill_todo.append(entry)
        if fill_todo:
            filled = fill_gaps(
                np.stack([e.filtered_labels() for e in fill_todo]), delta
            )
            blocks = abnormal_blocks(filled)
            for entry, filled_row, block_row in zip(
                fill_todo, filled, blocks
            ):
                entry._filled[(delta, None)] = (filled_row, block_row)

    def _rank(
        self, dataset: Dataset, spec: RegionSpec
    ) -> Tuple[
        List[Tuple[str, float]], Optional[ReconciliationReport], List[str]
    ]:
        """Rank stored models, reconciling the schema only under drift.

        When every model attribute is present in *dataset* verbatim, the
        clean ranking path runs unchanged (bitwise-identical scores, warm
        labeled-space cache).  Otherwise the reconciler maps the drifted
        schema back to the model vocabulary and models with too little
        coverage abstain.
        """
        drifted = any(
            attr not in dataset
            for model in self.store
            for attr in model.attributes
        )
        with trace.span(
            "rank", models=len(self.store), drifted=drifted
        ):
            if not drifted:
                scores = self.store.rank(
                    dataset, spec, n_partitions=self.config.n_partitions,
                    cache=self.cache,
                )
                _observe_rank(scores, None, [])
                return scores, None, []
            result = self.store.rank_reconciled(
                dataset,
                spec,
                self.reconciler,
                n_partitions=self.config.n_partitions,
                cache=self.cache,
                coverage_floor=self.coverage_floor,
            )
            _observe_rank(result.scores, result.report, result.abstained)
            return result.scores, result.report, result.abstained

    def detect(self, dataset: Dataset) -> DetectionResult:
        """Automatically locate abnormal regions (Section 7)."""
        with trace.span("detect") as sp:
            result = self.detector.detect(dataset)
            sp.set(found=result.found)
            return result

    def feedback(
        self,
        cause: str,
        explanation: Explanation,
        dataset: Optional[Dataset] = None,
    ) -> CausalModel:
        """Record the DBA's confirmed cause for an explanation.

        Creates a causal model from the accepted predicates and adds it to
        the store, merging with any existing model for the same cause.
        Passing the diagnosed *dataset* additionally fingerprints the
        predicate attributes, so the model survives collector schema
        drift (renamed metrics reconcile by distribution, not just name).
        """
        predicates = explanation.predicates.predicates
        fingerprints = (
            fingerprint_attributes(dataset, [p.attr for p in predicates])
            if dataset is not None
            else {}
        )
        model = CausalModel(
            cause=cause, predicates=predicates, fingerprints=fingerprints
        )
        return self.store.add(model)

    def diagnose(
        self, dataset: Dataset, spec: RegionSpec, top_k: int = 1
    ) -> List[Tuple[str, float]]:
        """The ``top_k`` most likely known causes for an anomaly."""
        scores, _, _ = self._rank(dataset, spec)
        return scores[:top_k]

    # ------------------------------------------------------------------
    @staticmethod
    def _alias_path(path):
        """The alias table lives next to the model store."""
        from pathlib import Path

        path = Path(path)
        return path.with_name(path.stem + ".aliases.json")

    def save_models(self, path) -> None:
        """Persist the accumulated causal models as JSON.

        The reconciler's learned alias table (if any) is saved alongside
        at ``<models>.aliases.json`` — models and confirmed drift
        resolutions are both accumulated diagnostic knowledge.
        """
        from repro.core.persistence import save_store

        save_store(self.store, path)
        store = self.reconciler.alias_store
        if store is not None:
            if store.path is None:
                store.path = self._alias_path(path)
            store.save()

    def load_models(self, path) -> None:
        """Load previously saved causal models, merging same-cause models.

        When an alias table sits next to the model store and the
        reconciler has none yet, it is attached — previously confirmed
        drift resolutions resolve at the alias stage from the first
        diagnosis.
        """
        from repro.core.persistence import load_store
        from repro.schema.aliases import AliasStore

        loaded = load_store(path)
        for model in loaded:
            self.store.add(model)
        alias_path = self._alias_path(path)
        if self.reconciler.alias_store is None and alias_path.exists():
            self.reconciler.alias_store = AliasStore(alias_path)
