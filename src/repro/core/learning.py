"""Learning feature distributions from organizational resources.

The offline phase of Fixy (§5.2): "To learn feature distributions given a
set of scenes, Fixy first exhaustively generates the features over the
data and collects the scalar or vector values. Then, for each feature,
Fixy executes the fitting function over the scalar/vector values."

The learned object is a :class:`LearnedFeatureDistribution` per (feature,
group) — group being the object class for class-conditional features.
Raw densities are converted to **relative likelihoods** in ``(0, 1]`` by
dividing by the density's maximum over the training values. This keeps
scores comparable across features (a KDE over volumes in m³ and one over
velocities in m/s have incommensurable density scales), makes the
``1 - x`` inversion AOF meaningful, and matches the magnitudes in the
paper's worked example (§6: volume scores 0.37/0.39, velocity 0.21).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.features import Feature, FeatureContext
from repro.core.model import SOURCE_HUMAN, Scene, Track
from repro.distributions import Distribution, fit_distribution

__all__ = [
    "LearnedFeatureDistribution",
    "LearnedModel",
    "FeatureDistributionLearner",
]

_POOLED = "__pooled__"


#: Smallest relative likelihood a learned distribution reports. Extreme
#: outliers would otherwise underflow to exactly 0 and be treated like
#: AOF-zeroed items (excluded from ranking) instead of ranking last.
LIKELIHOOD_FLOOR = 1e-12


@dataclass
class LearnedFeatureDistribution:
    """A fitted distribution plus its training-density normalizer.

    Batch evaluation can optionally be *grid-accelerated*
    (:meth:`enable_fast_eval`): the log density of an eligible 1-D KDE is
    precomputed on a validated interpolation grid
    (:class:`~repro.distributions.grid.GriddedDensity`), turning each
    per-query O(n_train) density evaluation into an O(log n_nodes)
    lookup. The grid builds lazily, once cumulative batch traffic would
    amortize its construction cost, so one-off evaluations (unit tests,
    single scenes) keep the exact path — as does :meth:`likelihood`, the
    scalar reference, always.
    """

    distribution: Distribution
    max_density: float
    n_samples: int

    def __post_init__(self) -> None:
        import threading

        # Transient acceleration state; never serialized. The lock
        # guards the pending→ready transition: Fixy can batch-evaluate
        # the same distribution from several compile threads (n_jobs),
        # and the grid should be built exactly once.
        self._fast_state = "off"  # "off" | "pending" | "ready" | "disabled"
        self._fast_grid = None
        self._fast_tol = 0.0
        self._rows_seen = 0
        self._cutover_rows = 0
        self._fast_lock = threading.Lock()

    # ------------------------------------------------------------------
    def enable_fast_eval(self, tol: float = 1e-5, eager: bool = False) -> bool:
        """Arm grid acceleration for :meth:`likelihood_batch`.

        Args:
            tol: Maximum validated interpolation error, in nats of log
                density, within the scoring-relevant band (see
                :mod:`repro.distributions.grid`).
            eager: Build the grid now instead of at the lazy cutover
                point. Use for offline preparation (benchmark warmup,
                long-lived servers).

        Returns:
            Whether acceleration is armed (or already built). ``False``
            when the distribution is ineligible (not a 1-D KDE).
        """
        from repro.distributions.grid import GriddedDensity

        if self._fast_state == "ready":
            return True
        nodes = GriddedDensity.node_count(self.distribution)
        if nodes is None:
            self._fast_state = "disabled"
            return False
        self._fast_tol = tol
        # Grid construction costs ~2 exact passes over `nodes` points;
        # cut over once cumulative batch queries would have paid for it.
        self._cutover_rows = 2 * nodes
        self._fast_state = "pending"
        if eager:
            self._build_fast()
        return self._fast_state in ("pending", "ready")

    def _build_fast(self) -> None:
        from repro.distributions.grid import GriddedDensity

        grid = GriddedDensity.try_build(self.distribution, tol=self._fast_tol)
        if grid is None:
            self._fast_state = "disabled"
        else:
            self._fast_grid = grid
            self._fast_state = "ready"

    # ------------------------------------------------------------------
    # Grid persistence: the validated grid is offline state worth
    # shipping with the model (serving workers skip the warmup build).
    # ------------------------------------------------------------------
    def fast_grid_to_dict(self) -> dict | None:
        """Snapshot of the built acceleration grid (``None`` unless ready)."""
        if self._fast_state != "ready":
            return None
        payload = self._fast_grid.to_dict()
        payload["tol"] = self._fast_tol
        return payload

    def restore_fast_grid(self, payload: dict) -> None:
        """Adopt a persisted grid: acceleration is immediately ready."""
        from repro.distributions.grid import GriddedDensity

        self._fast_grid = GriddedDensity.from_dict(payload, self.distribution)
        self._fast_tol = float(payload.get("tol", 0.0))
        self._fast_state = "ready"

    def likelihood(self, value) -> float:
        """Relative likelihood in ``[LIKELIHOOD_FLOOR, 1]``."""
        density = float(np.atleast_1d(self.distribution.pdf(value))[0])
        if self.max_density <= 0:
            return LIKELIHOOD_FLOOR
        return float(
            min(max(density / self.max_density, LIKELIHOOD_FLOOR), 1.0)
        )

    def likelihood_batch(self, values) -> np.ndarray:
        """Relative likelihoods for a batch of values, as an ``(n,)`` array.

        One ``log_pdf_batch`` call replaces ``n`` scalar ``pdf`` calls —
        the hot-path win of the columnar compile pipeline — with the same
        normalization and clamping as :meth:`likelihood`. When fast
        evaluation is armed (:meth:`enable_fast_eval`) and enough batch
        traffic has accumulated, the log densities come from the
        validated interpolation grid instead of the exact estimator.
        """
        n = np.asarray(values).shape[0] if np.ndim(values) else 1
        if self.max_density <= 0:
            return np.full(n, LIKELIHOOD_FLOOR)
        if self._fast_state == "pending":
            with self._fast_lock:
                if self._fast_state == "pending":
                    self._rows_seen += n
                    if self._rows_seen >= self._cutover_rows:
                        self._build_fast()
        if self._fast_state == "ready":
            log_densities = self._fast_grid.log_pdf_batch(values)
        else:
            log_densities = self.distribution.log_pdf_batch(values)
        densities = np.exp(log_densities)
        return np.clip(densities / self.max_density, LIKELIHOOD_FLOOR, 1.0)


@dataclass
class LearnedModel:
    """All fitted feature distributions: ``feature name -> group -> dist``."""

    distributions: dict[str, dict[str, LearnedFeatureDistribution]] = field(
        default_factory=dict
    )
    #: Memoized content hash — the estimator set is fixed once fitting
    #: (or from_dict) finishes, but serializing it costs tens of
    #: milliseconds, far too much to pay on every audit's provenance
    #: (coordinator *and* worker stamp one per request).
    _fingerprint: str | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Persistence (offline fits can be expensive; save them as JSON)
    # ------------------------------------------------------------------
    def to_dict(self, include_grids: bool = True) -> dict:
        """JSON-safe snapshot of every fitted distribution.

        With ``include_grids`` (default), distributions whose
        grid-accelerated evaluation has been built
        (:meth:`enable_fast_eval`) serialize the validated grid
        alongside the estimator, so a process that loads the model
        serves from the grid immediately instead of re-running the
        warmup build.
        """
        from repro.distributions import serialize

        out: dict = {}
        for feature, groups in self.distributions.items():
            out[feature] = {}
            for group, lfd in groups.items():
                payload = {
                    "distribution": serialize.to_dict(lfd.distribution),
                    "max_density": lfd.max_density,
                    "n_samples": lfd.n_samples,
                }
                if include_grids:
                    grid = lfd.fast_grid_to_dict()
                    if grid is not None:
                        payload["fast_grid"] = grid
                out[feature][group] = payload
        return out

    @staticmethod
    def from_dict(data: dict) -> "LearnedModel":
        from repro.distributions import serialize

        model = LearnedModel()
        for feature, groups in data.items():
            fitted: dict[str, LearnedFeatureDistribution] = {}
            for group, payload in groups.items():
                lfd = LearnedFeatureDistribution(
                    distribution=serialize.from_dict(payload["distribution"]),
                    max_density=float(payload["max_density"]),
                    n_samples=int(payload["n_samples"]),
                )
                if "fast_grid" in payload:
                    lfd.restore_fast_grid(payload["fast_grid"])
                fitted[group] = lfd
            model.distributions[feature] = fitted
        return model

    def fingerprint(self) -> str:
        """Stable content hash of the fitted estimators (memoized).

        Density grids are excluded — they are traffic-dependent
        acceleration state, not model identity, so a model fingerprints
        the same before and after its lazy grid builds. Audit results
        (:class:`repro.api.AuditResult`) record this hash as provenance.
        Computed once per model: the estimators never change after
        fitting, and re-serializing them per audit dominated the warm
        distributed hot path.
        """
        if self._fingerprint is None:
            import hashlib
            import json

            text = json.dumps(
                self.to_dict(include_grids=False), sort_keys=True
            )
            self._fingerprint = hashlib.blake2b(
                text.encode("utf-8"), digest_size=16
            ).hexdigest()
        return self._fingerprint

    def save(self, path, include_grids: bool = True) -> None:
        """Persist the model as JSON.

        ``include_grids`` (default) also persists any density grids
        built so far, so a process that loads the file serves
        accelerated batch densities with no warmup. Grids are by far
        the largest part of the payload and only exist once traffic (or
        an eager ``enable_fast_eval``) has built them — pass
        ``include_grids=False`` for a minimal, traffic-independent
        snapshot of just the fitted estimators.
        """
        import json
        from pathlib import Path

        Path(path).write_text(
            json.dumps(self.to_dict(include_grids=include_grids)),
            encoding="utf-8",
        )

    @staticmethod
    def load(path) -> "LearnedModel":
        import json
        from pathlib import Path

        return LearnedModel.from_dict(
            json.loads(Path(path).read_text(encoding="utf-8"))
        )

    def lookup(
        self, feature: Feature, group: str | None
    ) -> LearnedFeatureDistribution | None:
        """The distribution for a feature/group, falling back to pooled."""
        groups = self.distributions.get(feature.name)
        if not groups:
            return None
        key = group if group is not None else _POOLED
        if key in groups:
            return groups[key]
        return groups.get(_POOLED)

    def likelihood(self, feature: Feature, item, context: FeatureContext) -> float | None:
        """Relative likelihood of ``item`` under ``feature``.

        Returns ``None`` when the feature does not apply to the item or no
        distribution was learned for its group.
        """
        value = feature.compute(item, context)
        if value is None:
            return None
        dist = self.lookup(feature, feature.group_key(item, context))
        if dist is None:
            return None
        return dist.likelihood(value)

    def enable_fast_eval(self, tol: float = 1e-5, eager: bool = False) -> int:
        """Arm grid-accelerated batch evaluation on eligible distributions.

        Returns the number of distributions armed (or built, with
        ``eager=True``). See
        :meth:`LearnedFeatureDistribution.enable_fast_eval`.
        """
        count = 0
        for groups in self.distributions.values():
            for lfd in groups.values():
                if lfd.enable_fast_eval(tol, eager=eager):
                    count += 1
        return count

    def likelihood_batch(
        self, feature: Feature, values, groups: list
    ) -> np.ndarray:
        """Relative likelihoods for precomputed feature values.

        Args:
            feature: The feature the values belong to.
            values: ``(n,)`` or ``(n, d)`` array of feature values (already
                extracted, e.g. by
                :class:`repro.core.columnar.FeatureMatrix` — this method
                never calls ``feature.compute``).
            groups: Conditioning key per row (``None`` for pooled).

        Returns:
            ``(n,)`` float array. Rows whose group has no learned
            distribution (and no pooled fallback) are ``NaN`` — the batch
            marker for the scalar path's ``None``.
        """
        arr = np.asarray(values, dtype=float)
        n = arr.shape[0]
        if len(groups) != n:
            raise ValueError(f"got {n} values but {len(groups)} group keys")
        out = np.full(n, np.nan)
        # Integer-code the groups in first-appearance order; a stable
        # sort by code then lists each group's rows in ascending order.
        # Every group (even two sharing the pooled fallback) gets its
        # own batch, in first-appearance order.
        code_of = {group: code for code, group in enumerate(dict.fromkeys(groups))}
        if len(code_of) == 1:
            batches = [(next(iter(code_of)), slice(None))]
        else:
            codes = np.fromiter(map(code_of.__getitem__, groups), np.intp, n)
            order = codes.argsort(kind="stable")
            edges = codes[order].searchsorted(np.arange(len(code_of) + 1))
            batches = [
                (group, order[edges[code]:edges[code + 1]])
                for group, code in code_of.items()
            ]
        for group, idx in batches:
            dist = self.lookup(feature, group)
            if dist is None:
                continue
            out[idx] = dist.likelihood_batch(arr[idx])
        return out

    @property
    def feature_names(self) -> list[str]:
        return sorted(self.distributions)


class FeatureDistributionLearner:
    """Fits feature distributions over historical labeled scenes.

    Args:
        features: The features to learn (non-learnable features are
            skipped — they carry manual potentials instead).
        sources: Observation sources to learn from. Defaults to human
            labels only: the "existing organizational resource" of the
            paper. Tracks containing none of these sources are excluded
            so ghosts from an auxiliary model run cannot poison the fit.
        min_samples: Minimum values needed to fit a per-group
            distribution; smaller groups fall back to the pooled fit.
    """

    def __init__(
        self,
        features: list[Feature],
        sources: tuple[str, ...] = (SOURCE_HUMAN,),
        min_samples: int = 8,
    ):
        self.features = features
        self.sources = tuple(sources)
        self.min_samples = min_samples

    # ------------------------------------------------------------------
    def collect_values(
        self, scenes: list[Scene]
    ) -> dict[str, dict[str, list]]:
        """Exhaustively compute feature values over the training scenes.

        Returns ``feature name -> group key -> list of values``; every
        value is also recorded under the pooled key.
        """
        out: dict[str, dict[str, list]] = {
            f.name: {_POOLED: []} for f in self.features if f.learnable
        }
        for scene in scenes:
            context = FeatureContext.from_scene(scene)
            for track in scene.tracks:
                filtered = self._restrict_to_sources(track)
                if filtered is None:
                    continue
                for feature in self.features:
                    if not feature.learnable:
                        continue
                    for item in feature.items_of(filtered):
                        value = feature.compute(item, context)
                        if value is None:
                            continue
                        buckets = out[feature.name]
                        buckets[_POOLED].append(value)
                        group = feature.group_key(item, context)
                        if group is not None:
                            buckets.setdefault(group, []).append(value)
        return out

    def fit(self, scenes: list[Scene]) -> LearnedModel:
        """Learn all feature distributions from historical scenes."""
        values = self.collect_values(scenes)
        model = LearnedModel()
        for feature in self.features:
            if not feature.learnable:
                continue
            buckets = values[feature.name]
            fitted: dict[str, LearnedFeatureDistribution] = {}
            for group, group_values in buckets.items():
                if group != _POOLED and len(group_values) < self.min_samples:
                    continue
                if not group_values:
                    continue
                fitted[group] = self._fit_one(feature, group_values)
            if fitted:
                model.distributions[feature.name] = fitted
        return model

    # ------------------------------------------------------------------
    def _fit_one(
        self, feature: Feature, values: list
    ) -> LearnedFeatureDistribution:
        dist = fit_distribution(values, kind=feature.fitter)
        densities = np.atleast_1d(dist.pdf(np.asarray(values, dtype=float)))
        max_density = float(densities.max()) if densities.size else 0.0
        return LearnedFeatureDistribution(
            distribution=dist, max_density=max_density, n_samples=len(values)
        )

    def _restrict_to_sources(self, track: Track) -> Track | None:
        """A view of ``track`` with only the trusted-source observations.

        Bundles that lose all observations disappear; tracks that lose all
        bundles return ``None``.
        """
        from repro.core.model import ObservationBundle

        kept_bundles = []
        for bundle in track.bundles:
            kept = [o for o in bundle.observations if o.source in self.sources]
            if kept:
                kept_bundles.append(
                    ObservationBundle(frame=bundle.frame, observations=kept)
                )
        if not kept_bundles:
            return None
        return Track(track_id=track.track_id, bundles=kept_bundles)
