"""Feature base classes: the π mapping of the LOA DSL.

The paper's four feature types (§5.1) map to four base classes here:

1. :class:`ObservationFeature` — over single observations ω (e.g. box
   volume);
2. :class:`BundleFeature` — over observation bundles β (e.g. class
   agreement, model-only selection);
3. :class:`TransitionFeature` — over adjacent bundles (β_i, β_{i+1})
   within a track (e.g. instantaneous velocity);
4. :class:`TrackFeature` — over entire tracks τ (e.g. observation count).

A feature computes a scalar (or small vector) value for an item; a
*learned* feature gets a distribution fitted over historical values
(:mod:`repro.core.learning`), while a *manual* feature supplies its own
potential function (e.g. the distance-to-AV severity prior).

Features may be **class-conditional** (Table 2 learns volume and velocity
per object class): :meth:`Feature.group_key` returns the conditioning key.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.core.model import Observation, ObservationBundle, Track
from repro.geometry import Pose2D

__all__ = [
    "FeatureContext",
    "Feature",
    "ObservationFeature",
    "BundleFeature",
    "TransitionFeature",
    "TrackFeature",
    "FeatureKind",
]

FeatureKind = str  # "observation" | "bundle" | "transition" | "track"


@dataclass(frozen=True)
class FeatureContext:
    """Per-scene context threaded through feature computation.

    Attributes:
        dt: Seconds between adjacent frames.
        ego_poses: Optional ego pose per frame index (needed by features
            like distance-to-AV; scenes without ego data simply cannot
            use those features).
    """

    dt: float
    ego_poses: dict[int, Pose2D] | None = None

    def ego_pose_at(self, frame: int) -> Pose2D:
        if self.ego_poses is None:
            raise ValueError(
                "this scene has no ego poses; attach them via "
                "Scene.metadata['ego_poses'] or FeatureContext(ego_poses=...)"
            )
        try:
            return self.ego_poses[frame]
        except KeyError:
            raise KeyError(f"no ego pose recorded for frame {frame}") from None

    @staticmethod
    def from_scene(scene) -> "FeatureContext":
        """Build a context from a :class:`repro.core.model.Scene`.

        Reads ``scene.metadata["ego_poses"]`` when present — either a dict
        ``frame -> Pose2D`` or a list indexed by frame.
        """
        raw = scene.metadata.get("ego_poses")
        ego = None
        if raw is not None:
            if isinstance(raw, dict):
                ego = dict(raw)
            else:
                ego = {i: p for i, p in enumerate(raw)}
        return FeatureContext(dt=scene.dt, ego_poses=ego)


class Feature(ABC):
    """One user-specified feature (π entry).

    Attributes:
        name: Unique identifier (also the factor label in compiled graphs).
        kind: Which OBT element the feature applies to.
        learnable: Whether a distribution is fitted from historical data
            (True) or the feature supplies a manual potential (False).
        fitter: Name of the fitting function in
            :mod:`repro.distributions.fitting` (learned features only).
        class_conditional: Whether to fit one distribution per object
            class.
    """

    name: str
    kind: FeatureKind
    learnable: bool = True
    fitter: str = "kde"
    class_conditional: bool = False
    #: Whether :meth:`columnar_values` implements this feature's batch
    #: extraction over an ObservationTable. Setting it also promises the
    #: default :meth:`group_key` semantics (or a matching
    #: :meth:`columnar_group_keys` override).
    supports_columnar: bool = False

    # ------------------------------------------------------------------
    @abstractmethod
    def compute(self, item, context: FeatureContext):
        """Feature value for ``item``; ``None`` when not applicable.

        ``item`` is an Observation / ObservationBundle / (bundle, bundle)
        pair / Track according to :attr:`kind`.
        """

    def evaluate_batch(self, items, context: FeatureContext) -> list:
        """Feature values for many items, aligned with ``items``.

        The default loops over :meth:`compute`; features whose value is
        derivable from array math can override this to vectorize the
        extraction itself. Entries are ``None`` where the feature does not
        apply — callers (:class:`repro.core.columnar.FeatureMatrix`) drop
        those rows before batch density evaluation.
        """
        return [self.compute(item, context) for item in items]

    def columnar_values(self, table, context: FeatureContext) -> np.ndarray:
        """Array extraction over an ObservationTable (fast path).

        Only consulted when :attr:`supports_columnar` is True. Must
        return one float row per item of this feature's kind, in the
        table's global (track-major) item order, with ``NaN`` marking
        items the feature does not apply to — the array analogue of
        :meth:`compute` returning ``None``. Implementations must match
        :meth:`compute` to floating-point round-off; the scalar compile
        path is the executable reference they are property-tested
        against.
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares supports_columnar but does "
            "not implement columnar_values"
        )

    def columnar_group_keys(self, table, context: FeatureContext) -> list:
        """Conditioning keys per item for the columnar fast path.

        Default: the table's per-kind item classes when
        :attr:`class_conditional` is set (identical to what
        :meth:`group_key` returns item by item), else all-``None``.
        Features overriding :meth:`group_key` must override this too if
        they claim :attr:`supports_columnar`.
        """
        if not self.class_conditional:
            return [None] * table.kind_count(self.kind)
        return table.item_classes(self.kind)

    def manual_potential_batch(self, values) -> np.ndarray:
        """Batched :meth:`manual_potential` (manual features only).

        ``values`` is a sequence of non-``None`` feature values; returns
        one potential per value. With the default :meth:`manual_potential`
        (the value itself) this is one array conversion; a subclass that
        overrides only :meth:`manual_potential` gets a per-value loop, and
        manual features with arithmetic potentials should override this
        with array math.
        """
        if type(self).manual_potential is Feature.manual_potential:
            return np.asarray(values, dtype=float)
        return np.asarray(
            [self.manual_potential(value) for value in values], dtype=float
        )

    def group_key(self, item, context: FeatureContext) -> str | None:
        """Conditioning key for class-conditional features.

        The default implementation returns the item's (majority) object
        class when :attr:`class_conditional` is set, else ``None``.
        """
        if not self.class_conditional:
            return None
        return self._item_class(item)

    def manual_potential(self, value) -> float:
        """Potential for manual (non-learned) features.

        Default: interpret the feature value itself as the potential.
        Only consulted when :attr:`learnable` is False.
        """
        return float(value)

    # ------------------------------------------------------------------
    @staticmethod
    def _item_class(item) -> str:
        if isinstance(item, Observation):
            return item.object_class
        if isinstance(item, ObservationBundle):
            return item.representative().object_class
        if isinstance(item, Track):
            return item.majority_class()
        if isinstance(item, tuple) and len(item) == 2:
            return item[0].representative().object_class
        raise TypeError(f"cannot derive a class from {type(item).__name__}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r}, kind={self.kind!r})"


class ObservationFeature(Feature):
    """Features over single observations (paper feature type 1)."""

    kind = "observation"

    @abstractmethod
    def compute(self, obs: Observation, context: FeatureContext):
        """Value for one observation."""

    def items_of(self, track: Track):
        return track.observations

    def observations_of(self, obs: Observation) -> list[Observation]:
        return [obs]


class BundleFeature(Feature):
    """Features over observation bundles (paper feature type 2)."""

    kind = "bundle"

    @abstractmethod
    def compute(self, bundle: ObservationBundle, context: FeatureContext):
        """Value for one bundle."""

    def items_of(self, track: Track):
        return list(track.bundles)

    def observations_of(self, bundle: ObservationBundle) -> list[Observation]:
        return list(bundle.observations)


class TransitionFeature(Feature):
    """Features over adjacent bundles within a track (paper type 3)."""

    kind = "transition"

    @abstractmethod
    def compute(
        self,
        transition: tuple[ObservationBundle, ObservationBundle],
        context: FeatureContext,
    ):
        """Value for one (β_i, β_{i+1}) pair."""

    def items_of(self, track: Track):
        return track.transitions()

    def observations_of(self, transition) -> list[Observation]:
        before, after = transition
        return list(before.observations) + list(after.observations)


class TrackFeature(Feature):
    """Features over entire tracks (paper feature type 4)."""

    kind = "track"

    @abstractmethod
    def compute(self, track: Track, context: FeatureContext):
        """Value for one track."""

    def items_of(self, track: Track):
        return [track]

    def observations_of(self, track: Track) -> list[Observation]:
        return track.observations
