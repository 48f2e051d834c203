"""AuditSpec: the declarative description of one audit.

The paper's value proposition is that a user *declares* what to audit —
the feature set, the learned model, the component kind to rank — and
the system finds the label errors. :class:`AuditSpec` is that
declaration as data: a frozen, validated, JSON-round-trippable value
object that compiles onto any execution backend
(:mod:`repro.api.backends`), crosses the wire in the versioned serving
protocol (:mod:`repro.api.protocol`), and hashes to a stable identity
recorded in every result's provenance.

Pieces:

- :class:`FilterSpec` — the declarative component filter. The engine's
  callable filters (``lambda track: ...``) cannot be serialized or
  shipped to worker processes; FilterSpec expresses the common
  predicates (source membership, enclosing-track sources, size, class)
  as data and compiles to a picklable callable per rank kind.
- :class:`SceneSource` — where scenes come from: a synthetic dataset
  profile (+ split and indices) or explicit scene-JSON paths. Optional;
  programmatic callers usually pass live scenes to ``Audit.run``.
- :class:`AuditSpec` — kind/filters/top-k + feature-set name + model
  source + scene source + default backend. ``spec_hash()`` is the
  canonical identity (blake2b over sorted-key JSON).

Validation is eager and total: ``validate()`` (called by
:class:`repro.api.Audit` at bind time and by ``from_dict``) walks every
field, so a typo'd kind, backend, or feature set fails before any scene
compiles.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Mapping

from repro.core.model import SOURCE_HUMAN, SOURCE_MODEL
from repro.core.scoring import normalize_rank_kind

__all__ = [
    "SPEC_VERSION",
    "FEATURE_SETS",
    "AuditSpec",
    "FilterSpec",
    "SceneSource",
    "SpecValidationError",
]

#: Version of the AuditSpec schema itself (bumped on incompatible change).
SPEC_VERSION = 1

#: Named feature sets a spec may select (name -> factory).
FEATURE_SETS = {
    "default": "default_features",
    "model_error": "model_error_features",
}


class SpecValidationError(ValueError):
    """An AuditSpec (or a piece of one) that does not validate."""


def build_feature_set(name: str):
    """Instantiate a named feature set (library import deferred)."""
    if name not in FEATURE_SETS:
        raise SpecValidationError(
            f"unknown feature set {name!r}; expected one of "
            f"{sorted(FEATURE_SETS)}"
        )
    from repro.core import library

    return getattr(library, FEATURE_SETS[name])()


# ---------------------------------------------------------------------------
# Filters
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FilterSpec:
    """Declarative component filter, compiled per rank kind.

    Attributes:
        has_model / has_human: Require the component itself to contain
            (or not contain) model/human observations. For tracks the
            component is the track, for bundles the bundle, for
            observations the single observation's source.
        track_has_model / track_has_human: The same tests against the
            *enclosing track* — meaningful for ``bundles`` (e.g. §8.3's
            "model-only bundles inside human-labeled tracks"); for
            ``tracks`` they are synonyms of ``has_*``; rejected for
            ``observations`` (the observation filter never sees the
            track).
        min_observations: Minimum component size (track observation
            count / bundle size); rejected for ``observations``.
        classes: Restrict to these object classes (track majority
            class / bundle representative class / observation class).
    """

    has_model: bool | None = None
    has_human: bool | None = None
    track_has_model: bool | None = None
    track_has_human: bool | None = None
    min_observations: int | None = None
    classes: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.classes is not None:
            object.__setattr__(self, "classes", tuple(self.classes))

    @property
    def is_empty(self) -> bool:
        return all(getattr(self, f.name) is None for f in fields(self))

    def validate(self, kind: str) -> None:
        kind = normalize_rank_kind(kind)
        for name in ("has_model", "has_human", "track_has_model", "track_has_human"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, bool):
                raise SpecValidationError(
                    f"filter field {name} must be a bool or null, got {value!r}"
                )
        if self.min_observations is not None:
            if not isinstance(self.min_observations, int) or self.min_observations < 1:
                raise SpecValidationError(
                    "filter field min_observations must be a positive "
                    f"integer, got {self.min_observations!r}"
                )
            if kind == "observations":
                raise SpecValidationError(
                    "min_observations does not apply to kind 'observations' "
                    "(a single observation has no size)"
                )
        if kind == "observations" and (
            self.track_has_model is not None or self.track_has_human is not None
        ):
            raise SpecValidationError(
                "track_has_model/track_has_human do not apply to kind "
                "'observations' (the observation filter never sees the track)"
            )
        if self.classes is not None:
            if not self.classes or not all(
                isinstance(c, str) for c in self.classes
            ):
                raise SpecValidationError(
                    f"filter field classes must be a non-empty list of "
                    f"class names, got {self.classes!r}"
                )

    def compile(self, kind: str):
        """A picklable filter callable for ``kind`` (None when empty).

        The callable matches the kind's filter signature —
        ``(track)``, ``(bundle, track)``, or ``(observation)`` — and,
        being a module-level class instance, crosses the
        :class:`~repro.serving.sharded.ShardedRanker` process boundary
        where a lambda cannot.
        """
        self.validate(kind)
        if self.is_empty:
            return None
        return CompiledFilter(self, normalize_rank_kind(kind))

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                out[f.name] = list(value) if f.name == "classes" else value
        return out

    @staticmethod
    def from_dict(data: Mapping) -> "FilterSpec":
        known = {f.name for f in fields(FilterSpec)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecValidationError(f"unknown filter fields: {unknown}")
        kwargs = dict(data)
        if kwargs.get("classes") is not None:
            kwargs["classes"] = tuple(kwargs["classes"])
        return FilterSpec(**kwargs)


def _source_match(has_model, has_human, sources) -> bool:
    """Whether a component with observation ``sources`` passes the
    ``has_model``/``has_human`` tri-state flags (``None`` = either)."""
    if has_model is not None and (SOURCE_MODEL in sources) != has_model:
        return False
    if has_human is not None and (SOURCE_HUMAN in sources) != has_human:
        return False
    return True


class CompiledFilter:
    """A :class:`FilterSpec` bound to one rank kind, as a callable.

    Defined at module level (not a closure) so instances pickle across
    the sharded backend's process boundary.
    """

    def __init__(self, spec: FilterSpec, kind: str):
        self.spec = spec
        self.kind = kind

    def __repr__(self) -> str:
        return f"CompiledFilter({self.spec!r}, kind={self.kind!r})"

    def __call__(self, *args) -> bool:
        # ``Track.sources`` / ``ObservationBundle.sources`` rebuild a set
        # on every access: read each one once per call.
        spec = self.spec
        if self.kind == "tracks":
            (track,) = args
            sources = track.sources
            if not _source_match(spec.has_model, spec.has_human, sources):
                return False
            if not _source_match(
                spec.track_has_model, spec.track_has_human, sources
            ):
                return False
            if (
                spec.min_observations is not None
                and track.n_observations < spec.min_observations
            ):
                return False
            if spec.classes is not None and track.majority_class() not in spec.classes:
                return False
            return True
        if self.kind == "bundles":
            bundle, track = args
            if not _source_match(spec.has_model, spec.has_human, bundle.sources):
                return False
            if (
                spec.track_has_model is not None or spec.track_has_human is not None
            ) and not _source_match(
                spec.track_has_model, spec.track_has_human, track.sources
            ):
                return False
            if (
                spec.min_observations is not None
                and len(bundle) < spec.min_observations
            ):
                return False
            if (
                spec.classes is not None
                and bundle.representative().object_class not in spec.classes
            ):
                return False
            return True
        # observations
        (obs,) = args
        if not _source_match(spec.has_model, spec.has_human, (obs.source,)):
            return False
        if spec.classes is not None and obs.object_class not in spec.classes:
            return False
        return True


# ---------------------------------------------------------------------------
# Scene sources
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SceneSource:
    """Where an audit's scenes come from, as data.

    Exactly one of ``profile`` (a synthetic dataset profile name),
    ``paths`` (scene-JSON files written by ``Scene.save`` /
    ``repro.cli generate``), or ``warehouse`` (a
    :class:`~repro.warehouse.SceneWarehouse` database path) must be
    set. With ``profile``, ``split`` selects training or validation
    scenes and ``n_train``/``n_val`` size the build (rejected
    elsewhere, where ``split`` is irrelevant and ignored). With
    ``warehouse``, ``predicate`` (a
    :class:`~repro.warehouse.ScenePredicate` or its dict form) prunes
    the corpus on the metadata indexes and ``batch`` bounds how many
    decoded scenes an out-of-core audit keeps resident at once.
    ``indices`` picks specific scenes out of whatever ordered list the
    source resolves to — profile split, path list, or the warehouse's
    canonical fingerprint order alike.
    """

    profile: str | None = None
    split: str = "val"
    n_train: int | None = None
    n_val: int | None = None
    indices: tuple[int, ...] | None = None
    paths: tuple[str, ...] | None = None
    warehouse: str | None = None
    predicate: object = None
    batch: int | None = None

    def __post_init__(self):
        if self.indices is not None:
            object.__setattr__(self, "indices", tuple(self.indices))
        if self.paths is not None:
            object.__setattr__(self, "paths", tuple(str(p) for p in self.paths))
        if self.warehouse is not None:
            object.__setattr__(self, "warehouse", str(self.warehouse))
        if self.predicate is not None:
            from repro.warehouse.index import ScenePredicate

            if not isinstance(self.predicate, ScenePredicate):
                object.__setattr__(
                    self, "predicate", ScenePredicate.from_dict(self.predicate)
                )

    @property
    def is_out_of_core(self) -> bool:
        """True when this source can resolve lazily from a warehouse —
        backends should prefer :meth:`resolve_iter` over materializing."""
        return self.warehouse is not None

    @property
    def effective_batch(self) -> int:
        """The resident-batch budget for out-of-core resolution."""
        if self.batch is not None:
            return self.batch
        from repro.warehouse.store import DEFAULT_BATCH

        return DEFAULT_BATCH

    def validate(self) -> None:
        set_sources = [
            name
            for name in ("profile", "paths", "warehouse")
            if getattr(self, name) is not None
        ]
        if len(set_sources) != 1:
            raise SpecValidationError(
                "scene source needs exactly one of profile=, paths=, or "
                "warehouse="
            )
        if self.profile is not None:
            from repro.datasets import PROFILES

            if self.profile not in PROFILES:
                raise SpecValidationError(
                    f"unknown dataset profile {self.profile!r}; expected one "
                    f"of {sorted(PROFILES)}"
                )
        if self.split not in ("train", "val"):
            raise SpecValidationError(
                f"split must be 'train' or 'val', got {self.split!r}"
            )
        for name in ("n_train", "n_val"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or value < 1):
                raise SpecValidationError(
                    f"{name} must be a positive integer, got {value!r}"
                )
            if value is not None and self.profile is None:
                raise SpecValidationError(
                    f"{name} sizes a profile build and does not apply to a "
                    f"{set_sources[0]}= scene source"
                )
        if self.indices is not None and not all(
            isinstance(i, int) and i >= 0 for i in self.indices
        ):
            raise SpecValidationError(
                f"indices must be non-negative integers, got {self.indices!r}"
            )
        for name in ("predicate", "batch"):
            if getattr(self, name) is not None and self.warehouse is None:
                raise SpecValidationError(
                    f"{name}= prunes a warehouse corpus and does not apply "
                    f"to a {set_sources[0]}= scene source"
                )
        if self.batch is not None and (
            not isinstance(self.batch, int) or self.batch < 1
        ):
            raise SpecValidationError(
                f"batch must be a positive integer, got {self.batch!r}"
            )

    def resolve(self):
        """Materialize the audit scenes (list of live ``Scene``)."""
        return list(self.resolve_iter())

    def resolve_iter(self):
        """Yield the audit scenes lazily, in the source's order.

        ``paths=`` sources load one file at a time and ``warehouse=``
        sources fetch blobs in ``effective_batch``-bounded chunks, so a
        streaming consumer never holds the whole corpus; ``profile``
        sources still build the dataset up front (synthesis is not
        incremental).
        """
        self.validate()
        if self.paths is not None:
            from repro.core.model import Scene

            paths = self._select(list(self.paths), "path list")
            for path in paths:
                yield Scene.load(path)
        elif self.warehouse is not None:
            with self.open_warehouse() as warehouse:
                fingerprints = self.warehouse_fingerprints(warehouse)
                for batch in warehouse.fetch_batches(
                    fingerprints, self.effective_batch
                ):
                    for _, scene in batch:
                        yield scene
        else:
            dataset = self._dataset()
            if self.split == "train":
                scenes = list(dataset.train_scenes)
            else:
                scenes = [ls.scene for ls in dataset.val_scenes]
            yield from self._select(scenes, f"split {self.split!r}")

    def open_warehouse(self):
        """The source's :class:`~repro.warehouse.SceneWarehouse`
        (existing databases only — a typo'd path fails loudly)."""
        from repro.warehouse import SceneWarehouse

        return SceneWarehouse(self.warehouse, create=False)

    def warehouse_fingerprints(self, warehouse) -> list[str]:
        """The pruned fingerprint list, in canonical (fingerprint)
        order, with ``indices`` applied."""
        fingerprints = warehouse.query(self.predicate)
        return self._select(fingerprints, "warehouse selection")

    def _select(self, items: list, described: str) -> list:
        if self.indices is None:
            return items
        for i in self.indices:
            if i >= len(items):
                raise SpecValidationError(
                    f"scene index {i} out of range ({described} has "
                    f"{len(items)} scenes)"
                )
        return [items[i] for i in self.indices]

    def resolve_training_scenes(self):
        """The profile's training split (the default model source)."""
        self.validate()
        if self.profile is None:
            raise SpecValidationError(
                f"a {'paths' if self.paths is not None else 'warehouse'}= "
                "scene source carries no training split; give the spec a "
                "model_path or pass a fitted engine / training scenes"
            )
        return list(self._dataset().train_scenes)

    def _dataset(self):
        from repro.datasets import PROFILES, build_dataset

        return build_dataset(
            PROFILES[self.profile],
            n_train_scenes=self.n_train,
            n_val_scenes=self.n_val,
        )

    def to_dict(self) -> dict:
        out: dict = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "split":
                # Only profile sources consult split; emitting it for
                # paths/warehouse sources made equivalent sources hash
                # to different spec_hash() values.
                if self.profile is not None:
                    out["split"] = self.split
            elif f.name == "predicate":
                if value is not None:
                    out["predicate"] = value.to_dict()
            elif value is not None:
                out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @staticmethod
    def from_dict(data: Mapping) -> "SceneSource":
        known = {f.name for f in fields(SceneSource)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecValidationError(f"unknown scene source fields: {unknown}")
        kwargs = dict(data)
        for name in ("indices", "paths"):
            if kwargs.get(name) is not None:
                kwargs[name] = tuple(kwargs[name])
        return SceneSource(**kwargs)


# ---------------------------------------------------------------------------
# The spec
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AuditSpec:
    """One audit, declared as data.

    Attributes:
        kind: Component kind to rank (``"tracks"``/``"bundles"``/
            ``"observations"``; singulars accepted and canonicalized).
        top_k: Keep only the best ``top_k`` items (``None`` = all).
        filters: Declarative component filter (:class:`FilterSpec`).
        features: Named feature set (``"default"``/``"model_error"``).
        model_path: Path to a saved :class:`~repro.core.LearnedModel`
            JSON; ``None`` means fit on training scenes supplied at
            bind time (or the scene source's training split).
        scenes: Declarative scene source; ``None`` means live scenes
            are passed to :meth:`repro.api.Audit.run`.
        backend: Default execution backend name (overridable per run).
        backend_options: Keyword options for the backend constructor
            (e.g. ``{"n_workers": 4}`` for ``sharded``).
        version: Spec schema version (must equal :data:`SPEC_VERSION`).
    """

    kind: str = "tracks"
    top_k: int | None = None
    filters: FilterSpec | None = None
    features: str = "default"
    model_path: str | None = None
    scenes: SceneSource | None = None
    backend: str = "inline"
    backend_options: dict = field(default_factory=dict)
    version: int = SPEC_VERSION

    def __post_init__(self):
        object.__setattr__(self, "kind", normalize_rank_kind(self.kind))
        object.__setattr__(self, "backend_options", dict(self.backend_options))

    def validate(self) -> "AuditSpec":
        """Validate every field; returns self so calls chain."""
        if self.version != SPEC_VERSION:
            raise SpecValidationError(
                f"unsupported spec version {self.version!r}; this build "
                f"speaks version {SPEC_VERSION}"
            )
        normalize_rank_kind(self.kind)  # raises UnknownRankKindError
        if self.top_k is not None and (
            not isinstance(self.top_k, int) or self.top_k < 1
        ):
            raise SpecValidationError(
                f"top_k must be a positive integer or null, got {self.top_k!r}"
            )
        if self.features not in FEATURE_SETS:
            raise SpecValidationError(
                f"unknown feature set {self.features!r}; expected one of "
                f"{sorted(FEATURE_SETS)}"
            )
        if self.filters is not None:
            self.filters.validate(self.kind)
        if self.scenes is not None:
            self.scenes.validate()
        from repro.api.backends import require_backend

        require_backend(self.backend)
        if not isinstance(self.backend_options, dict):
            raise SpecValidationError(
                f"backend_options must be a mapping, got "
                f"{type(self.backend_options).__name__}"
            )
        return self

    def with_backend(self, backend: str, **backend_options) -> "AuditSpec":
        """A copy of this spec targeting a different backend."""
        return replace(
            self, backend=backend, backend_options=dict(backend_options)
        )

    def standing_spec(self) -> "AuditSpec":
        """This spec reduced to its standing-query fields.

        A standing audit (:class:`repro.serving.standing.StandingAudit`)
        ranks with the owning session's engine, so only ``kind``,
        ``top_k``, ``filters``, and ``features`` are meaningful —
        execution fields (model source, scene source, backend) are
        normalized away. Two specs that differ only in execution detail
        therefore hash to the same default subscription id.
        """
        return replace(
            self,
            model_path=None,
            scenes=None,
            backend="inline",
            backend_options={},
        )

    def compile_filter(self):
        """The spec's filter as a picklable callable (or ``None``)."""
        if self.filters is None:
            return None
        return self.filters.compile(self.kind)

    # ------------------------------------------------------------------
    # Serialization + identity
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out: dict = {"version": self.version, "kind": self.kind}
        if self.top_k is not None:
            out["top_k"] = self.top_k
        if self.filters is not None and not self.filters.is_empty:
            out["filters"] = self.filters.to_dict()
        out["features"] = self.features
        if self.model_path is not None:
            out["model_path"] = self.model_path
        if self.scenes is not None:
            out["scenes"] = self.scenes.to_dict()
        out["backend"] = self.backend
        if self.backend_options:
            out["backend_options"] = dict(self.backend_options)
        return out

    @staticmethod
    def from_dict(data: Mapping) -> "AuditSpec":
        known = {f.name for f in fields(AuditSpec)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecValidationError(f"unknown spec fields: {unknown}")
        kwargs = dict(data)
        if kwargs.get("filters") is not None:
            kwargs["filters"] = FilterSpec.from_dict(kwargs["filters"])
        if kwargs.get("scenes") is not None:
            kwargs["scenes"] = SceneSource.from_dict(kwargs["scenes"])
        try:
            spec = AuditSpec(**kwargs)
        except TypeError as exc:
            raise SpecValidationError(f"bad spec payload: {exc}") from None
        return spec.validate()

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "AuditSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecValidationError(f"spec is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise SpecValidationError("spec JSON must be an object")
        return AuditSpec.from_dict(data)

    def spec_hash(self) -> str:
        """Stable identity: blake2b over the canonical (sorted-key) JSON."""
        text = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()
