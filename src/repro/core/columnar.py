"""Columnar scene representation: extract features once, evaluate in bulk.

The scalar compile path (:func:`repro.core.compile.compile_scene` with
``vectorized=False``) evaluates every (feature, item) pair with one
``likelihood()`` call — for a KDE-backed feature that is one full pass
over the training sample *per item*, plus Python call overhead per item.
At the paper's target scale ("millions of users", 100+ tracks per scene)
those per-item costs dominate end-to-end latency.

This module is the columnar middle layer that removes them:

- :class:`ObservationTable` — flattens every observation into parallel
  NumPy arrays (centers, dimensions, yaw, frame, confidence,
  source/class codes) plus bundle / transition / track index ranges.
  Rows are track-major, bundle-major, in-bundle order, so every bundle,
  transition, and track covers a *contiguous* row range. Construction
  is one pass over the observations into a single float array, split
  into the typed fields; the ranges come from cumulative sizes, and the
  bundle representatives from one ``lexsort``. No step loops per
  track, bundle or row in Python beyond that single read.
- :class:`FeatureColumn` — all items of one feature across the scene as
  parallel arrays: feature values, validity, conditioning groups, member
  observation row ranges, and the per-track coordinates that name the
  resulting factors.
- :class:`FeatureMatrix` — one column per feature. Features that
  implement :meth:`~repro.core.features.Feature.columnar_values`
  (``supports_columnar = True``) are extracted with pure array math over
  the table; any other feature falls back to a per-item
  :meth:`~repro.core.features.Feature.evaluate_batch` loop with
  identical semantics.

Compilation then scores each column with a handful of batched
``log_pdf`` calls (one per learned (feature, group) pair — see
:meth:`repro.core.learning.LearnedModel.likelihood_batch`) instead of
O(items × features) scalar density evaluations, and scoring reads
factor potentials straight out of these arrays without materializing
factor-graph node objects.

The table's arrays are exact, not approximations: each field holds the
observation attribute bit for bit (``None`` confidence as NaN), and
``bundle_rep`` is :meth:`~repro.core.model.ObservationBundle.representative`
row for row (see :mod:`repro.core.compile` for the kernel's
byte-identity contract).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from operator import attrgetter

import numpy as np

from repro.core.features import Feature, FeatureContext
from repro.core.model import (
    SOURCE_HUMAN,
    SOURCE_MODEL,
    Observation,
    ObservationBundle,
    Scene,
    Track,
)

__all__ = [
    "ObservationTable",
    "FeatureColumn",
    "FeatureMatrix",
    "SplicedTable",
    "SplicedMatrix",
]


_OBS_FIELD_NAMES = (
    "frame", "box.x", "box.y", "box.z", "box.length", "box.width",
    "box.height", "box.yaw", "confidence",
)
_OBS_FIELDS = attrgetter(*_OBS_FIELD_NAMES)
_OBS_ID = attrgetter("obs_id")
_OBS_SOURCE = attrgetter("source")
_OBS_CLASS = attrgetter("object_class")
_BUNDLE_FRAME = attrgetter("frame")
_BUNDLE_OBS = attrgetter("observations")
_TRACK_BUNDLES = attrgetter("bundles")


def cumulative_offsets(sizes) -> np.ndarray:
    """Cumulative offsets ``[0, s0, s0+s1, ...]`` of consecutive ranges."""
    out = np.zeros(len(sizes) + 1, dtype=int)
    np.cumsum(sizes, out=out[1:])
    return out


def _slices(bounds: np.ndarray) -> list[tuple[int, int]]:
    """``[start, stop)`` pairs (Python ints) from cumulative offsets."""
    edges = bounds.tolist()
    return list(zip(edges[:-1], edges[1:]))


def concat_arrays(parts: list[np.ndarray], dtype) -> np.ndarray:
    """``np.concatenate`` tolerating an empty part list (shared by the
    columnar compile and the splice paths)."""
    if not parts:
        return np.empty(0, dtype=dtype)
    return np.concatenate(parts).astype(dtype, copy=False)


class ObservationTable:
    """Flat, array-backed view of one scene's observations.

    Row order is track-major: observations appear in
    ``scene.tracks`` order, within a track in bundle (frame) order, and
    within a bundle in insertion order — exactly the traversal order of
    the scalar compile path. Consequently every bundle, transition
    (adjacent bundle pair), and track corresponds to a contiguous row
    range, which is what lets factor membership be stored as
    ``(start, stop)`` pairs instead of edge lists.
    """

    def __init__(self, scene: Scene):
        self.scene = scene
        self.tracks: list[Track] = list(scene.tracks)
        bundles = [b for t in self.tracks for b in t.bundles]
        observations = [o for b in bundles for o in b.observations]
        self.observations = observations
        self.bundles = bundles
        n = len(observations)

        self.row_of: dict[str, int] = dict(
            zip(map(_OBS_ID, observations), range(n))
        )
        if len(self.row_of) != n:
            seen: set[str] = set()
            for obs in observations:
                if obs.obs_id in seen:
                    # Same rejection (and message) the eager graph build
                    # produced via FactorGraph.add_variable.
                    raise ValueError(f"variable {obs.obs_id!r} already exists")
                seen.add(obs.obs_id)

        # Every per-observation number in one pass, then split. NumPy
        # reads a ``None`` confidence as NaN.
        fields = np.fromiter(
            chain.from_iterable(map(_OBS_FIELDS, observations)),
            float,
            len(_OBS_FIELD_NAMES) * n,
        ).reshape(n, len(_OBS_FIELD_NAMES)).T.copy()
        self.frame = fields[0].astype(int)
        (self.x, self.y, self.z, self.length, self.width, self.height,
         self.yaw, self.confidence) = fields[1:]
        sources = list(map(_OBS_SOURCE, observations))
        self.is_model = np.fromiter(map(SOURCE_MODEL.__eq__, sources), bool, n)
        self.is_human = np.fromiter(map(SOURCE_HUMAN.__eq__, sources), bool, n)
        self.obs_class: list[str] = list(map(_OBS_CLASS, observations))
        class_code = {c: i for i, c in enumerate(sorted(set(self.obs_class)))}
        self.class_codes = np.fromiter(
            map(class_code.__getitem__, self.obs_class), int, n
        )

        # Bundle and track geometry from cumulative sizes.
        nb = len(bundles)
        sizes = np.fromiter(map(len, map(_BUNDLE_OBS, bundles)), int, nb)
        bundle_bounds = cumulative_offsets(sizes)
        self.bundle_start = bundle_bounds[:-1]
        self.bundle_stop = bundle_bounds[1:]
        self.bundle_frame = np.fromiter(map(_BUNDLE_FRAME, bundles), int, nb)
        self.bundle_rep = self._representative_rows()

        per_track = np.fromiter(
            map(len, map(_TRACK_BUNDLES, self.tracks)), int, len(self.tracks)
        )
        track_bundles = cumulative_offsets(per_track)
        track_obs = bundle_bounds[track_bundles]
        # Transitions: adjacent bundle pairs within each track.
        track_of = np.arange(len(self.tracks)).repeat(per_track)
        self.trans_before = (track_of[1:] == track_of[:-1]).nonzero()[0]
        self.trans_after = self.trans_before + 1
        track_trans = self.trans_before.searchsorted(track_bundles)

        self._kind_bounds = {
            "observation": track_obs,
            "bundle": track_bundles,
            "transition": track_trans,
        }
        self.track_obs_slices = _slices(track_obs)
        self.track_bundle_slices = _slices(track_bundles)
        self.track_trans_slices = _slices(track_trans)
        self._transitions: list[tuple] | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def concat(scene: Scene, tables: list["ObservationTable"]) -> "ObservationTable":
        """Splice per-track tables into one scene-wide table.

        ``tables`` must cover ``scene.tracks`` in order (in practice one
        single-track table per track — the delta-recompilation substrate:
        only changed tracks are re-extracted, the rest are spliced back
        by pure array concatenation). All index arrays are shifted by the
        obvious row/bundle/transition offsets; no observation is
        re-inspected.
        """
        merged = ObservationTable.__new__(ObservationTable)
        merged.scene = scene
        merged.tracks = [t for tab in tables for t in tab.tracks]
        if [t.track_id for t in merged.tracks] != [t.track_id for t in scene.tracks]:
            raise ValueError(
                "tables do not cover scene.tracks in order: "
                f"{[t.track_id for t in merged.tracks]} != "
                f"{[t.track_id for t in scene.tracks]}"
            )
        merged.observations = [o for tab in tables for o in tab.observations]
        merged.bundles = [b for tab in tables for b in tab.bundles]

        row_of: dict[str, int] = {}
        track_obs_slices: list[tuple[int, int]] = []
        track_bundle_slices: list[tuple[int, int]] = []
        track_trans_slices: list[tuple[int, int]] = []
        r = b = t = 0  # observation / bundle / transition offsets
        for tab in tables:
            for obs_id, row in tab.row_of.items():
                row_of[obs_id] = row + r
            track_obs_slices.extend((s + r, e + r) for s, e in tab.track_obs_slices)
            track_bundle_slices.extend(
                (s + b, e + b) for s, e in tab.track_bundle_slices
            )
            track_trans_slices.extend(
                (s + t, e + t) for s, e in tab.track_trans_slices
            )
            r += tab.n_obs
            b += tab.n_bundles
            t += tab.n_transitions
        if len(row_of) != len(merged.observations):
            seen: set[str] = set()
            for obs in merged.observations:
                if obs.obs_id in seen:
                    raise ValueError(f"variable {obs.obs_id!r} already exists")
                seen.add(obs.obs_id)
        merged.row_of = row_of
        merged.track_obs_slices = track_obs_slices
        merged.track_bundle_slices = track_bundle_slices
        merged.track_trans_slices = track_trans_slices

        cat = concat_arrays
        for field_name, dtype in (
            ("frame", int), ("x", float), ("y", float), ("z", float),
            ("length", float), ("width", float), ("height", float),
            ("yaw", float), ("is_model", bool), ("is_human", bool),
            ("confidence", float), ("bundle_frame", int),
        ):
            setattr(
                merged, field_name,
                cat([getattr(tab, field_name) for tab in tables], dtype),
            )
        merged.obs_class = [c for tab in tables for c in tab.obs_class]
        classes = sorted(set(merged.obs_class))
        class_code = {c: i for i, c in enumerate(classes)}
        merged.class_codes = np.fromiter(
            (class_code[c] for c in merged.obs_class), int, len(merged.obs_class)
        )

        obs_offsets = np.cumsum([0] + [tab.n_obs for tab in tables])
        bundle_offsets = np.cumsum([0] + [tab.n_bundles for tab in tables])
        merged.bundle_start = cat(
            [tab.bundle_start + off for tab, off in zip(tables, obs_offsets)], int
        )
        merged.bundle_stop = cat(
            [tab.bundle_stop + off for tab, off in zip(tables, obs_offsets)], int
        )
        merged.bundle_rep = cat(
            [tab.bundle_rep + off for tab, off in zip(tables, obs_offsets)], int
        )
        merged.trans_before = cat(
            [tab.trans_before + off for tab, off in zip(tables, bundle_offsets)], int
        )
        merged.trans_after = merged.trans_before + 1
        merged._transitions = None
        return merged

    # ------------------------------------------------------------------
    @property
    def n_obs(self) -> int:
        return len(self.observations)

    @property
    def n_bundles(self) -> int:
        return len(self.bundles)

    @property
    def n_transitions(self) -> int:
        return int(self.trans_before.size)

    @property
    def transitions(self) -> list[tuple[ObservationBundle, ObservationBundle]]:
        """All (β_i, β_{i+1}) item tuples, built once on first use."""
        if self._transitions is None:
            self._transitions = [
                (self.bundles[b], self.bundles[b + 1]) for b in self.trans_before
            ]
        return self._transitions

    def _representative_rows(self) -> np.ndarray:
        """Row of each bundle's representative observation.

        Mirrors :meth:`repro.core.model.ObservationBundle.representative`:
        the highest-confidence model observation (first wins ties), else
        the bundle's first observation (its start row, for an empty
        bundle). One ``lexsort`` over the candidate rows orders them by
        (bundle, confidence descending, row); each bundle's first
        candidate is its representative.
        """
        reps = self.bundle_start.copy()
        candidates = (self.is_model & ~np.isnan(self.confidence)).nonzero()[0]
        if candidates.size:
            bundle_of = self.bundle_stop.searchsorted(candidates, "right")
            order = np.lexsort(
                (candidates, -self.confidence[candidates], bundle_of)
            )
            bundle_of = bundle_of[order]
            first = np.ones(bundle_of.size, dtype=bool)
            first[1:] = bundle_of[1:] != bundle_of[:-1]
            reps[bundle_of[first]] = candidates[order][first]
        return reps

    # ------------------------------------------------------------------
    # Per-kind geometry: item counts, member ranges, track slices.
    # ------------------------------------------------------------------
    def kind_count(self, kind: str) -> int:
        return self.kind_counts()[kind]

    def kind_counts(self) -> dict[str, int]:
        """All per-kind item counts, memoized (tables are immutable —
        splicing reads these once per segment per delta recompile)."""
        counts = self.__dict__.get("_kind_counts")
        if counts is None:
            counts = {
                "observation": self.n_obs,
                "bundle": self.n_bundles,
                "transition": self.n_transitions,
                "track": len(self.tracks),
            }
            self._kind_counts = counts
        return counts

    def kind_items(self, kind: str) -> list:
        """Item objects of a kind, in global (track-major) order."""
        if kind == "observation":
            return self.observations
        if kind == "bundle":
            return self.bundles
        if kind == "transition":
            return self.transitions
        if kind == "track":
            return self.tracks
        raise ValueError(f"unknown feature kind {kind!r}")

    def kind_member_ranges(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """``(start, stop)`` observation-row ranges per item of a kind."""
        if kind == "observation":
            rows = np.arange(self.n_obs, dtype=int)
            return rows, rows + 1
        if kind == "bundle":
            return self.bundle_start, self.bundle_stop
        if kind == "transition":
            return (
                self.bundle_start[self.trans_before],
                self.bundle_stop[self.trans_after],
            )
        if kind == "track":
            bounds = self.kind_track_bounds("observation")
            return bounds[:-1], bounds[1:]
        raise ValueError(f"unknown feature kind {kind!r}")

    def kind_track_bounds(self, kind: str) -> np.ndarray:
        """Per-track item offsets of a kind as one array: track ``t``
        covers items ``[bounds[t], bounds[t + 1])`` (memoized)."""
        memo = self.__dict__.setdefault("_kind_bounds", {})
        bounds = memo.get(kind)
        if bounds is None:
            if kind == "track":
                bounds = np.arange(len(self.tracks) + 1)
            else:
                slices = self.kind_track_slices(kind)
                bounds = np.asarray(
                    [0] + [e for _, e in slices], dtype=int
                )
            memo[kind] = bounds
        return bounds

    def kind_track_slices(self, kind: str) -> list[tuple[int, int]]:
        """Per-track ``[start, stop)`` item ranges for a kind."""
        if kind == "observation":
            return self.track_obs_slices
        if kind == "bundle":
            return self.track_bundle_slices
        if kind == "transition":
            return self.track_trans_slices
        if kind == "track":
            return [(i, i + 1) for i in range(len(self.tracks))]
        raise ValueError(f"unknown feature kind {kind!r}")

    def item_classes(self, kind: str) -> list[str]:
        """The default conditioning class per item of a kind.

        Matches ``Feature._item_class``: an observation's own class, a
        bundle's representative class, a transition's before-bundle
        representative class, a track's majority class.
        """
        if kind == "observation":
            return self.obs_class
        if kind == "bundle":
            return list(map(self.obs_class.__getitem__, self.bundle_rep.tolist()))
        if kind == "transition":
            reps = self.bundle_rep[self.trans_before]
            return list(map(self.obs_class.__getitem__, reps.tolist()))
        if kind == "track":
            return [t.majority_class() for t in self.tracks]
        raise ValueError(f"unknown feature kind {kind!r}")


@dataclass
class FeatureColumn:
    """All items of one feature over one scene, as parallel arrays.

    Arrays are full-length (one row per item, valid or not); ``valid``
    marks the rows whose feature value applies. Invalid rows still
    occupy their position so per-track item indices — and hence factor
    names (``feature@track#index``) — match the scalar compile path
    exactly. Columnar-extracted columns leave ``items`` as ``None`` and
    resolve item objects lazily through the table; fallback columns
    (custom ``items_of``) record their own item list and per-track row
    slices.
    """

    feature: Feature
    kind: str
    table: ObservationTable
    #: feature value per item; NaN rows are inapplicable. ``None`` when
    #: the fallback path kept raw (possibly non-numeric) values instead.
    values: np.ndarray | None
    #: raw per-item values (fallback path only; ``None`` marks inapplicable)
    values_list: list | None
    #: whether each row's feature value applies
    valid: np.ndarray
    #: conditioning key per row (learnable features only, else ``None``)
    groups: list | None
    #: member observation row range per item
    member_start: np.ndarray
    member_stop: np.ndarray
    #: ``[start, stop)`` row range per track (scene track order)
    track_slices: list[tuple[int, int]]
    #: item objects per row (fallback path; ``None`` = use the table's
    #: per-kind items)
    items: list | None = None
    #: rare non-contiguous member rows (custom ``observations_of``),
    #: keyed by row index
    member_overrides: dict[int, np.ndarray] = field(default_factory=dict)
    #: AOF-transformed potentials per row (filled in by compilation;
    #: NaN rows produce no factor)
    potentials: np.ndarray | None = None

    def __len__(self) -> int:
        return int(self.valid.size)

    def item_at(self, row: int):
        """The item object at a row (lazy through the table if columnar)."""
        if self.items is not None:
            return self.items[row]
        return self.table.kind_items(self.kind)[row]

    def track_stops(self) -> np.ndarray:
        """End row of each track's ``[start, stop)`` slice, as an array
        (track slices are consecutive, so row ``r`` belongs to track
        ``searchsorted(stops, r, "right")``)."""
        if self.items is None:
            return self.table.kind_track_bounds(self.kind)[1:]
        return np.fromiter(
            (e for _, e in self.track_slices), int, len(self.track_slices)
        )


@dataclass
class FeatureMatrix:
    """Per-feature columnar extraction of one scene."""

    scene: Scene
    context: FeatureContext
    table: ObservationTable
    columns: dict[str, FeatureColumn] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        return sum(len(c) for c in self.columns.values())

    @staticmethod
    def build(
        scene: Scene,
        features: list[Feature],
        context: FeatureContext | None = None,
        table: ObservationTable | None = None,
    ) -> "FeatureMatrix":
        """Extract every feature once over ``scene``.

        Features with ``supports_columnar`` run as array math over the
        shared :class:`ObservationTable`; the rest go through a per-item
        :meth:`Feature.evaluate_batch` loop. Either way each feature is
        computed exactly once per scene.
        """
        ctx = context or FeatureContext.from_scene(scene)
        tbl = table or ObservationTable(scene)
        matrix = FeatureMatrix(scene=scene, context=ctx, table=tbl)
        for feature in features:
            if feature.supports_columnar:
                column = _columnar_column(feature, tbl, ctx)
            else:
                column = _fallback_column(feature, tbl, ctx)
            matrix.columns[feature.name] = column
        return matrix

    @staticmethod
    def concat(
        scene: Scene,
        context: FeatureContext,
        table: ObservationTable,
        matrices: list["FeatureMatrix"],
    ) -> "FeatureMatrix":
        """Splice per-track matrices (aligned with ``table``) into one.

        The counterpart of :meth:`ObservationTable.concat` for the
        per-feature columns: values/validity/potentials concatenate,
        member ranges shift by observation-row offsets, per-track item
        slices shift by per-kind item offsets. No feature is
        re-evaluated.
        """
        merged = FeatureMatrix(scene=scene, context=context, table=table)
        if not matrices:
            return merged
        names = list(matrices[0].columns)
        for m in matrices[1:]:
            if list(m.columns) != names:
                raise ValueError(
                    "matrices disagree on feature columns: "
                    f"{list(m.columns)} != {names}"
                )
        obs_offsets = np.cumsum([0] + [m.table.n_obs for m in matrices])
        for name in names:
            parts = [m.columns[name] for m in matrices]
            kind = parts[0].kind
            feature = parts[0].feature
            # Offsets come from actual column lengths, not table kind
            # counts: a fallback column with a custom ``items_of`` may
            # carry fewer rows than the table has items of its kind.
            item_offsets = np.cumsum([0] + [len(c) for c in parts])
            values = _concat_values([c.values for c in parts])
            values_list = None
            if parts[0].values_list is not None:
                values_list = [v for c in parts for v in c.values_list]
            valid = (
                np.concatenate([c.valid for c in parts])
                if parts else np.empty(0, dtype=bool)
            )
            groups = None
            if parts[0].groups is not None:
                groups = [g for c in parts for g in c.groups]
            member_start = np.concatenate(
                [c.member_start + off for c, off in zip(parts, obs_offsets)]
            ).astype(int, copy=False)
            member_stop = np.concatenate(
                [c.member_stop + off for c, off in zip(parts, obs_offsets)]
            ).astype(int, copy=False)
            track_slices = [
                (s + off, e + off)
                for c, off in zip(parts, item_offsets)
                for s, e in c.track_slices
            ]
            items = None
            if parts[0].items is not None:
                items = [item for c in parts for item in c.items]
            overrides: dict[int, np.ndarray] = {}
            for c, item_off, obs_off in zip(parts, item_offsets, obs_offsets):
                for row, rows in c.member_overrides.items():
                    overrides[row + int(item_off)] = rows + int(obs_off)
            potentials = None
            if parts[0].potentials is not None:
                potentials = np.concatenate([c.potentials for c in parts])
            merged.columns[name] = FeatureColumn(
                feature=feature,
                kind=kind,
                table=table,
                values=values,
                values_list=values_list,
                valid=valid,
                groups=groups,
                member_start=member_start,
                member_stop=member_stop,
                track_slices=track_slices,
                items=items,
                member_overrides=overrides,
                potentials=potentials,
            )
        return merged


def _columnar_column(
    feature: Feature, table: ObservationTable, ctx: FeatureContext
) -> FeatureColumn:
    """Build a column with pure array extraction (``columnar_values``)."""
    kind = feature.kind
    n = table.kind_count(kind)
    values = np.asarray(feature.columnar_values(table, ctx), dtype=float)
    if values.shape[:1] != (n,):
        raise ValueError(
            f"feature {feature.name!r} columnar_values returned shape "
            f"{values.shape}, expected ({n}, ...)"
        )
    valid = ~np.isnan(values) if values.ndim == 1 else ~np.isnan(values).any(axis=1)
    groups = None
    if feature.learnable:
        groups = feature.columnar_group_keys(table, ctx)
    member_start, member_stop = table.kind_member_ranges(kind)
    return FeatureColumn(
        feature=feature,
        kind=kind,
        table=table,
        values=values,
        values_list=None,
        valid=valid,
        groups=groups,
        member_start=member_start,
        member_stop=member_stop,
        track_slices=table.kind_track_slices(kind),
    )


def _fallback_column(
    feature: Feature, table: ObservationTable, ctx: FeatureContext
) -> FeatureColumn:
    """Build a column by looping ``evaluate_batch`` per track.

    Semantically identical to the scalar compile path (same ``compute``,
    ``group_key``, and ``observations_of`` calls, in the same order);
    only the density evaluation downstream is batched.
    """
    kind = feature.kind
    values_list: list = []
    all_items: list = []
    groups: list | None = [] if feature.learnable else None
    member_start: list[int] = []
    member_stop: list[int] = []
    track_slices: list[tuple[int, int]] = []
    overrides: dict[int, np.ndarray] = {}
    row_of = table.row_of

    for track in table.tracks:
        track_row_start = len(values_list)
        items = list(feature.items_of(track))
        all_items.extend(items)
        track_values = feature.evaluate_batch(items, ctx)
        for item, value in zip(items, track_values):
            row = len(values_list)
            values_list.append(value)
            if value is None:
                member_start.append(0)
                member_stop.append(0)
                if groups is not None:
                    groups.append(None)
                continue
            if groups is not None:
                groups.append(feature.group_key(item, ctx))
            rows = [row_of[o.obs_id] for o in feature.observations_of(item)]
            if not rows:
                member_start.append(0)
                member_stop.append(0)
                continue
            lo, hi = min(rows), max(rows) + 1
            if hi - lo == len(rows) and len(set(rows)) == len(rows):
                member_start.append(lo)
                member_stop.append(hi)
            else:
                member_start.append(0)
                member_stop.append(0)
                overrides[row] = np.asarray(sorted(set(rows)), dtype=int)
        track_slices.append((track_row_start, len(values_list)))

    valid = np.asarray(
        [v is not None for v in values_list], dtype=bool
    )
    # Rows with member ranges that came out empty (and no override) have
    # nothing to attach a factor to; treat them like the scalar path's
    # "no member observations" skip.
    starts = np.asarray(member_start, dtype=int)
    stops = np.asarray(member_stop, dtype=int)
    empty = (stops - starts == 0) & ~np.isin(
        np.arange(valid.size), list(overrides)
    )
    valid &= ~empty

    values = None
    if feature.learnable:
        # Learnable features must produce numeric values (they feed a
        # fitted density); lift them into a NaN-padded float array.
        values = _to_float_array(values_list, valid)
    return FeatureColumn(
        feature=feature,
        kind=kind,
        table=table,
        values=values,
        values_list=values_list,
        valid=valid,
        groups=groups,
        member_start=starts,
        member_stop=stops,
        track_slices=track_slices,
        items=all_items,
        member_overrides=overrides,
    )


class SplicedTable(ObservationTable):
    """A lazily merged view over per-track tables (delta recompilation).

    Scoring a spliced scene needs almost nothing from the merged table —
    only ``n_obs`` up front, and ``row_of`` for bundle/observation
    queries — while the full merge (observation lists, per-row arrays,
    class codes) is only consulted by the graph views and diagnostics.
    This subclass therefore materializes :meth:`ObservationTable.concat`
    on first touch of any merged attribute, keeping the edit → recompile
    path free of per-observation work for unchanged tracks.
    """

    def __init__(self, scene: Scene, tables: list[ObservationTable]):
        # Deliberately skips ObservationTable.__init__: merged state is
        # produced by concat() on demand.
        self.scene = scene
        self.tracks = [t for tab in tables for t in tab.tracks]
        # Identical track objects (the usual case) skip the id lists.
        if self.tracks != scene.tracks and [
            t.track_id for t in self.tracks
        ] != [t.track_id for t in scene.tracks]:
            raise ValueError(
                "tables do not cover scene.tracks in order: "
                f"{[t.track_id for t in self.tracks]} != "
                f"{[t.track_id for t in scene.tracks]}"
            )
        self._parts = list(tables)
        #: first observation row of each part (and the total, last)
        self.part_offsets = cumulative_offsets(
            [len(tab.observations) for tab in tables]
        )
        self._materializing = False

    @property
    def n_obs(self) -> int:
        return int(self.part_offsets[-1])

    @property
    def row_of(self) -> dict[str, int]:
        self._materialize()
        return self._row_of

    def _materialize(self) -> None:
        if "_row_of" in self.__dict__:
            return
        self._materializing = True
        try:
            merged = ObservationTable.concat(self.scene, self._parts)
        finally:
            self._materializing = False
        for key, value in merged.__dict__.items():
            if key in ("scene", "tracks", "row_of"):
                continue
            self.__dict__.setdefault(key, value)
        self._row_of = merged.row_of

    def __getattr__(self, name: str):
        # Only called for attributes not yet in __dict__ — i.e. merged
        # state that has not materialized.
        if name.startswith("_") or self.__dict__.get("_materializing"):
            raise AttributeError(name)
        self._materialize()
        return object.__getattribute__(self, name)


class SplicedMatrix(FeatureMatrix):
    """A lazily merged view over per-track matrices.

    The merged per-feature columns are only consulted by factor naming
    and graph materialization; ranking reads factor-level arrays from
    :class:`~repro.core.compile.CompiledColumns` directly. Deferring
    :meth:`FeatureMatrix.concat` keeps those costs off the delta
    recompilation path entirely.
    """

    def __init__(
        self,
        scene: Scene,
        context: FeatureContext,
        table: ObservationTable,
        matrices: list[FeatureMatrix],
    ):
        # Deliberately skips the dataclass __init__; `columns` becomes a
        # lazy property instead of a field.
        self.scene = scene
        self.context = context
        self.table = table
        self._matrices = list(matrices)
        self._columns: dict[str, FeatureColumn] | None = None

    @property
    def columns(self) -> dict[str, FeatureColumn]:
        if self._columns is None:
            self._columns = FeatureMatrix.concat(
                self.scene, self.context, self.table, self._matrices
            ).columns
        return self._columns


def _concat_values(parts: list[np.ndarray | None]) -> np.ndarray | None:
    """Concatenate per-segment value arrays, tolerating empty segments.

    Empty tracks can yield ``(0,)`` placeholders even for ``(n, d)``
    features (the fallback path cannot infer ``d`` from zero values), so
    zero-length parts adopt the shape of the non-empty ones.
    """
    if parts and parts[0] is None:
        return None
    nonempty = [p for p in parts if p is not None and p.shape[0]]
    if not nonempty:
        return parts[0] if parts else None
    trailing = nonempty[0].shape[1:]
    aligned = [
        p if p.shape[0] else np.empty((0,) + trailing, dtype=float)
        for p in parts
        if p is not None
    ]
    return np.concatenate(aligned)


def _to_float_array(values_list: list, valid: np.ndarray) -> np.ndarray:
    """NaN-padded float array from a list with ``None`` gaps."""
    dim = 1
    for value in values_list:
        if value is not None:
            dim = int(np.atleast_1d(np.asarray(value, dtype=float)).size)
            break
    if dim == 1:
        out = np.full(len(values_list), np.nan)
        for row, value in enumerate(values_list):
            if valid[row]:
                out[row] = float(np.atleast_1d(np.asarray(value, float))[0])
        return out
    out = np.full((len(values_list), dim), np.nan)
    for row, value in enumerate(values_list):
        if valid[row]:
            out[row] = np.asarray(value, dtype=float).reshape(dim)
    return out
