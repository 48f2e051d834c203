"""Compiling scenes into factor graphs (§4.3).

"To compile a scene, Fixy will create nodes for each observation and
feature distribution. Then, Fixy will create edges between each feature
distribution and the observation it applies over. If a feature
distribution applies to a group of observations (e.g., an observation
bundle or track), Fixy will create one edge between each observation in
the group and the feature distribution."

The compiled graph is the scoring substrate: a component's score is read
off the factors adjacent to its observations (:mod:`repro.core.scoring`).
Factor potentials are evaluated eagerly at compile time — features and
learned distributions are deterministic, and the paper's workloads score
every component anyway.

Two evaluation strategies produce identical factor structure:

- **Columnar (default)** — an array-native kernel whose cost grows with
  the number of NumPy calls per feature, not with Python iterations per
  track, bundle or row:

  1. :class:`~repro.core.columnar.ObservationTable` reads every
     per-observation field in one pass and derives bundle, transition
     and track ranges from cumulative sizes;
  2. :class:`~repro.core.columnar.FeatureMatrix` extracts each feature
     once over the table;
  3. each learned feature is scored with one batched density call per
     conditioning group
     (:meth:`~repro.core.learning.LearnedModel.likelihood_batch`, which
     groups rows by integer codes with a stable sort), and AOFs apply
     batch-wise;
  4. the factor store (:class:`CompiledColumns`) is assembled from the
     columns laid end to end: one mask selects factor rows, one
     ``searchsorted`` over the columns' track stops tags each row with
     its (feature, track), and one stable sort by track yields the
     scalar path's (track, feature, item) order. Per-track factor
     slices come from a ``bincount``; the members-within-own-track
     check is one vectorized comparison.

  **No factor-graph node objects are built**: scoring reads the arrays
  directly, and the ``graph`` / ``factors`` views materialize lazily on
  first access with exactly the structure, names, and insertion order
  the scalar path produces.
- **Scalar reference** (``vectorized=False``) — the original
  O(items × features) loop of per-item ``likelihood()`` calls, kept as
  the executable specification the vectorized path is property-tested
  against (scores must agree to 1e-9; see
  ``tests/core/test_columnar.py``).

Byte-identity contract: each vectorized step reproduces its
object-level rule exactly, not merely to round-off — representative
rows are :meth:`~repro.core.model.ObservationBundle.representative`,
each distribution receives exactly the per-group row lists in
first-appearance order (so KDE outputs and the density grid's lazy
cutover depend only on the scene), and factor order, per-track slices
and member overrides are the scalar graph's. The arrays of a compile
(``ObservationTable`` fields, ``CompiledColumns``), and with them
factor names and rankings, are therefore a pure function of the scene,
features and model, down to the byte.
``tests/core/test_compile_kernel.py`` pins each step to its rule.

Delta recompilation (:func:`splice_compiled`) concatenates per-track
compiles with one stacked block per segment and one gathered shift,
and reuses a previous splice's arrays for the segments an edit left
untouched.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Hashable, Mapping

import numpy as np

from repro.core.aof import AOF, IdentityAOF
from repro.core.columnar import (
    FeatureColumn,
    FeatureMatrix,
    ObservationTable,
    SplicedMatrix,
    SplicedTable,
    cumulative_offsets,
    concat_arrays,
)
from repro.core.features import Feature, FeatureContext
from repro.core.learning import LearnedModel
from repro.core.model import Observation, ObservationBundle, Scene, Track
from repro.factorgraph import Factor, FactorGraph

__all__ = [
    "PotentialFactor",
    "CompiledScene",
    "CompiledColumns",
    "compile_scene",
    "splice_compiled",
]


class PotentialFactor(Factor):
    """A factor with a fixed, precomputed potential.

    Compiled LOA graphs condition on the observed data, so each feature
    distribution contributes a constant potential; the graph structure
    still matters for normalization and component queries.
    """

    def __init__(self, value: float, feature_name: str, item=None):
        if value < 0:
            raise ValueError(f"potential must be non-negative, got {value}")
        self.value = float(value)
        self.feature_name = feature_name
        self.item = item

    def evaluate(self, assignment: Mapping[Hashable, object] = None) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"PotentialFactor({self.feature_name!r}, {self.value:.4g})"


@dataclass
class CompiledColumns:
    """Array-backed factor store produced by the columnar compile path.

    One row per factor, in the scalar path's insertion order
    (track-major, then feature, then item). Scoring runs entirely off
    these arrays; :class:`CompiledScene` materializes graph node objects
    from them only when a caller actually asks for the graph.
    """

    table: ObservationTable
    matrix: FeatureMatrix
    #: active features in compile order (factor_feature indexes this)
    features: list[Feature]
    factor_feature: np.ndarray
    #: row of the factor's item within its column
    factor_item: np.ndarray
    potentials: np.ndarray
    member_start: np.ndarray
    member_stop: np.ndarray
    #: non-contiguous member rows, keyed by factor index (rare)
    member_overrides: dict[int, np.ndarray]
    #: track ids in scene order
    track_order: list[str]
    #: ``[start, stop)`` factor range per track id
    track_factor_slices: dict[str, tuple[int, int]]
    #: whether every factor's members lie within its own track's
    #: observations — the invariant the per-track slice scoring fast
    #: path needs. A custom ``observations_of`` reaching across tracks
    #: clears it, and scoring falls back to the edge-table union.
    track_slices_cover_members: bool = True
    _names: list[str] | None = field(default=None, repr=False)

    @property
    def n_factors(self) -> int:
        return int(self.potentials.size)

    def member_rows(self, i: int) -> np.ndarray:
        """Observation rows the ``i``-th factor attaches to."""
        rows = self.member_overrides.get(i)
        if rows is not None:
            return rows
        return np.arange(self.member_start[i], self.member_stop[i])

    def column_lengths(self) -> np.ndarray:
        """Row count of each active feature's column (memoized: splicing
        reads it once per segment per delta recompile)."""
        lengths = self.__dict__.get("_column_lengths")
        if lengths is None:
            lengths = np.fromiter(
                (len(self.matrix.columns[f.name]) for f in self.features),
                int,
                len(self.features),
            )
            self._column_lengths = lengths
        return lengths

    def splice_block(self) -> np.ndarray:
        """``factor_feature``, ``factor_item``, ``member_start`` and
        ``member_stop`` stacked as one ``(4, n_factors)`` array
        (memoized), so splicing concatenates one array per segment."""
        block = self.__dict__.get("_splice_block")
        if block is None:
            block = np.stack([
                self.factor_feature, self.factor_item,
                self.member_start, self.member_stop,
            ]).astype(int, copy=False)
            self._splice_block = block
        return block

    def factor_names(self) -> list[str]:
        """Factor names (``feature@track#index``), scalar-path identical."""
        if self._names is None:
            names: list[str] = [""] * self.n_factors
            track_index = {tid: ti for ti, tid in enumerate(self.track_order)}
            for tid, (start, stop) in self.track_factor_slices.items():
                ti = track_index[tid]
                for i in range(start, stop):
                    feature = self.features[self.factor_feature[i]]
                    column = self.matrix.columns[feature.name]
                    item_idx = self.factor_item[i] - column.track_slices[ti][0]
                    names[i] = f"{feature.name}@{tid}#{item_idx}"
            self._names = names
        return self._names


class CompiledScene:
    """A scene compiled to a factor graph, with item↔node indexes.

    Vectorized compiles carry a :class:`CompiledColumns` payload and
    build the ``graph`` / ``factors`` views lazily — ranking never needs
    them, and materializing thousands of node objects per scene is the
    kind of per-item cost the columnar pipeline exists to avoid. Scalar
    compiles (and hand-built instances) pass ``graph`` / ``factors``
    eagerly, exactly as before.
    """

    def __init__(
        self,
        scene: Scene,
        context: FeatureContext,
        graph: FactorGraph | None = None,
        factors: dict[str, PotentialFactor] | None = None,
        tracks: dict[str, Track] | None = None,
        columns: CompiledColumns | None = None,
    ):
        self.scene = scene
        self.context = context
        self.tracks = tracks if tracks is not None else {}
        self.columns = columns
        self._graph = graph
        self._factors = factors
        if columns is None:
            if self._graph is None:
                self._graph = FactorGraph()
            if self._factors is None:
                self._factors = {}

    # ------------------------------------------------------------------
    @property
    def graph(self) -> FactorGraph:
        """The factor graph (materialized on first access)."""
        if self._graph is None:
            self._materialize()
        return self._graph

    @property
    def factors(self) -> dict[str, PotentialFactor]:
        """factor node name -> PotentialFactor (same object as the payload)."""
        if self._factors is None:
            self._materialize()
        return self._factors

    def _materialize(self) -> None:
        cols = self.columns
        graph = FactorGraph()
        for obs in cols.table.observations:
            graph.add_variable(obs.obs_id, payload=obs)
        factors: dict[str, PotentialFactor] = {}
        names = cols.factor_names()
        observations = cols.table.observations
        for i in range(cols.n_factors):
            feature = cols.features[cols.factor_feature[i]]
            column = cols.matrix.columns[feature.name]
            item = column.item_at(int(cols.factor_item[i]))
            factor = PotentialFactor(
                float(cols.potentials[i]), feature.name, item=item
            )
            obs_ids = [observations[r].obs_id for r in cols.member_rows(i)]
            graph.add_factor(names[i], obs_ids, payload=factor)
            factors[names[i]] = factor
        self._graph = graph
        self._factors = factors

    def factors_of_observations(self, observations: list[Observation]) -> list[str]:
        """Names of all factor nodes adjacent to any of ``observations``,
        each counted once (deduplicated, insertion-ordered)."""
        graph = self.graph
        seen: dict[str, None] = {}
        for obs in observations:
            if not graph.has_variable(obs.obs_id):
                continue
            for node in graph.factors_of(obs.obs_id):
                seen.setdefault(node.name, None)
        return list(seen)


def compile_scene(
    scene: Scene,
    features: list[Feature],
    learned: LearnedModel | None = None,
    aofs: Mapping[str, AOF] | None = None,
    context: FeatureContext | None = None,
    vectorized: bool = True,
) -> CompiledScene:
    """Compile a scene + features (+ learned distributions) into a graph.

    Args:
        scene: The associated scene to compile.
        features: Feature set (learned features need ``learned``).
        learned: Fitted distributions from
            :class:`~repro.core.learning.FeatureDistributionLearner`.
            Learnable features without a fitted distribution contribute no
            factors (with a silent skip, matching the fallback semantics
            of §5.2's "default hyperparameters work in all cases").
        aofs: Optional per-feature AOF, keyed by feature name. Features
            without an entry use the identity AOF.
        context: Feature context; derived from the scene when omitted.
        vectorized: Evaluate potentials through the columnar batch
            pipeline with a lazily-materialized graph (default).
            ``False`` selects the scalar reference loop. Both produce
            identical factor structure, and — as long as the learned
            model's batch path is exact — potentials that agree to
            floating-point round-off. When grid acceleration is armed
            (:meth:`~repro.core.learning.LearnedModel.enable_fast_eval`,
            Fixy's ``fast_density`` default) and its lazy cutover has
            triggered, batch densities instead carry the grid's
            validated interpolation error (≤ its ``tol``, default
            1e-5 nats).

    Returns:
        The compiled scene with one variable node per observation and one
        factor node per applicable (feature, item) pair.
    """
    from repro.obs import trace as obs_trace
    from repro.obs.metrics import Stopwatch

    ctx = context or FeatureContext.from_scene(scene)
    aof_map = dict(aofs or {})
    identity = IdentityAOF()

    watch = Stopwatch()
    traced = obs_trace.current_trace() is not None  # cheap gate: one get()
    if traced:
        with obs_trace.span(
            "compile",
            attrs={
                "scene": scene.scene_id,
                "tracks": len(scene.tracks),
                "vectorized": vectorized,
            },
        ) as record:
            compiled = (
                _compile_columnar(
                    scene, features, learned, aof_map, identity, ctx
                )
                if vectorized
                else _compile_scalar(
                    scene, features, learned, aof_map, identity, ctx
                )
            )
            if compiled.columns is not None:
                record.attrs["rows"] = len(compiled.columns.table.row_of)
    elif vectorized:
        compiled = _compile_columnar(
            scene, features, learned, aof_map, identity, ctx
        )
    else:
        compiled = _compile_scalar(
            scene, features, learned, aof_map, identity, ctx
        )
    _COMPILE_SECONDS.observe(watch.s)
    _COMPILE_SCENES.inc()
    if compiled.columns is not None:
        _COMPILE_ROWS.inc(len(compiled.columns.table.row_of))
    return compiled


# Compile metrics (module-level so the first compile doesn't pay
# registration; see docs/API.md "Observability" for the catalogue).
def _compile_metrics():
    from repro.obs import metrics as obs_metrics

    return (
        obs_metrics.counter(
            "repro_compile_scenes_total", "Scenes compiled"
        ),
        obs_metrics.histogram(
            "repro_compile_seconds", "Seconds per compile_scene call"
        ),
        obs_metrics.counter(
            "repro_compile_rows_total",
            "Observation rows materialized by columnar compiles",
        ),
    )


_COMPILE_SCENES, _COMPILE_SECONDS, _COMPILE_ROWS = _compile_metrics()


# ----------------------------------------------------------------------
# Columnar path: extract once, batch-evaluate, store potentials as arrays.
# ----------------------------------------------------------------------
def _compile_columnar(
    scene: Scene,
    features: list[Feature],
    learned: LearnedModel | None,
    aof_map: Mapping[str, AOF],
    identity: AOF,
    ctx: FeatureContext,
) -> CompiledScene:
    # Learnable features without a model never call compute() on the
    # scalar path; exclude them from extraction to match.
    active = [f for f in features if (not f.learnable) or learned is not None]
    table = ObservationTable(scene)
    matrix = FeatureMatrix.build(scene, active, ctx, table)

    for feature in active:
        column = matrix.columns[feature.name]
        aof = aof_map.get(feature.name, identity)
        column.potentials = _column_potentials(feature, column, learned, aof)

    columns = _assemble_factors(scene, table, matrix, active)
    if (columns.potentials < 0).any():
        bad = float(columns.potentials[columns.potentials < 0][0])
        raise ValueError(f"potential must be non-negative, got {bad}")
    return CompiledScene(
        scene=scene,
        context=ctx,
        tracks={t.track_id: t for t in scene.tracks},
        columns=columns,
    )


def _assemble_factors(
    scene: Scene,
    table: ObservationTable,
    matrix: FeatureMatrix,
    active: list[Feature],
) -> CompiledColumns:
    """Gather every column's factor rows into the track-major store.

    The feature columns are laid end to end, so selecting factor rows
    (a potential and at least one member observation), tagging each
    with its feature and track, and ordering them is a fixed handful of
    array operations whatever the number of tracks: one
    ``searchsorted`` over the columns' concatenated track stops gives
    every row's (feature, track) slot, and one stable sort by track
    yields the scalar path's (track, feature, item) order.
    """
    n_tracks = len(scene.tracks)
    columns = [matrix.columns[f.name] for f in active]
    offsets = cumulative_offsets([len(c) for c in columns])
    starts = offsets[:-1].tolist()
    potentials = concat_arrays([c.potentials for c in columns], float)
    member_start = concat_arrays([c.member_start for c in columns], int)
    member_stop = concat_arrays([c.member_stop for c in columns], int)
    override_rows = [
        (start + row, rows)
        for c, start in zip(columns, starts)
        for row, rows in c.member_overrides.items()
    ]
    has_members = member_stop > member_start
    if override_rows:
        has_members[[g for g, _ in override_rows]] = True
    rows = (~np.isnan(potentials) & has_members).nonzero()[0]

    # Track stops of column f, shifted by its offset, are the slots
    # f * n_tracks .. f * n_tracks + n_tracks - 1 of the combined stops.
    stops = concat_arrays([c.track_stops() for c in columns], int)
    stops += offsets[:-1].repeat(n_tracks)
    slot = stops.searchsorted(rows, "right")
    feature_of, track_of = np.divmod(slot, max(n_tracks, 1))
    order = track_of.argsort(kind="stable")
    selected = rows[order]
    factor_feature = feature_of[order]
    track_of = track_of[order]
    member_start = member_start[selected]
    member_stop = member_stop[selected]

    bounds = cumulative_offsets(np.bincount(track_of, minlength=n_tracks))
    edges = bounds.tolist()
    track_factor_slices = {
        track.track_id: (edges[ti], edges[ti + 1])
        for ti, track in enumerate(scene.tracks)
    }

    # Member ranges must lie within the factor's own track rows.
    obs_bounds = table.kind_track_bounds("observation")
    lo, hi = obs_bounds[track_of], obs_bounds[track_of + 1]
    ranged = member_stop > member_start
    slices_cover_members = not (
        ranged & ((member_start < lo) | (member_stop > hi))
    ).any()

    overrides: dict[int, np.ndarray] = {}
    if override_rows:
        factor_of = np.full(potentials.size, -1)
        factor_of[selected] = np.arange(selected.size)
        for g, members in override_rows:
            i = int(factor_of[g])
            if i < 0:
                continue
            overrides[i] = members
            if members.size and (members[0] < lo[i] or members[-1] >= hi[i]):
                slices_cover_members = False
        overrides = dict(sorted(overrides.items()))

    return CompiledColumns(
        table=table,
        matrix=matrix,
        features=active,
        factor_feature=factor_feature,
        factor_item=selected - offsets[factor_feature],
        potentials=potentials[selected],
        member_start=member_start,
        member_stop=member_stop,
        member_overrides=overrides,
        track_order=[t.track_id for t in scene.tracks],
        track_factor_slices=track_factor_slices,
        track_slices_cover_members=bool(slices_cover_members),
    )


def _column_potentials(
    feature: Feature,
    column: FeatureColumn,
    learned: LearnedModel | None,
    aof: AOF,
) -> np.ndarray:
    """AOF-transformed potentials for every row of a column (NaN = skip)."""
    out = np.full(len(column), np.nan)
    valid_rows = column.valid.nonzero()[0]
    if valid_rows.size == 0:
        return out
    if feature.learnable:
        # Filtered out in _compile_columnar when learned is None.
        values = column.values[valid_rows]
        groups = column.groups
        if valid_rows.size != len(groups):
            groups = list(map(groups.__getitem__, valid_rows.tolist()))
        likelihoods = learned.likelihood_batch(feature, values, groups)
        # NaN marks "no distribution for this group" — the scalar path
        # skips those items before the AOF ever runs; do the same.
        known = ~np.isnan(likelihoods)
        if not known.all():
            valid_rows = valid_rows[known]
            likelihoods = likelihoods[known]
            if valid_rows.size == 0:
                return out
    else:
        if column.values_list is not None:
            raw = list(map(column.values_list.__getitem__, valid_rows.tolist()))
        else:
            raw = column.values[valid_rows]
        likelihoods = feature.manual_potential_batch(raw)
    items = None
    if not aof.item_free:
        items = [column.item_at(int(r)) for r in valid_rows]
    out[valid_rows] = aof.apply_batch(likelihoods, items)
    return out


# ----------------------------------------------------------------------
# Delta recompilation substrate: splice per-track compiles into a scene.
# ----------------------------------------------------------------------
def splice_compiled(
    scene: Scene,
    segments: list[CompiledScene],
    context: FeatureContext | None = None,
    previous: CompiledScene | None = None,
) -> CompiledScene:
    """Concatenate per-track columnar compiles into one compiled scene.

    ``segments`` are vectorized :func:`compile_scene` results covering
    ``scene.tracks`` in order (one single-track compile per track, in
    practice — see :class:`repro.serving.SceneSession`). Because both the
    observation table and the factor store are track-major with
    contiguous per-track ranges, splicing is pure array concatenation
    with offset shifts: no feature is re-extracted and no density is
    re-evaluated. The result is a first-class :class:`CompiledScene` —
    scoring, factor names, and lazy graph materialization all behave
    exactly as if the whole scene had been compiled at once.

    ``previous`` is an earlier result of this function (typically the
    same session before an edit). Its arrays are reused for the leading
    and trailing runs of segments that are the very same objects in
    both splices; only the segments in between are concatenated anew,
    and the trailing run is shifted by however much the middle grew or
    shrank. The result is identical to splicing from scratch.

    Requires every feature to be track-local (its factors attach only to
    observations of their own track) — true of the entire built-in
    library. A custom cross-track ``observations_of`` cannot even
    compile per-track and raises during segment compilation.
    """
    ctx = context or FeatureContext.from_scene(scene)
    if not segments:
        if scene.tracks:
            raise ValueError(
                f"no segments given for scene with {len(scene.tracks)} tracks"
            )
        table = ObservationTable(scene)
        matrix = FeatureMatrix(scene=scene, context=ctx, table=table)
        empty = np.empty(0, dtype=int)
        columns = CompiledColumns(
            table=table, matrix=matrix, features=[],
            factor_feature=empty, factor_item=empty,
            potentials=np.empty(0, dtype=float),
            member_start=empty, member_stop=empty,
            member_overrides={}, track_order=[], track_factor_slices={},
        )
        return CompiledScene(scene=scene, context=ctx, tracks={}, columns=columns)

    parts = [s.columns for s in segments]
    if any(p is None for p in parts):
        raise ValueError("splice_compiled requires vectorized (columnar) segments")
    features = parts[0].features
    names = [f.name for f in features]
    for p in parts[1:]:
        if p.features != features and [f.name for f in p.features] != names:
            raise ValueError("segments disagree on active features")

    # Merged table and matrix are lazy views: ranking never touches the
    # merged per-observation arrays, so the splice stays O(factors) with
    # no per-observation work for unchanged tracks.
    table = SplicedTable(scene, [p.table for p in parts])
    matrix = SplicedMatrix(scene, ctx, table, [p.matrix for p in parts])
    n_features = len(features)
    n_factors = [p.potentials.size for p in parts]
    factor_offsets = cumulative_offsets(n_factors)

    # Reuse `previous` for the leading (k) and trailing (m) segments
    # that are the very same objects; only the middle is spliced anew.
    prev = previous.columns if previous is not None else None
    prev_parts = getattr(prev, "_splice_parts", None)
    if prev_parts is None or [f.name for f in prev.features] != names:
        prev_parts = []
        prev_items = np.zeros((1, n_features), dtype=int)
        prev_block = np.empty((4, 0), dtype=int)
        prev_potentials = np.empty(0, dtype=float)
        prev_obs_offsets = np.zeros(1, dtype=int)
    else:
        prev_items, prev_block = prev._item_offsets, prev.splice_block()
        prev_potentials, prev_obs_offsets = prev.potentials, prev.table.part_offsets
    same = list(map(operator.is_, parts, prev_parts)) + [False]
    k = same.index(False)
    same = list(map(operator.is_, reversed(parts), reversed(prev_parts)))
    m = min((same + [False]).index(False), len(same) - k)
    middle = parts[k:len(parts) - m]
    lo, hi = int(factor_offsets[k]), int(factor_offsets[len(parts) - m])
    # The trailing segments are shared, so they hold as many factors in
    # both splices.
    prev_hi = prev_block.shape[1] - (int(factor_offsets[-1]) - hi)

    # item_offsets[i, f]: rows of feature f's column in segments before
    # i. factor_item indexes rows within a feature's column, so this is
    # its shift (column lengths, not table kind counts: a fallback
    # column with a custom ``items_of`` may carry fewer rows).
    mid_items = np.zeros((len(middle) + 1, n_features), dtype=int)
    np.cumsum(
        concat_arrays([p.column_lengths() for p in middle], int).reshape(
            len(middle), n_features
        ),
        axis=0,
        out=mid_items[1:],
    )
    mid_items += prev_items[k]
    item_growth = mid_items[-1] - prev_items[len(prev_parts) - m]
    item_offsets = np.concatenate([
        prev_items[:k], mid_items,
        prev_items[len(prev_parts) - m + 1:] + item_growth,
    ])

    # The middle: one concatenation plus one gathered shift.
    mid_block = np.concatenate(
        [np.empty((4, 0), dtype=int)] + [p.splice_block() for p in middle],
        axis=1,
    )
    segment_of = np.repeat(
        np.arange(k, len(parts) - m), n_factors[k:len(parts) - m]
    )
    mid_block[1] += item_offsets.ravel()[segment_of * n_features + mid_block[0]]
    mid_block[2:] += table.part_offsets[segment_of]
    block = np.concatenate(
        [prev_block[:, :lo], mid_block, prev_block[:, prev_hi:]], axis=1
    )
    potentials = np.concatenate(
        [prev_potentials[:lo]]
        + [p.potentials for p in middle]
        + [prev_potentials[prev_hi:]]
    )
    # The trailing run moves by however much the middle grew or shrank.
    trailing = block[:, hi:]
    if item_growth.any():
        trailing[1] += item_growth[trailing[0]]
    obs_growth = int(
        table.part_offsets[len(parts) - m]
        - prev_obs_offsets[len(prev_parts) - m]
    )
    if obs_growth:
        trailing[2:] += obs_growth
    factor_feature, factor_item, member_start, member_stop = block

    obs_offsets = table.part_offsets.tolist()
    f_offsets = factor_offsets.tolist()
    track_factor_slices = {
        tid: (start + f_off, stop + f_off)
        for p, f_off in zip(parts, f_offsets)
        for tid, (start, stop) in p.track_factor_slices.items()
    }
    overrides = {
        i + f_off: rows + r_off
        for p, f_off, r_off in zip(parts, f_offsets, obs_offsets)
        if p.member_overrides
        for i, rows in p.member_overrides.items()
    }

    columns = CompiledColumns(
        table=table,
        matrix=matrix,
        features=features,
        factor_feature=factor_feature,
        factor_item=factor_item,
        potentials=potentials,
        member_start=member_start,
        member_stop=member_stop,
        member_overrides=overrides,
        track_order=[t.track_id for t in scene.tracks],
        track_factor_slices=track_factor_slices,
        track_slices_cover_members=all(p.track_slices_cover_members for p in parts),
    )
    # What a later splice needs to reuse this one.
    columns._splice_parts = parts
    columns._splice_block = block
    columns._item_offsets = item_offsets
    return CompiledScene(
        scene=scene,
        context=ctx,
        tracks={t.track_id: t for t in scene.tracks},
        columns=columns,
    )


# ----------------------------------------------------------------------
# Scalar reference path: the executable specification.
# ----------------------------------------------------------------------
def _compile_scalar(
    scene: Scene,
    features: list[Feature],
    learned: LearnedModel | None,
    aof_map: Mapping[str, AOF],
    identity: AOF,
    ctx: FeatureContext,
) -> CompiledScene:
    graph = FactorGraph()
    compiled = CompiledScene(scene=scene, context=ctx, graph=graph)

    for track in scene.tracks:
        compiled.tracks[track.track_id] = track
        for obs in track.observations:
            graph.add_variable(obs.obs_id, payload=obs)

    for track in scene.tracks:
        for feature in features:
            aof = aof_map.get(feature.name, identity)
            for idx, item in enumerate(feature.items_of(track)):
                potential = _item_potential(feature, item, ctx, learned, aof)
                if potential is None:
                    continue
                member_obs = feature.observations_of(item)
                if not member_obs:
                    continue
                name = f"{feature.name}@{track.track_id}#{idx}"
                factor = PotentialFactor(potential, feature.name, item=item)
                graph.add_factor(
                    name, [o.obs_id for o in member_obs], payload=factor
                )
                compiled.factors[name] = factor

    return compiled


def _item_potential(
    feature: Feature,
    item,
    ctx: FeatureContext,
    learned: LearnedModel | None,
    aof: AOF,
) -> float | None:
    """The AOF-transformed potential of one (feature, item) pair."""
    if feature.learnable:
        if learned is None:
            return None
        likelihood = learned.likelihood(feature, item, ctx)
        if likelihood is None:
            return None
    else:
        value = feature.compute(item, ctx)
        if value is None:
            return None
        likelihood = feature.manual_potential(value)
    return aof(likelihood, item)
