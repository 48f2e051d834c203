"""Array-native compile kernel: the vectorized pieces against their specs.

The columnar compile builds its observation table, density batches and
factor store with a fixed number of array operations per feature. These
tests pin each of those pieces to the object-level rule it replaces:

- ``ObservationTable.bundle_rep`` (one ``lexsort``) against
  :meth:`ObservationBundle.representative`;
- ``LearnedModel.likelihood_batch`` (integer group codes + a stable
  sort) against per-group row lists built in first-appearance order —
  every distribution must see the same batches in the same order;
- the factor store's ``track_factor_slices``,
  ``track_slices_cover_members`` and ``member_overrides`` against the
  scalar reference graph's factor order and scopes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    ObservationBundle,
    ObservationTable,
    Track,
    compile_scene,
    default_features,
    FeatureDistributionLearner,
)
from repro.core.features import BundleFeature, TrackFeature
from repro.core.learning import _POOLED, LearnedModel
from repro.core.library import VolumeFeature
from repro.core.model import SOURCE_AUDITOR, SOURCE_HUMAN, SOURCE_MODEL

from repro.core.compile import splice_compiled
from repro.serving import SceneSession

from tests.core.conftest import make_obs, moving_track, scene_of
from tests.serving.test_session import random_edit


# ----------------------------------------------------------------------
# bundle_rep ≡ ObservationBundle.representative()
# ----------------------------------------------------------------------
#: Few distinct confidences so ties are common; None for unscored rows.
_member = st.tuples(
    st.sampled_from([SOURCE_MODEL, SOURCE_MODEL, SOURCE_HUMAN, SOURCE_AUDITOR]),
    st.sampled_from([None, 0.0, 0.5, 0.5, 0.9, 1.0]),
)
_bundle = st.lists(_member, min_size=0, max_size=4)
_track = st.lists(_bundle, min_size=0, max_size=4)


def _scene_from(spec):
    tracks = []
    for t, bundles in enumerate(spec):
        built = []
        for frame, members in enumerate(bundles):
            observations = [
                make_obs(frame, float(i), source=source, conf=conf)
                for i, (source, conf) in enumerate(members)
            ]
            built.append(ObservationBundle(frame=frame, observations=observations))
        tracks.append(Track(track_id=f"t{t}", bundles=built))
    return scene_of(tracks)


class TestRepresentativeRows:
    @settings(max_examples=200, deadline=None)
    @given(spec=st.lists(_track, min_size=0, max_size=4))
    def test_matches_bundle_representative(self, spec):
        scene = _scene_from(spec)
        table = ObservationTable(scene)
        assert table.bundle_rep.dtype == np.int64
        assert table.bundle_rep.shape == (table.n_bundles,)
        for b, bundle in enumerate(table.bundles):
            row = int(table.bundle_rep[b])
            if bundle.observations:
                assert table.observations[row] is bundle.representative()
            else:
                # representative() has no member to return; the table
                # points at the empty bundle's start row.
                assert row == table.bundle_start[b]

    def test_first_of_tied_model_observations_wins(self):
        scene = _scene_from([[[
            (SOURCE_HUMAN, None),
            (SOURCE_MODEL, 0.7),
            (SOURCE_MODEL, 0.9),
            (SOURCE_MODEL, 0.9),
        ]]])
        table = ObservationTable(scene)
        assert table.bundle_rep.tolist() == [2]


# ----------------------------------------------------------------------
# likelihood_batch hands out the same batches in the same order
# ----------------------------------------------------------------------
class _RecordingDistribution:
    """Stands in for a LearnedFeatureDistribution and logs every batch."""

    def __init__(self, name, log):
        self.name = name
        self.log = log

    def likelihood_batch(self, values):
        values = np.asarray(values)
        self.log.append((self.name, values.copy()))
        return np.full(values.shape[0], 0.1 * (len(self.log)))


def _reference_batches(model, feature, values, groups):
    """The per-group row lists in first-appearance order (the spec)."""
    rows_by_group = {}
    for row, group in enumerate(groups):
        rows_by_group.setdefault(group, []).append(row)
    batches = []
    for group, rows in rows_by_group.items():
        dist = model.lookup(feature, group)
        if dist is not None:
            batches.append((dist.name, values[np.asarray(rows)]))
    return batches


class TestLikelihoodBatchGrouping:
    @pytest.mark.parametrize("pooled", [True, False], ids=["pooled", "no-pooled"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_same_batches_same_order(self, pooled, dim):
        feature = VolumeFeature()
        log = []
        groups_dists = {
            "car": _RecordingDistribution("car", log),
            "truck": _RecordingDistribution("truck", log),
        }
        if pooled:
            groups_dists[_POOLED] = _RecordingDistribution("pooled", log)
        model = LearnedModel(distributions={feature.name: groups_dists})
        # None rides the pooled fallback; "bike" and "bus" have no fit of
        # their own, so with a pooled fit they share it (two batches),
        # and without one they come back NaN.
        groups = [
            "bike", "car", None, "truck", "car", "bus", None,
            "bike", "truck", "car", "bus", "bike",
        ]
        n = len(groups)
        values = np.arange(n * dim, dtype=float).reshape(n, dim)
        if dim == 1:
            values = values[:, 0]

        out = model.likelihood_batch(feature, values, groups)

        expected = _reference_batches(model, feature, values, groups)
        assert [name for name, _ in log] == [name for name, _ in expected]
        for (_, got), (_, want) in zip(log, expected):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)

        known = np.array([model.lookup(feature, g) is not None for g in groups])
        assert known.all() == pooled
        assert np.isnan(out[~known]).all()
        assert not np.isnan(out[known]).any()

    def test_single_group_and_empty(self):
        feature = VolumeFeature()
        log = []
        model = LearnedModel(
            distributions={feature.name: {_POOLED: _RecordingDistribution("p", log)}}
        )
        values = np.array([3.0, 1.0, 2.0])
        out = model.likelihood_batch(feature, values, [None, None, None])
        assert len(log) == 1 and np.array_equal(log[0][1], values)
        assert out.shape == (3,)
        empty = model.likelihood_batch(feature, np.empty(0), [])
        assert empty.shape == (0,) and len(log) == 1


# ----------------------------------------------------------------------
# factor store order ≡ scalar graph order
# ----------------------------------------------------------------------
class _EndpointsFeature(TrackFeature):
    """Fallback column with non-contiguous members (an override row)."""

    name = "endpoints"
    learnable = False

    def compute(self, track, context):
        # The scalar graph rejects a factor listing one variable twice.
        return 0.5 if track.n_observations >= 2 else None

    def observations_of(self, track):
        obs = track.observations
        return [obs[0], obs[-1]]


class _EveryOtherBundleFeature(BundleFeature):
    """Fallback column with fewer rows than the table has bundles."""

    name = "every_other"
    learnable = False

    def compute(self, bundle, context):
        return 0.75

    def items_of(self, track):
        return track.bundles[::2]


class _ReachAcrossFeature(TrackFeature):
    """Attaches one track's factor to another track's observations."""

    name = "reach"
    learnable = False

    def __init__(self, partner):
        self.partner = partner

    def compute(self, track, context):
        return 0.9

    def observations_of(self, track):
        extra = self.partner.get(track.track_id)
        return track.observations + (extra.observations if extra else [])


def _kernel_scene():
    mixed = moving_track("mixed", n_frames=4)
    mixed.bundles[1].add(make_obs(1, 0.5, source=SOURCE_MODEL, conf=0.8))
    return scene_of([
        Track(track_id="empty-head", bundles=[]),
        moving_track("a", n_frames=5),
        Track(track_id="empty-mid", bundles=[]),
        mixed,
        moving_track("solo", n_frames=1, start_x=60.0),
        Track(track_id="empty-tail", bundles=[]),
    ])


def _scalar_truth(scene, ref, table):
    """Per-factor (track index, member rows) from the scalar graph."""
    track_index = {t.track_id: i for i, t in enumerate(scene.tracks)}
    truth = []
    for name in ref.factors:
        tid = name.split("@", 1)[1].rsplit("#", 1)[0]
        rows = sorted(table.row_of[v.name] for v in ref.graph.factor_scope(name))
        truth.append((track_index[tid], rows))
    return truth


class TestFactorStoreOrder:
    @pytest.fixture(scope="class")
    def learned(self, training_scenes):
        return FeatureDistributionLearner(default_features()).fit(training_scenes)

    @pytest.mark.parametrize("reach", [False, True], ids=["track-local", "cross-track"])
    def test_slices_overrides_and_cover_match_scalar(self, learned, reach):
        scene = _kernel_scene()
        features = default_features() + [
            _EndpointsFeature(), _EveryOtherBundleFeature(),
        ]
        if reach:
            features.append(_ReachAcrossFeature({"a": scene.track_by_id("solo")}))
        vec = compile_scene(scene, features, learned=learned)
        ref = compile_scene(scene, features, learned=learned, vectorized=False)
        cols = vec.columns

        assert cols.factor_names() == list(ref.factors)
        truth = _scalar_truth(scene, ref, cols.table)

        # track_factor_slices: the scalar order's per-track runs, empty
        # tracks included, keyed in scene order.
        assert list(cols.track_factor_slices) == [t.track_id for t in scene.tracks]
        for ti, track in enumerate(scene.tracks):
            start, stop = cols.track_factor_slices[track.track_id]
            assert type(start) is int and type(stop) is int
            owned = [i for i, (t, _) in enumerate(truth) if t == ti]
            if owned:
                assert (start, stop) == (owned[0], owned[-1] + 1)
            else:
                assert start == stop
        for name in ("empty-head", "empty-mid", "empty-tail"):
            start, stop = cols.track_factor_slices[name]
            assert start == stop

        # member_overrides: exactly the factors whose scalar scope is not
        # one contiguous row range, keyed by factor index, in order.
        non_contiguous = [
            i for i, (_, rows) in enumerate(truth)
            if rows != list(range(rows[0], rows[-1] + 1))
        ]
        assert list(cols.member_overrides) == non_contiguous
        assert non_contiguous  # the endpoints feature on a 5-frame track
        for i, (_, rows) in enumerate(truth):
            assert cols.member_rows(i).tolist() == rows

        # track_slices_cover_members: every scope inside its own track.
        bounds = cols.table.track_obs_slices
        covered = all(
            bounds[t][0] <= rows[0] and rows[-1] < bounds[t][1]
            for t, rows in truth
        )
        assert cols.track_slices_cover_members is covered
        assert covered is not reach


# ----------------------------------------------------------------------
# splice reuse ≡ splice from scratch, across edit sequences
# ----------------------------------------------------------------------
def _columns_bytes(columns):
    arrays = {
        name: (getattr(columns, name).dtype.str, getattr(columns, name).tobytes())
        for name in (
            "factor_feature", "factor_item", "potentials",
            "member_start", "member_stop",
        )
    }
    return (
        arrays,
        {i: rows.tolist() for i, rows in columns.member_overrides.items()},
        list(columns.member_overrides),
        columns.track_factor_slices,
        columns.track_slices_cover_members,
        columns.factor_names(),
    )


class TestSpliceReuse:
    @pytest.fixture(scope="class")
    def learned(self, training_scenes):
        return FeatureDistributionLearner(default_features()).fit(training_scenes)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reused_splice_equals_fresh_splice(self, seed, learned):
        rng = np.random.default_rng(seed)
        scene = scene_of(
            [moving_track("a", n_frames=4), moving_track("b", n_frames=3, start_x=30.0)],
            scene_id="reuse",
        )
        features = default_features() + [
            _EndpointsFeature(), _EveryOtherBundleFeature(),
        ]
        session = SceneSession(scene, features, learned=learned)
        counter = [0]
        for _ in range(8):
            session.compiled  # the next splice reuses this one
            session.apply(random_edit(rng, scene, counter))
            segments = [
                session._segments[t.track_id].compiled for t in scene.tracks
            ]
            fresh = splice_compiled(scene, segments, context=session.context)
            assert _columns_bytes(session.compiled.columns) == _columns_bytes(
                fresh.columns
            )
        session.verify(tol=0.0)
