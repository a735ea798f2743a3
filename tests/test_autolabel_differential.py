"""The columnar labeling path against the scalar reference in scalar_reference.py.

Both must produce identical records at every stage: on seeded synthetic
frames of the benchmark's sparse and dense shapes, and on hand-built frames
that sit on the tie-breaks and boundaries.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scalar_reference as ref
from radcal.autolabel import (
    InstanceMask,
    LabelParams,
    PointCloud,
    Provenance,
    autolabel_frame,
    complete_clusters,
)
from radcal.geometry import CameraIntrinsics, Extrinsics
from radcal.synth import (
    LabelSceneConfig,
    default_extrinsics,
    default_intrinsics,
    gen_label_scene,
)

STAGES = ("coarse", "otpf", "full")

# The scene shapes of the benchmark's label-sparse and label-dense workloads.
SPARSE = dict(object_count=5, clutter_count=30, false_positive_rate=0.1, false_negative_rate=0.1)
DENSE = dict(
    object_count=20,
    points_per_object=(150, 250),
    range_m=(6.0, 60.0),
    clutter_count=2000,
    false_positive_rate=0.1,
    false_negative_rate=0.1,
)
# Jitter lets the gates remove genuine points and lets clusters compete.
JITTER = dict(SPARSE, velocity_jitter_mps=0.3, rcs_jitter_dbsm=2.0, dynamic_fraction=0.5)

FRAMES = {  # name: (config, seeds)
    "sparse": (SPARSE, range(100, 124)),
    "sparse-jitter": (JITTER, range(200, 220)),
    "sparse-hull": (dict(SPARSE, mask_shape="hull"), range(300, 304)),
    "dense": (DENSE, range(400, 404)),
}


def assert_same_records(points, masks, k, t, params=None):
    """Both paths agree at every stage; returns the full-stage records."""
    scalar_points = ref.radar_points(points)
    for stage in STAGES:
        records = list(autolabel_frame(points, masks, k, t, params, stage))
        expected = ref.autolabel_frame(scalar_points, masks, k, t, params, stage)
        assert records == expected, stage
    return records


def test_frame_count():
    assert sum(len(seeds) for _, seeds in FRAMES.values()) >= 50


@pytest.mark.parametrize("name", FRAMES)
def test_seeded_frames_match_scalar_reference(name):
    config, seeds = FRAMES[name]
    k, t = default_intrinsics(), default_extrinsics()
    provenances = set()
    for seed in seeds:
        scene = gen_label_scene(LabelSceneConfig(seed=seed, **config))
        records = assert_same_records(scene.points, list(scene.masks), k, t)
        provenances |= {r.provenance for r in records}
    # every stage had something to do
    assert provenances == set(Provenance)


# Hand-built frames: identity extrinsics, so the camera depth is z and a
# point (x, y, z) looks up pixel (100 x / z + 50, 100 y / z + 50).
K = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)
T = Extrinsics(np.eye(3), np.zeros(3))


def cloud(*rows):
    """PointCloud from (x, y, z, v, rcs) rows."""
    rows = np.array(rows, dtype=float).reshape(-1, 5)
    return PointCloud(rows[:, :3], rows[:, 3], rows[:, 4])


def rect_mask(u_lo, u_hi, v_lo, v_hi, class_id, instance_id, confidence=0.9):
    mask = np.zeros((K.height, K.width), dtype=bool)
    mask[v_lo - 1 : v_hi, u_lo - 1 : u_hi] = True
    return InstanceMask.from_dense(mask, class_id, instance_id, confidence)


def test_equal_mask_confidence_goes_to_lower_instance_id():
    points = cloud(*[(0.0, 0.0, 10.0, 0.0, 10.0)] * 3, (0.8, 0.0, 10.0, 0.0, 10.0))
    masks = [
        rect_mask(40, 60, 40, 60, class_id=1, instance_id=5),
        rect_mask(45, 55, 45, 55, class_id=2, instance_id=3),
    ]
    records = assert_same_records(points, masks, K, T)
    assert [r.label for r in records] == [(2, 3)] * 3 + [(1, 5)]


def test_masks_sharing_an_instance_id_share_a_cluster():
    # the cluster carries the label of its last member's mask, (2, 3); the
    # last point is recovered into it
    points = cloud(
        *[(-0.3, 0.0, 10.0, 0.0, 10.0)] * 3,
        *[(0.3, 0.0, 10.0, 0.0, 10.0)] * 3,
        (0.0, 0.3, 10.0, 0.0, 10.0),
    )
    masks = [
        rect_mask(45, 48, 48, 52, class_id=1, instance_id=3),
        rect_mask(52, 55, 48, 52, class_id=2, instance_id=3, confidence=0.8),
    ]
    records = assert_same_records(points, masks, K, T)
    assert [r.label for r in records] == [(1, 3)] * 3 + [(2, 3)] * 4
    assert records[6].provenance == Provenance.RECOVERED


def test_equal_affinity_goes_to_lower_cluster_id():
    # the last point is 0.5 m from both centroids, outside both masks
    points = cloud(
        *[(-0.5, 0.0, 10.0, 0.0, 10.0)] * 3,
        *[(0.5, 0.0, 10.0, 0.0, 10.0)] * 3,
        (0.0, 0.0, 10.0, 0.0, 10.0),
    )
    masks = [
        rect_mask(44, 46, 49, 51, class_id=1, instance_id=7),
        rect_mask(54, 56, 49, 51, class_id=2, instance_id=4),
    ]
    records = assert_same_records(points, masks, K, T)
    assert records[6].label == (2, 4)
    assert records[6].provenance == Provenance.RECOVERED


def test_point_at_exactly_r_search_is_a_candidate():
    params = LabelParams(r_search=2.0, sigma_pos=4.0)
    beyond = np.nextafter(2.0, 3.0)
    points = cloud(
        *[(0.0, 0.0, 10.0, 0.0, 10.0)] * 3,
        (2.0, 0.0, 10.0, 0.0, 10.0),
        (beyond, 0.0, 10.0, 0.0, 10.0),
    )
    masks = [rect_mask(45, 55, 45, 55, class_id=1, instance_id=1)]
    records = assert_same_records(points, masks, K, T, params)
    assert records[3].provenance == Provenance.RECOVERED
    assert records[4].provenance == Provenance.UNLABELED


def excluded_scene(with_other_cluster):
    # point 4 fails cluster 1's depth gate (1.6 > tau_d) but is 1.6 m from
    # its refined centroid; cluster 2 sits 1.9 m away from it
    rows = [(0.0, 0.0, 10.0, 0.0, 10.0)] * 4 + [(0.0, 0.0, 11.6, 0.0, 10.0)]
    masks = [rect_mask(45, 55, 45, 55, class_id=1, instance_id=1)]
    if with_other_cluster:
        rows += [(1.9, 0.0, 11.6, 0.0, 10.0)] * 3
        masks.append(rect_mask(64, 68, 48, 52, class_id=2, instance_id=2))
    return cloud(*rows), masks, LabelParams(sigma_pos=4.0)


@pytest.mark.parametrize("with_other_cluster", [False, True])
def test_excluded_cluster_cannot_recover_its_own_point(with_other_cluster):
    points, masks, params = excluded_scene(with_other_cluster)
    records = assert_same_records(points, masks, K, T, params)
    if with_other_cluster:
        assert records[4].label == (2, 2)
        assert records[4].provenance == Provenance.RECOVERED
    else:
        assert records[4].label is None
        assert records[4].provenance == Provenance.FILTERED_OUT


def test_excluded_changes_the_winner():
    # without the exclusion, cluster 1 (affinity 0.92) beats cluster 2 (0.89)
    points, _, params = excluded_scene(with_other_cluster=True)
    refined = {1: [0, 1, 2, 3], 2: [5, 6, 7]}
    depths = points.xyz[:, 2]
    out = complete_clusters(ref.segments(refined), [4], points, depths, params)
    assert dict(zip(*out)) == {4: 1}
    assert ref.complete_clusters(
        refined, [4], ref.radar_points(points), depths, params
    ) == {4: 1}
    excluded = np.array([0, 0, 0, 0, 1, 0, 0, 0])
    out = complete_clusters(ref.segments(refined), [4], points, depths, params, excluded)
    assert dict(zip(*out)) == {4: 2}
    assert ref.complete_clusters(
        refined, [4], ref.radar_points(points), depths, params, excluded={4: 1}
    ) == {4: 2}


@st.composite
def completion_inputs(draw):
    """Points on a coarse grid, some on one line or with one velocity and
    RCS (so that affinities tie), up to four clusters of them as a dict (empty clusters
    included), the other points offered for completion, and None or, per
    point, the cluster that excluded it (0 for none)."""
    n = draw(st.integers(1, 12))
    grid = st.sampled_from([-0.5, 0.0, 0.5])
    line, spread = draw(st.sampled_from([0.0, 1.0])), draw(st.sampled_from([0.0, 1.0]))
    rows = [
        (draw(grid), line * draw(grid), 10.0 + line * draw(grid), spread * draw(grid),
         10.0 + spread * draw(grid))
        for _ in range(n)
    ]
    owner = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    ids = draw(st.lists(st.integers(1, 50), min_size=4, max_size=4, unique=True))
    refined = {ids[c]: [i for i in range(n) if owner[i] == c + 1] for c in range(4)}
    refined = {iid: members for iid, members in refined.items() if draw(st.booleans())}
    unassociated = [i for i in range(n) if owner[i] == 0]
    excluded = draw(st.none() | st.lists(st.sampled_from([0, *ids]), min_size=n, max_size=n))
    return cloud(*rows), refined, unassociated, excluded


@settings(max_examples=300)
@given(completion_inputs())
def test_completion_on_segments_matches_scalar_reference(inputs):
    points, refined, unassociated, excluded = inputs
    params = LabelParams(r_search=0.5)  # the grid step: points sit on the search radius
    depths = points.xyz[:, 2]
    out = complete_clusters(
        ref.segments(refined), unassociated, points, depths, params,
        None if excluded is None else np.array(excluded),
    )
    expected = ref.complete_clusters(
        refined, unassociated, ref.radar_points(points), depths, params,
        None if excluded is None else {i: iid for i, iid in enumerate(excluded) if iid},
    )
    assert list(zip(*(a.tolist() for a in out))) == sorted(expected.items())


# Cluster sizes on both sides of numpy's pairwise-summation boundaries:
# 8 (one unrolled block) and 128 (where the sum splits in two).
SIZES = st.sampled_from([1, 2, 3, 7, 8, 9, 16, 17, 127, 128, 129, 130, 131]) | st.integers(1, 140)


def exact_factor(distance, scale):
    """A factor f with f * scale == distance exactly, if one of the floats
    next to distance / scale has it; None otherwise."""
    if not (distance > 0 and scale > 0):
        return None
    guess = distance / scale
    for f in (guess, np.nextafter(guess, 0.0), np.nextafter(guess, np.inf)):
        if f * scale == distance and 0 < f < np.inf:
            return float(f)
    return None


# A narrow camera: a 25-pixel band is 0.4 m wide at 15 m, so unmasked points
# sit within r_search of the clusters and compete for completion.
K_NARROW = CameraIntrinsics(1000.0, 1000.0, 50.0, 50.0, 100, 100)


@st.composite
def boundary_frames(draw):
    """A frame of one to three band masks over clusters of 1 to 140 points,
    unmasked points beside them, and thresholds a member sits exactly on.

    Values come from a grid (coarse grids repeat values) or are continuous.
    Band b covers pixel columns 25 b + 1 .. 25 b + 25; band 3 has no mask.
    """
    sizes = [draw(SIZES) for _ in range(draw(st.integers(1, 3)))]
    bands = np.repeat(np.arange(len(sizes)), sizes)
    bands = np.append(bands, np.full(draw(st.integers(0, 30)), 3))
    n = len(bands)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = draw(st.sampled_from([None, 1 / 64, 0.25, 1.0, 4.0]))

    def values(center, spread):
        x = center + rng.uniform(-spread, spread, n)
        return x if grid is None else np.round(x / grid) * grid

    z = np.maximum(values(rng.uniform(5, 30), draw(st.sampled_from([0.0, 1.0, 4.0]))), 1.0)
    u = 25 * bands + values(13.0, 10.0)  # inside the band, clear of its edges
    xyz = np.column_stack(((u - 50.0) * z / 1000.0, values(0.0, 40.0) * z / 1000.0, z))
    v_center = rng.choice([0.0, 0.25, 3.0], size=4)[bands]
    points = PointCloud(xyz, values(0.0, draw(st.sampled_from([0.0, 0.5, 2.0]))) + v_center,
                        values(10.0, draw(st.sampled_from([0.0, 1.0, 8.0]))))
    masks = [
        rect_mask(25 * b + 1, 25 * b + 25, 1, 100, class_id=b + 1, instance_id=b + 1)
        for b in range(len(sizes))
    ]

    # Put one member of one cluster exactly on the pinned gates' thresholds.
    defaults = LabelParams()
    members = np.flatnonzero(bands == draw(st.integers(0, len(sizes) - 1)))
    k = members[draw(st.integers(0, len(members) - 1))]
    depth = T.transform(points.xyz)[:, 2]
    rcs, vel = points.rcs[members], points.velocity[members]
    sigma_v = max(vel.std(), defaults.sigma_v_min)
    pins = {
        "tau_d": exact_factor(abs(depth[k] - np.median(depth[members])), 1.0),
        "kappa_rho": exact_factor(abs(points.rcs[k] - rcs.mean()), rcs.std()),
        "kappa_v": exact_factor(abs(points.velocity[k] - vel.mean()), sigma_v),
    }
    chosen = draw(st.sets(st.sampled_from(sorted(pins))))
    params = LabelParams(**{name: pins[name] for name in chosen if pins[name] is not None})
    return points, masks, params


@settings(max_examples=200)
@given(boundary_frames())
def test_boundary_frames_match_scalar_reference(frame):
    points, masks, params = frame
    assert_same_records(points, masks, K_NARROW, T, params)


# Each gate only widens as one of these grows: the cluster statistics are
# taken before filtering, so no member's test depends on another's outcome.
WIDENING = ("tau_d", "kappa_rho", "kappa_v", "v_static", "sigma_v_min", "n_min")
FILTERED_OUT = list(Provenance).index(Provenance.FILTERED_OUT)


def filtered_out(points, masks, params):
    labels = autolabel_frame(points, masks, K_NARROW, T, params, stage="otpf")
    return set(np.flatnonzero(labels.provenance == FILTERED_OUT).tolist())


@settings(max_examples=300)
@given(boundary_frames(), st.sampled_from([1.0, 0.1]), st.sampled_from(WIDENING),
       st.sampled_from([None, 1.5, 4.0, 100.0]))
def test_filtered_out_never_grows_as_a_gate_widens(frame, tight, name, factor):
    """From the frame's thresholds, or all of them times 0.1 so that every
    gate bites, one parameter grows: ``factor`` None takes it to the next
    float (n_min: one more).  The frames put a member exactly on the gates'
    thresholds."""
    points, masks, params = frame
    params = dataclasses.replace(
        params, **{name: getattr(params, name) * tight for name in WIDENING[:-1]}
    )
    value = getattr(params, name)
    if name == "n_min":
        grown = value + (1 if factor is None else int(factor))
    else:
        grown = float(np.nextafter(value, np.inf)) if factor is None else value * factor
    wider = dataclasses.replace(params, **{name: grown})
    assert filtered_out(points, masks, wider) <= filtered_out(points, masks, params)
