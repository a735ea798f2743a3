"""The array-built scenes and the batched clutter sampler against their
per-value references, and the direct radar-row writer against
``canonical_json``: the same bits.

``radcal.synth`` builds calibration returns and labeling points as arrays,
and ``_clutter`` decides a block of candidates at once and then walks the
uniform stream as ``synth_reference.clutter`` drew it; every scene, and the
generator's state afterwards, must be the one ``synth_reference`` gives.
``fileio._points_json`` formats radar rows from one template; its text must
be ``canonical_json`` of the frame document.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_reference
from radcal import synth
from radcal.autolabel import PointCloud
from radcal.fileio import (
    _CARTESIAN_KEYS,
    _points_json,
    canonical_json,
    write_radar_frame,
    write_radar_points,
)
from radcal.geometry import Z_EPS, Extrinsics
from radcal.reflector import RETURN_DTYPE, RadarFrame
from radcal.synth import (
    LabelSceneConfig,
    SceneConfig,
    default_extrinsics,
    default_intrinsics,
)
from truth_columns import column_bytes


def test_uniform_is_low_plus_span_times_random():
    # the walk reads rng.uniform(lo, hi) off rng.random() draws; a numpy
    # that computes uniform another way must fail here, not move a scene
    bounds = [(4.0, 35.0), (-math.radians(40.0), math.radians(40.0)),
              (-math.radians(10.0), math.radians(10.0)), (-10.0, 10.0), (-5.0, 30.0),
              (-1e300, 1e300), (0.0, 5e-324), (2.5, 2.5)]
    for seed, (lo, hi) in enumerate(bounds):
        rng = np.random.default_rng(seed)
        scalar = np.array([rng.uniform(lo, hi) for _ in range(20_000)])
        draws = np.random.default_rng(seed).random(20_000)
        assert scalar.tobytes() == synth._uniform(draws, lo, hi).tobytes()


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_array_draws_are_the_row_major_scalar_draws(seed):
    # the scenes draw whole rows with array bounds and scales; a numpy that
    # broadcasts them in another order must fail here, not move a scene
    lows = (0.5, -1.0, -0.4, -3.0, -5.0)
    highs = (20.0, 1.0, 0.4, 3.0, 9.5)
    sigmas = (0.05, 0.0, 2.5, 1e-300)
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    ref.integers(0, 10)  # a buffered 32-bit half must survive both
    rng.integers(0, 10)
    for _ in range(3):
        uniform = rng.uniform(lows, highs, (50, 5))
        normal = rng.normal(0.0, sigmas, (50, 4))
        scalar_uniform = [ref.uniform(lo, hi) for _ in range(50) for lo, hi in zip(lows, highs)]
        scalar_normal = [ref.normal(0.0, sigma) for _ in range(50) for sigma in sigmas]
        assert uniform.tobytes() == np.array(scalar_uniform).tobytes()
        assert normal.tobytes() == np.array(scalar_normal).tobytes()
        assert rng.integers(0, 10) == ref.integers(0, 10)
    assert rng.bit_generator.state == ref.bit_generator.state


def test_integer_sign_is_the_choice_sign():
    # synth draws a random sign as (-1.0, 1.0)[rng.integers(0, 2)], where it
    # drew rng.choice([-1.0, 1.0]); among scalar draws of every kind the
    # scenes make, each sign and the generator's state must stay the same
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        kinds = np.random.default_rng(1000 + seed).integers(0, 4, 200)
        for kind in kinds.tolist():
            if kind == 0:
                sign = (-1.0, 1.0)[rng.integers(0, 2)]
                assert sign == ref.choice([-1.0, 1.0]) and type(sign) is float
            elif kind == 1:
                assert rng.uniform(1.0, 8.0) == ref.uniform(1.0, 8.0)
            elif kind == 2:
                assert rng.normal(0.0, 0.5) == ref.normal(0.0, 0.5)
            else:
                assert rng.integers(0, 10) == ref.integers(0, 10)
            assert rng.bit_generator.state == ref.bit_generator.state


def generated(gen, cfg):
    """What ``gen(cfg)`` makes (or the error it raises), and the state of
    its one generator afterwards."""
    made = []
    default_rng = np.random.default_rng

    def recording(seed):
        made.append(default_rng(seed))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", recording):
        try:
            scene = gen(cfg)
        except synth.FovInfeasible as exc:
            scene = str(exc)
    assert len(made) == 1
    return scene, made[0].bit_generator.state


def assert_same_calibration_scene(cfg):
    scene, state = generated(synth.gen_calibration_scene, cfg)
    ref, ref_state = generated(synth_reference.calibration_scene, cfg)
    assert state == ref_state
    assert scene.ground_truth() == ref.ground_truth()
    for pose, ref_pose in zip(scene.poses, ref.poses, strict=True):
        assert pose.radar_frame.returns.tobytes() == ref_pose.radar_frame.returns.tobytes()
        assert pose.corner_set.corners.tobytes() == ref_pose.corner_set.corners.tobytes()
        assert pose.gt_center_radar.tobytes() == ref_pose.gt_center_radar.tobytes()
        assert pose.t_radar_s == ref_pose.t_radar_s


def assert_same_label_scene(cfg):
    scene, state = generated(synth.gen_label_scene, cfg)
    ref, ref_state = generated(synth_reference.label_scene, cfg)
    assert state == ref_state
    if isinstance(ref, str):  # both gave up on the same object
        assert scene == ref
        return
    for name in ("xyz", "velocity", "rcs"):
        assert getattr(scene.points, name).tobytes() == getattr(ref.points, name).tobytes()
    assert column_bytes(scene.gt_labels) == column_bytes(ref.gt_labels)
    assert scene.ground_truth() == ref.ground_truth()
    for mask, ref_mask in zip(scene.masks, ref.masks, strict=True):
        assert (mask.starts.tobytes(), mask.ends.tobytes()) == (
            ref_mask.starts.tobytes(), ref_mask.ends.tobytes())


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**31),
    poses=st.integers(1, 3),
    range_sigma=st.sampled_from([0.0, 0.05, 1.0]),  # 1 m clamps a near range at 0
    angle_sigma=st.sampled_from([0.0, 0.01, 2.5, 40.0]),  # 2.5 and 40 wrap the azimuth
    rcs_sigma=st.sampled_from([0.0, 0.7]),
    clutter_only=st.sets(st.integers(0, 2)),
    clutter=st.one_of(st.just(0), st.integers(0, 60)),
    movers=st.one_of(st.just(0), st.integers(0, 6)),
)
def test_calibration_scene_matches_reference_property(
    seed, poses, range_sigma, angle_sigma, rcs_sigma, clutter_only, clutter, movers
):
    assert_same_calibration_scene(SceneConfig(
        pose_count=poses, range_sigma_m=range_sigma, angle_sigma_rad=angle_sigma,
        rcs_sigma_dbsm=rcs_sigma,
        clutter_only_poses=tuple(sorted(i for i in clutter_only if i < poses)),
        clutter_per_frame=clutter, moving_clutter_per_frame=movers, seed=seed,
    ))


@settings(max_examples=60)
@given(
    seed=st.integers(0, 2**31),
    objects=st.integers(1, 8),
    velocity_jitter=st.sampled_from([0.0, 0.1]),
    rcs_jitter=st.sampled_from([0.0, 0.5]),
    fp_rate=st.sampled_from([0.0, 0.1, 0.5]),
    fn_rate=st.sampled_from([0.0, 0.1]),
    clutter=st.one_of(st.just(0), st.integers(0, 100)),
    mask_shape=st.sampled_from(["rect", "hull"]),
)
def test_label_scene_matches_reference_property(
    seed, objects, velocity_jitter, rcs_jitter, fp_rate, fn_rate, clutter, mask_shape
):
    assert_same_label_scene(LabelSceneConfig(
        object_count=objects, velocity_jitter_mps=velocity_jitter, rcs_jitter_dbsm=rcs_jitter,
        false_positive_rate=fp_rate, false_negative_rate=fn_rate, clutter_count=clutter,
        mask_shape=mask_shape, seed=seed,
    ))


def scene_with(clutter, cfg):
    """The scene ``gen_label_scene`` makes with ``clutter`` as its clutter
    sampler, and the generator's state right after the clutter."""
    states = []

    def recorded(rng, *args):
        out = clutter(rng, *args)
        states.append(rng.bit_generator.state)
        return out

    with mock.patch.object(synth, "_clutter", recorded):
        scene = synth.gen_label_scene(cfg)
    return scene, states[0]


def assert_same_scene(cfg):
    scene, state = scene_with(synth._clutter, cfg)
    ref, ref_state = scene_with(synth_reference.clutter, cfg)
    assert scene.points.xyz.tobytes() == ref.points.xyz.tobytes()
    assert scene.points.velocity.tobytes() == ref.points.velocity.tobytes()
    assert scene.points.rcs.tobytes() == ref.points.rcs.tobytes()
    assert column_bytes(scene.gt_labels) == column_bytes(ref.gt_labels)
    assert state == ref_state


@settings(max_examples=12)
@given(
    seed=st.integers(0, 2**31),
    clutter_count=st.one_of(st.integers(0, 3000), st.sampled_from([2000, 3000])),
    object_count=st.integers(1, 20),
    far=st.floats(10.0, 60.0),
    mask_shape=st.sampled_from(["rect", "hull"]),
    corrupt=st.booleans(),
)
def test_clutter_matches_reference_property(
    seed, clutter_count, object_count, far, mask_shape, corrupt
):
    cfg = LabelSceneConfig(
        object_count=object_count,
        range_m=(6.0, far),
        clutter_count=clutter_count,
        mask_shape=mask_shape,
        false_positive_rate=0.1 if corrupt else 0.0,
        false_negative_rate=0.1 if corrupt else 0.0,
        seed=seed,
    )
    try:
        assert_same_scene(cfg)
    except synth.FovInfeasible:  # too many objects for the range
        pass


@pytest.mark.parametrize("seed", [7, 702])
def test_clutter_matches_reference_on_dense_scenes(seed):
    # the benchmark's label-dense scene: 20 objects, 2,000 clutter points
    assert_same_scene(
        LabelSceneConfig(
            object_count=20, points_per_object=(150, 250), range_m=(6.0, 60.0),
            clutter_count=2000, false_positive_rate=0.1, false_negative_rate=0.1, seed=seed,
        )
    )


@pytest.mark.parametrize("seed", [0, 8])
def test_clutter_matches_reference_with_jitter_and_a_shifted_camera(seed):
    # a camera well off the radar puts clutter behind it and on the image
    # border; the integer and normal draws before the clutter leave the
    # generator's buffered 32-bit half set
    t = default_extrinsics()
    t = Extrinsics(t.rotation, t.translation + np.array([0.0, 0.0, 9.0]))
    cfg = LabelSceneConfig(
        object_count=3, range_m=(12.0, 20.0), clutter_count=400, mask_shape="hull",
        velocity_jitter_mps=0.1, rcs_jitter_dbsm=0.5, false_positive_rate=0.2, seed=seed,
        extrinsics=t,
    )
    assert_same_scene(cfg)


def test_clutter_walk_gives_points_up_as_the_reference_does():
    # only a candidate with z > 5.5 m is clear: about one in 400, so about a
    # quarter of the points are given up after CLUTTER_TRIES candidates
    def high(pos, *args):
        return pos[..., 2] > 5.5

    k, t = default_intrinsics(), default_extrinsics()
    args = (np.zeros((1, 3)), np.array([0]), k, t)
    with mock.patch.object(synth, "_clutter_clear", high), \
            mock.patch.object(synth_reference, "clear", high):
        for count in (1, 7, 30):
            rng, ref_rng = np.random.default_rng(count), np.random.default_rng(count)
            rng.integers(0, 10)  # a buffered 32-bit half must survive
            ref_rng.integers(0, 10)
            out = synth._clutter(rng, count, *args)
            ref = synth_reference.clutter(ref_rng, count, *args)
            assert 0 < len(ref[1]) < count or count == 1
            for a, b in zip(out, ref):
                assert a.tobytes() == b.tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_clutter_decisions_at_the_boundaries_are_the_per_point_ones():
    # candidates whose lookup pixel sits on a rounding boundary (u + 0.5 an
    # integer, give or take a few ulps) or whose depth sits on Z_EPS; a mask
    # column makes the window test flip when the pixel rounds the other way
    k, t = default_intrinsics(), default_extrinsics()
    t_inv = t.inverse()
    column = 600  # 1-based image column of the mask
    masked = np.arange(k.height) * k.width + column - 1
    rng = np.random.default_rng(3)
    cams = []
    for u in (column + 2.5, column - 3.5, 0.5, k.width + 0.5):
        for z in rng.uniform(1.0, 40.0, 25):
            v = rng.uniform(1.0, k.height)
            for nudge in (-1e-12, 0.0, 1e-12):
                cams.append([(u + nudge - k.cx) / k.fx * z, (v - k.cy) / k.fy * z, z])
    for z in Z_EPS * np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9]):
        for v in rng.uniform(1.0, k.height, 10):  # on the mask if in front
            cams.append([(column - 0.2 - k.cx) / k.fx * z, (v - k.cy) / k.fy * z, z])
    pos = t_inv.transform(np.array(cams))
    centroids = np.array([[500.0, 0.0, 0.0]])
    clear = synth._clutter_clear(pos, centroids, masked, k, t)
    expected = [synth_reference.clear(p, centroids, masked, k, t) for p in pos]
    assert clear.tolist() == expected
    assert 0 < sum(expected) < len(expected)


# ---------------------------------------------------------------------------
# radar rows


def points_doc_json(timestamp_s, keys, rows):
    return canonical_json(
        {"timestamp_s": timestamp_s, "points": [dict(zip(keys, row)) for row in rows.tolist()]}
    )


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
               1.0, -3.0, 1e16, 2.0**53, 123456789.0, 0.1]
finite = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
key_sets = st.sampled_from([_CARTESIAN_KEYS, RETURN_DTYPE.names])


@settings(max_examples=200)
@given(
    keys=key_sets,
    values=st.lists(finite, max_size=40),
    timestamp=st.one_of(finite, st.integers(-(2**40), 2**40)),
)
def test_points_json_is_canonical_json_property(keys, values, timestamp):
    rows = np.array(values[: len(values) // 5 * 5], dtype=float).reshape(-1, 5)
    assert _points_json(timestamp, keys, rows) == points_doc_json(timestamp, keys, rows)


@settings(max_examples=100)
@given(
    keys=key_sets,
    values=st.lists(finite, min_size=5, max_size=40),
    bad=st.lists(st.tuples(st.integers(0, 39), st.sampled_from([math.nan, math.inf, -math.inf])),
                 max_size=3),
    timestamp=st.sampled_from([0.0, math.nan, math.inf]),
)
def test_points_json_raises_what_canonical_json_raises_property(keys, values, bad, timestamp):
    rows = np.array(values[: len(values) // 5 * 5], dtype=float).reshape(-1, 5)
    for index, value in bad:
        rows.flat[index % rows.size] = value
    try:
        expected = points_doc_json(timestamp, keys, rows)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            _points_json(timestamp, keys, rows)
        assert str(raised.value) == str(exc)
    else:
        assert _points_json(timestamp, keys, rows) == expected


@pytest.mark.parametrize("variant", ["spherical", "cartesian"])
def test_write_radar_frame_is_canonical_json_of_the_frame_document(tmp_path, variant):
    rng = np.random.default_rng(5)
    rows = np.column_stack((rng.uniform(0.5, 30.0, 40), rng.uniform(-1.0, 1.0, (40, 2)),
                            rng.uniform(-3.0, 3.0, 40), rng.uniform(-5.0, 30.0, 40)))
    frame = RadarFrame(12.25, rows)
    ret = frame.returns
    if variant == "spherical":
        write_radar_frame(tmp_path / "frame.json", frame)
        keys, rows = RETURN_DTYPE.names, np.array(ret.tolist())
    else:
        keys = _CARTESIAN_KEYS
        xyz = synth.sph2cart(ret["r_m"], ret["az_rad"], ret["el_rad"])
        points = PointCloud(xyz, ret["v_mps"], ret["rcs_dbsm"])
        write_radar_points(tmp_path / "frame.json", frame.timestamp_s, points)
        rows = np.column_stack((xyz, ret["v_mps"], ret["rcs_dbsm"]))
    text = (tmp_path / "frame.json").read_text()
    assert text == points_doc_json(12.25, keys, rows) + "\n"
