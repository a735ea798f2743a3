import math

import numpy as np
import pytest

from fd_oracle import central_difference_jacobian
from radcal import calibration
from radcal.calibration import (
    BEHIND_CAMERA_RESIDUAL,
    CorrespondenceSet,
    DegenerateGeometry,
    SolverConfig,
    TooFewPoses,
    _linearize,
    _residual_vector,
    _run_lm,
    build_correspondences,
    cube_rotation_seeds,
    solve_extrinsics,
)
from radcal.checkerboard import checkerboard_center
from radcal.geometry import (
    CameraIntrinsics,
    Extrinsics,
    matrix_to_rotvec,
    pinhole,
    rotvec_to_matrix,
)
from radcal.reflector import extract_reflector
from radcal.synth import SceneConfig, default_intrinsics, gen_calibration_scene


class TestSolverConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_iters", 0),
            ("max_iters", "5"),
            ("max_iters", 5.0),
            ("max_iters", True),
            ("lambda_init", 0.0),
            ("lambda_up", -10.0),
            ("lambda_down", float("nan")),
            ("lambda_init", "x"),
            ("cost_rel_tol", -1e-12),
            ("step_tol", float("nan")),
        ],
    )
    def test_rejects_bad_value(self, field, value):
        with pytest.raises((TypeError, ValueError)):
            SolverConfig(**{field: value})

    def test_zero_tolerances_allowed(self):
        SolverConfig(cost_rel_tol=0.0, step_tol=0.0, max_iters=1)

    def test_multistart_is_not_a_knob(self):
        # the paper fixes the multistart to the cube group
        with pytest.raises(TypeError):
            SolverConfig(multistart=[np.zeros(6)])


def rotation_error_rad(a: Extrinsics, b: Extrinsics) -> float:
    return float(np.linalg.norm(matrix_to_rotvec(a.rotation.T @ b.rotation)))


def scene_correspondences(scene):
    cam, rad = [], []
    for pose in scene.poses:
        cam.append(
            (pose.pose_id, pose.t_camera_s, checkerboard_center(pose.corner_set))
        )
        rad.append((pose.pose_id, pose.t_radar_s, extract_reflector(pose.radar_frame)))
    return build_correspondences(cam, rad)


class TestBuildCorrespondences:
    def test_24_matched_poses(self):
        cam = [(i, float(i), np.array([100.0 + i, 200.0])) for i in range(24)]
        rad = [(i, float(i) + 0.01, np.array([5.0, 0.0, float(i)])) for i in range(24)]
        corrs = build_correspondences(cam, rad)
        assert len(corrs) == 24
        assert corrs.dropped_unmatched == ()
        assert corrs.dropped_sync == ()

    def test_missing_pose_dropped(self):
        cam = [(i, float(i), np.zeros(2)) for i in range(8)]
        rad = [(i, float(i), np.ones(3)) for i in range(8) if i != 7]
        corrs = build_correspondences(cam, rad)
        assert len(corrs) == 7
        assert 7 in corrs.dropped_unmatched

    def test_too_few_poses(self):
        cam = [(i, float(i), np.zeros(2)) for i in range(2)]
        rad = [(i, float(i), np.ones(3)) for i in range(2)]
        with pytest.raises(TooFewPoses):
            build_correspondences(cam, rad)

    def test_sync_violation_dropped(self):
        cam = [(i, float(i), np.zeros(2)) for i in range(5)]
        rad = [(i, float(i) + (0.2 if i == 3 else 0.0), np.ones(3)) for i in range(5)]
        corrs = build_correspondences(cam, rad, sync_tolerance_s=0.025)
        assert len(corrs) == 4
        assert corrs.dropped_sync == (3,)

    def test_duplicate_pose_ids_rejected(self):
        cam = [(1, 0.0, np.zeros(2)), (1, 1.0, np.zeros(2))]
        rad = [(1, 0.0, np.ones(3))]
        with pytest.raises(ValueError):
            build_correspondences(cam, rad)

    @pytest.mark.parametrize("past", [False, True], ids=["on_boundary", "one_ulp_past"])
    def test_sync_gate_boundary(self, past):
        # the gate drops a pair when abs(t_cam - t_rad) > tol: a gap equal to
        # the tolerance keeps it, one ulp more drops it
        tol = 2**-6
        t_rad = 3.0 + tol
        assert abs(3.0 - t_rad) == tol
        if past:
            t_rad = math.nextafter(t_rad, math.inf)
        cam = [(i, float(i), np.zeros(2)) for i in range(5)]
        rad = [(i, t_rad if i == 3 else float(i), np.ones(3)) for i in range(5)]
        corrs = build_correspondences(cam, rad, sync_tolerance_s=tol)
        assert corrs.dropped_sync == ((3,) if past else ())
        assert corrs.pose_id.tolist() == ([0, 1, 2, 4] if past else [0, 1, 2, 3, 4])

    def test_columns_in_ascending_pose_id(self):
        ids = [5, 2, 9, 0]
        cam = [(i, 0.0, np.array([i, -i])) for i in ids]
        rad = [(i, 0.0, np.array([i, 2 * i, 3 * i])) for i in reversed(ids)]
        corrs = build_correspondences(cam, rad)
        assert corrs.pose_id.dtype == np.int64
        assert corrs.pose_id.tolist() == [0, 2, 5, 9]
        assert corrs.image_center.tolist() == [[i, -i] for i in (0, 2, 5, 9)]
        assert corrs.radar_center.tolist() == [[i, 2 * i, 3 * i] for i in (0, 2, 5, 9)]
        assert corrs.image_center.dtype == corrs.radar_center.dtype == np.float64


class TestCorrespondenceSet:
    def test_take_keeps_the_columns_aligned(self):
        corrs = CorrespondenceSet(
            [3, 1, 2, 0], np.arange(8.0).reshape(4, 2), np.arange(12.0).reshape(4, 3),
            dropped_unmatched=(7,), dropped_sync=(8,),
        )
        assert corrs.pose_id.tolist() == [0, 1, 2, 3]
        assert corrs.image_center.tolist() == [[6, 7], [2, 3], [4, 5], [0, 1]]
        head = corrs.take(slice(3))
        assert head.pose_id.tolist() == [0, 1, 2]
        assert np.array_equal(head.image_center, corrs.image_center[:3])
        assert np.array_equal(head.radar_center, corrs.radar_center[:3])
        assert head.dropped_unmatched == head.dropped_sync == ()
        assert len(corrs.take(slice(3, None))) == 1

    @pytest.mark.parametrize(
        "pose_id, image_center, radar_center, message",
        [
            ([0, 1], np.zeros((3, 2)), np.zeros((3, 3)), "one row per pose"),
            ([0, 1, 2], np.zeros((3, 2)), np.zeros((2, 3)), "one row per pose"),
            ([0, 1, 1], np.zeros((3, 2)), np.zeros((3, 3)), "unique"),
        ],
        ids=["short_pose_id", "short_radar_center", "repeated_pose_id"],
    )
    def test_rejects_ragged_or_repeated_poses(self, pose_id, image_center, radar_center, message):
        with pytest.raises(ValueError, match=message):
            CorrespondenceSet(pose_id, image_center, radar_center)


def pose_residual(k, t, image_center, radar_center):
    """observed - projected of one pose, as ``calibrate`` reports a held-out
    pose: ``t.transform`` (the 1-D path), then ``pinhole``; None when the
    point is behind the camera."""
    pixel, front = pinhole(k, t.transform(radar_center))
    return image_center - pixel if front[0] else None


class TestResidual:
    def test_perfect_correspondence_is_zero(self):
        scene = gen_calibration_scene(SceneConfig(seed=1, pose_count=4))
        k = scene.config.intrinsics
        t = scene.config.extrinsics
        for pose in scene.poses:
            res = pose_residual(k, t, pose.gt_center_pixel, pose.gt_center_radar)
            assert np.linalg.norm(res) < 1e-9

    def test_spec_arithmetic_case(self):
        with pytest.warns(UserWarning):
            k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 200, 200)
        # identity transform projects (103, 96, 1) to exactly (103, 96)
        identity = Extrinsics(np.eye(3), np.zeros(3))
        res = pose_residual(k, identity, np.array([100.0, 100.0]), np.array([103.0, 96.0, 1.0]))
        assert np.allclose(res, [-3.0, 4.0])
        assert np.isclose(res @ res, 25.0)
        assert pose_residual(k, identity, np.zeros(2), np.array([103.0, 96.0, -1.0])) is None

    def test_cost_grows_with_perturbation(self):
        scene = gen_calibration_scene(SceneConfig(seed=2, pose_count=12))
        k = scene.config.intrinsics
        corrs = scene_correspondences(scene)
        observed, points = corrs.image_center, corrs.radar_center
        gt = scene.config.extrinsics
        gt_pose = np.concatenate([matrix_to_rotvec(gt.rotation), gt.translation])
        rng = np.random.default_rng(3)
        for _ in range(10):
            direction = rng.normal(size=6)
            direction /= np.linalg.norm(direction)
            costs = []
            for scale in (0.0, 0.002, 0.005, 0.01, 0.02, 0.05):
                r = _residual_vector(gt_pose + scale * direction, k, observed, points)
                costs.append(float(r @ r))
            assert all(a < b for a, b in zip(costs, costs[1:])), costs

    def test_behind_camera_penalty(self):
        with pytest.warns(UserWarning):
            k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 10, 10)
        observed = np.array([[0.0, 0.0]])
        points = np.array([[0.0, 0.0, -5.0]])
        res = _residual_vector(np.zeros(6), k, observed, points)
        assert np.all(res == BEHIND_CAMERA_RESIDUAL)


class TestSeeds:
    def test_24_unique_cube_rotations_identity_first(self):
        seeds = cube_rotation_seeds()
        assert len(seeds) == 24
        assert np.allclose(seeds[0], np.zeros(6))
        matrices = [rotvec_to_matrix(s[:3]) for s in seeds]
        for m in matrices:
            assert np.allclose(np.abs(m).sum(axis=0), 1.0, atol=1e-12)
            assert np.isclose(np.linalg.det(m), 1.0)
        for i in range(24):
            for j in range(i + 1, 24):
                assert not np.allclose(matrices[i], matrices[j], atol=1e-6)

    def test_deterministic_order(self):
        a = cube_rotation_seeds()
        b = cube_rotation_seeds()
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestJacobian:
    def test_matches_central_differences(self):
        scene = gen_calibration_scene(SceneConfig(seed=4, pose_count=10))
        k = scene.config.intrinsics
        corrs = scene_correspondences(scene)
        observed, points = corrs.image_center, corrs.radar_center
        rng = np.random.default_rng(5)
        gt = scene.config.extrinsics
        base = np.concatenate([matrix_to_rotvec(gt.rotation), gt.translation])
        for _ in range(50):
            pose = base + np.concatenate(
                [rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.5, 0.5, 3)]
            )
            analytic = _linearize(pose, k, observed, points)[1]
            numeric = central_difference_jacobian(pose, k, observed, points, step=1e-6)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-4, rel


    @pytest.mark.parametrize("angle", [0.0, 1e-7, 1e-5, 1e-3, 3.0])
    def test_matches_central_differences_at_small_and_large_rotations(self, angle):
        k = default_intrinsics()
        rng = np.random.default_rng(6)
        points = rng.uniform(-1.0, 1.0, (8, 3)) + [0.0, 0.0, 6.0]
        observed = rng.uniform(0.0, 1000.0, (8, 2))
        axis = np.array([0.6, -0.48, 0.64])
        pose = np.concatenate([angle * axis, [0.1, -0.2, 0.3]])
        analytic = _linearize(pose, k, observed, points)[1]
        numeric = central_difference_jacobian(pose, k, observed, points, step=1e-6)
        assert np.linalg.norm(analytic - numeric) < 1e-6 * np.linalg.norm(numeric)

    def test_behind_camera_rows_are_zero(self):
        k = default_intrinsics()
        points = np.array([[0.5, 0.2, 5.0], [0.0, 0.0, -5.0]])
        observed = np.zeros((2, 2))
        jac = _linearize(np.zeros(6), k, observed, points)[1]
        numeric = central_difference_jacobian(np.zeros(6), k, observed, points)
        assert np.all(jac[2:] == 0.0)
        assert np.allclose(jac[:2], numeric[:2], rtol=1e-6, atol=1e-6)


class TestSolve:
    def test_seed_with_every_point_behind_camera_stops_unconverged(self):
        scene = gen_calibration_scene(SceneConfig(seed=7))
        corrs = scene_correspondences(scene)
        k = scene.config.intrinsics
        observed, points = corrs.image_center, corrs.radar_center
        infeasible = []
        seeds = cube_rotation_seeds()
        runs = _run_lm(np.array(seeds), k, observed, points, SolverConfig())
        for index, seed in enumerate(seeds):
            if not np.all(_residual_vector(seed, k, observed, points) == BEHIND_CAMERA_RESIDUAL):
                continue
            infeasible.append(index)
            pose, cost, iterations, converged = (
                runs.poses[index], float(runs.costs[index]),
                int(runs.seed_iterations[index]), bool(runs.converged[index]),
            )
            assert converged is False
            assert iterations == 1
            assert np.array_equal(pose, seed)
            assert cost == float(np.sum(_residual_vector(seed, k, observed, points) ** 2))
        assert len(infeasible) == 4
        result = solve_extrinsics(corrs, k)
        assert result.converged
        assert result.seed_index not in infeasible
        assert result.mre_px < 1e-6


    def test_noise_free_recovery(self):
        scene = gen_calibration_scene(SceneConfig(seed=7))
        corrs = scene_correspondences(scene)
        result = solve_extrinsics(corrs, scene.config.intrinsics)
        assert result.converged
        assert rotation_error_rad(result.extrinsics, scene.config.extrinsics) < 1e-6
        assert (
            np.linalg.norm(
                result.extrinsics.translation - scene.config.extrinsics.translation
            )
            < 1e-5
        )
        assert result.mre_px < 1e-6

    def test_noisy_bound_small_sample(self):
        for seed in (11, 12, 13):
            scene = gen_calibration_scene(
                SceneConfig(
                    seed=seed,
                    pixel_sigma_px=2.0,
                    range_sigma_m=0.02,
                    angle_sigma_rad=0.0025,
                )
            )
            corrs = scene_correspondences(scene)
            result = solve_extrinsics(corrs, scene.config.intrinsics)
            assert result.mre_px <= 10.0
            assert result.rmse_px >= result.mre_px

    def test_mre_at_most_rmse(self):
        scene = gen_calibration_scene(SceneConfig(seed=21, pixel_sigma_px=1.0))
        corrs = scene_correspondences(scene)
        result = solve_extrinsics(corrs, scene.config.intrinsics)
        assert result.mre_px <= result.rmse_px

    def test_degenerate_geometry_detected(self):
        point = np.array([8.0, 0.5, 0.2])
        k = default_intrinsics()
        corrs = CorrespondenceSet(
            np.arange(6), [[900.0 + i, 500.0] for i in range(6)], np.tile(point, (6, 1))
        )
        with pytest.raises(DegenerateGeometry):
            solve_extrinsics(corrs, k)

    def test_accepted_steps_strictly_decrease_cost(self, monkeypatch):
        # LM linearizes at the seed and again after each accepted step, so
        # the costs at its linearization points are the accepted costs; it
        # builds each Jacobian from the state the accepted trial computed.
        # Run from one seed, every linearized row is that seed's; the stack
        # of all seeds linearizes at the same points
        scene = gen_calibration_scene(SceneConfig(seed=8, pixel_sigma_px=0.5))
        corrs = scene_correspondences(scene)
        k = scene.config.intrinsics
        observed, points = corrs.image_center, corrs.radar_center
        costs = []
        jacobian = calibration._Problem.jacobian

        def recording(problem, poses, state):
            for pose, state_residual in zip(poses, state.residual):
                residual = _residual_vector(pose, k, observed, points)
                assert np.array_equal(state_residual, residual)  # the state is the pose's
                costs.append(float(np.sum(residual**2)))
            return jacobian(problem, poses, state)

        monkeypatch.setattr(calibration._Problem, "jacobian", recording)
        longest = 0
        every_seed = []
        seeds = np.array(cube_rotation_seeds())
        for seed in seeds:
            costs.clear()
            _run_lm(seed[None], k, observed, points, SolverConfig())
            assert all(b < a for a, b in zip(costs, costs[1:])), costs
            longest = max(longest, len(costs))
            every_seed += costs
        assert longest >= 2
        costs.clear()
        _run_lm(seeds, k, observed, points, SolverConfig())
        assert sorted(costs) == sorted(every_seed)

    def test_winner_is_first_strict_minimum_never_nan(self, monkeypatch):
        # the multistart keeps the first seed of the lowest cost: a later
        # seed that ties it does not win, and a NaN cost never does
        scene = gen_calibration_scene(SceneConfig(seed=7, pixel_sigma_px=0.5))
        corrs = scene_correspondences(scene)
        k = scene.config.intrinsics
        base = solve_extrinsics(corrs, k)
        run_lm = calibration._run_lm

        def tie_then_nan(*args):
            runs = run_lm(*args)
            costs = runs.costs.copy()
            later = [i for i in range(len(costs)) if i > base.seed_index]
            costs[later[0]] = costs[base.seed_index]
            costs[later[1]] = np.nan
            return runs._replace(costs=costs)

        monkeypatch.setattr(calibration, "_run_lm", tie_then_nan)
        result = solve_extrinsics(corrs, k)
        assert result.seed_index == base.seed_index
        assert result.cost == base.cost

    def test_permutation_invariance_bit_identical(self):
        scene = gen_calibration_scene(SceneConfig(seed=9, pose_count=10))
        corrs = scene_correspondences(scene)
        base = solve_extrinsics(corrs, scene.config.intrinsics)
        rng = np.random.default_rng(10)
        for _ in range(3):
            order = rng.permutation(len(corrs))
            shuffled = CorrespondenceSet(
                corrs.pose_id[order], corrs.image_center[order], corrs.radar_center[order]
            )
            assert np.array_equal(shuffled.pose_id, corrs.pose_id)
            result = solve_extrinsics(shuffled, scene.config.intrinsics)
            assert np.array_equal(
                result.extrinsics.rotation, base.extrinsics.rotation
            )
            assert np.array_equal(
                result.extrinsics.translation, base.extrinsics.translation
            )
            assert result.cost == base.cost
            assert np.array_equal(result.residuals, base.residuals)

    def test_rigid_reparameterisation_of_the_radar_frame(self):
        # radar centers mapped by p' = R0 p + t0 are seen under R' = R R0^T
        # and t' = t - R' t0.  To first order a pose's distance from the
        # minimizer is at most its residual norm over the smallest singular
        # value of the Jacobian, so the two solutions are within the sum of
        # the two residual norms over it
        scene = gen_calibration_scene(SceneConfig(seed=7, pose_count=24))
        k = scene.config.intrinsics
        corrs = scene_correspondences(scene)
        base = solve_extrinsics(corrs, k).extrinsics
        r0 = rotvec_to_matrix(math.radians(37.0) * np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0))
        t0 = np.array([0.0, 0.6, 0.8])  # 1 m
        moved = CorrespondenceSet(
            corrs.pose_id, corrs.image_center, corrs.radar_center @ r0.T + t0
        )
        result = solve_extrinsics(moved, k)
        rotation = base.rotation @ r0.T
        expected = np.concatenate(
            [matrix_to_rotvec(rotation), base.translation - rotation @ t0]
        )
        residual, jac = _linearize(expected, k, moved.image_center, moved.radar_center)
        tolerance = (np.linalg.norm(residual) + np.linalg.norm(result.residuals)) / (
            np.linalg.svd(jac, compute_uv=False)[-1]
        )
        got = np.concatenate(
            [matrix_to_rotvec(result.extrinsics.rotation), result.extrinsics.translation]
        )
        assert result.converged
        assert rotation_error_rad(result.extrinsics, base) > math.radians(30.0)
        assert np.linalg.norm(got - expected) <= tolerance

    def test_gauge_fully_constrained(self):
        # solving a scene built from any ground truth recovers that exact
        # transform: no residual gauge freedom for >= 3 spread poses
        for seed in (31, 32):
            gt = Extrinsics(
                rotvec_to_matrix(np.array([0.03, -0.25, 0.1]))
                @ SceneConfig().extrinsics.rotation,
                np.array([-0.2, 0.15, 0.08]),
            )
            scene = gen_calibration_scene(SceneConfig(seed=seed, extrinsics=gt))
            corrs = scene_correspondences(scene)
            result = solve_extrinsics(corrs, scene.config.intrinsics)
            assert rotation_error_rad(result.extrinsics, gt) < 1e-6
            assert np.linalg.norm(result.extrinsics.translation - gt.translation) < 1e-5

    def test_too_few_poses(self):
        corrs = CorrespondenceSet([0, 1], [[0.0, 0.0], [1.0, 1.0]], [[5.0, 0, 0], [6.0, 1, 0]])
        with pytest.raises(TooFewPoses):
            solve_extrinsics(corrs, default_intrinsics())
