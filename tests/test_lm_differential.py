"""The LM descent against its one-seed references.

``_run_lm`` runs every seed's descent on SO(3) in one stack, keeps each
accepted trial's rotated points, camera points and residuals and builds the
next Jacobian from them; ``lm_reference._run_lm`` is the one-seed path that
recomputes them.  Every row of one stacked call must give the pose bytes,
cost, iteration count and converged flag of the reference descent from that
row's seed.

``lm_reference._run_lm_rotvec`` descends the same cost in rotation-vector
coordinates: the solver's winner must be the minimum its best seed finds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lm_reference
from fd_oracle import linearize, pose_of
from radcal import calibration
from radcal.calibration import (
    CorrespondenceSet,
    SolverConfig,
    _run_lm,
    _step,
    cube_rotation_seeds,
    solve_extrinsics,
)
from radcal.geometry import matrix_to_rotvec
from radcal.synth import SceneConfig, gen_calibration_scene


def scene_arrays(pose_count, noisy, seed=7):
    """Observed pixels and radar points of a seeded scene's poses, with
    seeded pixel and range-like noise when ``noisy``."""
    scene = gen_calibration_scene(SceneConfig(seed=seed, pose_count=pose_count))
    observed = np.array([p.gt_center_pixel for p in scene.poses])
    points = np.array([p.gt_center_radar for p in scene.poses])
    if noisy:
        rng = np.random.default_rng(seed + pose_count)
        observed = observed + rng.normal(0.0, 1.0, observed.shape)
        points = points + rng.normal(0.0, 0.02, points.shape)
    return scene.config.intrinsics, observed, points


def outcome(run):
    pose, cost, iterations, converged = run
    return pose.tobytes(), cost, iterations, converged


def stacked_outcomes(seeds, k, observed, points, cfg):
    """Each row's outcome of one stacked descent from ``seeds``, as Python
    scalars; also checks the summed count the benchmark reads at index 2."""
    runs = _run_lm(np.array(seeds), k, observed, points, cfg)
    assert type(runs[2]) is int and runs[2] == sum(runs.seed_iterations.tolist())
    return [
        outcome((pose, cost, iterations, converged))
        for pose, cost, iterations, converged in zip(
            runs.poses, runs.costs.tolist(), runs.seed_iterations.tolist(),
            runs.converged.tolist(),
        )
    ]


def assert_every_seed_identical(k, observed, points, cfg):
    runs = []
    seeds = cube_rotation_seeds()
    for seed, run in zip(seeds, stacked_outcomes(seeds, k, observed, points, cfg)):
        assert run == outcome(lm_reference._run_lm(seed, k, observed, points, cfg))
        runs.append(run)
    return runs


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("pose_count", [3, 6, 24, 96])
def test_every_seed_bit_identical(pose_count, noisy):
    k, observed, points = scene_arrays(pose_count, noisy)
    runs = assert_every_seed_identical(k, observed, points, SolverConfig())
    assert any(converged for *_, converged in runs)


def test_behind_camera_seeds_bit_identical():
    # four cube seeds start with every point behind the camera; both paths
    # stop at once with converged=False
    k, observed, points = scene_arrays(24, noisy=False)
    behind = [
        seed for seed in cube_rotation_seeds()
        if np.all(lm_reference._residual_vector(seed, k, observed, points)
                  == lm_reference.BEHIND_CAMERA_RESIDUAL)
    ]
    assert len(behind) == 4
    for seed, run in zip(behind, stacked_outcomes(behind, k, observed, points, SolverConfig())):
        assert run == outcome(lm_reference._run_lm(seed, k, observed, points, SolverConfig()))
        assert run[2:] == (1, False)


def test_iteration_budget_bit_identical():
    k, observed, points = scene_arrays(24, noisy=True)
    runs = assert_every_seed_identical(k, observed, points, SolverConfig(max_iters=5))
    assert (5, False) in [run[2:] for run in runs]


@pytest.mark.parametrize("pose_count", [3, 24])
def test_linearize_bit_identical(pose_count):
    k, observed, points = scene_arrays(pose_count, noisy=True)
    rng = np.random.default_rng(pose_count)
    poses = [pose_of(v[:3], v[3:]) for v in rng.uniform(-2.0, 2.0, (20, 6))]
    for pose in [np.eye(3, 4), *poses]:
        residual, jac = linearize(pose, k, observed, points)
        ref_residual, ref_jac = lm_reference._linearize(pose, k, observed, points)
        assert residual.tobytes() == ref_residual.tobytes()
        assert jac.tobytes() == ref_jac.tobytes()


@settings(max_examples=40)
@given(
    scene_seed=st.integers(0, 10_000),
    pose_count=st.integers(3, 40),
    noisy=st.booleans(),
    coincident=st.booleans(),
    max_iters=st.integers(1, 10),
    lambda_init=st.sampled_from([1e-300, 1e-3, 1.0]),
)
def test_stacked_rows_match_reference_property(
    scene_seed, pose_count, noisy, coincident, max_iters, lambda_init
):
    # every row of one stacked call is the reference descent from its seed,
    # whatever the others do: stop at once, converge, saturate, run out
    k, observed, points = scene_arrays(pose_count, noisy, seed=scene_seed)
    if coincident:
        points = np.repeat(points[:1], pose_count, axis=0)
    cfg = SolverConfig(max_iters=max_iters, lambda_init=lambda_init)
    seeds = cube_rotation_seeds()
    for seed, run in zip(seeds, stacked_outcomes(seeds, k, observed, points, cfg)):
        assert run == outcome(lm_reference._run_lm(seed, k, observed, points, cfg))


def test_some_slices_singular_bit_identical(monkeypatch):
    # all radar points coincide, so with almost no damping some seeds' damped
    # systems are singular while others' are not: the stacked solve raises
    # and each row is solved on its own, that row's lambda alone growing
    k, observed, points = scene_arrays(6, noisy=True)
    points = np.repeat(points[:1], len(points), axis=0)
    cfg = SolverConfig(max_iters=10, lambda_init=1e-300)
    reference_singular = 0
    solve = np.linalg.solve

    def counting_solve(a, b):
        nonlocal reference_singular
        try:
            return solve(a, b)
        except np.linalg.LinAlgError:
            reference_singular += 1
            raise

    seeds = cube_rotation_seeds()
    monkeypatch.setattr(lm_reference.np.linalg, "solve", counting_solve)
    expected = [outcome(lm_reference._run_lm(s, k, observed, points, cfg)) for s in seeds]
    monkeypatch.undo()
    assert reference_singular > 0
    masks = []
    solve_rows = calibration._solve_rows

    def recording(damped, rhs):
        delta, singular = solve_rows(damped, rhs)
        masks.append(singular)
        return delta, singular

    monkeypatch.setattr(calibration, "_solve_rows", recording)
    assert stacked_outcomes(seeds, k, observed, points, cfg) == expected
    assert any(mask.any() and not mask.all() for mask in masks)
    assert sum(int(mask.sum()) for mask in masks) == reference_singular


ROTVEC_ROW = st.tuples(
    st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(-10.0, 10.0),
    st.sampled_from([1.0, 1e-9, 0.0, np.pi / np.sqrt(3.0)]),
).map(lambda row: np.array(row[:3]) * row[3])
TRANSLATION = st.tuples(*[st.floats(-20.0, 20.0)] * 3).map(np.array)


@settings(max_examples=200)
@given(st.lists(st.tuples(ROTVEC_ROW, TRANSLATION, ROTVEC_ROW, TRANSLATION),
                min_size=1, max_size=6))
def test_stacked_step_matches_reference_rows(rows):
    # each row of the stacked step R <- exp([dw]x) R, t <- t + dt has the
    # bits of the one-pose step, for dw past pi, near zero and at zero alike
    poses = np.array([pose_of(rotvec, t) for rotvec, t, _, _ in rows])
    deltas = np.array([np.concatenate((dw, dt)) for _, _, dw, dt in rows])
    moved = _step(poses, deltas[:, :, None])
    for pose, delta, got in zip(poses, deltas, moved):
        assert got.tobytes() == lm_reference._step(pose, delta).tobytes()


@pytest.mark.parametrize("pose_count", [4, 6, 12, 24, 96])
@pytest.mark.parametrize("scene_seed", [5000, 5001])
def test_same_minimum_as_rotation_vector_descent(pose_count, scene_seed):
    # the SO(3) multistart's winner is the minimum the best rotation-vector
    # seed finds: the same cost, rotation, translation and converged flag
    k, observed, points = scene_arrays(pose_count, noisy=True, seed=scene_seed)
    cfg = SolverConfig()
    best = None
    for seed in cube_rotation_seeds():
        rotvec_seed = np.concatenate((matrix_to_rotvec(seed[:, :3]), seed[:, 3]))
        run = lm_reference._run_lm_rotvec(rotvec_seed, k, observed, points, cfg)
        if best is None or run[1] < best[1]:
            best = run
    pose, cost, _, converged = best
    result = solve_extrinsics(CorrespondenceSet(np.arange(pose_count), observed, points), k)
    assert abs(result.cost - cost) <= 1e-12 * cost
    rotation = lm_reference.rotvec_to_matrix(pose[:3])
    angle = np.linalg.norm(matrix_to_rotvec(result.extrinsics.rotation @ rotation.T))
    assert math.degrees(angle) <= 1e-5
    assert np.linalg.norm(result.extrinsics.translation - pose[3:]) <= 1e-6  # 1e-3 mm
    assert result.converged == converged
