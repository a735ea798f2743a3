"""The LM descent against its reference copy: bit-identical on every seed.

``_run_lm`` keeps each accepted trial's rotation, camera points and
residuals and builds the next Jacobian from them; ``lm_reference`` holds
the path that recomputed them.  Every seed of every scene must give the
same pose bytes, cost, iteration count and converged flag.
"""

import numpy as np
import pytest

import lm_reference
from radcal.calibration import SolverConfig, _linearize, _run_lm, cube_rotation_seeds
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


def assert_every_seed_identical(k, observed, points, cfg):
    runs = []
    for seed in cube_rotation_seeds():
        run = outcome(_run_lm(seed, k, observed, points, cfg))
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
    for seed in behind:
        run = outcome(_run_lm(seed, k, observed, points, SolverConfig()))
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
    for pose in [np.zeros(6), *rng.uniform(-2.0, 2.0, (20, 6))]:
        residual, jac = _linearize(pose, k, observed, points)
        ref_residual, ref_jac = lm_reference._linearize(pose, k, observed, points)
        assert residual.tobytes() == ref_residual.tobytes()
        assert jac.tobytes() == ref_jac.tobytes()
