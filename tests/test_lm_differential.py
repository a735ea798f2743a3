"""The LM descent against its reference copy: bit-identical on every seed.

``_run_lm`` runs every seed's descent in one stack, keeps each accepted
trial's rotation, camera points and residuals and builds the next Jacobian
from them; ``lm_reference`` holds the one-seed path that recomputed them.
Every row of one stacked call must give the pose bytes, cost, iteration
count and converged flag of the reference descent from that row's seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lm_reference
from fd_oracle import linearize
from radcal import calibration
from radcal.calibration import SolverConfig, _run_lm, cube_rotation_seeds
from radcal.geometry import _rodrigues, canonicalize_rotvec
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
    for pose in [np.zeros(6), *rng.uniform(-2.0, 2.0, (20, 6))]:
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


@settings(max_examples=200)
@given(st.lists(ROTVEC_ROW, min_size=1, max_size=6))
def test_stacked_rotation_helpers_match_reference_rows(rows):
    # the stacked canonicalization and Rodrigues give each row the bits of
    # the one-vector functions, past pi, near zero and at zero alike
    stack = np.array(rows)
    wrapped = canonicalize_rotvec(stack)
    rotations, _, _ = _rodrigues(wrapped)
    for row, got, rotation in zip(stack, wrapped, rotations):
        expected = lm_reference.canonicalize_rotvec(row)
        assert got.tobytes() == expected.tobytes()
        assert rotation.tobytes() == lm_reference.rotvec_to_matrix(expected).tobytes()
