"""Extrinsic calibration: correspondence pairing and the LM solver.

The board center seen by the camera (pixel) and by the radar (3D point)
are paired per pose, and the radar-to-camera transform is found by
minimizing the summed squared reprojection error with Levenberg-Marquardt.
A pose is the (3, 4) block [R | t]; a step (dw, dt) moves it on SO(3) x R^3
to R <- exp([dw]x) R, t <- t + dt (a left perturbation).

The solver restarts from the identity plus the 23 remaining rotational
symmetries of the cube so no coarse mounting orientation needs a DLT-style
initial guess; the lowest-cost run wins (ties: first seed in the fixed
order; a NaN cost never wins).  The 24 descents run as one stack of
(24, 2K, 6) Jacobians in which each seed keeps its own damping, accepts or
rejects its own steps and stops on its own.  Every stacked numpy call
keeps each row's bits, so each seed ends exactly where a descent from it
alone would.  Everything is deterministic.

``reprojection_errors`` summarizes residuals as MRE and RMSE in pixels:
for the solution here, and for held-out poses in ``calibrate --holdout``.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .geometry import (
    CameraIntrinsics,
    Extrinsics,
    _pinhole,
    _rodrigues,
    _skew,
    matrix_to_rotvec,
    nearest_rotation,
)

logger = logging.getLogger(__name__)

__all__ = [
    "TooFewPoses",
    "DegenerateGeometry",
    "CorrespondenceSet",
    "SolverConfig",
    "CalibrationResult",
    "DEFAULT_SYNC_TOLERANCE_S",
    "build_correspondences",
    "reprojection_errors",
    "cube_rotation_seeds",
    "solve_extrinsics",
]

# Nearest plausible pairing window for a static target (radar at 15 Hz).
DEFAULT_SYNC_TOLERANCE_S = 0.025

# Residual substituted (per component) when a candidate pose puts the radar
# point behind the camera; keeps the cost finite and repels the optimizer.
BEHIND_CAMERA_RESIDUAL = 1e4

# Relative singular-value floor below which the Jacobian at the solution is
# considered rank-deficient.
RANK_TOLERANCE = 1e-10

_EYE6 = np.eye(6)


class TooFewPoses(ValueError):
    """Fewer than 3 valid correspondences; the 6-DOF problem is underdetermined."""


class DegenerateGeometry(ValueError):
    """Jacobian is rank-deficient at the solution (collinear / coincident poses)."""


@dataclass(frozen=True)
class CorrespondenceSet:
    """The paired poses as columns, in ascending pose id, plus the poses
    dropped while pairing.

    The columns are sorted once, here: a solve reads them in this order,
    so its float summation, and the whole solve, is invariant to the order
    the poses were given in.
    """

    pose_id: np.ndarray  # (K,) int64, ascending and unique
    image_center: np.ndarray  # (K, 2) checkerboard center pixels
    radar_center: np.ndarray  # (K, 3) reflector centers, meters, radar frame
    dropped_unmatched: tuple[int, ...] = ()
    dropped_sync: tuple[int, ...] = ()

    def __post_init__(self):
        pose_id = np.asarray(self.pose_id, dtype=np.int64).reshape(-1)
        image_center = np.asarray(self.image_center, dtype=float).reshape(-1, 2)
        radar_center = np.asarray(self.radar_center, dtype=float).reshape(-1, 3)
        if not len(pose_id) == len(image_center) == len(radar_center):
            raise ValueError("pose_id, image_center and radar_center need one row per pose")
        order = np.argsort(pose_id, kind="stable")
        pose_id = pose_id[order]
        if (pose_id[1:] == pose_id[:-1]).any():
            raise ValueError("pose ids must be unique")
        object.__setattr__(self, "pose_id", pose_id)
        object.__setattr__(self, "image_center", image_center[order])
        object.__setattr__(self, "radar_center", radar_center[order])

    def __len__(self) -> int:
        return len(self.pose_id)

    def take(self, index) -> "CorrespondenceSet":
        """The poses at ``index`` (a slice or an index array) of the columns,
        with no dropped poses."""
        return CorrespondenceSet(
            self.pose_id[index], self.image_center[index], self.radar_center[index]
        )


@dataclass
class SolverConfig:
    """LM hyperparameters, all overridable; the multistart is the 24 cube seeds."""

    max_iters: int = 200
    lambda_init: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 10.0
    cost_rel_tol: float = 1e-12
    step_tol: float = 1e-10

    def __post_init__(self):
        if type(self.max_iters) is not int or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        for name in ("lambda_init", "lambda_up", "lambda_down"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("cost_rel_tol", "step_tol"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0")


@dataclass
class CalibrationResult:
    """Solved extrinsics with per-pose residuals and summary errors."""

    extrinsics: Extrinsics
    residuals: np.ndarray  # (K, 2) observed - projected, pixels
    mre_px: float
    rmse_px: float
    iterations: int
    converged: bool
    cost: float
    seed_index: int


def build_correspondences(
    camera_centers: list[tuple[int, float, np.ndarray]],
    radar_centers: list[tuple[int, float, np.ndarray]],
    sync_tolerance_s: float = DEFAULT_SYNC_TOLERANCE_S,
) -> CorrespondenceSet:
    """Pair per-pose camera and radar features by pose id.

    Each input entry is ``(pose_id, timestamp_s, feature)``.  Poses present
    on only one side are dropped; pairs whose timestamps differ by more
    than the sync tolerance are dropped and reported.  Raises TooFewPoses
    when fewer than 3 pairs remain.
    """
    cam = {pid: (t, center) for pid, t, center in camera_centers}
    rad = {pid: (t, point) for pid, t, point in radar_centers}
    if len(cam) != len(camera_centers) or len(rad) != len(radar_centers):
        raise ValueError("pose ids must be unique per sensor stream")

    matched = []
    sync_violations = []
    for pid in sorted(cam.keys() & rad.keys()):
        gap = abs(cam[pid][0] - rad[pid][0])
        if gap > sync_tolerance_s:
            sync_violations.append(pid)
            logger.warning("pose %d dropped: camera/radar timestamps differ by %.4f s", pid, gap)
            continue
        matched.append(pid)
    unmatched = sorted(cam.keys() ^ rad.keys())
    if len(matched) < 3:
        raise TooFewPoses(
            f"{len(matched)} valid poses; need at least 3 (4+ recommended)"
        )
    return CorrespondenceSet(
        pose_id=matched,
        image_center=[cam[pid][1] for pid in matched],
        radar_center=[rad[pid][1] for pid in matched],
        dropped_unmatched=tuple(unmatched),
        dropped_sync=tuple(sync_violations),
    )


def reprojection_errors(residuals: np.ndarray) -> tuple[float, float]:
    """(MRE, RMSE) in pixels of (K, 2) residuals: the mean and the root mean
    square of the per-pose norms.  RMSE >= MRE."""
    norms = np.linalg.norm(residuals, axis=1)
    return float(norms.mean()), float(np.sqrt((norms**2).mean()))


def cube_rotation_seeds() -> list[np.ndarray]:
    """The 24 rotational symmetries of the cube as (3, 4) seed poses [R | 0],
    R an integer matrix.

    Identity first, the rest in ascending order of their rotation vectors,
    so the multistart sweep is deterministic.
    """
    seeds = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            seed = np.zeros((3, 4))
            seed[range(3), perm] = signs
            if np.linalg.det(seed[:, :3]) > 0:
                seeds.append(seed)
    # the identity (the one integer rotation of trace 3), then by rotation vector
    seeds.sort(key=lambda s: (
        np.trace(s[:, :3]) < 3, tuple(np.round(matrix_to_rotvec(s[:, :3]), 12))
    ))
    return seeds


class _PoseState(NamedTuple):
    """What the cost and the Jacobian at a stack of S poses share."""

    rotated: np.ndarray  # (S, K, 3) radar points, rotated
    cam: np.ndarray  # (S, K, 3) camera-frame points
    residual: np.ndarray  # (S, 2K); rows behind the camera hold the penalty
    front: np.ndarray  # (S, K, 1) depth guard


class _Problem:
    """One LM problem's fixed data: the observed pixels, the radar points and
    the intrinsics as ``[fx, fy]`` and ``[cx, cy]``.

    ``state`` takes a stack of S poses (S, 3, 4).  Every stacked operation
    keeps each row's bits: elementwise arithmetic, row sums, and ``@`` and
    ``np.linalg.solve``, which run the one-pose BLAS / LAPACK call per slice.
    """

    def __init__(self, k: CameraIntrinsics, observed: np.ndarray, points: np.ndarray):
        self.observed = observed
        self.points = points
        self.focal = np.array([k.fx, k.fy])
        self.center = np.array([k.cx, k.cy])

    def state(self, poses: np.ndarray) -> _PoseState:
        """The residuals at each pose and what its Jacobian reuses of them.
        Behind-camera rows get the constant penalty."""
        rotated = self.points @ poses[:, :, :3].transpose(0, 2, 1)
        cam = rotated + poses[:, None, :, 3]
        projected, front = _pinhole(self.focal, self.center, cam)
        residual = np.where(front, self.observed - projected, BEHIND_CAMERA_RESIDUAL)
        return _PoseState(rotated, cam, residual.reshape(len(poses), -1), front)

    def jacobian(self, state: _PoseState) -> np.ndarray:
        """The closed-form (S, 2K, 6) Jacobians of the residuals at the
        state's poses, along the step (dw, dt).

        d(exp([dw]x) R p)/d(dw) at dw = 0 is -[R p]x (Sola et al.,
        arXiv:1812.01537; Barfoot, State Estimation for Robotics, 7.1), and
        d(cam)/d(dt) = I.  Rows of points behind the camera are 0: the
        derivative of the constant penalty.
        """
        rotated, cam, _, front = state
        count, k = cam.shape[:2]
        # d(residual)/d(cam) = -d(pixel)/d(cam); 1 / depth = 0 zeroes rows behind.
        # Row-major, (0, 0) and (1, 1) are entries 0 and 4, column 2 is 2 and 5
        d_res = np.zeros((count, k, 2, 3))
        inv_z = np.divide(1.0, cam[..., 2:], out=np.zeros(front.shape), where=front)
        entries = d_res.reshape(count, k, 6)
        np.multiply(-self.focal, inv_z, out=entries[..., ::4])
        np.multiply(self.focal * cam[..., :2], inv_z**2, out=entries[..., 2::3])
        d_rot = d_res @ _skew(-rotated.reshape(-1, 3)).reshape(count, k, 3, 3)
        return np.concatenate((d_rot, d_res), axis=3).reshape(count, -1, 6)


def _step(poses: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Each pose (S, 3, 4) moved by its step (S, 6, 1):
    R <- exp([dw]x) R and t <- t + dt."""
    moved = _rodrigues(delta[:, :3, 0]) @ poses
    moved[..., 3] = poses[..., 3] + delta[:, 3:, 0]
    return moved


class _Descents(NamedTuple):
    """The outcome of one stacked LM descent, one row per seed."""

    poses: np.ndarray  # (S, 3, 4)
    costs: np.ndarray  # (S,)
    iterations: int  # summed over the seeds
    seed_iterations: np.ndarray  # (S,) int
    converged: np.ndarray  # (S,) bool


def _normal_equations(
    problem: _Problem, state: _PoseState
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """J^T J (S, 6, 6) and -J^T r (S, 6, 1) at each pose, and which poses'
    Jacobians are all zero: every point behind the camera, where the
    penalty is flat and the zero gradient marks no minimum."""
    jac = problem.jacobian(state)
    jac_t = jac.transpose(0, 2, 1)
    return jac_t @ jac, -(jac_t @ state.residual[:, :, None]), ~jac.any(axis=(1, 2))


def _solve_rows(damped: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The damped systems solved in one stacked call and which were
    singular.  When some are, each row is solved on its own and the
    singular ones get a zero step."""
    singular = np.zeros(len(rhs), dtype=bool)
    try:
        return np.linalg.solve(damped, rhs), singular
    except np.linalg.LinAlgError:
        pass
    delta = np.zeros(rhs.shape)
    for row, (a, b) in enumerate(zip(damped, rhs)):
        try:
            delta[row] = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            singular[row] = True
    return delta, singular


def _run_lm(
    seeds: np.ndarray,
    k: CameraIntrinsics,
    observed: np.ndarray,
    points: np.ndarray,
    cfg: SolverConfig,
) -> _Descents:
    """One LM descent from each seed pose (S, 3, 4), run as one stack.

    Per seed, one iteration is one damped trial step: accepted steps shrink
    its lambda, rejected ones grow it.  A seed stops on relative cost
    change, step norm, saturated damping, a flat linearization (every point
    behind the camera) or the iteration budget, and leaves the stack; the
    others go on.  An accepted trial is linearized from the state its cost
    was computed with.  Each row ends with the bits of a descent run from
    that seed alone.
    """
    problem = _Problem(k, observed, points)
    poses = np.array(seeds, dtype=float)
    state = problem.state(poses)
    costs = (state.residual**2).sum(axis=1)
    jtj, descent, flat = _normal_equations(problem, state)
    count = len(poses)
    out = _Descents(
        np.empty((count, 3, 4)), np.empty(count), 0,
        np.empty(count, dtype=np.int64), np.empty(count, dtype=bool),
    )
    live = np.arange(count)  # the seed of each row still descending
    lam = np.full(count, cfg.lambda_init)
    for iteration in range(1, cfg.max_iters + 1):
        # Gauss-Newton normal equations, damped: (J^T J + lam I) d = -J^T r
        delta, singular = _solve_rows(jtj + lam[:, None, None] * _EYE6, descent)
        # rows linearized flat stop unconverged; they and singular rows take
        # no step
        blocked = flat | singular
        small = np.sqrt(delta.transpose(0, 2, 1) @ delta)[:, 0, 0] <= cfg.step_tol
        trial = _step(poses, delta)
        trial_state = problem.state(trial)
        trial_costs = (trial_state.residual**2).sum(axis=1)
        better = (trial_costs < costs) & ~small & ~blocked
        # a rejected step grows lambda, and so does a singular system
        lam = np.where(better, lam / cfg.lambda_down, lam * cfg.lambda_up)
        rel_drop = (costs - trial_costs) / np.maximum(costs, 1e-300)
        # a rejected step that saturates the damping has no improving
        # direction left
        converged = small | np.where(better, rel_drop <= cfg.cost_rel_tol, lam > 1e15)
        converged &= ~blocked
        done = converged | flat | (iteration == cfg.max_iters)
        poses = np.where(better[:, None, None], trial, poses)
        costs = np.where(better, trial_costs, costs)
        flat = np.zeros(len(live), dtype=bool)
        if better.any():
            moved = _PoseState(*(a[better] for a in trial_state))
            jtj[better], descent[better], flat[better] = _normal_equations(problem, moved)
        if done.any():
            seeds_done = live[done]
            out.poses[seeds_done] = poses[done]
            out.costs[seeds_done] = costs[done]
            out.seed_iterations[seeds_done] = iteration
            out.converged[seeds_done] = converged[done]
            keep = ~done
            if not keep.any():
                break
            live, poses, costs, lam, jtj, descent, flat = (
                a[keep] for a in (live, poses, costs, lam, jtj, descent, flat)
            )
    return out._replace(iterations=int(out.seed_iterations.sum()))


def solve_extrinsics(
    correspondences: CorrespondenceSet,
    k: CameraIntrinsics,
    cfg: SolverConfig | None = None,
) -> CalibrationResult:
    """Minimize total squared reprojection error over the 6-DOF pose.

    Runs LM from every multistart seed and keeps the lowest-cost run.  The
    returned rotation is re-orthonormalized and verified; residual rows
    follow ascending pose id (so the result is bit-identical under input
    permutation).  Raises DegenerateGeometry when the Jacobian at the
    solution is rank-deficient (e.g. all radar centers coincide); a run
    that merely hits the iteration budget returns with ``converged=False``
    instead.
    """
    cfg = cfg or SolverConfig()
    if len(correspondences) < 3:
        raise TooFewPoses(f"{len(correspondences)} poses; need at least 3")
    observed, points = correspondences.image_center, correspondences.radar_center

    runs = _run_lm(np.array(cube_rotation_seeds()), k, observed, points, cfg)
    # the first seed wins a tie, and a NaN cost never wins
    costs = runs.costs.tolist()
    seed_index = 0
    for index, cost in enumerate(costs):
        if cost < costs[seed_index]:
            seed_index = index
    pose = runs.poses[seed_index : seed_index + 1]

    problem = _Problem(k, observed, points)
    state = problem.state(pose)
    singular_values = np.linalg.svd(problem.jacobian(state)[0], compute_uv=False)
    if singular_values[-1] <= RANK_TOLERANCE * max(singular_values[0], 1.0):
        raise DegenerateGeometry(
            "Jacobian is rank-deficient at the solution "
            f"(singular values {singular_values})"
        )

    # R is a product of Rodrigues matrices, orthonormal to within a few ulps
    # per step; the SVD snap takes out that drift before the Extrinsics
    # invariant check.
    extrinsics = Extrinsics(nearest_rotation(pose[0, :, :3]), pose[0, :, 3].copy())

    residuals = state.residual[0].reshape(-1, 2)
    mre_px, rmse_px = reprojection_errors(residuals)
    return CalibrationResult(
        extrinsics=extrinsics,
        residuals=residuals,
        mre_px=mre_px,
        rmse_px=rmse_px,
        iterations=int(runs.seed_iterations[seed_index]),
        converged=bool(runs.converged[seed_index]),
        cost=costs[seed_index],
        seed_index=seed_index,
    )
