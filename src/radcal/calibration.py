"""Extrinsic calibration: correspondence pairing and the LM solver.

The board center seen by the camera (pixel) and by the radar (3D point)
are paired per pose, and the radar-to-camera transform is found by
minimizing the summed squared reprojection error over a 6-parameter pose
vector (rotation vector + translation) with Levenberg-Marquardt.

The solver restarts from the identity plus the 23 remaining rotational
symmetries of the cube so no coarse mounting orientation needs a DLT-style
initial guess; the lowest-cost run wins (ties: first seed in the fixed
order).  Everything is deterministic.

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
    canonicalize_rotvec,
    matrix_to_rotvec,
    nearest_rotation,
    project,
)

logger = logging.getLogger(__name__)

__all__ = [
    "TooFewPoses",
    "DegenerateGeometry",
    "Correspondence",
    "CorrespondenceSet",
    "SolverConfig",
    "CalibrationResult",
    "DEFAULT_SYNC_TOLERANCE_S",
    "build_correspondences",
    "reprojection_residual",
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

_EYE3 = np.eye(3)
_EYE6 = np.eye(6)


class TooFewPoses(ValueError):
    """Fewer than 3 valid correspondences; the 6-DOF problem is underdetermined."""


class DegenerateGeometry(ValueError):
    """Jacobian is rank-deficient at the solution (collinear / coincident poses)."""


@dataclass(frozen=True)
class Correspondence:
    """One pose: checkerboard center pixel paired with the radar reflector center."""

    pose_id: int
    image_center: np.ndarray  # (2,) pixels
    radar_center: np.ndarray  # (3,) meters, radar frame
    t_camera_s: float = 0.0
    t_radar_s: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self, "image_center", np.asarray(self.image_center, dtype=float).reshape(2)
        )
        object.__setattr__(
            self, "radar_center", np.asarray(self.radar_center, dtype=float).reshape(3)
        )


@dataclass(frozen=True)
class CorrespondenceSet:
    """Valid correspondences plus the poses dropped while pairing."""

    correspondences: tuple[Correspondence, ...]
    dropped_unmatched: tuple[int, ...] = ()
    dropped_sync: tuple[int, ...] = ()

    def __len__(self) -> int:
        return len(self.correspondences)


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
    cam = {pid: (t, np.asarray(v, dtype=float)) for pid, t, v in camera_centers}
    rad = {pid: (t, np.asarray(v, dtype=float)) for pid, t, v in radar_centers}
    if len(cam) != len(camera_centers) or len(rad) != len(radar_centers):
        raise ValueError("pose ids must be unique per sensor stream")

    matched = []
    sync_violations = []
    for pid in sorted(cam.keys() & rad.keys()):
        t_cam, center = cam[pid]
        t_rad, point = rad[pid]
        if abs(t_cam - t_rad) > sync_tolerance_s:
            sync_violations.append(pid)
            logger.warning(
                "pose %d dropped: camera/radar timestamps differ by %.4f s",
                pid,
                abs(t_cam - t_rad),
            )
            continue
        matched.append(
            Correspondence(
                pose_id=pid,
                image_center=center,
                radar_center=point,
                t_camera_s=t_cam,
                t_radar_s=t_rad,
            )
        )
    unmatched = sorted(cam.keys() ^ rad.keys())
    if len(matched) < 3:
        raise TooFewPoses(
            f"{len(matched)} valid poses; need at least 3 (4+ recommended)"
        )
    return CorrespondenceSet(
        correspondences=tuple(matched),
        dropped_unmatched=tuple(unmatched),
        dropped_sync=tuple(sync_violations),
    )


def reprojection_residual(
    k: CameraIntrinsics, t: Extrinsics, corr: Correspondence
) -> np.ndarray:
    """(du, dv) = observed - projected; its squared norm is the pose's error term.

    Raises BehindCamera when the radar point has non-positive depth under t.
    """
    return corr.image_center - project(k, t, corr.radar_center)


def reprojection_errors(residuals: np.ndarray) -> tuple[float, float]:
    """(MRE, RMSE) in pixels of (K, 2) residuals: the mean and the root mean
    square of the per-pose norms.  RMSE >= MRE."""
    norms = np.linalg.norm(residuals, axis=1)
    return float(norms.mean()), float(np.sqrt((norms**2).mean()))


def cube_rotation_seeds() -> list[np.ndarray]:
    """The 24 rotational symmetries of the cube as 6-vector seeds (t = 0).

    Identity first, remaining seeds in a fixed canonical order, so the
    multistart sweep is deterministic.
    """
    rotations = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            for row, col in enumerate(perm):
                m[row, col] = signs[row]
            if np.linalg.det(m) > 0:
                rotations.append(m)
    seeds = []
    for m in rotations:
        pose = np.zeros(6)
        pose[:3] = matrix_to_rotvec(m)
        seeds.append(pose)
    seeds.sort(key=lambda p: tuple(np.round(p[:3], 12)))
    identity = [s for s in seeds if np.linalg.norm(s[:3]) < 1e-12]
    rest = [s for s in seeds if np.linalg.norm(s[:3]) >= 1e-12]
    return identity + rest


class _PoseState(NamedTuple):
    """What the cost and the Jacobian at one pose share."""

    rotation: np.ndarray  # (3, 3)
    rotated: np.ndarray  # (K, 3) radar points, rotated
    cam: np.ndarray  # (K, 3) camera-frame points
    residual: np.ndarray  # (2K,) stacked; rows behind the camera hold the penalty
    front: np.ndarray  # (K, 1) depth guard


class _Problem:
    """One LM problem's fixed data: the observed pixels, the radar points,
    the intrinsics as ``[fx, fy]`` and ``[cx, cy]``, and Jacobian buffers
    whose constant entries are set once (the identity block of
    d(cam)/d(t), the zeros of d(residual)/d(cam))."""

    def __init__(self, k: CameraIntrinsics, observed: np.ndarray, points: np.ndarray):
        self.observed = observed
        self.points = points
        self.fx, self.fy = k.fx, k.fy
        self.focal = np.array([k.fx, k.fy])
        self.center = np.array([k.cx, k.cy])
        self.d_cam = np.empty((len(points), 3, 6))
        self.d_cam[:, :, 3:] = _EYE3
        self.d_res = np.zeros((len(points), 2, 3))

    def state(self, pose: np.ndarray) -> _PoseState:
        """The residuals at ``pose`` and what its Jacobian reuses of them.
        Behind-camera rows get the constant penalty."""
        rotation = _rodrigues(pose[:3])
        rotated = self.points @ rotation.T
        cam = rotated + pose[3:]
        projected, front = _pinhole(self.focal, self.center, cam)
        residual = np.where(front, self.observed - projected, BEHIND_CAMERA_RESIDUAL)
        return _PoseState(rotation, rotated, cam, residual.ravel(), front)

    def jacobian(self, pose: np.ndarray, state: _PoseState) -> np.ndarray:
        """The closed-form (2K, 6) Jacobian of the residuals at ``pose``.

        The rotation part uses d(R p)/d(omega) = -R [p]x J, with
        J = (omega omega^T + (R^T - I)[omega]x) / |omega|^2 (Gallego & Yezzi;
        Sola et al., arXiv:1812.01537), rewritten as -[R p]x (R J).  Near
        omega = 0, J is I - [omega]x / 2 to first order.  Rows of points
        behind the camera are 0: the derivative of the constant penalty.
        """
        rotation, rotated, cam, _, front = state
        omega = pose[:3]
        inv_z = np.divide(1.0, cam[:, 2], out=np.zeros(len(cam)), where=front[:, 0])
        skew = _skew(omega)
        theta2 = float(omega @ omega)
        if theta2 < 1e-10:
            right = _EYE3 - 0.5 * skew
        else:
            right = (omega[:, None] * omega + (rotation.T - _EYE3) @ skew) / theta2
        # d(cam)/d(omega): column i is (R J)[:, i] x (R p); d(cam)/d(t) = I
        b = rotation @ right
        d_cam = self.d_cam
        x, y, z = rotated.T[:, :, None]
        d_cam[:, 0, :3] = z * b[1] - y * b[2]
        d_cam[:, 1, :3] = x * b[2] - z * b[0]
        d_cam[:, 2, :3] = y * b[0] - x * b[1]
        # d(residual)/d(cam) = -d(pixel)/d(cam); 1 / depth = 0 zeroes rows behind
        d_res = self.d_res
        inv_z2 = inv_z**2
        d_res[:, 0, 0] = -self.fx * inv_z
        d_res[:, 1, 1] = -self.fy * inv_z
        d_res[:, 0, 2] = self.fx * cam[:, 0] * inv_z2
        d_res[:, 1, 2] = self.fy * cam[:, 1] * inv_z2
        return (d_res @ d_cam).reshape(-1, 6)


def _residual_vector(
    pose: np.ndarray,
    k: CameraIntrinsics,
    observed: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Stacked (2K,) residuals; behind-camera poses get the constant penalty."""
    return _Problem(k, observed, points).state(pose).residual


def _linearize(
    pose: np.ndarray,
    k: CameraIntrinsics,
    observed: np.ndarray,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vector (2K,) and its closed-form Jacobian (2K, 6) at one pose."""
    problem = _Problem(k, observed, points)
    state = problem.state(pose)
    return state.residual, problem.jacobian(pose, state)


def _run_lm(
    seed: np.ndarray,
    k: CameraIntrinsics,
    observed: np.ndarray,
    points: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, float, int, bool]:
    """One LM descent from one seed.

    One iteration is one damped trial step: accepted steps shrink lambda,
    rejected ones grow it.  Terminates on relative cost change, step norm,
    or the iteration budget.  An accepted trial's state is kept, so the
    next linearization builds only the Jacobian from it.
    """
    problem = _Problem(k, observed, points)
    pose = seed.copy()
    pose[:3] = canonicalize_rotvec(pose[:3])
    state = problem.state(pose)
    cost = float(np.sum(state.residual**2))
    lam = cfg.lambda_init
    converged = False
    iterations = 0
    jac = None
    for iterations in range(1, cfg.max_iters + 1):
        if jac is None:
            jac = problem.jacobian(pose, state)
            if not jac.any():
                # every point is behind the camera: the penalty is flat, so
                # the zero gradient marks no minimum
                break
            jtj = jac.T @ jac
            gradient = jac.T @ state.residual
        try:
            # Gauss-Newton normal equations, damped: (J^T J + lam I) d = -J^T r
            delta = np.linalg.solve(jtj + lam * _EYE6, -gradient)
        except np.linalg.LinAlgError:
            lam *= cfg.lambda_up
            continue
        step_norm = math.sqrt(float(delta @ delta))
        if step_norm <= cfg.step_tol:
            converged = True
            break
        trial = pose + delta
        trial[:3] = canonicalize_rotvec(trial[:3])
        trial_state = problem.state(trial)
        trial_cost = float(np.sum(trial_state.residual**2))
        if trial_cost < cost:
            rel_drop = (cost - trial_cost) / max(cost, 1e-300)
            pose, cost, state = trial, trial_cost, trial_state
            lam /= cfg.lambda_down
            jac = None
            if rel_drop <= cfg.cost_rel_tol:
                converged = True
                break
        else:
            lam *= cfg.lambda_up
            if lam > 1e15:
                converged = True  # damping saturated: no improving direction left
                break
    return pose, cost, iterations, converged


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
    # fixed evaluation order (ascending pose id) makes the float summation,
    # and therefore the whole solve, invariant to input permutation
    ordered = sorted(
        correspondences.correspondences, key=lambda c: c.pose_id
    )
    observed = np.array([c.image_center for c in ordered])
    points = np.array([c.radar_center for c in ordered])

    best = None
    for seed_index, seed in enumerate(cube_rotation_seeds()):
        run = _run_lm(seed, k, observed, points, cfg)
        if best is None or run[1] < best[1]:
            best = (*run, seed_index)
    pose, cost, iterations, converged, seed_index = best

    problem = _Problem(k, observed, points)
    state = problem.state(pose)
    singular_values = np.linalg.svd(problem.jacobian(pose, state), compute_uv=False)
    if singular_values[-1] <= RANK_TOLERANCE * max(singular_values[0], 1.0):
        raise DegenerateGeometry(
            "Jacobian is rank-deficient at the solution "
            f"(singular values {singular_values})"
        )

    # Rodrigues output is orthonormal to machine precision; the SVD snap
    # guards against accumulated drift before the Extrinsics invariant check.
    extrinsics = Extrinsics(nearest_rotation(state.rotation), pose[3:].copy())

    residuals = state.residual.reshape(-1, 2)
    mre_px, rmse_px = reprojection_errors(residuals)
    return CalibrationResult(
        extrinsics=extrinsics,
        residuals=residuals,
        mre_px=mre_px,
        rmse_px=rmse_px,
        iterations=iterations,
        converged=converged,
        cost=cost,
        seed_index=seed_index,
    )
