"""One-seed Levenberg-Marquardt descents, kept as oracles of the solver.

``_run_lm`` is the descent on SO(3) from one seed pose [R | t]: each step
is R <- exp([dw]x) R, t <- t + dt (``_step``), and each accepted step
recomputes the rotated points and the projection in ``_linearize``.
``test_lm_differential.py`` requires the solver's stacked ``_run_lm`` to
give bit-identical (pose, cost, iterations, converged) for every seed.

``_run_lm_rotvec`` is the descent in rotation-vector coordinates (a 6-vector
pose, a right-Jacobian rotation block, each trial wrapped to norm <= pi),
copied unchanged from ``radcal.calibration`` as it was before the solver
stepped on SO(3), with ``_residual_vector_rotvec`` and ``_linearize_rotvec``.
It parameterises the same cost differently, so both must find the same
minimum: the cross-parameterisation oracle.

The constants and the ``radcal.geometry`` functions the paths call
(``_skew``, ``rotvec_to_matrix``, ``canonicalize_rotvec``, ``pinhole``) are
copied too, so these paths stay as they are.
"""

from __future__ import annotations

import math

import numpy as np

from radcal.calibration import SolverConfig
from radcal.geometry import CameraIntrinsics

Z_EPS = 1e-6

BEHIND_CAMERA_RESIDUAL = 1e4

_EYE6 = np.eye(6)


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]]
    )


def rotvec_to_matrix(rotvec: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle, radians) to a 3x3 rotation matrix.

    Rodrigues formula with series-expanded coefficients near zero angle.
    """
    rotvec = np.asarray(rotvec, dtype=float).reshape(3)
    theta2 = float(rotvec @ rotvec)
    theta = math.sqrt(theta2)
    if theta < 1e-8:
        # sin(t)/t and (1-cos t)/t^2 by Taylor expansion
        a = 1.0 - theta2 / 6.0
        b = 0.5 - theta2 / 24.0
    else:
        a = math.sin(theta) / theta
        b = (1.0 - math.cos(theta)) / theta2
    k = _skew(rotvec)
    return np.eye(3) + a * k + b * (k @ k)


def canonicalize_rotvec(rotvec: np.ndarray) -> np.ndarray:
    """Wrap a rotation vector to the canonical representative with norm <= pi."""
    rotvec = np.asarray(rotvec, dtype=float).reshape(3)
    theta = float(np.linalg.norm(rotvec))
    if theta <= math.pi:
        return rotvec.copy()
    wrapped = math.fmod(theta, 2.0 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2.0 * math.pi
    # wrapped in (-pi, pi]; same axis, scaled (sign flip when negative)
    return rotvec * (wrapped / theta)


def pinhole(k: CameraIntrinsics, cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pinhole model: pixels ``(..., 2)`` of camera-frame points ``(..., 3)``
    and the depth guard ``(..., 1)``, depth > Z_EPS.  Points failing the guard
    are divided by 1 instead; each caller decides what their pixels become."""
    z = cam[..., 2:]
    front = z > Z_EPS
    zs = np.where(front, z, 1.0)
    return np.array([k.fx, k.fy]) * cam[..., :2] / zs + np.array([k.cx, k.cy]), front


def _residuals(
    k: CameraIntrinsics, observed: np.ndarray, cam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(K, 2) residuals of camera-frame points and the (K, 1) depth guard.

    Behind-camera rows get the constant penalty.
    """
    projected, front = pinhole(k, cam)
    return np.where(front, observed - projected, BEHIND_CAMERA_RESIDUAL), front


def _residual_vector(
    pose: np.ndarray,
    k: CameraIntrinsics,
    observed: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Stacked (2K,) residuals at a pose [R | t] (3, 4); behind-camera
    poses get the constant penalty."""
    return _residuals(k, observed, points @ pose[:, :3].T + pose[:, 3])[0].ravel()


def _linearize(
    pose: np.ndarray,
    k: CameraIntrinsics,
    observed: np.ndarray,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vector (2K,) and its closed-form Jacobian (2K, 6) at a pose
    [R | t], along the step (dw, dt).

    d(cam)/d(dw) = -[R p]x and d(cam)/d(dt) = I.  Rows of points behind the
    camera are 0: the derivative of the constant penalty.
    """
    rotated = points @ pose[:, :3].T
    cam = rotated + pose[:, 3]
    res, front = _residuals(k, observed, cam)
    inv_z = np.divide(1.0, cam[:, 2], out=np.zeros(len(cam)), where=front[:, 0])
    # d(residual)/d(cam) = -d(pixel)/d(cam); 1 / depth = 0 zeroes rows behind
    d_res = np.zeros((len(points), 2, 3))
    d_res[:, 0, 0] = -k.fx * inv_z
    d_res[:, 1, 1] = -k.fy * inv_z
    d_res[:, 0, 2] = k.fx * cam[:, 0] * inv_z**2
    d_res[:, 1, 2] = k.fy * cam[:, 1] * inv_z**2
    x, y, z = rotated.T
    minus_skew = np.zeros((len(points), 3, 3))  # -[R p]x
    minus_skew[:, 0, 1], minus_skew[:, 0, 2] = z, -y
    minus_skew[:, 1, 0], minus_skew[:, 1, 2] = -z, x
    minus_skew[:, 2, 0], minus_skew[:, 2, 1] = y, -x
    return res.ravel(), np.concatenate((d_res @ minus_skew, d_res), axis=2).reshape(-1, 6)


def _step(pose: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """The pose [R | t] moved by the step (6,): R <- exp([dw]x) R, t <- t + dt."""
    moved = rotvec_to_matrix(delta[:3]) @ pose
    moved[:, 3] = pose[:, 3] + delta[3:]
    return moved


def _run_lm(
    seed: np.ndarray,
    k: CameraIntrinsics,
    observed: np.ndarray,
    points: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, float, int, bool]:
    """One LM descent on SO(3) from one seed pose [R | t] (3, 4).

    One iteration is one damped trial step: accepted steps shrink lambda,
    rejected ones grow it.  Terminates on relative cost change, step norm,
    or the iteration budget.
    """
    pose = np.array(seed, dtype=float)
    cost = float(np.sum(_residual_vector(pose, k, observed, points) ** 2))
    lam = cfg.lambda_init
    converged = False
    iterations = 0
    jac = None
    for iterations in range(1, cfg.max_iters + 1):
        if jac is None:
            residual, jac = _linearize(pose, k, observed, points)
            if not jac.any():
                # every point is behind the camera: the penalty is flat, so
                # the zero gradient marks no minimum
                break
            jtj = jac.T @ jac
            gradient = jac.T @ residual
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
        trial = _step(pose, delta)
        trial_cost = float(np.sum(_residual_vector(trial, k, observed, points) ** 2))
        if trial_cost < cost:
            rel_drop = (cost - trial_cost) / max(cost, 1e-300)
            pose, cost = trial, trial_cost
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


def _residual_vector_rotvec(
    pose: np.ndarray,
    k: CameraIntrinsics,
    observed: np.ndarray,
    points: np.ndarray,
) -> np.ndarray:
    """Stacked (2K,) residuals; behind-camera poses get the constant penalty."""
    rotation = rotvec_to_matrix(pose[:3])
    return _residuals(k, observed, points @ rotation.T + pose[3:])[0].ravel()


def _linearize_rotvec(
    pose: np.ndarray,
    k: CameraIntrinsics,
    observed: np.ndarray,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Residual vector (2K,) and its closed-form Jacobian (2K, 6) at one pose.

    The rotation part uses d(R p)/d(omega) = -R [p]x J, with
    J = (omega omega^T + (R^T - I)[omega]x) / |omega|^2 (Gallego & Yezzi;
    Sola et al., arXiv:1812.01537), rewritten as -[R p]x (R J).  Near
    omega = 0, J is I - [omega]x / 2 to first order.  Rows of points behind
    the camera are 0: the derivative of the constant penalty.
    """
    omega = pose[:3]
    rotation = rotvec_to_matrix(omega)
    rotated = points @ rotation.T
    cam = rotated + pose[3:]
    res, front = _residuals(k, observed, cam)
    inv_z = np.divide(1.0, cam[:, 2], out=np.zeros(len(cam)), where=front[:, 0])
    skew = _skew(omega)
    theta2 = float(omega @ omega)
    if theta2 < 1e-10:
        right = np.eye(3) - 0.5 * skew
    else:
        right = (np.outer(omega, omega) + (rotation.T - np.eye(3)) @ skew) / theta2
    # d(cam)/d(omega): column i is (R J)[:, i] x (R p); d(cam)/d(t) = I
    b = rotation @ right
    d_cam = np.empty((len(points), 3, 6))
    x, y, z = rotated.T[:, :, None]
    d_cam[:, 0, :3] = z * b[1] - y * b[2]
    d_cam[:, 1, :3] = x * b[2] - z * b[0]
    d_cam[:, 2, :3] = y * b[0] - x * b[1]
    d_cam[:, :, 3:] = np.eye(3)
    # d(residual)/d(cam) = -d(pixel)/d(cam); 1 / depth = 0 zeroes rows behind
    d_res = np.zeros((len(points), 2, 3))
    d_res[:, 0, 0] = -k.fx * inv_z
    d_res[:, 1, 1] = -k.fy * inv_z
    d_res[:, 0, 2] = k.fx * cam[:, 0] * inv_z**2
    d_res[:, 1, 2] = k.fy * cam[:, 1] * inv_z**2
    return res.ravel(), (d_res @ d_cam).reshape(-1, 6)


def _run_lm_rotvec(
    seed: np.ndarray,
    k: CameraIntrinsics,
    observed: np.ndarray,
    points: np.ndarray,
    cfg: SolverConfig,
) -> tuple[np.ndarray, float, int, bool]:
    """One LM descent from one seed 6-vector (rotation vector, translation).

    One iteration is one damped trial step: accepted steps shrink lambda,
    rejected ones grow it.  Terminates on relative cost change, step norm,
    or the iteration budget.
    """
    pose = seed.copy()
    pose[:3] = canonicalize_rotvec(pose[:3])
    cost = float(np.sum(_residual_vector_rotvec(pose, k, observed, points) ** 2))
    lam = cfg.lambda_init
    converged = False
    iterations = 0
    jac = None
    for iterations in range(1, cfg.max_iters + 1):
        if jac is None:
            residual, jac = _linearize_rotvec(pose, k, observed, points)
            if not jac.any():
                # every point is behind the camera: the penalty is flat, so
                # the zero gradient marks no minimum
                break
            jtj = jac.T @ jac
            gradient = jac.T @ residual
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
        trial_cost = float(np.sum(_residual_vector_rotvec(trial, k, observed, points) ** 2))
        if trial_cost < cost:
            rel_drop = (cost - trial_cost) / max(cost, 1e-300)
            pose, cost = trial, trial_cost
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
