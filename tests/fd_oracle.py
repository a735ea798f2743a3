"""The calibration residual and its closed-form Jacobian at one pose, from
``radcal.calibration._Problem``, and the central-difference Jacobian that
is their oracle.

A pose is the (3, 4) block [R | t]; the Jacobian's columns are along the
solver's step (dw, dt), R <- exp([dw]x) R and t <- t + dt."""

from __future__ import annotations

import numpy as np

from lm_reference import _step as perturb  # exp([dw]x) R and t + dt of a pose
from radcal.calibration import _Problem
from radcal.geometry import rotvec_to_matrix


def pose_of(rotvec, translation) -> np.ndarray:
    """The pose [R | t] (3, 4) of a rotation vector and a translation."""
    return np.column_stack((rotvec_to_matrix(np.asarray(rotvec, dtype=float)), translation))


def residual_vector(pose, k, observed, points):
    """Stacked (2K,) residuals; behind-camera poses get the constant penalty."""
    return _Problem(k, observed, points).state(pose[None]).residual[0]


def linearize(pose, k, observed, points):
    """Residual vector (2K,) and its closed-form Jacobian (2K, 6) at one pose."""
    problem = _Problem(k, observed, points)
    state = problem.state(pose[None])
    return state.residual[0], problem.jacobian(state)[0]


def central_difference_jacobian(pose, k, observed, points, step=1e-6):
    """(2K, 6) Jacobian of ``residual_vector`` by central differences along
    each tangent direction e_i: exp([h e_i]x) R for i < 3, t + h e_i after."""
    jac = np.empty((2 * len(points), 6))
    for i, direction in enumerate(np.eye(6)):
        forward = perturb(pose, step * direction)
        backward = perturb(pose, -step * direction)
        jac[:, i] = (
            residual_vector(forward, k, observed, points)
            - residual_vector(backward, k, observed, points)
        ) / (2.0 * step)
    return jac
