"""The calibration residual and its closed-form Jacobian at one pose, from
``radcal.calibration._Problem``, and the central-difference Jacobian that
is their oracle."""

from __future__ import annotations

import numpy as np

from radcal.calibration import _Problem


def residual_vector(pose, k, observed, points):
    """Stacked (2K,) residuals; behind-camera poses get the constant penalty."""
    return _Problem(k, observed, points).state(pose[None]).residual[0]


def linearize(pose, k, observed, points):
    """Residual vector (2K,) and its closed-form Jacobian (2K, 6) at one pose."""
    problem = _Problem(k, observed, points)
    state = problem.state(pose[None])
    return state.residual[0], problem.jacobian(pose[None], state)[0]


def central_difference_jacobian(pose, k, observed, points, step=1e-6):
    """(2K, 6) Jacobian of ``residual_vector`` by central differences."""
    jac = np.empty((2 * len(points), 6))
    for i in range(6):
        forward = pose.copy()
        backward = pose.copy()
        forward[i] += step
        backward[i] -= step
        jac[:, i] = (
            residual_vector(forward, k, observed, points)
            - residual_vector(backward, k, observed, points)
        ) / (2.0 * step)
    return jac
