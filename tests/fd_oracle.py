"""Central-difference Jacobian of the calibration residual, the oracle for
the closed-form one from ``radcal.calibration._linearize``."""

from __future__ import annotations

import numpy as np

from radcal.calibration import _residual_vector


def central_difference_jacobian(pose, k, observed, points, step=1e-6):
    """(2K, 6) Jacobian of ``_residual_vector`` by central differences."""
    jac = np.empty((2 * len(points), 6))
    for i in range(6):
        forward = pose.copy()
        backward = pose.copy()
        forward[i] += step
        backward[i] -= step
        jac[:, i] = (
            _residual_vector(forward, k, observed, points)
            - _residual_vector(backward, k, observed, points)
        ) / (2.0 * step)
    return jac
