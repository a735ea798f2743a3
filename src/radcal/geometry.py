"""Coordinate frames, rotations, and the pinhole projection.

Conventions used throughout the package:

* 3D points are ``float64`` numpy arrays of shape ``(3,)`` (or ``(N, 3)``
  for batches), in meters.
* The radar frame is x-forward, y-left, z-up.  Azimuth is measured in the
  xy-plane from +x toward +y; elevation from the xy-plane toward +z.
  Ingested data recorded under a different convention must be converted
  upstream.
* Pixel coordinates are continuous ``(u, v)`` with sub-pixel resolution.
* Rotation vectors ("axis-angle") are radians, canonical norm in [0, pi].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CameraIntrinsics",
    "Extrinsics",
    "Z_EPS",
    "sph2cart",
    "cart2sph",
    "rotvec_to_matrix",
    "matrix_to_rotvec",
    "canonicalize_rotvec",
    "nearest_rotation",
    "pinhole",
    "project_points",
]

# Depth guard for the pinhole projection: points with camera-frame depth at
# or below this are treated as behind the camera.
Z_EPS = 1e-6

_EYE3 = np.eye(3)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths, principal point, image size (pixels)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):  # NaN fails too
            raise ValueError(f"focal lengths must be positive and finite: {self.fx}, {self.fy}")
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)):
            raise ValueError(f"principal point must be finite: ({self.cx}, {self.cy})")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("image size must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            warnings.warn(
                f"principal point ({self.cx}, {self.cy}) lies outside the "
                f"{self.width}x{self.height} image",
                stacklevel=2,
            )


def _check_rotation(rotation: np.ndarray, tol: float = 1e-9) -> float:
    """max |R^T R - I| of ``rotation``; a ValueError unless it is <= ``tol``
    and det R = +1."""
    err = math.nan  # a non-finite entry would warn in the product below
    if np.isfinite(rotation).all():
        err = np.abs(rotation.T @ rotation - _EYE3).max()
    if not err <= tol:  # NaN fails too
        raise ValueError(f"rotation is not orthonormal (max deviation {err:.3e})")
    if np.linalg.det(rotation) < 0:
        raise ValueError("rotation has determinant -1 (reflection)")
    return err


@dataclass(frozen=True)
class Extrinsics:
    """Rigid SE(3) transform mapping radar-frame points into the camera frame."""

    rotation: np.ndarray  # (3, 3) orthonormal, det +1
    translation: np.ndarray  # (3,) meters

    def __post_init__(self):
        rotation = np.asarray(self.rotation, dtype=float)
        translation = np.asarray(self.translation, dtype=float).reshape(3)
        if rotation.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
        _check_rotation(rotation)
        if not np.all(np.isfinite(translation)):
            raise ValueError("translation must be finite")
        object.__setattr__(self, "rotation", rotation)
        object.__setattr__(self, "translation", translation)

    def to_doc(self) -> dict:
        """The extrinsics document, with both rotation forms (``fileio`` reads it)."""
        return {
            "rotation_row_major": self.rotation.ravel().tolist(),
            "axis_angle": matrix_to_rotvec(self.rotation).tolist(),
            "translation_m": self.translation.tolist(),
        }

    def inverse(self) -> "Extrinsics":
        rt = self.rotation.T
        return Extrinsics(rt, -rt @ self.translation)

    def transform(self, points: np.ndarray) -> np.ndarray:
        """Apply R @ p + t to one point ``(3,)`` or a batch ``(N, 3)``."""
        points = np.asarray(points, dtype=float)
        if points.ndim == 1:
            return self.rotation @ points + self.translation
        return points @ self.rotation.T + self.translation


def sph2cart(r, az, el) -> np.ndarray:
    """Spherical to Cartesian positions in the radar frame, ``(..., 3)`` for
    scalars or arrays of range, azimuth and elevation.

    x = R cos(el) cos(az), y = R cos(el) sin(az), z = R sin(el).
    """
    ce = np.cos(el)
    return np.stack([r * ce * np.cos(az), r * ce * np.sin(az), r * np.sin(el)], axis=-1)


def cart2sph(p) -> tuple[float, float, float]:
    """Cartesian position to (range, azimuth, elevation). Inverse of sph2cart.

    Scalar ``math`` on purpose: numpy's vectorized arctan2 and arcsin can
    differ from it in the last bit, and written frames must not move."""
    x, y, z = float(p[0]), float(p[1]), float(p[2])
    r = math.sqrt(x * x + y * y + z * z)
    if math.isinf(r):  # the squares overflowed, past about 1e154 m; hypot scales
        r = math.hypot(x, y, z)
    az = math.atan2(y, x)
    el = math.asin(z / r) if r > 0 else 0.0
    return r, az, el


_SKEW_PLUS = np.array([7, 2, 3])  # flat (2, 1), (0, 2), (1, 0) take v0, v1, v2
_SKEW_MINUS = np.array([5, 6, 1])  # flat (1, 2), (2, 0), (0, 1) take -v0, -v1, -v2


def _skew(v: np.ndarray) -> np.ndarray:
    """The cross-product matrices (S, 3, 3) of a stack of 3-vectors (S, 3)."""
    k = np.zeros((len(v), 9))
    k[:, _SKEW_PLUS] = v
    k[:, _SKEW_MINUS] = -v
    return k.reshape(-1, 3, 3)


def rotvec_to_matrix(rotvec: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle, radians) to a 3x3 rotation matrix.

    Rodrigues formula with series-expanded coefficients near zero angle.
    """
    return _rodrigues(np.asarray(rotvec, dtype=float).reshape(1, 3))[0][0]


def _rodrigues_coefficients(theta2: float) -> tuple[float, float]:
    """sin(t) / t and (1 - cos t) / t^2 of t^2, by Taylor expansion near 0."""
    theta = math.sqrt(theta2)
    if theta < 1e-8:
        return 1.0 - theta2 / 6.0, 0.5 - theta2 / 24.0
    return math.sin(theta) / theta, (1.0 - math.cos(theta)) / theta2


def _rodrigues(rotvecs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``rotvec_to_matrix`` of each row of a float64 (S, 3) array, with what
    it is built from: the rows' cross-product matrices (S, 3, 3) and squared
    norms (S, 1, 1).

    Each row's arithmetic is the one-vector formula's: the squared norm is
    one BLAS dot per row, and the coefficients come from ``math`` per row.
    """
    theta2 = rotvecs[:, None, :] @ rotvecs[:, :, None]
    ab = np.array(list(map(_rodrigues_coefficients, theta2.ravel().tolist())))
    k = _skew(rotvecs)
    return _EYE3 + ab[:, :1, None] * k + ab[:, 1:, None] * (k @ k), k, theta2


def matrix_to_rotvec(rotation: np.ndarray) -> np.ndarray:
    """Rotation matrix to the canonical rotation vector (norm in [0, pi]).

    Near theta = pi the axis is extracted from the symmetric part of R
    (column of largest diagonal of R + R^T - 2cos(theta) I), which stays
    well conditioned where the sin-based formula does not.
    """
    rotation = np.asarray(rotation, dtype=float)
    cos_theta = min(1.0, max(-1.0, (np.trace(rotation) - 1.0) / 2.0))
    # vee(R - R^T) / 2 = sin(theta) * axis
    s = 0.5 * np.array(
        [
            rotation[2, 1] - rotation[1, 2],
            rotation[0, 2] - rotation[2, 0],
            rotation[1, 0] - rotation[0, 1],
        ]
    )
    sin_theta = float(np.linalg.norm(s))
    # atan2 keeps full precision at both ends of [0, pi], unlike acos
    theta = math.atan2(sin_theta, cos_theta)
    if theta < 1e-6:
        # rotvec = (theta / sin theta) * s = s + O(theta^3)
        return s
    if theta < 3.0:
        return (theta / math.sin(theta)) * s
    # near pi: R + R^T - 2cos(theta) I = 2 (1 - cos(theta)) a a^T exactly
    outer = rotation + rotation.T - 2.0 * cos_theta * np.eye(3)
    k = int(np.argmax(np.diag(outer)))
    axis = outer[:, k]
    axis = axis / np.linalg.norm(axis)
    # orient along the antisymmetric part when it is informative, otherwise
    # pick the canonical sign (first nonzero component positive)
    if sin_theta > 1e-12:
        if float(axis @ s) < 0:
            axis = -axis
    else:
        for c in axis:
            if abs(c) > 1e-12:
                if c < 0:
                    axis = -axis
                break
    return theta * axis


def canonicalize_rotvec(rotvec: np.ndarray) -> np.ndarray:
    """Wrap a rotation vector (3,), or each row of a stack (S, 3), to the
    canonical representative with norm <= pi."""
    rotvec = np.asarray(rotvec, dtype=float)
    rows = rotvec.reshape(-1, 3)
    # np.linalg.norm's arithmetic: one BLAS dot per row
    theta = np.sqrt(rows[:, None, :] @ rows[:, :, None]).ravel()
    inside = theta <= math.pi  # NaN is not
    wrapped = rows.copy()
    if not inside.all():
        for i in np.flatnonzero(~inside).tolist():
            angle = math.fmod(theta[i], 2.0 * math.pi)
            if angle > math.pi:
                angle -= 2.0 * math.pi
            # angle in (-pi, pi]; same axis, scaled (sign flip when negative)
            wrapped[i] = rows[i] * (angle / theta[i])
    return wrapped.reshape(rotvec.shape)


def nearest_rotation(matrix: np.ndarray) -> np.ndarray:
    """The rotation nearest to a 3x3 matrix (SVD snap, determinant forced to +1)."""
    u, _, vt = np.linalg.svd(matrix)
    rotation = u @ vt
    if np.linalg.det(rotation) < 0:
        u[:, -1] = -u[:, -1]
        rotation = u @ vt
    return rotation


def pinhole(k: CameraIntrinsics, cam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pinhole model: pixels ``(..., 2)`` of camera-frame points ``(..., 3)``
    and the depth guard ``(..., 1)``, depth > Z_EPS.  Points failing the guard
    are divided by 1 instead; each caller decides what their pixels become."""
    return _pinhole(np.array([k.fx, k.fy]), np.array([k.cx, k.cy]), cam)


def _pinhole(focal: np.ndarray, center: np.ndarray, cam: np.ndarray):
    """``pinhole`` with the intrinsics as ``[fx, fy]`` and ``[cx, cy]``."""
    z = cam[..., 2:]
    front = z > Z_EPS
    zs = np.where(front, z, 1.0)
    return focal * cam[..., :2] / zs + center, front


def project_points(
    k: CameraIntrinsics, t: Extrinsics, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized projection of an (N, 3) batch.

    Returns ``(uv, depth, in_front)`` where ``uv`` is (N, 2), ``depth`` the
    camera-frame z, and ``in_front`` flags depth > Z_EPS.  Rows of ``uv``
    with ``in_front`` False are NaN rather than an error.
    """
    cam = t.transform(np.asarray(points, dtype=float).reshape(-1, 3))
    uv, front = pinhole(k, cam)
    in_front = front[:, 0]
    uv[~in_front] = np.nan
    return uv, cam[:, 2], in_front
