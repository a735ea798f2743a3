import math
import warnings

import numpy as np
import pytest

from radcal.geometry import (
    CameraIntrinsics,
    Extrinsics,
    Z_EPS,
    canonicalize_rotvec,
    cart2sph,
    matrix_to_rotvec,
    nearest_rotation,
    pinhole,
    project_points,
    rotvec_to_matrix,
    sph2cart,
)
from radcal.reflector import RadarFrame

IDENTITY = Extrinsics(np.eye(3), np.zeros(3))

def random_rotation(rng):
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    angle = rng.uniform(0.0, math.pi)
    return rotvec_to_matrix(axis * angle)


class TestSph2Cart:
    def test_forward_axis(self):
        p = sph2cart(1.0, 0.0, 0.0)
        assert np.allclose(p, [1.0, 0.0, 0.0], atol=1e-15)

    def test_left_axis(self):
        p = sph2cart(2.0, math.pi / 2, 0.0)
        assert np.allclose(p, [0.0, 2.0, 0.0], atol=1e-15)

    def test_general_direction_independent_trig(self):
        # independent evaluation: spherical-to-Cartesian via rotation of the
        # forward unit vector, not via the formula under test
        r, az, el = 5.0, 0.3, 0.2
        direction = rotvec_to_matrix(np.array([0.0, 0.0, az])) @ (
            rotvec_to_matrix(np.array([0.0, -el, 0.0])) @ np.array([1.0, 0.0, 0.0])
        )
        expected = r * direction
        p = sph2cart(r, az, el)
        assert np.allclose(p, expected, atol=1e-12)
        assert abs(np.linalg.norm(p) - 5.0) < 1e-12 * 5.0

    def test_norm_equals_range(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = rng.uniform(0.0, 100.0)
            p = sph2cart(r, rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi / 2, math.pi / 2))
            assert abs(np.linalg.norm(p) - r) <= 1e-12 * max(1.0, r)

    def test_cart2sph_round_trip(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            p = rng.normal(size=3) * 10.0
            r, az, el = cart2sph(p)
            back = sph2cart(r, az, el)
            assert np.allclose(back, p, atol=1e-12)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError, match="range must be >= 0, got -1.0"):
            RadarFrame(0.0, [(-1.0, 0.0, 0.0, 0.0, 0.0)])

    def test_arrays_give_the_scalar_bits(self):
        # the vectorized form against math, row by row, bit for bit
        rng = np.random.default_rng(3)
        r = rng.uniform(0.0, 100.0, 1001)
        az = rng.uniform(-math.pi, math.pi, 1001)
        el = rng.uniform(-math.pi / 2, math.pi / 2, 1001)
        p = sph2cart(r, az, el)
        assert p.shape == (1001, 3)
        for i in range(0, 1001, 7):
            ri, ai, ei = float(r[i]), float(az[i]), float(el[i])
            ce = math.cos(ei)
            expected = [ri * ce * math.cos(ai), ri * ce * math.sin(ai), ri * math.sin(ei)]
            assert p[i].tolist() == expected
            assert sph2cart(ri, ai, ei).tolist() == expected


class TestRotationVector:
    def test_zero_is_identity(self):
        assert np.allclose(rotvec_to_matrix(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_half_turn_about_x(self):
        r = rotvec_to_matrix(np.array([math.pi, 0.0, 0.0]))
        assert np.allclose(r, np.diag([1.0, -1.0, -1.0]), atol=1e-12)

    def test_round_trip_0p7_rad(self):
        rng = np.random.default_rng(2)
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rotvec = 0.7 * axis
        r = rotvec_to_matrix(rotvec)
        back = rotvec_to_matrix(matrix_to_rotvec(r))
        assert np.linalg.norm(back - r) < 1e-10
        assert np.allclose(matrix_to_rotvec(r), rotvec, atol=1e-12)

    @pytest.mark.parametrize("angle", [1e-9, 1e-4, 0.5, 1.5, 2.9, 3.05, math.pi - 1e-7, math.pi])
    def test_round_trip_all_regimes(self, angle):
        rng = np.random.default_rng(int(angle * 1e6) % 2**31)
        for _ in range(20):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            r = rotvec_to_matrix(axis * angle)
            back = rotvec_to_matrix(matrix_to_rotvec(r))
            assert np.linalg.norm(back - r, ord="fro") < 1e-10

    def test_orthonormal_det_plus_one(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r = rotvec_to_matrix(rng.normal(size=3) * rng.uniform(0, math.pi))
            assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
            assert abs(np.linalg.det(r) - 1.0) < 1e-12

    def test_canonical_norm_at_most_pi(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            r = random_rotation(rng)
            assert np.linalg.norm(matrix_to_rotvec(r)) <= math.pi + 1e-12

    def test_canonicalize_wraps(self):
        axis = np.array([0.0, 0.0, 1.0])
        big = axis * (2 * math.pi + 0.3)
        wrapped = canonicalize_rotvec(big)
        assert np.allclose(wrapped, axis * 0.3, atol=1e-12)
        over = axis * (math.pi + 0.2)  # equivalent to -(pi - 0.2) about +z
        wrapped = canonicalize_rotvec(over)
        assert np.linalg.norm(wrapped) <= math.pi
        assert np.allclose(
            rotvec_to_matrix(wrapped), rotvec_to_matrix(over), atol=1e-12
        )

    def test_canonicalize_preserves_small(self):
        v = np.array([0.1, -0.2, 0.3])
        assert np.array_equal(canonicalize_rotvec(v), v)


class TestExtrinsics:
    def test_identity_transform(self):
        t = IDENTITY
        assert np.allclose(t.transform(np.array([1.0, 2.0, 3.0])), [1, 2, 3])

    def test_pure_translation(self):
        t = Extrinsics(np.eye(3), np.array([0.0, 0.0, 5.0]))
        assert np.allclose(t.transform(np.zeros(3)), [0, 0, 5])

    def test_matches_homogeneous_matrix(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = Extrinsics(random_rotation(rng), rng.normal(size=3))
            p = rng.normal(size=3) * 10
            matrix = np.eye(4)
            matrix[:3, :3], matrix[:3, 3] = t.rotation, t.translation
            homogeneous = matrix @ np.append(p, 1.0)
            assert np.allclose(t.transform(p), homogeneous[:3], atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            t = Extrinsics(random_rotation(rng), rng.normal(size=3))
            p = rng.normal(size=3) * 10
            back = t.inverse().transform(t.transform(p))
            assert np.linalg.norm(back - p) < 1e-10 * max(1.0, np.linalg.norm(p))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        t = Extrinsics(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(10, 3))
        batch = t.transform(pts)
        for i in range(10):
            assert np.allclose(batch[i], t.transform(pts[i]), atol=1e-14)

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Extrinsics(np.eye(3) * 1.001, np.zeros(3))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_rotation(self, value):
        # a NaN deviation from orthonormality passed the old err >= tol check
        rotation = np.eye(3)
        rotation[1, 1] = value
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="orthonormal"):
            Extrinsics(rotation, np.zeros(3))

    def test_non_finite_rotation_rejected_without_warning(self):
        rotation = np.eye(3)
        rotation[0, 2] = math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a RuntimeWarning fails the test
            with pytest.raises(ValueError, match="orthonormal"):
                Extrinsics(rotation, np.zeros(3))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            Extrinsics(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


class TestNearestRotation:
    def test_rotation_is_kept(self):
        rotation = random_rotation(np.random.default_rng(12))
        assert np.allclose(nearest_rotation(rotation), rotation, atol=1e-12)

    def test_perturbed_matrix_snaps_to_a_rotation(self):
        rng = np.random.default_rng(13)
        rotation = random_rotation(rng)
        snapped = nearest_rotation(rotation + 1e-4 * rng.normal(size=(3, 3)))
        Extrinsics(snapped, np.zeros(3))  # orthonormal to 1e-9, det +1
        assert np.allclose(snapped, rotation, atol=1e-3)

    def test_reflection_gets_determinant_plus_one(self):
        snapped = nearest_rotation(np.diag([1.0, 1.0, -1.0]))
        assert np.isclose(np.linalg.det(snapped), 1.0)
        Extrinsics(snapped, np.zeros(3))


def project_one(k, t, point):
    """One radar-frame point through ``t.transform`` (the 1-D path) and
    ``pinhole``: the pixel ``(2,)`` and the depth guard."""
    uv, front = pinhole(k, t.transform(point))
    return uv, bool(front[0])


class TestProjection:
    def test_optical_axis(self):
        with pytest.warns(UserWarning):  # principal point at the corner
            k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 10, 10)
        uv, front = project_one(k, IDENTITY, np.array([0.0, 0.0, 1.0]))
        assert front
        assert np.allclose(uv, [0.0, 0.0])

    def test_similar_triangles(self):
        k = CameraIntrinsics(1000.0, 1000.0, 960.0, 540.0, 1920, 1080)
        uv, front = project_one(k, IDENTITY, np.array([1.0, 0.0, 10.0]))
        assert front
        assert np.allclose(uv, [1060.0, 540.0])

    @pytest.mark.parametrize(
        "depth, front",
        [(-1.0, False), (0.0, False), (Z_EPS, False), (math.nextafter(Z_EPS, 1.0), True)],
    )
    def test_depth_guard(self, depth, front):
        # the guard is depth > Z_EPS: a point on it is behind the camera
        with pytest.warns(UserWarning):
            k = CameraIntrinsics(1.0, 1.0, 0.0, 0.0, 10, 10)
        assert project_one(k, IDENTITY, np.array([0.0, 0.0, depth]))[1] is front

    def test_depth_scale_invariance(self):
        k = CameraIntrinsics(800.0, 820.0, 320.0, 240.0, 640, 480)
        rng = np.random.default_rng(9)
        for _ in range(20):
            direction = rng.normal(size=3)
            direction[2] = abs(direction[2]) + 0.5
            baseline = project_one(k, IDENTITY, direction)[0]
            for scale in (0.1, 2.0, 37.0):
                uv = project_one(k, IDENTITY, scale * direction)[0]
                assert np.allclose(uv, baseline, atol=1e-9)

    def test_batch_matches_single(self):
        k = CameraIntrinsics(700.0, 710.0, 320.0, 240.0, 640, 480)
        rng = np.random.default_rng(10)
        t = Extrinsics(random_rotation(rng), rng.normal(size=3))
        pts = rng.normal(size=(30, 3)) * 5
        uv, depth, in_front = project_points(k, t, pts)
        for i in range(30):
            cam = t.transform(pts[i])
            assert np.isclose(depth[i], cam[2])
            assert in_front[i] == project_one(k, t, pts[i])[1]
            if in_front[i]:
                assert np.allclose(uv[i], project_one(k, t, pts[i])[0], atol=1e-12)
            else:
                assert np.all(np.isnan(uv[i]))

    def test_pinhole_gives_the_bits_of_every_projection(self):
        k = CameraIntrinsics(700.0, 710.0, 320.0, 240.0, 640, 480)
        cam = np.random.default_rng(11).normal(size=(4, 5, 3)) * 5
        uv, front = pinhole(k, cam)
        assert uv.shape == (4, 5, 2) and front.shape == (4, 5, 1)
        flat_uv, flat_front = pinhole(k, cam.reshape(-1, 3))
        assert np.array_equal(flat_uv, uv.reshape(-1, 2))
        batch_uv, _, in_front = project_points(k, IDENTITY, cam)
        assert np.array_equal(in_front, flat_front[:, 0])
        for c, pixel, batch_pixel, ok in zip(cam.reshape(-1, 3), flat_uv, batch_uv, in_front):
            assert ok == (c[2] > Z_EPS)
            if ok:
                formula = [k.fx * c[0] / c[2] + k.cx, k.fy * c[1] / c[2] + k.cy]
                assert np.array_equal(pixel, formula)
                assert np.array_equal(batch_pixel, pixel)
                assert np.array_equal(project_one(k, IDENTITY, c)[0], pixel)
            else:
                assert np.all(np.isnan(batch_pixel))

    def test_principal_point_warning(self):
        with pytest.warns(UserWarning):
            CameraIntrinsics(100.0, 100.0, -5.0, 50.0, 100, 100)

    @pytest.mark.parametrize("field", ["fx", "fy", "cx", "cy"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_intrinsics_reject_non_finite(self, field, value):
        # NaN failed no check: fx <= 0 and the principal point test are false
        values = dict(fx=100.0, fy=100.0, cx=50.0, cy=50.0, width=100, height=100)
        with pytest.raises(ValueError, match="finite"):
            CameraIntrinsics(**{**values, field: value})
