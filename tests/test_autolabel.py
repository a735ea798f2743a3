import math

import numpy as np
import pytest

from radcal.autolabel import (
    ClusterStats,
    DimensionMismatch,
    InstanceMask,
    LabelParams,
    PointCloud,
    Provenance,
    autolabel_frame,
    cluster_stats,
    coarse_associate,
    complete_clusters,
    depth_valid,
    filter_cluster,
    rcs_valid,
    vel_valid,
)
from radcal.geometry import CameraIntrinsics, Extrinsics
from scalar_reference import segments

# identity extrinsics: camera frame == point frame, depth == z
K = CameraIntrinsics(100.0, 100.0, 50.0, 50.0, 100, 100)
T = Extrinsics(np.eye(3), np.zeros(3))


def pt(x, y, z, v=0.0, rcs=10.0):
    return (x, y, z, v, rcs)


def cloud(*points):
    """PointCloud from pt() rows."""
    rows = np.array(points, dtype=float).reshape(-1, 5)
    return PointCloud(rows[:, :3], rows[:, 3], rows[:, 4])


def rect_mask(u_lo, u_hi, v_lo, v_hi, class_id=1, instance_id=1, confidence=0.9):
    mask = np.zeros((K.height, K.width), dtype=bool)
    mask[v_lo - 1 : v_hi, u_lo - 1 : u_hi] = True
    return InstanceMask.from_dense(mask, class_id, instance_id, confidence)


def stats_of(**kw):
    defaults = dict(
        median_depth_m=10.0,
        mean_rcs_dbsm=10.0,
        std_rcs_dbsm=0.0,
        mean_velocity_mps=0.0,
        std_velocity_mps=0.0,
        centroid=np.zeros(3),
        count=3,
    )
    defaults.update(kw)
    return ClusterStats(**defaults)


class TestCoarseAssociate:
    def test_unique_candidate(self):
        # point at (0, 0, 10) projects to pixel (50, 50)
        masks = [rect_mask(40, 60, 40, 60, class_id=2, instance_id=2, confidence=0.9)]
        result = coarse_associate(cloud(pt(0, 0, 10)), masks, K, T)
        assert result.owner.tolist() == [0]
        assert result.instance_of.tolist() == [2]
        assert result.members.tolist() == [0]
        assert result.unassociated.tolist() == []

    def test_overlap_resolved_by_confidence(self):
        masks = [
            rect_mask(40, 60, 40, 60, class_id=1, instance_id=1, confidence=0.8),
            rect_mask(45, 65, 45, 65, class_id=2, instance_id=2, confidence=0.95),
        ]
        result = coarse_associate(cloud(pt(0, 0, 10)), masks, K, T)
        assert result.owner.tolist() == [1]
        assert result.instance_of.tolist() == [2]

    def test_confidence_tie_goes_to_lower_instance_id(self):
        masks = [
            rect_mask(40, 60, 40, 60, class_id=1, instance_id=5, confidence=0.9),
            rect_mask(40, 60, 40, 60, class_id=2, instance_id=3, confidence=0.9),
        ]
        result = coarse_associate(cloud(pt(0, 0, 10)), masks, K, T)
        assert result.owner.tolist() == [1]
        assert result.instance_of.tolist() == [3]

    def test_out_of_bounds_unassociated(self):
        # u = 100 * 5.15/10 + 50 = 101.5 = W + 1.5: outside
        masks = [rect_mask(1, 100, 1, 100)]
        result = coarse_associate(cloud(pt(5.15, 0, 10)), masks, K, T)
        assert result.owner.tolist() == [-1]
        assert result.unassociated.tolist() == [0]

    def test_behind_camera_unassociated(self):
        masks = [rect_mask(1, 100, 1, 100)]
        result = coarse_associate(cloud(pt(0, 0, -5)), masks, K, T)
        assert result.owner.tolist() == [-1]
        assert result.unassociated.tolist() == [0]

    def test_pixel_membership_uses_rounding(self):
        # u = 100 * -0.304/10 + 50 = 46.96 -> lookup pixel 47
        masks = [rect_mask(47, 47, 50, 50)]
        result = coarse_associate(cloud(pt(-0.304, 0, 10)), masks, K, T)
        assert result.owner.tolist() == [0]

    def test_boundary_pixels_valid(self):
        # u exactly 1 and exactly W are valid per the inclusive bounds
        # (fx chosen so the pixel coordinates are exact in floating point)
        k10 = CameraIntrinsics(10.0, 10.0, 50.0, 50.0, 100, 100)
        masks = [rect_mask(1, 100, 1, 100)]
        left = pt(-49.0, 0, 10)  # u = 10 * (-49/10) + 50 = 1.0
        right = pt(50.0, 0, 10)  # u = 100.0
        result = coarse_associate(cloud(left, right), masks, k10, T)
        assert result.owner.tolist() == [0, 0]

    def test_dimension_mismatch(self):
        bad = InstanceMask.from_dense(np.zeros((50, 50), dtype=bool), 1, 1, 0.9)
        with pytest.raises(DimensionMismatch):
            coarse_associate(cloud(pt(0, 0, 10)), [bad], K, T)


class TestClusterStats:
    def test_median_depth(self):
        points = cloud(pt(0, 0, 3.0), pt(0, 0, 9.0), pt(0, 0, 4.0))
        depths = np.array([3.0, 9.0, 4.0])
        stats = cluster_stats([0, 1, 2], points, depths)
        assert stats.median_depth_m == 4.0

    def test_singleton_has_zero_spread(self):
        stats = cluster_stats([0], cloud(pt(1, 2, 3, v=4.0, rcs=5.0)), np.array([3.0]))
        assert stats.std_rcs_dbsm == 0.0
        assert stats.std_velocity_mps == 0.0
        assert stats.count == 1

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 130, 9000])
    def test_bits_match_numpy_reductions(self, n):
        # sizes either side of the pairwise-sum block (8), split (128) and
        # buffer (8192) lengths; members in any order
        rng = np.random.default_rng(n)
        points = PointCloud(
            rng.normal(size=(n, 3)) * 50, rng.normal(size=n) * 3, rng.normal(size=n) * 8 + 10
        )
        depths = rng.uniform(1.0, 60.0, n)
        idx = rng.permutation(n)
        stats = cluster_stats(idx, points, depths)
        rcs, vel = points.rcs[idx], points.velocity[idx]
        assert stats.median_depth_m == np.median(depths[idx])
        assert (stats.mean_rcs_dbsm, stats.std_rcs_dbsm) == (rcs.mean(), rcs.std())
        assert (stats.mean_velocity_mps, stats.std_velocity_mps) == (vel.mean(), vel.std())
        assert stats.centroid.tolist() == points.xyz[idx].mean(axis=0).tolist()
        assert stats.count == n

    def test_matches_streaming_oracle(self):
        rng = np.random.default_rng(0)
        points = cloud(*[
            pt(*rng.normal(size=3), v=rng.normal(), rcs=rng.normal() * 5 + 10)
            for _ in range(20)
        ])
        depths = rng.uniform(5, 15, 20)
        stats = cluster_stats(list(range(20)), points, depths)
        # independent pass: plain accumulators
        rcs = points.rcs.tolist()
        vel = points.velocity.tolist()
        mean_rcs = math.fsum(rcs) / 20
        var_rcs = math.fsum((x - mean_rcs) ** 2 for x in rcs) / 20
        mean_v = math.fsum(vel) / 20
        var_v = math.fsum((x - mean_v) ** 2 for x in vel) / 20
        assert abs(stats.mean_rcs_dbsm - mean_rcs) < 1e-12
        assert abs(stats.std_rcs_dbsm - math.sqrt(var_rcs)) < 1e-12
        assert abs(stats.mean_velocity_mps - mean_v) < 1e-12
        assert abs(stats.std_velocity_mps - math.sqrt(var_v)) < 1e-12
        assert abs(stats.median_depth_m - sorted(depths)[10 - 1 : 10 + 1][0]) <= abs(
            sorted(depths)[10] - sorted(depths)[9]
        )
        centroid = points.xyz.mean(axis=0)
        assert np.allclose(stats.centroid, centroid)


class TestGates:
    def test_depth_at_median_valid(self):
        assert depth_valid(10.0, stats_of(), LabelParams())

    def test_depth_boundary_strict(self):
        assert not depth_valid(11.5, stats_of(), LabelParams(tau_d=1.5))
        assert not depth_valid(8.5, stats_of(), LabelParams(tau_d=1.5))
        assert depth_valid(11.5 - 1e-9, stats_of(), LabelParams(tau_d=1.5))

    def test_depth_far_off_invalid(self):
        assert not depth_valid(13.0, stats_of(), LabelParams(tau_d=1.5))

    def test_rcs_zero_spread_accepts_exact_value(self):
        assert rcs_valid(10.0, stats_of(std_rcs_dbsm=0.0), LabelParams())

    def test_rcs_zero_spread_rejects_everything_else(self):
        assert not rcs_valid(10.01, stats_of(std_rcs_dbsm=0.0), LabelParams())

    def test_rcs_boundary_non_strict(self):
        stats = stats_of(mean_rcs_dbsm=20.0, std_rcs_dbsm=4.0)
        params = LabelParams(kappa_rho=2.5)
        assert rcs_valid(30.0, stats, params)  # |30-20| = 10 = 2.5*4 exactly
        assert not rcs_valid(31.0, stats, params)  # 11 > 10

    def test_vel_static_accepts_all(self):
        stats = stats_of(mean_velocity_mps=0.1)
        params = LabelParams(v_static=0.3)
        assert vel_valid(99.0, stats, params)

    def test_vel_dynamic_floor(self):
        stats = stats_of(mean_velocity_mps=5.0, std_velocity_mps=0.1)
        params = LabelParams(kappa_v=2.0, sigma_v_min=0.2, v_static=0.3)
        assert vel_valid(5.3, stats, params)  # 0.3 <= 2 * max(0.1, 0.2)
        assert not vel_valid(5.5, stats, params)  # 0.5 > 0.4

    def test_vel_static_boundary_inclusive(self):
        stats = stats_of(mean_velocity_mps=0.3)
        assert vel_valid(50.0, stats, LabelParams(v_static=0.3))


class TestFilterCluster:
    def test_all_pass_unchanged(self):
        points = cloud(*[pt(0, 0, 10.0, v=0.0, rcs=15.0) for _ in range(4)])
        depths = np.full(4, 10.0)
        stats = cluster_stats([0, 1, 2, 3], points, depths)
        kept, removed = filter_cluster([0, 1, 2, 3], stats, points, depths, LabelParams())
        assert kept.tolist() == [0, 1, 2, 3]
        assert removed.tolist() == []

    def test_depth_outlier_removed(self):
        points = cloud(*[pt(0, 0, 10.0, rcs=15.0) for _ in range(4)], pt(0, 0, 15.0, rcs=15.0))
        depths = np.array([10.0, 10.0, 10.0, 10.0, 15.0])
        stats = cluster_stats(list(range(5)), points, depths)
        kept, removed = filter_cluster(list(range(5)), stats, points, depths, LabelParams())
        assert kept.tolist() == [0, 1, 2, 3]
        assert removed.tolist() == [4]


class TestCompleteClusters:
    def test_exact_match_recovers(self):
        members = [pt(1.0, 2.0, 10.0, v=3.0, rcs=12.0) for _ in range(3)]
        candidate = pt(1.0, 2.0, 10.0, v=3.0, rcs=12.0)
        points = cloud(*members, candidate)
        depths = np.full(4, 10.0)
        out = complete_clusters(segments({7: [0, 1, 2]}), [3], points, depths, LabelParams())
        assert dict(zip(*out)) == {3: 7}

    def test_beyond_search_radius_not_candidate(self):
        members = [pt(0, 0, 10.0) for _ in range(3)]
        candidate = pt(10.0, 0, 10.0)
        points = cloud(*members, candidate)
        out = complete_clusters(
            segments({1: [0, 1, 2]}), [3], points, np.full(4, 10.0), LabelParams(r_search=2.0)
        )
        assert dict(zip(*out)) == {}

    def test_argmax_across_clusters(self):
        params = LabelParams()
        d_a = params.sigma_pos * math.sqrt(-2.0 * math.log(0.7))
        d_b = params.sigma_pos * math.sqrt(-2.0 * math.log(0.9))
        cluster_a = [pt(0.0, 0.0, 10.0) for _ in range(3)]
        cluster_b = [pt(d_a + d_b, 0.0, 10.0) for _ in range(3)]
        candidate = pt(d_a, 0.0, 10.0)
        points = cloud(*cluster_a, *cluster_b, candidate)
        depths = np.full(7, 10.0)
        out = complete_clusters(
            segments({1: [0, 1, 2], 2: [3, 4, 5]}), [6], points, depths, params
        )
        assert dict(zip(*out)) == {6: 2}

    def test_below_threshold_not_recovered(self):
        members = [pt(0, 0, 10.0) for _ in range(3)]
        d = LabelParams().sigma_pos * math.sqrt(-2.0 * math.log(0.5))
        candidate = pt(d, 0, 10.0)  # affinity 0.5 < 0.6
        points = cloud(*members, candidate)
        out = complete_clusters(
            segments({1: [0, 1, 2]}), [3], points, np.full(4, 10.0), LabelParams()
        )
        assert dict(zip(*out)) == {}

    def test_excluded_cluster_skipped(self):
        members = [pt(0, 0, 10.0) for _ in range(3)]
        candidate = pt(0, 0, 10.0)
        points = cloud(*members, candidate)
        out = complete_clusters(
            segments({1: [0, 1, 2]}),
            [3],
            points,
            np.full(4, 10.0),
            LabelParams(),
            excluded=np.array([0, 0, 0, 1]),
        )
        assert dict(zip(*out)) == {}


class TestAutolabelFrame:
    def clean_setup(self):
        # one object of 4 points around pixel (50, 50), one clutter point
        points = [
            pt(0.0, 0.0, 10.0, v=2.0, rcs=15.0),
            pt(0.1, 0.0, 10.0, v=2.0, rcs=15.0),
            pt(0.0, 0.1, 10.1, v=2.0, rcs=15.0),
            pt(-0.1, 0.0, 9.9, v=2.0, rcs=15.0),
            pt(4.0, 4.0, 10.0, v=0.0, rcs=5.0),  # projects to (90, 90): outside mask
        ]
        masks = [rect_mask(45, 55, 45, 55, class_id=3, instance_id=1, confidence=0.88)]
        return points, masks

    def test_clean_frame_full_pipeline(self):
        points, masks = self.clean_setup()
        records = list(autolabel_frame(cloud(*points), masks, K, T, stage="full"))
        assert [r.label for r in records[:4]] == [(3, 1)] * 4
        assert records[4].label is None
        assert [r.provenance for r in records[:4]] == [Provenance.COARSE] * 4
        assert records[4].provenance == Provenance.UNLABELED

    def test_stage_argument_validated(self):
        points, masks = self.clean_setup()
        with pytest.raises(ValueError):
            autolabel_frame(cloud(*points), masks, K, T, stage="everything")

    def test_filtered_point_marked(self):
        points, masks = self.clean_setup()
        # add a wrong-depth point projecting inside the mask
        points.append(pt(0.0, 0.0, 16.0, v=2.0, rcs=15.0))
        records = list(autolabel_frame(cloud(*points), masks, K, T, stage="otpf"))
        assert records[5].label is None
        assert records[5].provenance == Provenance.FILTERED_OUT

    def test_small_cluster_passes_through(self):
        points = [
            pt(0.0, 0.0, 10.0, v=2.0, rcs=15.0),
            pt(0.0, 0.0, 16.0, v=2.0, rcs=15.0),  # would fail the depth gate
        ]
        masks = [rect_mask(45, 55, 45, 55)]
        records = list(autolabel_frame(cloud(*points), masks, K, T, LabelParams(n_min=3), "full"))
        assert records[0].label == (1, 1)
        assert records[1].label == (1, 1)  # size guard: no filtering below n_min

    def test_recovered_point_marked(self):
        points, masks = self.clean_setup()
        # a point spatially on the object whose projection misses the mask
        points.append(pt(0.45, 0.0, 10.0, v=2.0, rcs=15.0))  # u = 54.5 in mask...
        points[-1] = pt(0.7, 0.0, 10.0, v=2.0, rcs=15.0)  # u = 57: outside mask
        records = list(autolabel_frame(cloud(*points), masks, K, T, stage="full"))
        assert records[5].label == (3, 1)
        assert records[5].provenance == Provenance.RECOVERED
        coarse = list(autolabel_frame(cloud(*points), masks, K, T, stage="coarse"))
        assert coarse[5].label is None

    def test_empty_mask_set_all_unlabeled(self):
        points, _ = self.clean_setup()
        records = autolabel_frame(cloud(*points), [], K, T, stage="full")
        assert all(r.label is None for r in records)
        assert all(r.provenance == Provenance.UNLABELED for r in records)

    def test_label_conservation(self):
        points, masks = self.clean_setup()
        records = autolabel_frame(cloud(*points), masks, K, T, stage="full")
        assert [r.point_index for r in records] == list(range(len(points)))
        valid_instances = {(m.class_id, m.instance_id) for m in masks}
        for r in records:
            assert r.label is None or r.label in valid_instances

    def test_determinism(self):
        points, masks = self.clean_setup()
        a = autolabel_frame(cloud(*points), masks, K, T, stage="full")
        b = autolabel_frame(cloud(*points), masks, K, T, stage="full")
        assert list(a) == list(b)

    def test_stage_monotonicity(self):
        points, masks = self.clean_setup()
        points.append(pt(0.0, 0.0, 16.0, v=2.0, rcs=15.0))  # filtered out
        points.append(pt(0.7, 0.0, 10.0, v=2.0, rcs=15.0))  # recoverable
        coarse = autolabel_frame(cloud(*points), masks, K, T, stage="coarse")
        otpf = autolabel_frame(cloud(*points), masks, K, T, stage="otpf")
        full = autolabel_frame(cloud(*points), masks, K, T, stage="full")
        # OTPF only removes labels
        for c, o in zip(coarse, otpf):
            assert o.label == c.label or o.label is None
        # completion only adds labels
        for o, f in zip(otpf, full):
            assert f.label == o.label or o.label is None

    def test_confidence_monotonicity(self):
        masks = [
            rect_mask(40, 60, 40, 60, class_id=1, instance_id=1, confidence=0.7),
            rect_mask(45, 65, 45, 65, class_id=2, instance_id=2, confidence=0.6),
        ]
        points = [pt(0, 0, 10)]
        base = coarse_associate(cloud(*points), masks, K, T)
        assert base.owner.tolist() == [0]
        for bumped in (0.8, 0.95, 1.0):
            masks2 = [
                InstanceMask.from_dense(masks[0].mask, 1, 1, bumped),
                masks[1],
            ]
            result = coarse_associate(cloud(*points), masks2, K, T)
            assert result.owner.tolist() == [0]
