import numpy as np
import pytest

from radcal.autolabel import autolabel_frame
from radcal.calibration import build_correspondences, solve_extrinsics
from radcal.checkerboard import checkerboard_center
from radcal.geometry import Extrinsics, matrix_to_rotvec
from radcal.metrics import label_report
from radcal.reflector import ReflectorNotFound, extract_reflector
from radcal.synth import (
    FovInfeasible,
    LabelSceneConfig,
    SceneConfig,
    default_extrinsics,
    default_intrinsics,
    gen_calibration_scene,
    gen_label_scene,
)
from truth_columns import column_bytes


@pytest.mark.parametrize("config", [SceneConfig, LabelSceneConfig])
@pytest.mark.parametrize("seed", [float("inf"), 1.0, "x", True, None, -1])
def test_config_rejects_seed_that_is_not_a_non_negative_int(config, seed):
    # numpy's SeedSequence would reject these only once generation starts
    with pytest.raises(ValueError, match="seed"):
        config(seed=seed)


@pytest.mark.parametrize(
    "name", ["pixel_sigma_px", "range_sigma_m", "angle_sigma_rad", "rcs_sigma_dbsm"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
def test_scene_config_rejects_noise_that_is_not_finite_and_non_negative(name, value):
    # a NaN sigma passed the old sigma < 0 check
    with pytest.raises(ValueError, match=name):
        SceneConfig(**{name: value})


class TestCalibrationScene:
    def test_counts_and_determinism(self):
        cfg = SceneConfig(seed=5, pose_count=6)
        a = gen_calibration_scene(cfg)
        b = gen_calibration_scene(cfg)
        assert len(a.poses) == 6
        for pa, pb in zip(a.poses, b.poses):
            assert np.array_equal(pa.corner_set.corners, pb.corner_set.corners)
            assert pa.radar_frame == pb.radar_frame
            assert np.array_equal(pa.gt_center_radar, pb.gt_center_radar)
        assert a.ground_truth() == b.ground_truth()

    def test_different_seeds_differ(self):
        a = gen_calibration_scene(SceneConfig(seed=1, pose_count=3))
        b = gen_calibration_scene(SceneConfig(seed=2, pose_count=3))
        assert not np.array_equal(
            a.poses[0].corner_set.corners, b.poses[0].corner_set.corners
        )

    def test_centroid_matches_projection_exactly(self):
        scene = gen_calibration_scene(SceneConfig(seed=6, pose_count=8))
        for pose in scene.poses:
            center = checkerboard_center(pose.corner_set)
            assert np.linalg.norm(center - pose.gt_center_pixel) < 1e-9

    def test_center_offset_knob_shifts_centroid(self):
        base = gen_calibration_scene(SceneConfig(seed=6, pose_count=2))
        shifted = gen_calibration_scene(
            SceneConfig(seed=6, pose_count=2, center_offset_px=3.0)
        )
        for a, b in zip(base.poses, shifted.poses):
            da = checkerboard_center(b.corner_set) - checkerboard_center(a.corner_set)
            assert np.allclose(da, [3.0, 0.0], atol=1e-9)

    def test_apex_is_exact_and_strictly_brightest(self):
        scene = gen_calibration_scene(SceneConfig(seed=7, pose_count=8))
        for pose in scene.poses:
            found = extract_reflector(pose.radar_frame)
            assert np.linalg.norm(found - pose.gt_center_radar) < 1e-12

    def test_clutter_only_poses_not_found(self):
        scene = gen_calibration_scene(
            SceneConfig(seed=8, pose_count=6, clutter_only_poses=(1, 4))
        )
        found, missing = [], []
        for pose in scene.poses:
            try:
                extract_reflector(pose.radar_frame)
                found.append(pose.pose_id)
            except ReflectorNotFound:
                missing.append(pose.pose_id)
        assert missing == [1, 4]
        assert len(found) == 4

    def test_fov_infeasible(self):
        # identity extrinsics: camera optical axis points up in the radar
        # frame, so low-elevation boards are never in front of the camera
        cfg = SceneConfig(seed=9, pose_count=1, extrinsics=Extrinsics(np.eye(3), np.zeros(3)))
        with pytest.raises(FovInfeasible):
            gen_calibration_scene(cfg)

    def test_timestamps_within_sync_window(self):
        scene = gen_calibration_scene(SceneConfig(seed=10, pose_count=10))
        for pose in scene.poses:
            assert abs(pose.t_camera_s - pose.t_radar_s) <= 0.025


class TestOracleSoundness:
    def test_full_pipeline_recovers_everything(self):
        scene = gen_calibration_scene(SceneConfig(seed=11))
        cam, rad = [], []
        for pose in scene.poses:
            cam.append((pose.pose_id, pose.t_camera_s, checkerboard_center(pose.corner_set)))
            rad.append((pose.pose_id, pose.t_radar_s, extract_reflector(pose.radar_frame)))
        corrs = build_correspondences(cam, rad)
        result = solve_extrinsics(corrs, scene.config.intrinsics)
        gt = scene.config.extrinsics
        rot_err = np.linalg.norm(
            matrix_to_rotvec(gt.rotation.T @ result.extrinsics.rotation)
        )
        assert rot_err < 1e-6
        assert np.linalg.norm(result.extrinsics.translation - gt.translation) < 1e-5

        k, t = default_intrinsics(), result.extrinsics
        label_scene = gen_label_scene(LabelSceneConfig(seed=12, extrinsics=t))
        labels = autolabel_frame(label_scene.points, list(label_scene.masks), k, t, stage="full")
        report = label_report(labels, label_scene.gt_labels)
        assert report.pa_percent == 100.0
        assert report.miou_percent == 100.0


class TestLabelScene:
    def run_stages(self, scene, k, t, params=None):
        out = {}
        for stage in ("coarse", "otpf", "full"):
            labels = autolabel_frame(scene.points, list(scene.masks), k, t, params, stage)
            out[stage] = ([r.label for r in labels], label_report(labels, scene.gt_labels))
        return out

    def test_determinism(self):
        cfg = LabelSceneConfig(seed=13, false_positive_rate=0.1, false_negative_rate=0.1)
        a = gen_label_scene(cfg)
        b = gen_label_scene(cfg)
        assert column_bytes(a.gt_labels) == column_bytes(b.gt_labels)
        assert np.array_equal(a.points.xyz, b.points.xyz)
        assert np.array_equal(a.points.velocity, b.points.velocity)
        for ma, mb in zip(a.masks, b.masks):
            assert np.array_equal(ma.mask, mb.mask)

    def test_clean_scene_perfect_on_all_stages(self):
        k, t = default_intrinsics(), default_extrinsics()
        for seed in range(5):
            scene = gen_label_scene(LabelSceneConfig(seed=seed))
            for stage, (labels, report) in self.run_stages(scene, k, t).items():
                assert report.pa_percent == 100.0, (seed, stage)
                assert report.miou_percent == 100.0, (seed, stage)

    def test_fp_corruption_filtered(self):
        k, t = default_intrinsics(), default_extrinsics()
        scene = gen_label_scene(LabelSceneConfig(seed=14, false_positive_rate=0.15))
        stages = self.run_stages(scene, k, t)
        assert stages["coarse"][1].pa_percent < 100.0
        assert stages["otpf"][1].pa_percent == 100.0
        assert stages["full"][1].pa_percent == 100.0

    def test_fn_corruption_recovered(self):
        k, t = default_intrinsics(), default_extrinsics()
        scene = gen_label_scene(LabelSceneConfig(seed=15, false_negative_rate=0.15))
        stages = self.run_stages(scene, k, t)
        assert stages["otpf"][1].miou_percent < 100.0
        assert stages["full"][1].miou_percent == 100.0
        assert stages["full"][1].miou_percent > stages["otpf"][1].miou_percent

    def test_monotone_label_sets(self):
        k, t = default_intrinsics(), default_extrinsics()
        scene = gen_label_scene(
            LabelSceneConfig(seed=16, false_positive_rate=0.1, false_negative_rate=0.1)
        )
        stages = self.run_stages(scene, k, t)
        coarse, otpf, full = (stages[s][0] for s in ("coarse", "otpf", "full"))
        for c, o in zip(coarse, otpf):
            assert o == c or o is None
        for o, f in zip(otpf, full):
            assert f == o or o is None

    def test_hull_masks(self):
        k, t = default_intrinsics(), default_extrinsics()
        scene = gen_label_scene(LabelSceneConfig(seed=17, mask_shape="hull"))
        labels = autolabel_frame(scene.points, list(scene.masks), k, t, stage="full")
        report = label_report(labels, scene.gt_labels)
        assert report.pa_percent == 100.0

    def test_invariants_hold_under_jitter(self):
        # jittered scenes lose the exact-PA guarantee but the structural
        # invariants must survive any inputs
        k, t = default_intrinsics(), default_extrinsics()
        for seed in range(6):
            scene = gen_label_scene(
                LabelSceneConfig(
                    seed=30 + seed,
                    velocity_jitter_mps=0.3,
                    rcs_jitter_dbsm=2.0,
                    false_positive_rate=0.1,
                    false_negative_rate=0.1,
                )
            )
            instances = {(m.class_id, m.instance_id) for m in scene.masks}
            stage_labels = {}
            for stage in ("coarse", "otpf", "full"):
                records = autolabel_frame(
                    scene.points, list(scene.masks), k, t, stage=stage
                )
                assert [r.point_index for r in records] == list(range(len(scene.points)))
                for r in records:
                    assert r.label is None or r.label in instances
                stage_labels[stage] = [r.label for r in records]
            for c, o in zip(stage_labels["coarse"], stage_labels["otpf"]):
                assert o == c or o is None
            for o, f in zip(stage_labels["otpf"], stage_labels["full"]):
                assert f == o or o is None

    def test_gt_labels_reference_real_instances(self):
        scene = gen_label_scene(LabelSceneConfig(seed=18))
        instances = {(m.class_id, m.instance_id) for m in scene.masks}
        gt = scene.gt_labels
        labeled = zip(gt.class_id[gt.labeled].tolist(), gt.instance_id[gt.labeled].tolist())
        assert set(labeled) <= instances
        assert not gt.class_id[~gt.labeled].any() and not gt.instance_id[~gt.labeled].any()
        assert len(scene.masks) == scene.config.object_count
