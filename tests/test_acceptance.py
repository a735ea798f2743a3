"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with ``pytest -s`` to see them
inline)."""

import hashlib
import time

import numpy as np
import pytest

from fd_oracle import central_difference_jacobian
from radcal import cli
from radcal.autolabel import LabelColumns, LabelParams, autolabel_frame
from radcal.calibration import (
    _linearize,
    build_correspondences,
    reprojection_errors,
    solve_extrinsics,
)
from radcal.checkerboard import checkerboard_center
from radcal.geometry import matrix_to_rotvec
from radcal.metrics import label_report
from radcal.reflector import (
    ClusterParams,
    FilterParams,
    RadarFrame,
    dbscan,
    extract_reflector,
    filter_returns,
)
from radcal.synth import (
    LabelSceneConfig,
    SceneConfig,
    default_extrinsics,
    default_intrinsics,
    gen_calibration_scene,
    gen_label_scene,
)


def report(criterion, text):
    print(f"[acceptance {criterion}] PASS - {text}")


def solve_scene(scene):
    cam, rad = [], []
    for pose in scene.poses:
        cam.append((pose.pose_id, pose.t_camera_s, checkerboard_center(pose.corner_set)))
        rad.append((pose.pose_id, pose.t_radar_s, extract_reflector(pose.radar_frame)))
    corrs = build_correspondences(cam, rad)
    return solve_extrinsics(corrs, scene.config.intrinsics)


def test_criterion_1_noise_free_oracle_recovery():
    start = time.perf_counter()
    scene = gen_calibration_scene(SceneConfig(seed=7, pose_count=24))
    result = solve_scene(scene)
    elapsed = time.perf_counter() - start
    gt = scene.config.extrinsics
    rot_err = float(
        np.linalg.norm(matrix_to_rotvec(gt.rotation.T @ result.extrinsics.rotation))
    )
    tr_err = float(np.linalg.norm(result.extrinsics.translation - gt.translation))
    assert rot_err < 1e-6, f"rotation error {rot_err}"
    assert tr_err < 1e-5, f"translation error {tr_err}"
    assert result.mre_px < 1e-6, f"MRE {result.mre_px}"
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    report(
        1,
        f"rot {rot_err:.2e} rad, trans {tr_err:.2e} m, "
        f"MRE {result.mre_px:.2e} px, {elapsed:.2f}s",
    )


def test_criterion_2_noisy_calibration_bound():
    start = time.perf_counter()
    mres = []
    for seed in range(20):
        scene = gen_calibration_scene(
            SceneConfig(
                seed=1000 + seed,
                pixel_sigma_px=2.0,
                range_sigma_m=0.02,
                angle_sigma_rad=0.0024,  # ~2 cm cross-range at the mid range
            )
        )
        result = solve_scene(scene)
        assert result.rmse_px >= result.mre_px, f"seed {seed}: RMSE < MRE"
        assert result.mre_px <= 10.0, f"seed {seed}: MRE {result.mre_px:.2f} px"
        mres.append(result.mre_px)
    elapsed = time.perf_counter() - start
    mean_mre = float(np.mean(mres))
    assert mean_mre <= 5.0, f"mean MRE {mean_mre:.2f} px"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    report(
        2,
        f"mean MRE {mean_mre:.2f} px, worst {max(mres):.2f} px over 20 seeds, "
        f"{elapsed:.1f}s",
    )


def _dbscan_reference(points, eps, min_pts):
    n = len(points)
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=2)
    neighbors = [np.flatnonzero(dist[i] <= eps) for i in range(n)]
    core = [len(nb) >= min_pts for nb in neighbors]
    labels = np.full(n, -1, dtype=int)
    cid = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cid
        queue = [i]
        while queue:
            j = queue.pop(0)
            for k in neighbors[j]:
                if labels[k] == -1:
                    labels[k] = cid
                    if core[k]:
                        queue.append(k)
        cid += 1
    return labels


def _signature(labels):
    clusters = {}
    noise = set()
    for i, lbl in enumerate(labels):
        if lbl < 0:
            noise.add(i)
        else:
            clusters.setdefault(lbl, set()).add(i)
    return {frozenset(v) for v in clusters.values()}, noise


def test_criterion_3_dbscan_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    for trial in range(100):
        n = int(rng.integers(2, 301))
        scale = float(rng.uniform(1.0, 5.0))
        points = rng.uniform(0.0, scale, (n, 3))
        eps = float(rng.uniform(0.05, 1.0))
        min_pts = int(rng.integers(1, 9))
        clusters, noise = dbscan(points, ClusterParams(eps=eps, min_pts=min_pts))
        ours = np.full(n, -1, dtype=int)
        for cid, cluster in enumerate(clusters):
            ours[cluster] = cid
        assert sorted(noise) == sorted(np.flatnonzero(ours == -1).tolist())
        reference = _dbscan_reference(points, eps, min_pts)
        assert _signature(ours) == _signature(reference), (
            f"trial {trial}: n={n} eps={eps:.3f} min_pts={min_pts}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s"
    report(3, f"100 random point sets identical to O(n^2) reference, {elapsed:.1f}s")


def test_criterion_4_lm_gradient_check():
    scene = gen_calibration_scene(SceneConfig(seed=4, pose_count=12))
    cam = [
        (p.pose_id, p.t_camera_s, checkerboard_center(p.corner_set))
        for p in scene.poses
    ]
    rad = [
        (p.pose_id, p.t_radar_s, extract_reflector(p.radar_frame))
        for p in scene.poses
    ]
    corrs = build_correspondences(cam, rad)
    observed, points = corrs.image_center, corrs.radar_center
    k = scene.config.intrinsics
    gt = scene.config.extrinsics
    base = np.concatenate([matrix_to_rotvec(gt.rotation), gt.translation])
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        pose = base + np.concatenate(
            [rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.5, 0.5, 3)]
        )
        analytic = _linearize(pose, k, observed, points)[1]
        numeric = central_difference_jacobian(pose, k, observed, points, step=1e-6)
        rel = float(np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric))
        worst = max(worst, rel)
        assert rel < 1e-4, f"relative Jacobian difference {rel:.2e}"
    report(
        4,
        f"closed form vs central differences at 50 random points, "
        f"worst relative difference {worst:.2e}",
    )


def test_criterion_5_clean_labeling_soundness():
    k, t = default_intrinsics(), default_extrinsics()
    scene = gen_label_scene(LabelSceneConfig(seed=5))
    labels = autolabel_frame(scene.points, list(scene.masks), k, t, stage="full")
    rep = label_report(labels, LabelColumns.from_labels(scene.gt_labels))
    assert rep.pa_percent == 100.0, f"PA {rep.pa_percent}"
    assert rep.miou_percent == 100.0, f"mIoU {rep.miou_percent}"
    report(5, f"PA {rep.pa_percent}, mIoU {rep.miou_percent} on the clean scene")


def test_criterion_6_ablation_direction():
    start = time.perf_counter()
    k, t = default_intrinsics(), default_extrinsics()
    pa = {"coarse": [], "otpf": [], "full": []}
    miou_v = {"coarse": [], "otpf": [], "full": []}
    for seed in range(20):
        scene = gen_label_scene(
            LabelSceneConfig(
                seed=2000 + seed,
                false_positive_rate=0.1,
                false_negative_rate=0.1,
            )
        )
        gt = list(scene.gt_labels)
        stage_labels = {}
        for stage in ("coarse", "otpf", "full"):
            records = autolabel_frame(
                scene.points, list(scene.masks), k, t, stage=stage
            )
            labels = [r.label for r in records]
            stage_labels[stage] = labels
            rep = label_report(LabelColumns.from_labels(labels), LabelColumns.from_labels(gt))
            pa[stage].append(rep.pa_percent)
            miou_v[stage].append(rep.miou_percent)

        # monotone-by-construction: the filter only removes, completion only adds
        for c, o in zip(stage_labels["coarse"], stage_labels["otpf"]):
            assert o == c or o is None
        for o, f in zip(stage_labels["otpf"], stage_labels["full"]):
            assert f == o or o is None

        # OTPF never decreases precision; ITPC never decreases recall
        def prec_rec(labels):
            labeled = sum(1 for x in labels if x is not None)
            correct = sum(
                1 for x, g in zip(labels, gt) if x is not None and x == g
            )
            gt_fg = sum(1 for g in gt if g is not None)
            precision = correct / labeled if labeled else 1.0
            recall = correct / gt_fg if gt_fg else 1.0
            return precision, recall

        p_coarse, r_coarse = prec_rec(stage_labels["coarse"])
        p_otpf, r_otpf = prec_rec(stage_labels["otpf"])
        p_full, r_full = prec_rec(stage_labels["full"])
        assert p_otpf >= p_coarse, f"seed {seed}: OTPF decreased precision"
        assert r_full >= r_otpf, f"seed {seed}: ITPC decreased recall"

    elapsed = time.perf_counter() - start
    mean = lambda xs: float(np.mean(xs))
    assert mean(pa["full"]) > mean(pa["coarse"]), "PA direction"
    assert mean(miou_v["full"]) > mean(miou_v["otpf"]), "mIoU direction"
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s"
    report(
        6,
        f"PA coarse {mean(pa['coarse']):.2f} -> full {mean(pa['full']):.2f}; "
        f"mIoU otpf {mean(miou_v['otpf']):.2f} -> full {mean(miou_v['full']):.2f}; "
        f"{elapsed:.1f}s",
    )


def test_criterion_7_metric_unit_truths():
    assert reprojection_errors(np.array([(3.0, 4.0)])) == (5.0, 5.0)
    mre, rmse = reprojection_errors(np.array([(0.0, 0.0), (6.0, 8.0)]))
    assert mre == 5.0
    assert np.isclose(rmse, np.sqrt(50.0))
    gt = [(1, 1)] * 4 + [None]
    pred = [(1, 1)] * 3 + [None, None]
    scores = label_report(LabelColumns.from_labels(pred), LabelColumns.from_labels(gt))
    assert scores.miou_percent == 75.0
    report(7, "MRE/RMSE unit cases and the 3-of-4 IoU case hold exactly")


def _hash_tree(directory):
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_criterion_8_cli_determinism(tmp_path):
    def run(args):
        code = cli.main([str(a) for a in args])
        assert code == 0, args
        return code

    hashes = {}
    for attempt in ("a", "b"):
        root = tmp_path / attempt
        cal_scene = root / "cal_scene"
        lab_scene = root / "lab_scene"
        run(["synth", "--kind", "calibration", "--poses", "10", "--seed", "8",
             "-o", cal_scene])
        run(["calibrate", "--corners", cal_scene, "--frames", cal_scene,
             "--intrinsics", cal_scene / "intrinsics.json",
             "-o", root / "calibration.json"])
        run(["synth", "--kind", "labeling", "--seed", "8", "--fp-rate", "0.1",
             "--fn-rate", "0.1", "-o", lab_scene])
        for stage in ("coarse", "otpf", "full"):
            run(["autolabel", "--frames", lab_scene, "--masks", lab_scene,
                 "--calibration", root / "calibration.json", "--stage", stage,
                 "-o", root / f"labels_{stage}"])
        run(["eval", "--pred", root / "labels_full", "--gt", lab_scene / "gt_labels",
             "-o", root / "report.json"])
        hashes[attempt] = _hash_tree(root)
    assert hashes["a"] == hashes["b"]
    report(8, f"{len(hashes['a'])} output files byte-identical across reruns")


def test_criterion_9_literal_gate_boundaries():
    # velocity filter strict at v = v_th
    frame = RadarFrame(0.0, [(10.0, 0.0, 0.0, 0.5, 20.0)])
    from radcal.reflector import EmptyAfterFilter

    with pytest.raises(EmptyAfterFilter):
        filter_returns(frame, FilterParams(v_th=0.5))
    just_below = RadarFrame(0.0, [(10.0, 0.0, 0.0, 0.5 - 1e-12, 20.0)])
    assert len(filter_returns(just_below, FilterParams(v_th=0.5))) == 1

    # depth gate strict at |dz| = tau_d
    from radcal.autolabel import ClusterStats, depth_valid, rcs_valid

    stats = ClusterStats(
        median_depth_m=10.0,
        mean_rcs_dbsm=20.0,
        std_rcs_dbsm=4.0,
        mean_velocity_mps=0.0,
        std_velocity_mps=0.0,
        centroid=np.zeros(3),
        count=5,
    )
    params = LabelParams(tau_d=1.5, kappa_rho=2.5)
    assert not depth_valid(11.5, stats, params)
    assert not depth_valid(8.5, stats, params)
    assert depth_valid(np.nextafter(11.5, 0.0), stats, params)

    # RCS gate non-strict at |drho| = kappa_rho * sigma_rho
    assert rcs_valid(30.0, stats, params)  # 10.0 == 2.5 * 4.0
    assert rcs_valid(10.0, stats, params)
    assert not rcs_valid(np.nextafter(30.0, 60.0), stats, params)
    report(9, "Eq-level boundary strictness verified on all three gates")


# perfbench's label-dense scene: 20 objects of 150-250 points among 2,000
# clutter points, with 10 % false positives and false negatives
DENSE_LABEL_SCENE = dict(
    object_count=20,
    points_per_object=(150, 250),
    range_m=(6.0, 60.0),
    clutter_count=2000,
    false_positive_rate=0.1,
    false_negative_rate=0.1,
)


@pytest.fixture(scope="module")
def dense_label_scenes():
    return [gen_label_scene(LabelSceneConfig(seed=600 + k, **DENSE_LABEL_SCENE)) for k in range(3)]


def _label_scores(scenes, extrinsics):
    """(PA, mIoU) of each scene's full-stage labels through ``extrinsics``."""
    scores = []
    for scene in scenes:
        labels = autolabel_frame(scene.points, scene.masks, scene.config.intrinsics, extrinsics)
        rep = label_report(labels, LabelColumns.from_labels(scene.gt_labels))
        scores.append((rep.pa_percent, rep.miou_percent))
    return scores


@pytest.mark.parametrize("pose_count", [6, 24, 96])
def test_composed_calibrate_then_autolabel(dense_label_scenes, pose_count):
    # the paper's two halves meet at one calibration: extrinsics solved from
    # noisy poses at the benchmark's sigmas must label the scenes as well as
    # the true ones (both scene kinds share synth's default extrinsics).  At
    # K = 6 a solve can be 0.6 deg off and lose a few points: a known limit,
    # reported and not gated
    truth = _label_scores(dense_label_scenes, default_extrinsics())
    losses = []
    for seed in range(5000, 5004):
        scene = gen_calibration_scene(
            SceneConfig(
                seed=seed,
                pose_count=pose_count,
                pixel_sigma_px=0.5,
                range_sigma_m=0.02,
                angle_sigma_rad=0.003,
            )
        )
        true_extrinsics = scene.config.extrinsics
        assert np.array_equal(true_extrinsics.rotation, default_extrinsics().rotation)
        assert np.array_equal(true_extrinsics.translation, default_extrinsics().translation)
        solved = _label_scores(dense_label_scenes, solve_scene(scene).extrinsics)
        losses += [(seed, t[0] - s[0], t[1] - s[1]) for t, s in zip(truth, solved) if s != t]
    if pose_count > 6:
        assert losses == []
    print(f"[composed K={pose_count}] (seed, PA loss, mIoU loss) per scene that lost: {losses}")
