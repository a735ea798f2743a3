"""The synthetic scene generators' loops as they were before the scenes were
built as arrays, kept as the differential oracle.

``clutter`` is the per-candidate loop ``radcal.synth.gen_label_scene`` ran
for its background clutter, moved here unchanged but for its inputs and its
return: each candidate draws range, azimuth and elevation with
``rng.uniform``, is transformed and projected one point at a time, and is
tested against the centroids and the mask windows on its own.
``calibration_scene`` and ``label_scene`` are ``gen_calibration_scene`` and
``gen_label_scene`` with their per-value loops: radar returns drawn one
``float(rng.uniform(...))`` at a time into tuples, each labeling object a
dict first, and each object point appended with its own jitter draws and
its own true label, turned into columns only at the end.
``test_synth_differential.py`` requires ``radcal.synth`` to give the same
bits and to leave the generator in the same state.
"""

from __future__ import annotations

import math

import numpy as np

from radcal import synth
from radcal.autolabel import InstanceMask, PointCloud, _lookup_pixels, offsets_to_runs
from radcal.checkerboard import CheckerboardSpec, CornerSet
from radcal.geometry import CameraIntrinsics, Extrinsics, cart2sph, pinhole, sph2cart
from radcal.reflector import RadarFrame
from radcal.synth import (
    CalibrationPose,
    CalibrationScene,
    LabelScene,
    LabelSceneConfig,
    SceneConfig,
    SceneObject,
)
from truth_columns import truth_columns


def clear(
    pos: np.ndarray, centroids: np.ndarray, masked: np.ndarray, k: CameraIntrinsics, t: Extrinsics
) -> bool:
    """Whether one candidate position ``(3,)`` may be clutter."""
    if np.min(np.linalg.norm(centroids - pos, axis=1)) < 2.5:
        return False
    uv, front = pinhole(k, t.transform(pos))
    if front[0]:
        # the lookup pixel coarse association will sample
        (ui,), (vi,) = _lookup_pixels(uv[None])
        if 1 <= ui <= k.width and 1 <= vi <= k.height:
            # stay clear of mask edges by a couple of pixels: no masked
            # offset in any row's [start, end) of the window
            r0, r1 = max(0, vi - 3), min(k.height, vi + 2)
            c0, c1 = max(0, ui - 3), min(k.width, ui + 2)
            starts = np.arange(r0, r1) * k.width + c0
            at = np.searchsorted(masked, np.concatenate((starts, starts + c1 - c0)))
            if (at[: r1 - r0] < at[r1 - r0 :]).any():
                return False
    return True


def clutter(
    rng: np.random.Generator,
    count: int,
    centroids: np.ndarray,
    masked: np.ndarray,
    k: CameraIntrinsics,
    t: Extrinsics,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions ``(n, 3)``, velocities and RCS of the clutter points."""
    xyz, velocities, rcs = [], [], []
    az_half = math.radians(40.0)
    el_half = math.radians(10.0)
    for _ in range(count):
        for _ in range(500):
            pos = sph2cart(
                float(rng.uniform(4.0, 35.0)),
                float(rng.uniform(-az_half, az_half)),
                float(rng.uniform(-el_half, el_half)),
            )
            if not clear(pos, centroids, masked, k, t):
                continue
            xyz.append(pos)
            velocities.append(float(rng.uniform(-10.0, 10.0)))
            rcs.append(float(rng.uniform(-5.0, 30.0)))
            break
    return np.array(xyz).reshape(-1, 3), np.array(velocities), np.array(rcs)


# A radar return as a row (r, az, el, v, rcs), the order of RETURN_DTYPE.
Row = tuple[float, float, float, float, float]


def reflector_blob(
    cfg: SceneConfig, rng: np.random.Generator, center: np.ndarray
) -> list[Row]:
    """Apex return exactly at the center with strictly maximal RCS, plus
    4-8 scatter returns within a few centimeters."""
    apex = cart2sph(center)
    rows = [(*apex, float(rng.uniform(-0.1, 0.1)), float(rng.uniform(37.0, 40.0)))]
    n_scatter = int(rng.integers(4, 9))
    for off in rng.normal(0.0, 0.03, (n_scatter, 3)):
        scatter = cart2sph(center + off)
        rows.append((*scatter, float(rng.uniform(-0.1, 0.1)), float(rng.uniform(30.0, 35.0))))
    return rows


def clutter_returns(cfg: SceneConfig, rng: np.random.Generator) -> list[Row]:
    """Low-RCS clutter everywhere plus a few fast movers that pass the RCS gate."""
    az_half = math.radians(cfg.radar_fov_az_deg) / 2.0
    el_half = math.radians(cfg.radar_fov_el_deg) / 2.0
    rows = []
    for _ in range(cfg.clutter_per_frame):
        rows.append(
            (
                float(rng.uniform(0.5, 20.0)),
                float(rng.uniform(-az_half, az_half)),
                float(rng.uniform(-el_half, el_half)),
                float(rng.uniform(-3.0, 3.0)),
                float(rng.uniform(-5.0, 9.5)),
            )
        )
    for _ in range(cfg.moving_clutter_per_frame):
        rows.append(
            (
                float(rng.uniform(3.5, 14.0)),
                float(rng.uniform(-az_half, az_half)),
                float(rng.uniform(-el_half, el_half)),
                float(rng.choice([-1.0, 1.0]) * rng.uniform(0.8, 5.0)),
                float(rng.uniform(10.5, 25.0)),
            )
        )
    return rows


def perturb_returns(
    cfg: SceneConfig, rng: np.random.Generator, rows: list[Row]
) -> list[Row]:
    if cfg.range_sigma_m == 0 and cfg.angle_sigma_rad == 0 and cfg.rcs_sigma_dbsm == 0:
        return rows
    out = []
    for r, az, el, v, rcs in rows:
        r = max(0.0, r + float(rng.normal(0.0, cfg.range_sigma_m)))
        az = az + float(rng.normal(0.0, cfg.angle_sigma_rad))
        if not -math.pi < az <= math.pi:  # wrapped; an in-range draw keeps its bits
            az = math.remainder(az, math.tau)
        el = el + float(rng.normal(0.0, cfg.angle_sigma_rad))
        el = min(math.pi / 2, max(-math.pi / 2, el))
        rcs = rcs + float(rng.normal(0.0, cfg.rcs_sigma_dbsm))
        out.append((r, az, el, v, rcs))
    return out


def calibration_scene(cfg: SceneConfig) -> CalibrationScene:
    """``gen_calibration_scene`` as it was."""
    rng = np.random.default_rng(cfg.seed)
    spec = CheckerboardSpec(cfg.board_nx, cfg.board_ny)
    poses = []
    for pose_id in range(cfg.pose_count):
        center, center_px = synth._place_board(cfg, rng, margin_px=150.0)
        corners = synth._synth_corners(cfg, rng, center_px, float(np.linalg.norm(center)))
        has_reflector = pose_id not in cfg.clutter_only_poses
        rows = reflector_blob(cfg, rng, center) if has_reflector else []
        rows = perturb_returns(cfg, rng, rows + clutter_returns(cfg, rng))
        t_cam = float(pose_id)
        t_radar = t_cam + float(rng.uniform(-0.01, 0.01))
        poses.append(
            CalibrationPose(
                pose_id=pose_id,
                t_camera_s=t_cam,
                t_radar_s=t_radar,
                corner_set=CornerSet(corners, spec),
                radar_frame=RadarFrame(timestamp_s=t_radar, returns=rows),
                gt_center_radar=center,
                gt_center_pixel=center_px,
                has_reflector=has_reflector,
            )
        )
    return CalibrationScene(config=cfg, poses=tuple(poses))


def label_scene(cfg: LabelSceneConfig) -> LabelScene:
    """``gen_label_scene`` as it was."""
    k, t = cfg.intrinsics, cfg.extrinsics
    rng = np.random.default_rng(cfg.seed)
    t_inv = t.inverse()

    min_separation_m = 5.0  # > default r_search with margin
    bbox_gap_px = 24
    image_margin_px = 260.0

    objects: list[dict] = []
    for obj_idx in range(cfg.object_count):
        placed = False
        for _ in range(2000):
            r = rng.uniform(*cfg.range_m)
            az = rng.uniform(-math.radians(25.0), math.radians(25.0))
            el = rng.uniform(-math.radians(8.0), math.radians(8.0))
            centroid = sph2cart(r, az, el)
            if any(
                np.linalg.norm(centroid - o["centroid"]) < min_separation_m
                for o in objects
            ):
                continue
            n_pts = int(rng.integers(cfg.points_per_object[0], cfg.points_per_object[1] + 1))
            extent = rng.uniform(*cfg.extent_m)
            offsets = rng.normal(0.0, extent / 2.0, (n_pts, 3))
            norms = np.linalg.norm(offsets, axis=1)
            over = norms > extent
            offsets[over] *= (extent / norms[over])[:, None]
            positions = centroid + offsets

            cam = t.transform(positions)
            if np.any(cam[:, 2] <= 0.5):
                continue
            uv = pinhole(k, cam)[0]
            if not (
                np.all(uv[:, 0] >= image_margin_px)
                and np.all(uv[:, 0] <= k.width - image_margin_px)
                and np.all(uv[:, 1] >= image_margin_px * 0.6)
                and np.all(uv[:, 1] <= k.height - image_margin_px * 0.6)
            ):
                continue
            ui, vi = _lookup_pixels(uv)
            k_fn = int(round(cfg.false_negative_rate * n_pts))
            n_kept = n_pts - k_fn
            if n_kept < 3:
                continue
            bbox = synth._mask_bbox(ui[:n_kept], vi[:n_kept], cfg.mask_margin_px, k)
            if any(not synth._bboxes_disjoint(bbox, o["bbox"], bbox_gap_px) for o in objects):
                continue

            # displace the last k_fn points just outside the mask.  The
            # refined cluster after filtering is exactly the kept points, so
            # bounding the distance to their mean (with velocity and RCS
            # matched exactly) guarantees affinity above the default
            # threshold: exp(-0.78^2 / (2 * 0.8^2)) ~ 0.62 >= 0.6.
            displaced_ok = True
            kept_mean = positions[:n_kept].mean(axis=0)
            centroid_cam = t.transform(centroid)
            z_obj = float(centroid_cam[2])
            for j in range(n_kept, n_pts):
                side = 1 if rng.uniform() < 0.5 else -1
                exit_u = bbox[1] + 3 if side > 0 else bbox[0] - 3
                target_v = 0.5 * (bbox[2] + bbox[3])
                p_radar = synth._unproject(k, t_inv, exit_u, target_v, z_obj)
                if np.linalg.norm(p_radar - kept_mean) > 0.78:
                    displaced_ok = False
                    break
                positions[j] = p_radar
            if not displaced_ok:
                continue

            offsets = synth._render_mask(cfg.mask_shape, uv[:n_kept], bbox, cfg.mask_margin_px, k)

            is_dynamic = rng.uniform() < cfg.dynamic_fraction
            if is_dynamic:
                v_obj = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 8.0))
            else:
                v_obj = float(rng.uniform(-0.25, 0.25))
            rcs_obj = float(rng.uniform(0.0, 25.0))
            objects.append(
                {
                    "instance_id": obj_idx + 1,
                    "class_id": int(rng.integers(1, cfg.class_count + 1)),
                    "confidence": float(rng.uniform(0.7, 0.99)),
                    "centroid": centroid,
                    "positions": positions,
                    "n_kept": n_kept,
                    "bbox": bbox,
                    "offsets": offsets,
                    "velocity": v_obj,
                    "rcs": rcs_obj,
                    "z_obj": z_obj,
                }
            )
            placed = True
            break
        if not placed:
            raise synth.FovInfeasible(
                f"could not fit object {obj_idx + 1} of {cfg.object_count} into "
                "the camera view after 2000 attempts; use fewer objects"
            )

    # per point: position, velocity, RCS
    xyz: list[np.ndarray] = []
    velocities: list[float] = []
    rcs: list[float] = []
    gt_labels: list = []
    scene_objects: list[SceneObject] = []
    for o in objects:
        for j in range(len(o["positions"])):
            v = o["velocity"] + (
                float(rng.normal(0.0, cfg.velocity_jitter_mps))
                if cfg.velocity_jitter_mps > 0
                else 0.0
            )
            rho = o["rcs"] + (
                float(rng.normal(0.0, cfg.rcs_jitter_dbsm))
                if cfg.rcs_jitter_dbsm > 0
                else 0.0
            )
            xyz.append(o["positions"][j])
            velocities.append(v)
            rcs.append(rho)
            gt_labels.append((o["class_id"], o["instance_id"]))
        scene_objects.append(
            SceneObject(
                instance_id=o["instance_id"],
                class_id=o["class_id"],
                confidence=o["confidence"],
                centroid=o["centroid"],
                velocity_mps=o["velocity"],
                rcs_dbsm=o["rcs"],
                positions=o["positions"],
                bbox=o["bbox"],
                mask_offsets=o["offsets"],
                depth_m=o["z_obj"],
            )
        )

    # false-positive bait: inside the mask in the image, far off in depth,
    # so the depth gate is guaranteed to remove what coarse association added
    centroids = np.array([o["centroid"] for o in objects])
    for o in objects:
        k_fp = int(round(cfg.false_positive_rate * len(o["positions"])))
        for _ in range(k_fp):
            for _ in range(200):
                pick = int(rng.integers(0, len(o["offsets"])))
                row, col = divmod(o["offsets"][pick], k.width)
                delta = float(rng.uniform(4.0, 8.0))
                sign = 1.0 if (o["z_obj"] - delta < 2.0 or rng.uniform() < 0.5) else -1.0
                z_bait = o["z_obj"] + sign * delta
                p_radar = synth._unproject(k, t_inv, col + 1, row + 1, z_bait)
                if np.min(np.linalg.norm(centroids - p_radar, axis=1)) > 2.5:
                    xyz.append(p_radar)
                    velocities.append(float(rng.uniform(-10.0, 10.0)))
                    rcs.append(float(rng.uniform(-5.0, 30.0)))
                    gt_labels.append(None)
                    break

    # background clutter: never inside a mask, never near an object
    masked = np.sort(np.concatenate([o["offsets"] for o in objects]))
    clutter_xyz, clutter_velocity, clutter_rcs = synth._clutter(
        rng, cfg.clutter_count, centroids, masked, k, t
    )
    gt_labels += [None] * len(clutter_velocity)

    masks = tuple(
        InstanceMask(
            *offsets_to_runs(o["offsets"]), k.height, k.width,
            o["class_id"], o["instance_id"], o["confidence"],
        )
        for o in objects
    )
    return LabelScene(
        config=cfg,
        points=PointCloud(
            np.concatenate((np.array(xyz).reshape(-1, 3), clutter_xyz)),
            np.concatenate((velocities, clutter_velocity)),
            np.concatenate((rcs, clutter_rcs)),
        ),
        masks=masks,
        gt_labels=truth_columns(gt_labels),
        objects=tuple(scene_objects),
    )
