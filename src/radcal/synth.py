"""Synthetic ground-truth scenes for calibration and labeling.

Everything downstream is verified against these scenes, so the generator
is built to make the clean-path guarantees hold *exactly*:

* Calibration scenes place the board center in both sensors' view, emit a
  radar blob whose apex return sits exactly at the board center with
  strictly maximal RCS, and synthesize the checkerboard corners as a
  symmetric grid in image space centered on the exact projection of that
  center.  With zero noise, extraction and the centroid reproduce the
  ground truth bit-for-bit (the paper-style assumption that the board
  centroid and reflector apex project to the same pixel holds with zero
  modeling error; ``center_offset_px`` can inject a violation on purpose).
* Labeling scenes give each object's points a constant Doppler velocity
  and RCS by default and keep their spatial spread well inside the depth
  gate, so no genuine point can be filtered; clutter is rejection-sampled
  away from masks and object neighborhoods, so nothing can be mislabeled
  or wrongly recovered.  Corruption is opt-in and constructed to be
  exactly filterable (wrong-depth points injected inside masks) or exactly
  recoverable (points displaced just outside their mask, within affinity
  reach of the cleaned cluster).

All sampling flows through one seeded generator: same config + seed means
identical scenes.
"""

from __future__ import annotations

import copy
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .autolabel import InstanceMask, PointCloud, _lookup_pixels, offsets_to_runs
from .checkerboard import CheckerboardSpec, CornerSet
from .geometry import (
    Z_EPS,
    CameraIntrinsics,
    Extrinsics,
    cart2sph,
    pinhole,
    rotvec_to_matrix,
    sph2cart,
)
from .reflector import RadarFrame

__all__ = [
    "SCENE_BUDGET",
    "FovInfeasible",
    "SceneConfig",
    "LabelSceneConfig",
    "CalibrationPose",
    "CalibrationScene",
    "LabelScene",
    "default_extrinsics",
    "default_intrinsics",
    "gen_calibration_scene",
    "gen_label_scene",
]


# The most radar returns, corners and points one scene may ask for, and
# ``radcal synth --frames`` its frames together.  Poses, movers and objects
# are drawn one at a time in Python loops, so a config past this (a typo in a
# count) is refused before the first draw, instead of running for hours.  The
# benchmark's largest scenes ask for about 8,500, and its largest frame set
# 60,000.
SCENE_BUDGET = 1_000_000


class FovInfeasible(RuntimeError):
    """No board placement satisfies both sensor fields of view."""


def _check_budget(count: int, what: str, fields: dict) -> None:
    """A ValueError naming the largest of ``fields`` when a scene asks for
    ``count`` rows of ``what``, past SCENE_BUDGET."""
    if count > SCENE_BUDGET:
        name = max(fields, key=fields.get)
        raise ValueError(
            f"the scene asks for {count} {what}, more than SCENE_BUDGET = {SCENE_BUDGET}; "
            f"lower {name} ({fields[name]})"
        )


def default_intrinsics() -> CameraIntrinsics:
    """1920x1080 pinhole with ~100 deg horizontal field of view."""
    return CameraIntrinsics(fx=800.0, fy=800.0, cx=960.0, cy=540.0, width=1920, height=1080)


def default_extrinsics() -> Extrinsics:
    """Radar (x-forward, y-left, z-up) to camera (x-right, y-down, z-forward),
    tilted 10 degrees about the camera y axis, with a small lever arm."""
    axes = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    tilt = rotvec_to_matrix(np.array([0.0, math.radians(10.0), 0.0]))
    return Extrinsics(tilt @ axes, np.array([0.1, 0.0, -0.05]))


def _check_seed(seed) -> None:
    # numpy's SeedSequence would reject a float or a string only once
    # generation starts, and take a bool as 0 or 1
    if type(seed) is not int or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class SceneConfig:
    """Calibration-scene knobs; all noise defaults to zero."""

    extrinsics: Extrinsics = field(default_factory=default_extrinsics)
    intrinsics: CameraIntrinsics = field(default_factory=default_intrinsics)
    pose_count: int = 24
    radar_fov_az_deg: float = 110.0
    radar_fov_el_deg: float = 45.0
    range_min_m: float = 5.0
    range_max_m: float = 12.0
    board_nx: int = 6
    board_ny: int = 8
    board_square_m: float = 0.035
    pixel_sigma_px: float = 0.0
    range_sigma_m: float = 0.0
    angle_sigma_rad: float = 0.0
    rcs_sigma_dbsm: float = 0.0
    clutter_per_frame: int = 40
    moving_clutter_per_frame: int = 5
    clutter_only_poses: tuple[int, ...] = ()
    center_offset_px: float = 0.0
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.pose_count < 1:
            raise ValueError("pose_count must be >= 1")
        low, high = self.range_min_m, self.range_max_m
        if not -math.inf < low <= high < math.inf:  # NaN fails too
            raise ValueError(f"need finite range_min_m <= range_max_m, got {low}, {high}")
        if min(self.board_nx, self.board_ny) < 2:
            raise ValueError(
                f"board_nx and board_ny must be >= 2, got {self.board_nx}x{self.board_ny}"
            )
        if not 0 < self.board_square_m < math.inf:
            raise ValueError("board_square_m must be positive and finite")
        # returns are drawn in (-fov/2, fov/2): azimuth must stay in (-pi, pi]
        # and elevation in [-pi/2, pi/2]
        for name, most in (("radar_fov_az_deg", 360.0), ("radar_fov_el_deg", 180.0)):
            if not 0 <= getattr(self, name) <= most:  # NaN fails too
                raise ValueError(f"{name} must be in [0, {most:g}], got {getattr(self, name)}")
        for name in ("clutter_per_frame", "moving_clutter_per_frame"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for name in ("pixel_sigma_px", "range_sigma_m", "angle_sigma_rad", "rcs_sigma_dbsm"):
            if not 0 <= getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and >= 0")
        # per pose: the reflector's apex and at most 8 scatter returns, the
        # clutter, the movers and the board's corners
        fields = {
            name: getattr(self, name)
            for name in ("pose_count", "clutter_per_frame", "moving_clutter_per_frame",
                         "board_nx", "board_ny")
        }
        per_pose = 9 + self.clutter_per_frame + self.moving_clutter_per_frame
        per_pose += (self.board_nx - 1) * (self.board_ny - 1)
        _check_budget(self.pose_count * per_pose, "radar returns and corners", fields)


@dataclass(frozen=True)
class CalibrationPose:
    """Generated measurements plus ground truth for one pose."""

    pose_id: int
    t_camera_s: float
    t_radar_s: float
    corner_set: CornerSet
    radar_frame: RadarFrame
    gt_center_radar: np.ndarray  # (3,)
    gt_center_pixel: np.ndarray  # (2,) exact projection, pre-noise
    has_reflector: bool


@dataclass(frozen=True)
class CalibrationScene:
    config: SceneConfig
    poses: tuple[CalibrationPose, ...]

    def ground_truth(self) -> dict:
        cfg = self.config
        return {
            "kind": "calibration",
            "seed": cfg.seed,
            **cfg.extrinsics.to_doc(),
            "intrinsics": asdict(cfg.intrinsics),
            "poses": [
                {
                    "pose_id": p.pose_id,
                    "center_radar_m": [float(x) for x in p.gt_center_radar],
                    "center_pixel": [float(x) for x in p.gt_center_pixel],
                    "has_reflector": p.has_reflector,
                }
                for p in self.poses
            ],
        }


def _grid_offsets(count: int) -> np.ndarray:
    """Symmetric 1D grid positions (..., -1, 0, 1, ...); sums to exactly zero."""
    return np.arange(count, dtype=float) - (count - 1) / 2.0


def _place_board(
    cfg: SceneConfig, rng: np.random.Generator, margin_px: float
) -> tuple[np.ndarray, np.ndarray]:
    """Sample one board center visible to both sensors; (radar point, pixel)."""
    az_half = math.radians(cfg.radar_fov_az_deg) / 2.0 * 0.9
    el_half = math.radians(cfg.radar_fov_el_deg) / 2.0 * 0.9
    k = cfg.intrinsics
    for _ in range(1000):
        r = rng.uniform(cfg.range_min_m, cfg.range_max_m)
        az = rng.uniform(-az_half, az_half)
        el = rng.uniform(-el_half, el_half)
        center = sph2cart(r, az, el)
        cam = cfg.extrinsics.transform(center)
        if cam[2] <= 0.5:
            continue
        u, v = pixel = pinhole(k, cam)[0]
        if margin_px <= u <= k.width - margin_px and margin_px <= v <= k.height - margin_px:
            return center, pixel
    raise FovInfeasible(
        "no board placement satisfies both fields of view; check the "
        "extrinsics / FOV / range configuration"
    )


def _synth_corners(
    cfg: SceneConfig, rng: np.random.Generator, center_px: np.ndarray, range_m: float
) -> np.ndarray:
    """Corner grid in image space, exactly symmetric about the center pixel."""
    k = cfg.intrinsics
    pitch_u = k.fx * cfg.board_square_m / range_m
    pitch_v = k.fy * cfg.board_square_m / range_m
    angle = rng.uniform(-0.5, 0.5)
    scale_u = pitch_u * rng.uniform(0.9, 1.1)
    scale_v = pitch_v * rng.uniform(0.9, 1.1)
    gu = _grid_offsets(cfg.board_nx - 1) * scale_u
    gv = _grid_offsets(cfg.board_ny - 1) * scale_v
    uu, vv = np.meshgrid(gu, gv, indexing="xy")
    cos_a, sin_a = math.cos(angle), math.sin(angle)
    du = cos_a * uu - sin_a * vv
    dv = sin_a * uu + cos_a * vv
    corners = np.column_stack([du.ravel(), dv.ravel()])
    corners += center_px + np.array([cfg.center_offset_px, 0.0])
    if cfg.pixel_sigma_px > 0:
        corners = corners + rng.normal(0.0, cfg.pixel_sigma_px, corners.shape)
    return corners


def _reflector_blob(rng: np.random.Generator, center: np.ndarray) -> np.ndarray:
    """Apex return exactly at the center with strictly maximal RCS, plus
    4-8 scatter returns within a few centimeters; ``(N, 5)`` rows in
    RETURN_DTYPE order."""
    apex = [*cart2sph(center), *rng.uniform((-0.1, 37.0), (0.1, 40.0))]
    offsets = rng.normal(0.0, 0.03, (int(rng.integers(4, 9)), 3))
    scatter = np.column_stack(
        ([cart2sph(center + off) for off in offsets],
         rng.uniform((-0.1, 30.0), (0.1, 35.0), (len(offsets), 2)))
    )
    return np.vstack((apex, scatter))


def _clutter_returns(cfg: SceneConfig, rng: np.random.Generator) -> np.ndarray:
    """Low-RCS clutter everywhere plus a few fast movers that pass the RCS gate.

    A row's draws are in column order, so one ``uniform`` over ``(N, 5)``
    draws what N rows of scalar draws did.  Each mover stays one draw at a
    time: ``integers`` reads a buffered 32-bit half between its draws, and
    scalar draws are the cheaper ones for a single row."""
    az_half = math.radians(cfg.radar_fov_az_deg) / 2.0
    el_half = math.radians(cfg.radar_fov_el_deg) / 2.0
    rows = [rng.uniform((0.5, -az_half, -el_half, -3.0, -5.0), (20.0, az_half, el_half, 3.0, 9.5),
                        (cfg.clutter_per_frame, 5))]
    for _ in range(cfg.moving_clutter_per_frame):
        rows.append([(rng.uniform(3.5, 14.0), rng.uniform(-az_half, az_half),
                      rng.uniform(-el_half, el_half),
                      (-1.0, 1.0)[rng.integers(0, 2)] * rng.uniform(0.8, 5.0),
                      rng.uniform(10.5, 25.0))])
    return np.vstack(rows)


def _perturb_returns(cfg: SceneConfig, rng: np.random.Generator, rows: np.ndarray) -> np.ndarray:
    """Noisy range, azimuth, elevation and RCS, drawn row by row in that
    order; ``rows`` is changed in place."""
    sigmas = (cfg.range_sigma_m, cfg.angle_sigma_rad, cfg.angle_sigma_rad, cfg.rcs_sigma_dbsm)
    if not any(sigmas):
        return rows
    rows[:, [0, 1, 2, 4]] += rng.normal(0.0, sigmas, (len(rows), 4))
    r, az, el = rows[:, 0], rows[:, 1], rows[:, 2]
    np.maximum(r, 0.0, out=r)
    np.clip(el, -math.pi / 2, math.pi / 2, out=el)
    wrap = (az <= -math.pi) | (az > math.pi)  # an in-range azimuth keeps its bits
    az[wrap] = [math.remainder(a, math.tau) for a in az[wrap]]
    return rows


def gen_calibration_scene(cfg: SceneConfig | None = None) -> CalibrationScene:
    """Generate per-pose corner sets and radar frames with known extrinsics."""
    cfg = cfg or SceneConfig()
    rng = np.random.default_rng(cfg.seed)
    spec = CheckerboardSpec(cfg.board_nx, cfg.board_ny)
    poses = []
    for pose_id in range(cfg.pose_count):
        center, center_px = _place_board(cfg, rng, margin_px=150.0)
        corners = _synth_corners(cfg, rng, center_px, float(np.linalg.norm(center)))
        has_reflector = pose_id not in cfg.clutter_only_poses
        rows = _reflector_blob(rng, center) if has_reflector else np.empty((0, 5))
        rows = _perturb_returns(cfg, rng, np.vstack((rows, _clutter_returns(cfg, rng))))
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


# ---------------------------------------------------------------------------
# Labeling scenes


@dataclass(frozen=True)
class LabelSceneConfig:
    """Labeling-scene knobs and camera; corruption rates default to zero."""

    object_count: int = 5
    points_per_object: tuple[int, int] = (8, 16)
    extent_m: tuple[float, float] = (0.15, 0.3)
    range_m: tuple[float, float] = (6.0, 20.0)
    class_count: int = 3
    dynamic_fraction: float = 0.5
    velocity_jitter_mps: float = 0.0
    rcs_jitter_dbsm: float = 0.0
    clutter_count: int = 30
    false_positive_rate: float = 0.0
    false_negative_rate: float = 0.0
    mask_shape: str = "rect"  # "rect" or "hull"
    mask_margin_px: int = 4
    seed: int = 0
    intrinsics: CameraIntrinsics = field(default_factory=default_intrinsics)
    extrinsics: Extrinsics = field(default_factory=default_extrinsics)

    def __post_init__(self):
        for name in ("points_per_object", "extent_m", "range_m"):
            low, high = getattr(self, name)
            if not -math.inf < low <= high < math.inf:  # NaN fails too
                raise ValueError(f"{name} must hold finite low <= high, got [{low}, {high}]")
        if min(self.points_per_object[0], self.extent_m[0]) < 0:
            raise ValueError("points_per_object and extent_m must be >= 0")
        if self.class_count < 1:
            raise ValueError("class_count must be >= 1")
        if self.clutter_count < 0:
            raise ValueError("clutter_count must be >= 0")
        if not 0.0 <= self.false_positive_rate <= 1.0:
            raise ValueError("false_positive_rate must be in [0, 1]")
        if not 0.0 <= self.false_negative_rate <= 1.0:
            raise ValueError("false_negative_rate must be in [0, 1]")
        if self.mask_shape not in ("rect", "hull"):
            raise ValueError(f"unknown mask_shape {self.mask_shape!r}")
        if self.object_count < 1:
            raise ValueError("object_count must be >= 1")
        _check_seed(self.seed)
        fields = {
            "object_count": self.object_count,
            "points_per_object": self.points_per_object[1],
            "clutter_count": self.clutter_count,
        }
        _check_budget(self.most_points, "points", fields)

    @property
    def most_points(self) -> int:
        """The most points one scene asks for: per object its most points and
        as many false-positive bait points as the rate asks for; then the
        clutter."""
        most = self.points_per_object[1]
        per_object = most + round(self.false_positive_rate * most)
        return self.object_count * per_object + self.clutter_count


@dataclass(frozen=True)
class SceneObject:
    """Ground truth for one generated object, and what placing it fixed."""

    instance_id: int
    class_id: int
    confidence: float
    centroid: np.ndarray  # (3,) radar frame
    velocity_mps: float
    rcs_dbsm: float
    point_indices: tuple[int, ...]  # into the scene point list (incl. displaced)
    positions: np.ndarray  # (n, 3) radar frame, in point_indices order
    bbox: tuple[int, int, int, int]  # the mask's, as _mask_bbox gives it
    mask_offsets: np.ndarray  # ascending flat pixel offsets of the mask
    depth_m: float  # camera depth of the centroid


@dataclass(frozen=True)
class LabelScene:
    config: LabelSceneConfig
    points: PointCloud
    masks: tuple[InstanceMask, ...]
    gt_labels: tuple  # per point: (class_id, instance_id) or None
    objects: tuple[SceneObject, ...]
    timestamp_s: float = 0.0

    def ground_truth(self) -> dict:
        return {
            "kind": "labeling",
            "seed": self.config.seed,
            "objects": [
                {
                    "instance_id": o.instance_id,
                    "class_id": o.class_id,
                    "confidence": o.confidence,
                    "centroid_m": [float(x) for x in o.centroid],
                    "velocity_mps": o.velocity_mps,
                    "rcs_dbsm": o.rcs_dbsm,
                    "point_indices": list(o.point_indices),
                }
                for o in self.objects
            ],
            "labels": [
                None if lbl is None else {"class_id": lbl[0], "instance_id": lbl[1]}
                for lbl in self.gt_labels
            ],
        }


def _mask_bbox(ui: np.ndarray, vi: np.ndarray, margin: int, k: CameraIntrinsics):
    """Inclusive 1-based pixel bbox of lookup pixels, expanded by the margin."""
    u_lo = max(1, int(ui.min()) - margin)
    u_hi = min(k.width, int(ui.max()) + margin)
    v_lo = max(1, int(vi.min()) - margin)
    v_hi = min(k.height, int(vi.max()) + margin)
    return u_lo, u_hi, v_lo, v_hi


def _render_mask(
    shape: str,
    uv: np.ndarray,
    bbox: tuple[int, int, int, int],
    margin: int,
    k: CameraIntrinsics,
) -> np.ndarray:
    """Ascending row-major flat pixel offsets of the mask covering the object
    silhouette, rendered over its bbox window only."""
    u_lo, u_hi, v_lo, v_hi = bbox
    uu, vv = np.meshgrid(np.arange(u_lo, u_hi + 1), np.arange(v_lo, v_hi + 1), indexing="xy")
    inside = np.ones(uu.shape, dtype=bool)  # the rect: the whole window
    if shape == "hull" and len(uv) >= 3:
        from scipy.spatial import ConvexHull, QhullError

        try:
            equations = ConvexHull(uv).equations
        except QhullError:  # degenerate points keep the rect
            equations = ()
        # the hull of the projected points, dilated by the margin: a half-plane
        # test over the window; equations are a @ x + b <= 0 inside
        for a, b, c in equations:
            inside &= a * uu + b * vv + c <= margin
    return ((vv - 1) * k.width + uu - 1)[inside]


def _unproject(k: CameraIntrinsics, t_inv: Extrinsics, u, v, z: float) -> np.ndarray:
    """Radar-frame point seen at pixel (u, v) with camera depth z (``t_inv``
    maps camera to radar): the pinhole model inverted."""
    return t_inv.transform(np.array([(u - k.cx) / k.fx * z, (v - k.cy) / k.fy * z, z]))


def _bboxes_disjoint(a, b, gap: int) -> bool:
    au_lo, au_hi, av_lo, av_hi = a
    bu_lo, bu_hi, bv_lo, bv_hi = b
    return (
        au_hi + gap < bu_lo
        or bu_hi + gap < au_lo
        or av_hi + gap < bv_lo
        or bv_hi + gap < av_lo
    )


CLUTTER_TRIES = 500  # candidates per clutter point before it is given up


def _uniform(draws: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``rng.uniform(lo, hi)`` from ``rng.random()`` draws: numpy computes
    it as ``lo + (hi - lo) * random()``, bit for bit."""
    return lo + (hi - lo) * draws


def _clutter_positions(drawn: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Candidate clutter positions ``(N, 3)`` whose range, azimuth and
    elevation are the draws at stream offsets ``at``, ``at + 1``, ``at + 2``."""
    az_half = math.radians(40.0)
    el_half = math.radians(10.0)
    return sph2cart(
        _uniform(drawn[at], 4.0, 35.0),
        _uniform(drawn[at + 1], -az_half, az_half),
        _uniform(drawn[at + 2], -el_half, el_half),
    )


def _clutter_clear(
    pos: np.ndarray, centroids: np.ndarray, masked: np.ndarray, k: CameraIntrinsics, t: Extrinsics
) -> np.ndarray:
    """Whether each candidate ``(N, 3)`` may be clutter: 2.5 m or more from
    every object centroid and, if its lookup pixel is in the image, no
    masked offset in the 5 x 5 window around it (clipped to the image)."""
    clear = np.linalg.norm(centroids - pos[:, None], axis=2).min(axis=1) >= 2.5
    # P @ R.T can differ from one point's R @ p in the last bit.  A candidate
    # whose depth or lookup pixel is that close to a decision boundary is
    # transformed one point at a time, so every decision is the per-point one.
    cam = t.transform(pos)
    slack = 1e-13 * (np.abs(pos) @ np.abs(t.rotation).T + np.abs(t.translation))
    z, dz = cam[:, 2:], slack[:, 2:]
    unsure = np.abs(z - Z_EPS) <= dz
    front = z > Z_EPS + dz
    zs = np.where(front, z - dz, 1.0)
    uv = pinhole(k, cam)[0] + 0.5
    # |x'/z' - x/z| <= (|dx| + |x / z| dz) / (z - dz), plus the rounding of uv
    bound = np.array([k.fx, k.fy]) * (slack[:, :2] + np.abs(cam[:, :2]) / zs * dz) / zs
    near = np.abs(uv - np.round(uv)) <= bound + 1e-12 * (1.0 + np.abs(uv))
    unsure = (unsure | (front & near)).any(axis=1)
    if unsure.any():
        cam[unsure] = [t.transform(p) for p in pos[unsure]]

    uv, front = pinhole(k, cam)
    ui, vi = _lookup_pixels(uv)
    inside = front[:, 0] & (ui >= 1) & (ui <= k.width) & (vi >= 1) & (vi <= k.height)
    ui, vi = ui[inside, None], vi[inside, None]
    rows = vi - 3 + np.arange(5)
    c0, c1 = np.maximum(ui - 3, 0), np.minimum(ui + 2, k.width)
    starts = rows * k.width + c0
    hit = np.searchsorted(masked, starts) < np.searchsorted(masked, starts + c1 - c0)
    clear[inside] &= ~(hit & (rows >= 0) & (rows < k.height)).any(axis=1)
    return clear


def _clutter(
    rng: np.random.Generator,
    count: int,
    centroids: np.ndarray,
    masked: np.ndarray,
    k: CameraIntrinsics,
    t: Extrinsics,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Positions, velocities and RCS of up to ``count`` clutter points.

    Per point, candidates of three ``uniform`` draws (range, azimuth,
    elevation) until one is clear, then two more (velocity, RCS); a point
    is given up after ``CLUTTER_TRIES`` candidates.  A block of draws is
    taken at once and the candidate at every offset decided in one pass,
    then the walk steps through the stream as the per-candidate loop did:
    3 draws on a rejection, 5 on an acceptance.  ``rng`` ends where that
    loop left it, and every value has its bits.
    """
    ahead = copy.deepcopy(rng)  # draws past the end of the walk
    drawn = np.empty(0)
    clear: list[bool] = []  # per stream offset: is its candidate clear
    taken = []  # stream offsets of the accepted candidates
    at = point = tries = 0
    while point < count:
        if at + 5 > len(drawn):  # block size is bounded by the clutter count
            drawn = np.concatenate((drawn, ahead.random(5 * (count - point) + 192)))
            offsets = np.arange(len(clear), len(drawn) - 2)
            clear += _clutter_clear(
                _clutter_positions(drawn, offsets), centroids, masked, k, t
            ).tolist()
        if clear[at]:
            taken.append(at)
            at, point, tries = at + 5, point + 1, 0
        else:
            at, tries = at + 3, tries + 1
            if tries == CLUTTER_TRIES:
                point, tries = point + 1, 0
    rng.random(at)  # what the walk used; leaves the buffered 32-bit half as it was
    taken = np.array(taken, dtype=int)
    return (
        _clutter_positions(drawn, taken).reshape(-1, 3),
        _uniform(drawn[taken + 3], -10.0, 10.0),
        _uniform(drawn[taken + 4], -5.0, 30.0),
    )


def gen_label_scene(cfg: LabelSceneConfig | None = None) -> LabelScene:
    """Generate one labeling frame: points, instance masks, true labels."""
    cfg = cfg or LabelSceneConfig()
    k, t = cfg.intrinsics, cfg.extrinsics
    rng = np.random.default_rng(cfg.seed)
    t_inv = t.inverse()

    min_separation_m = 5.0  # > default r_search with margin
    bbox_gap_px = 24
    image_margin_px = 260.0

    objects: list[SceneObject] = []
    for obj_idx in range(cfg.object_count):
        for _ in range(2000):
            r = rng.uniform(*cfg.range_m)
            az = rng.uniform(-math.radians(25.0), math.radians(25.0))
            el = rng.uniform(-math.radians(8.0), math.radians(8.0))
            centroid = sph2cart(r, az, el)
            if any(np.linalg.norm(centroid - o.centroid) < min_separation_m for o in objects):
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
            bbox = _mask_bbox(ui[:n_kept], vi[:n_kept], cfg.mask_margin_px, k)
            if any(not _bboxes_disjoint(bbox, o.bbox, bbox_gap_px) for o in objects):
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
                p_radar = _unproject(k, t_inv, exit_u, target_v, z_obj)
                if np.linalg.norm(p_radar - kept_mean) > 0.78:
                    displaced_ok = False
                    break
                positions[j] = p_radar
            if not displaced_ok:
                continue

            mask_offsets = _render_mask(cfg.mask_shape, uv[:n_kept], bbox, cfg.mask_margin_px, k)

            is_dynamic = rng.uniform() < cfg.dynamic_fraction
            if is_dynamic:
                v_obj = float((-1.0, 1.0)[rng.integers(0, 2)] * rng.uniform(1.0, 8.0))
            else:
                v_obj = float(rng.uniform(-0.25, 0.25))
            rcs_obj = float(rng.uniform(0.0, 25.0))
            start = sum(len(o.positions) for o in objects)
            objects.append(
                SceneObject(
                    instance_id=obj_idx + 1,
                    class_id=int(rng.integers(1, cfg.class_count + 1)),
                    confidence=float(rng.uniform(0.7, 0.99)),
                    centroid=centroid,
                    velocity_mps=v_obj,
                    rcs_dbsm=rcs_obj,
                    point_indices=tuple(range(start, start + n_pts)),
                    positions=positions,
                    bbox=bbox,
                    mask_offsets=mask_offsets,
                    depth_m=z_obj,
                )
            )
            break
        else:
            raise FovInfeasible(
                f"could not fit object {obj_idx + 1} of {cfg.object_count} into "
                "the camera view after 2000 attempts; use fewer objects"
            )

    # per object point: the object's velocity and RCS, plus one normal draw
    # per jitter that is on, velocity's before RCS's
    values = np.repeat(
        [(o.velocity_mps, o.rcs_dbsm) for o in objects], [len(o.positions) for o in objects], axis=0
    )
    jitters = np.array([cfg.velocity_jitter_mps, cfg.rcs_jitter_dbsm])
    on = jitters > 0
    values[:, on] += rng.normal(0.0, jitters[on], (len(values), np.count_nonzero(on)))
    xyz, values = [o.positions for o in objects], [values]  # then a row per bait point
    gt_labels = [(o.class_id, o.instance_id) for o in objects for _ in o.point_indices]

    # false-positive bait: inside the mask in the image, far off in depth,
    # so the depth gate is guaranteed to remove what coarse association added
    centroids = np.array([o.centroid for o in objects])
    for o in objects:
        for _ in range(int(round(cfg.false_positive_rate * len(o.positions)))):
            for _ in range(200):
                pick = int(rng.integers(0, len(o.mask_offsets)))
                row, col = divmod(o.mask_offsets[pick], k.width)
                delta = float(rng.uniform(4.0, 8.0))
                sign = 1.0 if (o.depth_m - delta < 2.0 or rng.uniform() < 0.5) else -1.0
                p_radar = _unproject(k, t_inv, col + 1, row + 1, o.depth_m + sign * delta)
                if np.min(np.linalg.norm(centroids - p_radar, axis=1)) > 2.5:
                    xyz.append(p_radar)
                    values.append((rng.uniform(-10.0, 10.0), rng.uniform(-5.0, 30.0)))
                    gt_labels.append(None)
                    break
    velocity, rcs = np.vstack(values).T

    # background clutter: never inside a mask, never near an object
    masked = np.sort(np.concatenate([o.mask_offsets for o in objects]))
    clutter_xyz, clutter_velocity, clutter_rcs = _clutter(
        rng, cfg.clutter_count, centroids, masked, k, t
    )
    gt_labels += [None] * len(clutter_velocity)

    masks = tuple(
        InstanceMask(
            *offsets_to_runs(o.mask_offsets), k.height, k.width,
            o.class_id, o.instance_id, o.confidence,
        )
        for o in objects
    )
    return LabelScene(
        config=cfg,
        points=PointCloud(
            np.vstack((*xyz, clutter_xyz)),
            np.concatenate((velocity, clutter_velocity)),
            np.concatenate((rcs, clutter_rcs)),
        ),
        masks=masks,
        gt_labels=tuple(gt_labels),
        objects=tuple(objects),
    )
