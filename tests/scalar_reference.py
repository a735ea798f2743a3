"""The scalar labeling path, kept as the differential oracle.

The per-point implementation of the labeling stages that the columnar one
in ``radcal.autolabel`` replaced, copied unchanged: one frozen
``RadarPoint`` per point, Python loops over points and masks, and one
scalar affinity per point and cluster.  ``test_autolabel_differential.py``
requires both paths to produce identical records.  ``radar_points``
converts a ``PointCloud`` to the point list this path takes, and
``segments`` a ``{instance id: members}`` dict to the member arrays the
columnar ``complete_clusters`` takes.

``rle_decode`` is the dense, per-run mask decoder that ``radcal.fileio``
used before masks were held as runs; ``test_masks.py`` requires the run
reader to accept and reject what it does, with the same messages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from radcal.autolabel import (
    ClusterStats,
    DimensionMismatch,
    InstanceMask,
    LabelParams,
    LabelRecord,
    PointCloud,
    Provenance,
)
from radcal.fileio import SchemaError
from radcal.geometry import CameraIntrinsics, Extrinsics, pinhole

# Floor for the RCS affinity scale; the velocity floor reuses sigma_v_min.
# The gate itself (rcs_valid) stays literal with no floor.
RCS_AFFINITY_SIGMA_FLOOR = 1.0


@dataclass(frozen=True)
class RadarPoint:
    """One 4D radar point: Cartesian position plus Doppler velocity and RCS."""

    position: np.ndarray  # (3,) meters, radar frame
    velocity_mps: float
    rcs_dbsm: float

    def __post_init__(self):
        position = np.asarray(self.position, dtype=float).reshape(3)
        if not (
            np.all(np.isfinite(position))
            and math.isfinite(self.velocity_mps)
            and math.isfinite(self.rcs_dbsm)
        ):
            raise ValueError("radar point fields must be finite")
        object.__setattr__(self, "position", position)


def radar_points(cloud: PointCloud) -> list[RadarPoint]:
    return [
        RadarPoint(p, v, rho)
        for p, v, rho in zip(cloud.xyz, cloud.velocity.tolist(), cloud.rcs.tolist())
    ]


def segments(refined: dict[int, list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """``refined`` as ``radcal.autolabel.complete_clusters`` takes it: the
    clusters' members grouped by ascending instance id, and each member's id."""
    order = sorted(refined)
    members = [i for iid in order for i in refined[iid]]
    ids = [iid for iid in order for _ in refined[iid]]
    return np.array(members, dtype=np.intp), np.array(ids, dtype=np.int64)


@dataclass
class CoarseResult:
    """Output of the projection stage, kept around for the fine stage."""

    labels: list  # per point: (class_id, instance_id) or None
    clusters: dict  # instance_id -> list of point indices
    cluster_labels: dict  # instance_id -> (class_id, instance_id)
    unassociated: list  # point indices with no label
    depths: np.ndarray  # (N,) camera-frame z (NaN-free; invalid rows unused)
    in_image: np.ndarray  # (N,) bool


def _lookup_pixels(uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous (u, v) to 1-based lookup pixels, rounding half up."""
    ui = np.floor(uv[:, 0] + 0.5).astype(int)
    vi = np.floor(uv[:, 1] + 0.5).astype(int)
    return ui, vi


def coarse_associate(
    points: list[RadarPoint],
    masks: list[InstanceMask],
    k: CameraIntrinsics,
    t: Extrinsics,
) -> CoarseResult:
    """Project points into the image and label them by mask membership.

    A projection is valid when 1 <= u <= W, 1 <= v <= H and the point lies
    in front of the camera; the mask is sampled at the nearest pixel.  With
    several masks covering that pixel the highest confidence wins (ties:
    lower instance id).  Everything else joins the unassociated set.
    """
    dense = [m.mask for m in masks]  # decoded once: the oracle indexes dense masks
    for m, mask in zip(masks, dense):
        if mask.shape != (k.height, k.width):
            raise DimensionMismatch(
                f"mask {m.instance_id} has shape {mask.shape}, "
                f"expected {(k.height, k.width)}"
            )
    n = len(points)
    labels: list = [None] * n
    clusters: dict[int, list[int]] = {}
    cluster_labels: dict[int, tuple[int, int]] = {}
    unassociated: list[int] = []
    if n == 0:
        return CoarseResult(labels, clusters, cluster_labels, unassociated,
                            np.empty(0), np.empty(0, dtype=bool))

    positions = np.array([p.position for p in points])
    cam = t.transform(positions)
    uv, front = pinhole(k, cam)
    in_image = (
        front[:, 0]
        & (uv[:, 0] >= 1.0)
        & (uv[:, 0] <= k.width)
        & (uv[:, 1] >= 1.0)
        & (uv[:, 1] <= k.height)
    )
    ui, vi = _lookup_pixels(np.where(in_image[:, None], uv, 1.0))

    # Highest confidence first so the first covering mask wins; instance id
    # ascending breaks exact confidence ties deterministically.
    order = sorted(range(len(masks)), key=lambda j: (-masks[j].confidence, masks[j].instance_id))
    for i in range(n):
        if not in_image[i]:
            unassociated.append(i)
            continue
        row, col = vi[i] - 1, ui[i] - 1
        chosen = None
        for j in order:
            if dense[j][row, col]:
                chosen = masks[j]
                break
        if chosen is None:
            unassociated.append(i)
            continue
        label = (chosen.class_id, chosen.instance_id)
        labels[i] = label
        clusters.setdefault(chosen.instance_id, []).append(i)
        cluster_labels[chosen.instance_id] = label
    return CoarseResult(labels, clusters, cluster_labels, unassociated, cam[:, 2], in_image)


def cluster_stats(
    member_indices: list[int],
    points: list[RadarPoint],
    depths: np.ndarray,
) -> ClusterStats:
    """Depth median, RCS and velocity mean/std, and the 3D centroid."""
    idx = list(member_indices)
    if not idx:
        raise ValueError("cluster must be non-empty")
    rcs = np.array([points[i].rcs_dbsm for i in idx])
    vel = np.array([points[i].velocity_mps for i in idx])
    pos = np.array([points[i].position for i in idx])
    return ClusterStats(
        median_depth_m=float(np.median(depths[idx])),
        mean_rcs_dbsm=float(rcs.mean()),
        std_rcs_dbsm=float(rcs.std()),
        mean_velocity_mps=float(vel.mean()),
        std_velocity_mps=float(vel.std()),
        centroid=pos.mean(axis=0),
        count=len(idx),
    )


def depth_valid(depth_m: float, stats: ClusterStats, params: LabelParams) -> bool:
    """Camera-frame depth within tau_d of the cluster median (strict)."""
    return abs(depth_m - stats.median_depth_m) < params.tau_d


def rcs_valid(rcs_dbsm: float, stats: ClusterStats, params: LabelParams) -> bool:
    """RCS within kappa_rho cluster standard deviations of the mean (non-strict).

    No variance floor: a zero-spread cluster accepts only its exact value.
    """
    return abs(rcs_dbsm - stats.mean_rcs_dbsm) <= params.kappa_rho * stats.std_rcs_dbsm


def vel_valid(velocity_mps: float, stats: ClusterStats, params: LabelParams) -> bool:
    """Velocity gate: static clusters accept everything, dynamic ones gate
    on kappa_v floored standard deviations around the mean."""
    if abs(stats.mean_velocity_mps) <= params.v_static:
        return True
    sigma = max(stats.std_velocity_mps, params.sigma_v_min)
    return abs(velocity_mps - stats.mean_velocity_mps) <= params.kappa_v * sigma


def filter_cluster(
    member_indices: list[int],
    stats: ClusterStats,
    points: list[RadarPoint],
    depths: np.ndarray,
    params: LabelParams,
) -> tuple[list[int], list[int]]:
    """Keep members passing all three gates; return (kept, removed).

    Statistics must have been computed on the unfiltered cluster.
    """
    kept, removed = [], []
    for i in member_indices:
        p = points[i]
        if (
            depth_valid(float(depths[i]), stats, params)
            and rcs_valid(p.rcs_dbsm, stats, params)
            and vel_valid(p.velocity_mps, stats, params)
        ):
            kept.append(i)
        else:
            removed.append(i)
    return kept, removed


def _affinity(
    point: RadarPoint, stats: ClusterStats, params: LabelParams
) -> float:
    """Unit-peak Gaussian product over position, velocity, and RCS distance.

    The velocity and RCS scales are floored so zero-spread clusters keep a
    usable Gaussian instead of dividing by zero.
    """
    d_pos = float(np.linalg.norm(point.position - stats.centroid))
    d_v = abs(point.velocity_mps - stats.mean_velocity_mps)
    d_rho = abs(point.rcs_dbsm - stats.mean_rcs_dbsm)
    sigma_v = max(stats.std_velocity_mps, params.sigma_v_min)
    sigma_rho = max(stats.std_rcs_dbsm, RCS_AFFINITY_SIGMA_FLOOR)
    return math.exp(
        -(d_pos**2) / (2.0 * params.sigma_pos**2)
        - (d_v**2) / (2.0 * sigma_v**2)
        - (d_rho**2) / (2.0 * sigma_rho**2)
    )


def complete_clusters(
    refined: dict[int, list[int]],
    unassociated: list[int],
    points: list[RadarPoint],
    depths: np.ndarray,
    params: LabelParams,
    excluded: dict[int, int] | None = None,
) -> dict[int, int]:
    """Assign unassociated points to clusters by maximum Gaussian affinity.

    A point is a candidate for a cluster when it lies within r_search of the
    cluster centroid; it joins the highest-affinity cluster among those with
    affinity >= tau_a, at most once.  ``excluded`` maps point index to the
    instance id whose filter removed it; such a point may only be recovered
    by other clusters.  Returns {point index: instance id}.
    """
    excluded = excluded or {}
    stats = {
        iid: cluster_stats(members, points, depths)
        for iid, members in refined.items()
        if members
    }
    cluster_order = sorted(stats.keys())
    assignments: dict[int, int] = {}
    for i in sorted(unassociated):
        best_iid = None
        best_affinity = 0.0
        for iid in cluster_order:
            if excluded.get(i) == iid:
                continue
            st = stats[iid]
            if np.linalg.norm(points[i].position - st.centroid) > params.r_search:
                continue
            a = _affinity(points[i], st, params)
            if a >= params.tau_a and a > best_affinity:
                best_iid = iid
                best_affinity = a
        if best_iid is not None:
            assignments[i] = best_iid
    return assignments


def autolabel_frame(
    points: list[RadarPoint],
    masks: list[InstanceMask],
    k: CameraIntrinsics,
    t: Extrinsics,
    params: LabelParams | None = None,
    stage: str = "full",
) -> list[LabelRecord]:
    """Label every point of one frame; ``stage`` selects pipeline depth.

    ``"coarse"`` stops after projection association, ``"otpf"`` adds the
    outlier filter, ``"full"`` adds affinity completion.  Each point gets
    exactly one record, in input order.
    """
    if stage not in ("coarse", "otpf", "full"):
        raise ValueError(f"unknown stage {stage!r}")
    params = params or LabelParams()
    coarse = coarse_associate(points, masks, k, t)

    labels = list(coarse.labels)
    provenance = [
        Provenance.COARSE if lbl is not None else Provenance.UNLABELED
        for lbl in labels
    ]
    if stage == "coarse":
        return [
            LabelRecord(i, labels[i], provenance[i]) for i in range(len(points))
        ]

    # Out-of-target point filtering; clusters below n_min pass through and
    # sit out the completion stage as well.
    refined: dict[int, list[int]] = {}
    eligible: set[int] = set()
    unassociated = list(coarse.unassociated)
    removed_from: dict[int, int] = {}
    for iid in sorted(coarse.clusters.keys()):
        members = coarse.clusters[iid]
        if len(members) < params.n_min:
            refined[iid] = list(members)
            continue
        eligible.add(iid)
        stats = cluster_stats(members, points, coarse.depths)
        kept, removed = filter_cluster(members, stats, points, coarse.depths, params)
        refined[iid] = kept
        for i in removed:
            labels[i] = None
            provenance[i] = Provenance.FILTERED_OUT
            removed_from[i] = iid
            unassociated.append(i)

    if stage == "full":
        candidates = {iid: refined[iid] for iid in eligible if refined[iid]}
        recovered = complete_clusters(
            candidates, unassociated, points, coarse.depths, params,
            excluded=removed_from,
        )
        for i, iid in recovered.items():
            labels[i] = coarse.cluster_labels[iid]
            provenance[i] = Provenance.RECOVERED

    return [LabelRecord(i, labels[i], provenance[i]) for i in range(len(points))]


def rle_decode(runs: list[int], height: int, width: int) -> np.ndarray:
    """Dense mask of a [start, length, ...] list of JSON integers; validates
    the entries, ordering and bounds."""
    if type(runs) is not list:
        raise TypeError(f"RLE must be a JSON array, got {type(runs).__name__}")
    for value in runs:
        if type(value) is not int:
            raise TypeError(f"RLE entries must be JSON integers, got {value!r}")
    if len(runs) % 2 != 0:
        raise SchemaError("RLE list must hold (start, length) pairs")
    flat = np.zeros(height * width, dtype=bool)
    prev_end = 0
    for i in range(0, len(runs), 2):
        start, length = runs[i], runs[i + 1]
        if length < 1:
            raise SchemaError(f"RLE run length must be >= 1, got {length}")
        if start < prev_end:
            raise SchemaError("RLE runs must be sorted and non-overlapping")
        if start + length > height * width:
            raise SchemaError("RLE run exceeds the mask size")
        flat[start : start + length] = True
        prev_end = start + length
    return flat.reshape(height, width)
