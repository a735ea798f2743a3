"""Point-level auto-labeling of radar frames from 2D instance masks.

Coarse stage: project every radar point through the calibrated transform
and hand it the label of the highest-confidence mask covering its pixel.
Fine stage: per instance cluster, filter members that disagree with the
cluster's depth/RCS/velocity statistics (out-of-target point filtering),
then recover unassociated points with high Gaussian affinity to a cleaned
cluster (in-target point completion).

Filtering never adds points and completion never removes them, so the two
stages trade strictly along the precision/recall axes.  All tie-breaks are
fixed: equal mask confidence goes to the lower instance id, equal affinity
to the lower-id cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .geometry import CameraIntrinsics, Extrinsics, pinhole

__all__ = [
    "DimensionMismatch",
    "PointCloud",
    "InstanceMask",
    "dense_to_runs",
    "offsets_to_runs",
    "runs_to_dense",
    "Provenance",
    "LabelRecord",
    "LabelColumns",
    "ClusterStats",
    "LabelParams",
    "coarse_associate",
    "cluster_stats",
    "depth_valid",
    "rcs_valid",
    "vel_valid",
    "filter_cluster",
    "complete_clusters",
    "autolabel_frame",
]

# Floor for the RCS affinity scale; the velocity floor reuses sigma_v_min.
# The gate itself (rcs_valid) stays literal with no floor.
RCS_AFFINITY_SIGMA_FLOOR = 1.0


class DimensionMismatch(ValueError):
    """Mask dimensions disagree with the camera intrinsics."""


@dataclass(frozen=True, eq=False)
class PointCloud:
    """A radar frame as columns: positions (N, 3) in the radar frame,
    Doppler velocity (N,) and RCS (N,), all float64 and finite."""

    xyz: np.ndarray  # (N, 3) meters
    velocity: np.ndarray  # (N,) m/s
    rcs: np.ndarray  # (N,) dBsm

    def __post_init__(self):
        xyz = np.asarray(self.xyz, dtype=float)
        velocity = np.asarray(self.velocity, dtype=float)
        rcs = np.asarray(self.rcs, dtype=float)
        n = len(velocity)
        if xyz.shape != (n, 3) or velocity.shape != (n,) or rcs.shape != (n,):
            raise ValueError(
                f"point columns disagree: xyz {xyz.shape}, velocity "
                f"{velocity.shape}, rcs {rcs.shape}"
            )
        if not (np.isfinite(xyz).all() and np.isfinite(velocity).all() and np.isfinite(rcs).all()):
            raise ValueError("radar point fields must be finite")
        object.__setattr__(self, "xyz", xyz)
        object.__setattr__(self, "velocity", velocity)
        object.__setattr__(self, "rcs", rcs)

    def __len__(self) -> int:
        return len(self.velocity)


def offsets_to_runs(px: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-open int64 runs (starts, ends) of ascending flat pixel offsets."""
    return px[np.diff(px, prepend=-2) != 1], px[np.diff(px, append=-2) != 1] + 1


def dense_to_runs(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Half-open int64 runs (starts, ends) of a bool mask's set pixels, row-major."""
    return offsets_to_runs(np.flatnonzero(mask))


def runs_to_dense(starts: np.ndarray, ends: np.ndarray, height: int, width: int) -> np.ndarray:
    """The (height, width) bool mask set on the given runs."""
    flat = np.zeros(height * width, dtype=bool)
    for start, end in zip(starts.tolist(), ends.tolist()):
        flat[start:end] = True
    return flat.reshape(height, width)


@dataclass(frozen=True, eq=False)
class InstanceMask:
    """Binary instance mask with class, per-frame-unique id, and confidence.

    The mask is held as runs, the COCO run-length idea (Lin et al.,
    arXiv:1405.0312): int64 ``starts`` and ``ends`` are half-open, sorted,
    disjoint row-major flat offsets into a ``height`` x ``width`` image.
    """

    starts: np.ndarray
    ends: np.ndarray
    height: int
    width: int
    class_id: int
    instance_id: int
    confidence: float

    def __post_init__(self):
        if not 0.0 <= self.confidence <= 1.0:
            raise ValueError(f"confidence must be in [0, 1], got {self.confidence}")
        if self.instance_id <= 0:
            raise ValueError("instance_id must be positive")
        object.__setattr__(self, "starts", np.asarray(self.starts, dtype=np.int64))
        object.__setattr__(self, "ends", np.asarray(self.ends, dtype=np.int64))

    @classmethod
    def from_dense(cls, mask, class_id: int, instance_id: int, confidence: float):
        """Convert an (H, W) bool mask to runs, once."""
        mask = np.asarray(mask, dtype=bool)
        if mask.ndim != 2:
            raise ValueError(f"mask must be 2D, got shape {mask.shape}")
        return cls(*dense_to_runs(mask), *mask.shape, class_id, instance_id, confidence)

    @property
    def mask(self) -> np.ndarray:
        """The dense (H, W) bool mask, decoded on each access."""
        return runs_to_dense(self.starts, self.ends, self.height, self.width)

    def covers(self, flat: np.ndarray) -> np.ndarray:
        """Whether each row-major flat pixel offset lies in a run."""
        pos = np.searchsorted(self.starts, flat, side="right") - 1
        # pos -1 (before the first run) reads the appended 0: not covered
        return flat < np.concatenate((self.ends, [0]))[pos]


class Provenance(str, Enum):
    """How a point got (or lost) its final label."""

    COARSE = "coarse"
    FILTERED_OUT = "filtered_out"
    RECOVERED = "recovered"
    UNLABELED = "unlabeled"


# autolabel_frame tracks provenance as integer codes into this list
_PROVENANCE = list(Provenance)
_CODE = {p: i for i, p in enumerate(_PROVENANCE)}


@dataclass(frozen=True)
class LabelRecord:
    """One point's label (or None) plus provenance: the per-point view that
    iterating ``LabelColumns`` gives."""

    point_index: int
    label: tuple[int, int] | None  # (class_id, instance_id); None is background
    provenance: Provenance


@dataclass(frozen=True, eq=False)
class LabelColumns:
    """One frame's point labels as columns, in point-index order.

    ``class_id`` and ``instance_id`` are int64 (0 where unlabeled),
    ``labeled`` is bool, and ``provenance`` holds int8 codes into
    ``list(Provenance)``.
    """

    class_id: np.ndarray
    instance_id: np.ndarray
    labeled: np.ndarray
    provenance: np.ndarray

    def __len__(self) -> int:
        return len(self.labeled)

    def __iter__(self):
        """One LabelRecord per point, in point order, with plain Python ints."""
        columns = (self.labeled, self.class_id, self.instance_id, self.provenance)
        for i, (labeled, class_id, instance_id, code) in enumerate(
            zip(*(c.tolist() for c in columns))
        ):
            yield LabelRecord(i, (class_id, instance_id) if labeled else None, _PROVENANCE[code])


@dataclass(frozen=True)
class ClusterStats:
    """Summary statistics of one instance cluster, or of several as arrays
    with one entry per cluster.

    Standard deviations are population (divide by n), so a singleton
    cluster has exactly zero spread.
    """

    median_depth_m: float
    mean_rcs_dbsm: float
    std_rcs_dbsm: float
    mean_velocity_mps: float
    std_velocity_mps: float
    centroid: np.ndarray  # (3,) radar frame
    count: int

    def take(self, index) -> "ClusterStats":
        """Index every field of statistics held as per-cluster arrays."""
        return ClusterStats(*(getattr(self, f.name)[index] for f in fields(self)))


@dataclass(frozen=True)
class LabelParams:
    """Fine-stage thresholds (filtering gates and completion affinity)."""

    tau_d: float = 1.5
    kappa_rho: float = 2.5
    kappa_v: float = 2.0
    v_static: float = 0.3
    sigma_v_min: float = 0.2
    r_search: float = 2.0
    sigma_pos: float = 0.8
    tau_a: float = 0.6
    n_min: int = 3

    def __post_init__(self):
        values = (
            self.tau_d,
            self.kappa_rho,
            self.kappa_v,
            self.v_static,
            self.sigma_v_min,
            self.r_search,
            self.sigma_pos,
            self.tau_a,
            self.n_min,
        )
        if not all(0 < v < math.inf for v in values):  # NaN fails too
            raise ValueError("all labeling parameters must be positive and finite")
        if self.tau_a > 1.0:
            raise ValueError("tau_a must be in (0, 1]")


@dataclass
class CoarseResult:
    """Output of the projection stage, kept around for the fine stage."""

    owner: np.ndarray  # (N,) index of the mask each point took, -1 for none
    instance_of: np.ndarray  # (N,) instance id of the point's mask, 0 for none
    members: np.ndarray  # labeled point indices, stably sorted by instance id
    unassociated: np.ndarray  # ascending indices of the unlabeled points
    depths: np.ndarray  # (N,) camera-frame z (NaN-free; invalid rows unused)


def _starts(keys: np.ndarray) -> np.ndarray:
    """Where each run of equal positive keys begins."""
    return np.flatnonzero(keys != np.concatenate(([0], keys[:-1])))


def _lookup_pixels(uv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous (u, v) to 1-based lookup pixels, rounding half up."""
    ui = np.floor(uv[:, 0] + 0.5).astype(int)
    vi = np.floor(uv[:, 1] + 0.5).astype(int)
    return ui, vi


def coarse_associate(
    points: PointCloud,
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
    for m in masks:
        if (m.height, m.width) != (k.height, k.width):
            raise DimensionMismatch(
                f"mask {m.instance_id} has shape {(m.height, m.width)}, "
                f"expected {(k.height, k.width)}"
            )
    cam = t.transform(points.xyz)
    uv, front = pinhole(k, cam)
    in_image = (
        front[:, 0]
        & (uv[:, 0] >= 1.0)
        & (uv[:, 0] <= k.width)
        & (uv[:, 1] >= 1.0)
        & (uv[:, 1] <= k.height)
    )
    cand = np.flatnonzero(in_image)
    ui, vi = _lookup_pixels(uv[cand])
    flat = (vi - 1) * k.width + (ui - 1)

    # Highest confidence first so the first covering mask wins; instance id
    # ascending breaks exact confidence ties deterministically.
    owner = np.full(len(points), -1)
    order = sorted(range(len(masks)), key=lambda j: (-masks[j].confidence, masks[j].instance_id))
    for j in order:
        hit = masks[j].covers(flat)
        owner[cand[hit]] = j
        cand, flat = cand[~hit], flat[~hit]

    # One stable sort groups the labeled points by instance id; masks that
    # share an instance id share its cluster.
    instance_of = np.array([m.instance_id for m in masks] + [0])[owner]
    labeled = np.flatnonzero(owner >= 0)
    members = labeled[np.argsort(instance_of[labeled], kind="stable")]
    return CoarseResult(owner, instance_of, members, np.flatnonzero(owner < 0), cam[:, 2])


def _segment_stats(
    members: np.ndarray, count: np.ndarray, points: PointCloud, depths: np.ndarray
) -> ClusterStats:
    """ClusterStats as arrays, one entry per segment: ``members`` holds
    segment s as its next ``count[s]`` (> 0) entries.

    The arithmetic is numpy's, bit for bit: ``mean`` and ``std`` sum a 1-D
    array pairwise, which ``reduceat`` repeats when a -0.0 heads each
    segment (-0.0 + x is x); ``mean(axis=0)`` adds rows in order, as
    ``bincount`` does; ``np.median`` averages the middle pair.
    """
    starts = np.cumsum(count) - count
    seg = np.repeat(np.arange(len(count)), count)
    heads = starts + np.arange(len(count))
    body = np.arange(len(members)) + seg + 1
    values = np.column_stack((points.rcs[members], points.velocity[members]))
    padded = np.full((len(body) + len(heads), 2), -0.0)
    padded[body] = values
    mean = np.add.reduceat(padded, heads) / count[:, None]
    padded[body] = (values - mean[seg]) ** 2
    std = np.sqrt(np.add.reduceat(padded, heads) / count[:, None])
    bins = (3 * seg[:, None] + np.arange(3)).ravel()
    sums = np.bincount(bins, points.xyz[members].ravel(), 3 * len(count))
    depth = depths[members]
    depth = depth[np.lexsort((depth, seg))]
    lo, hi = depth[starts + (count - 1) // 2], depth[starts + count // 2]
    median = np.where(count % 2 == 1, hi, (lo + hi) / 2)
    centroid = sums.reshape(-1, 3) / count[:, None]
    return ClusterStats(median, mean[:, 0], std[:, 0], mean[:, 1], std[:, 1], centroid, count)


def cluster_stats(
    member_indices: np.ndarray | list[int],
    points: PointCloud,
    depths: np.ndarray,
) -> ClusterStats:
    """Depth median, RCS and velocity mean/std, and the 3D centroid."""
    idx = np.asarray(member_indices, dtype=np.intp)
    if not len(idx):
        raise ValueError("cluster must be non-empty")
    return _segment_stats(idx, np.array([len(idx)]), points, depths).take(0)


# The gates take one value or an array of them.


def depth_valid(depth_m: float | np.ndarray, stats: ClusterStats, params: LabelParams):
    """Camera-frame depth within tau_d of the cluster median (strict)."""
    return abs(depth_m - stats.median_depth_m) < params.tau_d


def rcs_valid(rcs_dbsm: float | np.ndarray, stats: ClusterStats, params: LabelParams):
    """RCS within kappa_rho cluster standard deviations of the mean (non-strict).

    No variance floor: a zero-spread cluster accepts only its exact value.
    """
    return abs(rcs_dbsm - stats.mean_rcs_dbsm) <= params.kappa_rho * stats.std_rcs_dbsm


def vel_valid(velocity_mps: float | np.ndarray, stats: ClusterStats, params: LabelParams):
    """Velocity gate: static clusters accept everything, dynamic ones gate
    on kappa_v floored standard deviations around the mean."""
    sigma = np.maximum(stats.std_velocity_mps, params.sigma_v_min)
    return (abs(stats.mean_velocity_mps) <= params.v_static) | (
        abs(velocity_mps - stats.mean_velocity_mps) <= params.kappa_v * sigma
    )


def filter_cluster(
    member_indices: np.ndarray | list[int],
    stats: ClusterStats,
    points: PointCloud,
    depths: np.ndarray,
    params: LabelParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Keep members passing all three gates; return (kept, removed) indices.

    ``stats`` holds the cluster's statistics, computed on the unfiltered
    cluster, or arrays of them with one entry per member.
    """
    idx = np.asarray(member_indices, dtype=np.intp)
    ok = (
        depth_valid(depths[idx], stats, params)
        & rcs_valid(points.rcs[idx], stats, params)
        & vel_valid(points.velocity[idx], stats, params)
    )
    return idx[ok], idx[~ok]


def complete_clusters(
    refined: tuple[np.ndarray, np.ndarray],
    unassociated: np.ndarray | list[int],
    points: PointCloud,
    depths: np.ndarray,
    params: LabelParams,
    excluded: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Assign unassociated points to clusters by maximum Gaussian affinity.

    ``refined`` is ``(members, instance_ids)``: the clusters' point indices
    grouped by ascending positive instance id, and each member's id.  The
    affinity is a unit-peak Gaussian product over position, velocity
    and RCS distance to the cluster's statistics; the velocity and RCS
    scales are floored so zero-spread clusters keep a usable Gaussian.  A
    point is a candidate for a cluster when it lies within r_search of the
    cluster centroid; it joins the highest-affinity cluster among those with
    affinity >= tau_a (ties: lower instance id), at most once.
    ``excluded`` holds, per point of the cloud, the instance id whose filter
    removed it (0 for none); such a point may only be recovered by other
    clusters.  Returns ``(point_indices, instance_ids)``, points ascending.
    """
    members, keys = map(np.asarray, refined)
    cand = np.flatnonzero(np.bincount(np.asarray(unassociated, dtype=np.intp)))
    if not len(members) or not len(cand):
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.int64)
    starts = _starts(keys)
    ids = keys[starts]
    st = _segment_stats(members, np.diff(starts, append=len(keys)), points, depths)
    sigma_v = np.maximum(st.std_velocity_mps, params.sigma_v_min)
    sigma_rho = np.maximum(st.std_rcs_dbsm, RCS_AFFINITY_SIGMA_FLOOR)

    # (candidates, clusters) matrices, clusters in ascending id order
    d_pos = np.linalg.norm(points.xyz[cand, None, :] - st.centroid, axis=2)
    d_v = points.velocity[cand, None] - st.mean_velocity_mps
    d_rho = points.rcs[cand, None] - st.mean_rcs_dbsm
    affinity = np.exp(
        -(d_pos**2) / (2.0 * params.sigma_pos**2)
        - (d_v**2) / (2.0 * sigma_v**2)
        - (d_rho**2) / (2.0 * sigma_rho**2)
    )
    ok = (d_pos <= params.r_search) & (affinity >= params.tau_a)
    if excluded is not None:
        ok &= excluded[cand, None] != ids
    # tau_a > 0, so a row's first maximum is an accepted entry if it has one
    affinity = np.where(ok, affinity, 0.0)
    best = affinity.argmax(axis=1)
    hit = ok[np.arange(len(cand)), best]
    return cand[hit], ids[best[hit]]


def autolabel_frame(
    points: PointCloud,
    masks: list[InstanceMask],
    k: CameraIntrinsics,
    t: Extrinsics,
    params: LabelParams | None = None,
    stage: str = "full",
) -> LabelColumns:
    """Label every point of one frame; ``stage`` selects pipeline depth.

    ``"coarse"`` stops after projection association, ``"otpf"`` adds the
    outlier filter, ``"full"`` adds affinity completion.  The columns hold
    one row per point, in input order: the class and instance ids of the
    mask that owns it (0 where it has none) and its provenance.
    """
    if stage not in ("coarse", "otpf", "full"):
        raise ValueError(f"unknown stage {stage!r}")
    params = params or LabelParams()
    coarse = coarse_associate(points, masks, k, t)

    owner = coarse.owner.copy()
    provenance = np.where(owner >= 0, _CODE[Provenance.COARSE], _CODE[Provenance.UNLABELED])

    if stage != "coarse":
        # Out-of-target point filtering; clusters below n_min pass through
        # and sit out the completion stage as well.
        keys = coarse.instance_of[coarse.members]
        starts = _starts(keys)
        count = np.concatenate((starts[1:], [len(keys)])) - starts
        eligible = count >= params.n_min
        members = coarse.members[np.repeat(eligible, count)]
        st = _segment_stats(members, count[eligible], points, coarse.depths)
        per_member = st.take(np.repeat(np.arange(len(st.count)), st.count))
        kept, removed = filter_cluster(members, per_member, points, coarse.depths, params)
        owner[removed] = -1
        provenance[removed] = _CODE[Provenance.FILTERED_OUT]
        removed_from = np.zeros(len(points), dtype=np.int64)
        removed_from[removed] = coarse.instance_of[removed]

        if stage == "full":
            idx, iids = complete_clusters(
                (kept, coarse.instance_of[kept]),
                np.concatenate((coarse.unassociated, removed)), points,
                coarse.depths, params, excluded=removed_from,
            )
            # a cluster carries the label of its last coarse member's mask
            last = coarse.members[keys != np.concatenate((keys[1:], [0]))]
            owner[idx] = coarse.owner[last[np.searchsorted(coarse.instance_of[last], iids)]]
            provenance[idx] = _CODE[Provenance.RECOVERED]

    # owner -1 reads the appended 0
    class_id = np.array([m.class_id for m in masks] + [0], dtype=np.int64)
    instance_id = np.array([m.instance_id for m in masks] + [0], dtype=np.int64)
    return LabelColumns(
        class_id[owner], instance_id[owner], owner >= 0, provenance.astype(np.int8)
    )
