"""Corner-reflector extraction from a raw 4D radar frame.

Pipeline per frame: threshold filtering on range / Doppler / RCS, DBSCAN
clustering of the surviving Cartesian points, selection of the cluster
with the highest mean RCS, and localization at its strongest return.

All steps are deterministic: filtering preserves input order, DBSCAN seeds
clusters in ascending point index, and every tie-break is fixed (mean-RCS
tie -> smaller mean range; max-RCS tie -> lowest index).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geometry import sph2cart

__all__ = [
    "ReflectorNotFound",
    "EmptyAfterFilter",
    "NoClusters",
    "RETURN_DTYPE",
    "RadarFrame",
    "FilterParams",
    "ClusterParams",
    "filter_returns",
    "dbscan",
    "extract_reflector",
]


class ReflectorNotFound(Exception):
    """No reflector could be localized in this frame; skip the pose."""


class EmptyAfterFilter(ReflectorNotFound):
    """Threshold filtering removed every return."""


class NoClusters(ReflectorNotFound):
    """DBSCAN marked every filtered return as noise."""


# One raw 4D radar return per row, with the spherical frame file's keys as
# field names: range (m), azimuth and elevation (rad), Doppler velocity (m/s)
# and RCS (dBsm).
RETURN_DTYPE = np.dtype(
    [(name, float) for name in ("r_m", "az_rad", "el_rad", "v_mps", "rcs_dbsm")]
)


@dataclass(frozen=True, eq=False)
class RadarFrame:
    """One radar scan: a timestamp and its returns, held as an ``(N,)``
    RETURN_DTYPE array.  Given rows of five numbers ``(r, az, el, v, rcs)``
    instead, a list of tuples or an ``(N, 5)`` array, it converts them.

    Every field is finite, range >= 0, azimuth in (-pi, pi] (exactly -pi,
    which atan2 can emit, is stored as pi) and elevation in [-pi/2, pi/2].
    """

    timestamp_s: float
    returns: np.ndarray

    def __post_init__(self):
        width = len(RETURN_DTYPE)
        if getattr(self.returns, "dtype", None) == RETURN_DTYPE:
            returns = self.returns.reshape(-1).copy()
        else:
            rows = np.array(self.returns, dtype=float).reshape(-1, width)
            returns = rows.view(RETURN_DTYPE).reshape(-1)
        if not np.isfinite(returns.view((float, width))).all():
            raise ValueError("radar return fields must be finite")
        r, az, el = returns["r_m"], returns["az_rad"], returns["el_rad"]
        az[az == -math.pi] = math.pi
        for rule, values, bad in (
            ("range must be >= 0", r, r < 0),
            ("azimuth must be in (-pi, pi]", az, (az <= -math.pi) | (az > math.pi)),
            ("elevation must be in [-pi/2, pi/2]", el, np.abs(el) > math.pi / 2),
        ):
            if bad.any():
                raise ValueError(f"{rule}, got {values[bad][0]}")
        returns.flags.writeable = False
        object.__setattr__(self, "returns", returns)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RadarFrame)
            and self.timestamp_s == other.timestamp_s
            and np.array_equal(self.returns, other.returns)
        )


@dataclass(frozen=True)
class FilterParams:
    """Static-reflector gates: working range, Doppler bound, RCS floor."""

    r_min: float = 3.0
    r_max: float = 15.0
    v_th: float = 0.5
    rho_min: float = 10.0

    def __post_init__(self):
        # written so that NaN fails each check
        if not (0 <= self.r_min < self.r_max < math.inf):
            raise ValueError(f"need 0 <= r_min < r_max < inf, got [{self.r_min}, {self.r_max}]")
        if not 0 < self.v_th < math.inf:
            raise ValueError("v_th must be positive and finite")
        if not math.isfinite(self.rho_min):
            raise ValueError("rho_min must be finite")


@dataclass(frozen=True)
class ClusterParams:
    """DBSCAN neighborhood radius (meters) and core-point threshold."""

    eps: float = 0.3
    min_pts: int = 3

    def __post_init__(self):
        if not 0 < self.eps < math.inf:  # NaN fails too
            raise ValueError("eps must be positive and finite")
        if not 1 <= self.min_pts < math.inf:
            raise ValueError("min_pts must be >= 1")


def filter_returns(frame: RadarFrame, params: FilterParams) -> np.ndarray:
    """Keep returns with r_min <= R <= r_max, |v| < v_th, rcs > rho_min.

    Range bounds are inclusive; the Doppler and RCS gates are strict.
    Order is preserved.  Raises EmptyAfterFilter when nothing survives.
    """
    ret = frame.returns
    kept = ret[
        (params.r_min <= ret["r_m"])
        & (ret["r_m"] <= params.r_max)
        & (np.abs(ret["v_mps"]) < params.v_th)
        & (ret["rcs_dbsm"] > params.rho_min)
    ]
    if not len(kept):
        raise EmptyAfterFilter(
            f"all {len(ret)} returns at t={frame.timestamp_s} filtered out"
        )
    return kept


# The 27 cells around (and including) a cell, as (dx, dy, dz) offsets.
_NEIGHBOR_CELLS = np.array(list(itertools.product((-1, 0, 1), repeat=3)))

_ULP = np.finfo(float).eps


def _radius_neighbors(points: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """Neighbors within eps of every point, self included, as ``(indptr, indices)``.

    The neighbors of point i are ``indices[indptr[i]:indptr[i + 1]]``, in
    ascending order.  A grid hash: points are bucketed into cells of side
    eps, candidates come from the 27 cells around each point's own, and a
    candidate is accepted by the same ``np.linalg.norm(p - q) <= eps`` test
    as the O(n^2) definition, so points at exactly eps land on the same side.
    The side is widened by a few ulps of the largest coordinate, so rounding
    in the cell division cannot put an accepted pair two cells apart.
    """
    n = len(points)
    side = eps * (1.0 + 4.0 * _ULP * (1.0 + np.abs(points).max(initial=0.0) / eps))
    cells = np.floor(points / side)
    # Renumber each axis's cell coordinates in order, capping every gap at 2:
    # adjacency is kept and the packed int64 key cannot overflow.
    by_axis = (np.argsort(cells, axis=0), np.arange(3))
    sorted_cells = cells[by_axis]
    steps = np.zeros_like(sorted_cells)
    steps[1:] = np.minimum(sorted_cells[1:] - sorted_cells[:-1], 2.0)
    grid = np.empty((n, 3), dtype=np.int64)
    grid[by_axis] = np.cumsum(steps, axis=0) + 1
    base = 2 * n + 1  # coordinates of neighbouring cells lie in [0, 2n)
    weights = np.array([base * base, base, 1])
    key = grid @ weights
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    targets = (key[:, None] + _NEIGHBOR_CELLS @ weights).ravel()
    lo = np.searchsorted(sorted_key, targets, side="left")
    counts = np.searchsorted(sorted_key, targets, side="right") - lo
    # Expand each (point, cell) run of sorted positions into candidate pairs.
    starts = np.cumsum(counts) - counts
    offsets = np.arange(counts.sum()) - np.repeat(starts, counts)
    owner = np.repeat(np.arange(n).repeat(len(_NEIGHBOR_CELLS)), counts)
    candidate = order[np.repeat(lo, counts) + offsets]
    near = np.linalg.norm(points[owner] - points[candidate], axis=1) <= eps
    owner, candidate = owner[near], candidate[near]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n), out=indptr[1:])
    return indptr, candidate[np.lexsort((candidate, owner))]


def _dbscan_labels(
    indptr: np.ndarray, indices: np.ndarray, min_pts: int
) -> tuple[np.ndarray, int]:
    """Sequential DBSCAN given sorted neighbor lists (self included) in CSR form.

    Clusters are seeded in ascending index order and grown breadth-first,
    so a border point reachable from several clusters always joins the one
    seeded first.
    """
    n = len(indptr) - 1
    core = (np.diff(indptr) >= min_pts).tolist()
    indptr, indices = indptr.tolist(), indices.tolist()
    labels = [-1] * n
    cluster_id = 0
    for i in range(n):
        if labels[i] != -1 or not core[i]:
            continue
        labels[i] = cluster_id
        queue = deque([i])
        while queue:
            j = queue.popleft()
            for k in indices[indptr[j] : indptr[j + 1]]:
                if labels[k] == -1:
                    labels[k] = cluster_id
                    if core[k]:
                        queue.append(k)
        cluster_id += 1
    return np.array(labels), cluster_id


def dbscan(
    points: np.ndarray, params: ClusterParams
) -> tuple[list[np.ndarray], list[int]]:
    """Cluster 3D points with DBSCAN (Euclidean metric).

    Returns ``(clusters, noise_indices)``: each cluster is the ascending
    array of its members' indices, in the order the clusters were seeded.
    Every point lands in exactly one cluster or in the noise list; each
    cluster contains at least one core point (a point with >= min_pts
    neighbors within eps, itself included).
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    labels, n_clusters = _dbscan_labels(
        *_radius_neighbors(points, params.eps), params.min_pts
    )
    clusters = [np.flatnonzero(labels == cid) for cid in range(n_clusters)]
    return clusters, np.flatnonzero(labels == -1).tolist()


def extract_reflector(
    frame: RadarFrame,
    filter_params: FilterParams | None = None,
    cluster_params: ClusterParams | None = None,
) -> np.ndarray:
    """Full per-frame extraction: filter, cluster, select, localize.

    The cluster with the highest mean RCS wins, a tie going to the smaller
    mean range and then to the cluster seeded first; the reflector center
    is its strongest return, a tie going to the lowest index.  Returns that
    center in the radar frame.  Raises ReflectorNotFound (EmptyAfterFilter /
    NoClusters) when the frame holds no usable reflector; callers log and
    skip the pose.
    """
    filter_params = filter_params or FilterParams()
    cluster_params = cluster_params or ClusterParams()
    kept = filter_returns(frame, filter_params)
    xyz = sph2cart(kept["r_m"], kept["az_rad"], kept["el_rad"])
    clusters, _ = dbscan(xyz, cluster_params)
    if not clusters:
        raise NoClusters(
            f"all {len(kept)} filtered returns are DBSCAN noise at t={frame.timestamp_s}"
        )
    rcs = kept["rcs_dbsm"]
    best = min(clusters, key=lambda c: (-rcs[c].mean(), np.linalg.norm(xyz[c], axis=1).mean()))
    return xyz[best[np.argmax(rcs[best])]]
