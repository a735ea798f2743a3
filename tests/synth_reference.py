"""The labeling scene's clutter loop as it was before it decided its
candidates in blocks, kept as the differential oracle.

``clutter`` is the per-candidate loop ``radcal.synth.gen_label_scene`` ran
for its background clutter, moved here unchanged but for its inputs and its
return: each candidate draws range, azimuth and elevation with
``rng.uniform``, is transformed and projected one point at a time, and is
tested against the centroids and the mask windows on its own.
``test_synth_differential.py`` requires ``radcal.synth._clutter`` to give
the same bits and to leave the generator in the same state.
"""

from __future__ import annotations

import math

import numpy as np

from radcal.autolabel import _lookup_pixels
from radcal.geometry import CameraIntrinsics, Extrinsics, pinhole, sph2cart


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
