"""Checkerboard image feature: the centroid of the detected corner grid.

Corner pixel coordinates are ingested already refined to sub-pixel
accuracy; detection itself happens upstream.  The only feature the
calibration consumes is the geometric centroid of all corners, which the
dual-purpose target design places at the reflector apex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["CountMismatch", "CheckerboardSpec", "CornerSet", "checkerboard_center"]


class CountMismatch(ValueError):
    """Number of corners does not match the checkerboard geometry."""


@dataclass(frozen=True)
class CheckerboardSpec:
    """Board geometry: square counts along the two axes (>= 2 each)."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"need at least 2x2 squares, got {self.nx}x{self.ny}")

    @property
    def corner_count(self) -> int:
        """Inner corner count (nx - 1) * (ny - 1)."""
        return (self.nx - 1) * (self.ny - 1)


@dataclass(frozen=True)
class CornerSet:
    """Ordered sub-pixel corner coordinates for one calibration pose."""

    corners: np.ndarray  # (n, 2) pixel coordinates
    spec: CheckerboardSpec

    def __post_init__(self):
        corners = np.asarray(self.corners, dtype=float).reshape(-1, 2)
        if not np.all(np.isfinite(corners)):
            raise ValueError("corner coordinates must be finite")
        object.__setattr__(self, "corners", corners)

    def check_count(self) -> None:
        """Raise CountMismatch unless there are (nx - 1) * (ny - 1) corners."""
        if len(self.corners) != self.spec.corner_count:
            raise CountMismatch(
                f"got {len(self.corners)} corners, expected {self.spec.corner_count} for a "
                f"{self.spec.nx}x{self.spec.ny} board"
            )


def checkerboard_center(corner_set: CornerSet) -> np.ndarray:
    """Component-wise mean of all corners: the board center pixel (u, v)."""
    corner_set.check_count()
    return corner_set.corners.mean(axis=0)
