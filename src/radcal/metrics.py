"""Point-label agreement: point accuracy and mean instance IoU.

Point accuracy (PA) and mean instance IoU (mIoU) compare predicted point
labels against ground truth, both given as ``LabelColumns``; predicted and
true instances are first matched one-to-one greedily by descending
point-set IoU (same class, IoU > 0; ties broken by instance keys), so
metric values do not depend on the arbitrary numeric instance ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .autolabel import LabelColumns

__all__ = [
    "EmptyInput",
    "LengthMismatch",
    "InstanceMatch",
    "MetricReport",
    "label_report",
    "pooled_report",
]


class EmptyInput(ValueError):
    """Metric undefined on an empty collection."""


class LengthMismatch(ValueError):
    """Predicted and ground-truth label lists have different lengths."""


@dataclass(frozen=True)
class InstanceMatch:
    """One matched (pred, gt) instance pair with its point-set IoU."""

    pred: tuple[int, int]  # (class_id, instance_id)
    gt: tuple[int, int]
    iou: float


def _instance_keys(labels: LabelColumns) -> tuple[np.ndarray, np.ndarray]:
    """The distinct (class_id, instance_id) rows of the labeled points, in
    tuple order, and each point's row among them (-1 where unlabeled)."""
    index = np.flatnonzero(labels.labeled)
    class_id, instance_id = labels.class_id[index], labels.instance_id[index]
    order = np.lexsort((instance_id, class_id))
    class_id, instance_id = class_id[order], instance_id[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (class_id[1:] != class_id[:-1]) | (instance_id[1:] != instance_id[:-1])
    row = np.full(len(labels), -1, dtype=np.int64)
    row[index[order]] = np.cumsum(first) - 1
    return np.stack([class_id[first], instance_id[first]], axis=1), row


def label_report(pred: LabelColumns, gt: LabelColumns) -> MetricReport:
    """Match instances once and assemble PA / mIoU for one aligned label set,
    in one pass over the columns.  ``pa_foreground_percent`` counts only
    points with a true label (100.0 when there are none)."""
    if len(pred) == 0 and len(gt) == 0:
        raise EmptyInput("no points to evaluate")
    if len(pred) != len(gt):
        raise LengthMismatch(f"{len(pred)} predicted vs {len(gt)} true labels")
    p_keys, p_row = _instance_keys(pred)
    g_keys, g_row = _instance_keys(gt)
    # intersection sizes of every overlapping (pred, gt) instance pair; a
    # sort-based count keeps memory at O(points), not O(n_pred * n_gt)
    both = (p_row >= 0) & (g_row >= 0)
    pair, inter = np.unique(p_row[both] * len(g_keys) + g_row[both], return_counts=True)
    p_idx, g_idx = np.divmod(pair, len(g_keys))
    same_class = p_keys[p_idx, 0] == g_keys[g_idx, 0]
    p_idx, g_idx, inter = p_idx[same_class], g_idx[same_class], inter[same_class]
    p_size = np.bincount(p_row[p_row >= 0], minlength=len(p_keys))
    g_size = np.bincount(g_row[g_row >= 0], minlength=len(g_keys))
    iou = inter / (p_size[p_idx] + g_size[g_idx] - inter)

    # greedy one-to-one in (-iou, pred key, gt key) order; key rows are
    # sorted like the key tuples, so row order breaks ties the same way.
    # matched_gt[p] is the gt row of pred row p, -2 while unmatched, and
    # its extra last slot (row -1, unlabeled) holds -1.
    matched_gt = [-2] * len(p_keys) + [-1]
    used_gt = set()
    p_list, g_list, iou_list = p_idx.tolist(), g_idx.tolist(), iou.tolist()
    p_tuples = [tuple(k) for k in p_keys.tolist()]
    g_tuples = [tuple(k) for k in g_keys.tolist()]
    matches = []
    for k in np.lexsort((g_idx, p_idx, -iou)).tolist():
        p, g = p_list[k], g_list[k]
        if matched_gt[p] != -2 or g in used_gt:
            continue
        matched_gt[p] = g
        used_gt.add(g)
        matches.append(InstanceMatch(pred=p_tuples[p], gt=g_tuples[g], iou=iou_list[k]))

    # a point is correct when both labels are None, or when its predicted
    # instance is matched to its true instance
    correct = np.array(matched_gt)[p_row] == g_row
    foreground = g_row >= 0
    return _report(
        matches,
        n_correct=int(np.count_nonzero(correct)),
        n_points=len(correct),
        n_correct_foreground=int(np.count_nonzero(correct & foreground)),
        n_foreground=int(np.count_nonzero(foreground)),
        n_predicted=int(np.count_nonzero(p_row >= 0)),
    )


@dataclass
class MetricReport:
    """PA and mIoU of one frame, or of frames pooled, with their counts."""

    pa_percent: float
    pa_foreground_percent: float
    miou_percent: float
    n_matched: int
    per_instance_iou: list[InstanceMatch] = field(default_factory=list)
    n_points: int = 0
    n_correct: int = 0
    n_foreground: int = 0
    n_correct_foreground: int = 0
    n_predicted: int = 0  # points with a predicted label


def _percent(part: int, whole: int) -> float:
    return 100.0 * part / whole if whole else 100.0


def _report(
    matches: list[InstanceMatch],
    n_correct: int,
    n_points: int,
    n_correct_foreground: int,
    n_foreground: int,
    n_predicted: int,
) -> MetricReport:
    """PA and mIoU from point counts and matches.  mIoU is 0 when instances
    exist on either side but none matched, 100 when there are none."""
    if matches:
        miou_percent = 100.0 * float(np.mean([m.iou for m in matches]))
    else:
        miou_percent = 0.0 if n_foreground or n_predicted else 100.0
    return MetricReport(
        pa_percent=_percent(n_correct, n_points),
        pa_foreground_percent=_percent(n_correct_foreground, n_foreground),
        miou_percent=miou_percent,
        n_matched=len(matches),
        per_instance_iou=matches,
        n_points=n_points,
        n_correct=n_correct,
        n_foreground=n_foreground,
        n_correct_foreground=n_correct_foreground,
        n_predicted=n_predicted,
    )


def pooled_report(reports: list[MetricReport]) -> MetricReport:
    """Pool per-frame reports: PA over all points, mIoU over all matches,
    with the per-frame rules for empty denominators."""
    return _report(
        [m for r in reports for m in r.per_instance_iou],
        n_correct=sum(r.n_correct for r in reports),
        n_points=sum(r.n_points for r in reports),
        n_correct_foreground=sum(r.n_correct_foreground for r in reports),
        n_foreground=sum(r.n_foreground for r in reports),
        n_predicted=sum(r.n_predicted for r in reports),
    )
