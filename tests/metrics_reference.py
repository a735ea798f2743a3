"""The list-and-set label metrics, kept as the differential oracle.

The implementation of point accuracy, instance matching and mIoU that the
columnar one in ``radcal.metrics`` replaced, copied unchanged: labels are
lists of ``(class_id, instance_id)`` or None, instances are Python sets of
point indices, and correctness is one loop over points.
``test_metrics_differential.py`` requires both to report identical
matches, IoUs, percentages and counts.
"""

from __future__ import annotations

import numpy as np

from radcal.metrics import EmptyInput, InstanceMatch, LengthMismatch, MetricReport


def _instance_sets(labels: list) -> dict:
    """Group point indices by (class_id, instance_id); None is skipped."""
    out: dict[tuple[int, int], set[int]] = {}
    for i, lbl in enumerate(labels):
        if lbl is not None:
            out.setdefault((int(lbl[0]), int(lbl[1])), set()).add(i)
    return out


def match_instances(pred: list, gt: list) -> list[InstanceMatch]:
    """Greedy one-to-one matching of predicted to true instances.

    Candidate pairs need equal class and point-set IoU > 0; pairs are taken
    in descending IoU (ties broken by instance keys), each instance used at
    most once.
    """
    if len(pred) != len(gt):
        raise LengthMismatch(f"{len(pred)} predicted vs {len(gt)} true labels")
    pred_sets = _instance_sets(pred)
    gt_sets = _instance_sets(gt)
    candidates = []
    for pk, pset in pred_sets.items():
        for gk, gset in gt_sets.items():
            if pk[0] != gk[0]:
                continue
            inter = len(pset & gset)
            if inter == 0:
                continue
            iou = inter / len(pset | gset)
            candidates.append((-iou, pk, gk, iou))
    candidates.sort()
    matches = []
    used_pred: set = set()
    used_gt: set = set()
    for _, pk, gk, iou in candidates:
        if pk in used_pred or gk in used_gt:
            continue
        used_pred.add(pk)
        used_gt.add(gk)
        matches.append(InstanceMatch(pred=pk, gt=gk, iou=iou))
    return matches


def correct_counts(
    pred: list, gt: list, matches: list[InstanceMatch] | None = None
) -> tuple[int, int, int, int]:
    """(correct, total, correct_foreground, foreground) point counts.

    A point counts as correct when both labels are None, or when its
    predicted instance is matched to its true instance.
    """
    if len(pred) != len(gt):
        raise LengthMismatch(f"{len(pred)} predicted vs {len(gt)} true labels")
    if matches is None:
        matches = match_instances(pred, gt)
    pred_to_gt = {m.pred: m.gt for m in matches}
    correct_all = 0
    correct_fg = 0
    n_fg = 0
    for p, g in zip(pred, gt):
        pk = None if p is None else (int(p[0]), int(p[1]))
        gk = None if g is None else (int(g[0]), int(g[1]))
        ok = (pk is None and gk is None) or (
            pk is not None and gk is not None and pred_to_gt.get(pk) == gk
        )
        correct_all += ok
        if gk is not None:
            n_fg += 1
            correct_fg += ok
    return correct_all, len(pred), correct_fg, n_fg


def point_accuracy(
    pred: list, gt: list, matches: list[InstanceMatch] | None = None
) -> tuple[float, float]:
    """Percent of points labeled consistently with ground truth.

    Returns ``(pa_all, pa_foreground)``: the first over all points
    (headline), the second over points with a non-None true label only
    (100.0 when there are none).
    """
    if len(pred) == 0 and len(gt) == 0:
        raise EmptyInput("no points to evaluate")
    correct_all, n, correct_fg, n_fg = correct_counts(pred, gt, matches)
    pa_all = 100.0 * correct_all / n
    pa_fg = 100.0 * correct_fg / n_fg if n_fg else 100.0
    return pa_all, pa_fg


def miou(
    pred: list, gt: list, matches: list[InstanceMatch] | None = None
) -> float:
    """Mean IoU (percent) over matched instance pairs.

    0 when instances exist on either side but none matched; 100 when both
    sides contain no instances at all (labelings vacuously identical).
    """
    if len(pred) != len(gt):
        raise LengthMismatch(f"{len(pred)} predicted vs {len(gt)} true labels")
    if matches is None:
        matches = match_instances(pred, gt)
    if not matches:
        has_instances = any(l is not None for l in pred) or any(
            l is not None for l in gt
        )
        return 0.0 if has_instances else 100.0
    return 100.0 * float(np.mean([m.iou for m in matches]))


def label_report(pred: list, gt: list) -> MetricReport:
    """Match instances once and assemble PA / mIoU for one aligned label set."""
    matches = match_instances(pred, gt)
    pa_all, pa_fg = point_accuracy(pred, gt, matches)
    correct, n, correct_fg, n_fg = correct_counts(pred, gt, matches)
    return MetricReport(
        pa_percent=pa_all,
        pa_foreground_percent=pa_fg,
        miou_percent=miou(pred, gt, matches),
        n_matched=len(matches),
        per_instance_iou=matches,
        n_points=n,
        n_correct=correct,
        n_foreground=n_fg,
        n_correct_foreground=correct_fg,
    )
