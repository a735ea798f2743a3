"""The columnar metrics against the list-and-set reference in metrics_reference.py.

Both must report the same matches in the same order, the same IoU floats,
percentages and point counts.  Labels come from small class and instance
alphabets, so IoU ties, cross-class overlaps, all-None and empty frames
occur often.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import metrics_reference as ref
from radcal.metrics import EmptyInput, label_report, pooled_report
from truth_columns import truth_columns as columns

LABEL = st.one_of(st.none(), st.tuples(st.integers(-1, 2), st.integers(0, 3)))
FIELDS = (
    "pa_percent",
    "pa_foreground_percent",
    "miou_percent",
    "n_matched",
    "per_instance_iou",
    "n_points",
    "n_correct",
    "n_foreground",
    "n_correct_foreground",
)


@st.composite
def label_pairs(draw, min_size=0, max_size=30):
    n = draw(st.integers(min_size, max_size))
    return (
        draw(st.lists(LABEL, min_size=n, max_size=n)),
        draw(st.lists(LABEL, min_size=n, max_size=n)),
    )


def fields(report):
    return {name: getattr(report, name) for name in FIELDS}


@settings(max_examples=300)
@given(label_pairs())
@example(([], []))
@example(([None] * 3, [None] * 3))
@example(([(1, 1), (1, 1), None], [None] * 3))
@example(([(1, 1), (1, 1)], [(1, 1), (1, 2)]))  # equal IoU: the lower gt key wins
@example(([(1, 2), (1, 1)], [(1, 1), (1, 1)]))  # equal IoU: the lower pred key wins
@example(([(1, 5), (2, 5), (2, 5)], [(2, 5), (1, 5), (1, 5)]))  # cross-class overlap
def test_label_report_equals_reference(pair):
    pred, gt = pair
    p, g = columns(pred), columns(gt)
    if not pred:
        with pytest.raises(EmptyInput):
            label_report(p, g)
        with pytest.raises(EmptyInput):
            ref.label_report(pred, gt)
        return
    new, old = label_report(p, g), ref.label_report(pred, gt)
    assert new.per_instance_iou == ref.match_instances(pred, gt)
    assert new.miou_percent == ref.miou(pred, gt)
    assert fields(new) == fields(old)
    assert all(type(m.iou) is float for m in new.per_instance_iou)
    assert new.n_predicted == sum(label is not None for label in pred)
    assert (new.pa_percent, new.pa_foreground_percent) == ref.point_accuracy(pred, gt)


@settings(max_examples=100)
@given(st.lists(label_pairs(min_size=1, max_size=12), min_size=1, max_size=4))
@example([([(1, 1), (1, 1), None], [None] * 3)])
def test_pooled_report_pools_the_reference_counts(frames):
    pooled = pooled_report([label_report(columns(p), columns(g)) for p, g in frames])
    counts = [ref.correct_counts(p, g) for p, g in frames]
    correct, n, correct_fg, n_fg = (sum(c[i] for c in counts) for i in range(4))
    matches = [m for p, g in frames for m in ref.match_instances(p, g)]
    assert pooled.pa_percent == 100.0 * correct / n
    assert pooled.pa_foreground_percent == (100.0 * correct_fg / n_fg if n_fg else 100.0)
    assert pooled.per_instance_iou == matches
    has_instances = any(label is not None for p, g in frames for label in p + g)
    if matches:
        assert pooled.miou_percent == 100.0 * float(np.mean([m.iou for m in matches]))
    else:
        assert pooled.miou_percent == (0.0 if has_instances else 100.0)
