import itertools
import math

import numpy as np
import pytest

from radcal.calibration import reprojection_errors
from radcal.metrics import EmptyInput, LengthMismatch, label_report
from truth_columns import truth_columns as columns


class TestResidualMetrics:
    """MRE and RMSE of calibration residuals (``reprojection_errors``)."""

    def test_three_four_five(self):
        assert reprojection_errors(np.array([(3.0, 4.0)])) == (5.0, 5.0)

    def test_zero_residuals(self):
        assert reprojection_errors(np.zeros((2, 2)))[0] == 0.0

    def test_jensen_gap(self):
        mre, rmse = reprojection_errors(np.array([(0.0, 0.0), (6.0, 8.0)]))
        assert mre == 5.0
        assert np.isclose(rmse, math.sqrt(50.0))
        assert rmse > mre

    def test_random_residuals_match_summation_oracle(self):
        rng = np.random.default_rng(0)
        residuals = rng.normal(size=(24, 2)) * 3.0
        norms = [math.hypot(du, dv) for du, dv in residuals]
        mre, rmse = reprojection_errors(residuals)
        assert abs(mre - math.fsum(norms) / 24) < 1e-12
        assert abs(rmse - math.sqrt(math.fsum(n * n for n in norms) / 24)) < 1e-12

    def test_mre_at_most_rmse_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            residuals = rng.normal(size=(int(rng.integers(1, 40)), 2)) * 10
            mre, rmse = reprojection_errors(residuals)
            assert mre <= rmse + 1e-12

    def test_equal_norms_give_equality(self):
        mre, rmse = reprojection_errors(np.array([(3.0, 4.0), (5.0, 0.0), (0.0, -5.0)]))
        assert np.isclose(mre, rmse)


def optimal_matching_total(pred, gt):
    """Exhaustive search over one-to-one matchings (small inputs only)."""
    pred_sets = {}
    gt_sets = {}
    for i, lbl in enumerate(pred):
        if lbl is not None:
            pred_sets.setdefault(lbl, set()).add(i)
    for i, lbl in enumerate(gt):
        if lbl is not None:
            gt_sets.setdefault(lbl, set()).add(i)
    pred_keys = list(pred_sets)
    gt_keys = list(gt_sets)

    def iou(pk, gk):
        if pk[0] != gk[0]:
            return 0.0
        inter = len(pred_sets[pk] & gt_sets[gk])
        if inter == 0:
            return 0.0
        return inter / len(pred_sets[pk] | gt_sets[gk])

    best = 0.0
    n = min(len(pred_keys), len(gt_keys))
    for size in range(n + 1):
        for pred_subset in itertools.combinations(pred_keys, size):
            for gt_perm in itertools.permutations(gt_keys, size):
                total = sum(iou(pk, gk) for pk, gk in zip(pred_subset, gt_perm))
                best = max(best, total)
    return best


class TestMatching:
    def test_identical_partitions_match_perfectly(self):
        labels = [(1, 1)] * 4 + [(1, 2)] * 3 + [None] * 3
        matches = label_report(columns(labels), columns(labels)).per_instance_iou
        assert len(matches) == 2
        assert all(m.iou == 1.0 for m in matches)

    def test_split_instance_greedy(self):
        gt = [(1, 1)] * 6 + [None] * 2
        pred = [(1, 10)] * 4 + [(1, 20)] * 2 + [None] * 2
        matches = label_report(columns(pred), columns(gt)).per_instance_iou
        assert len(matches) == 1
        assert matches[0].pred == (1, 10)  # larger-overlap half wins
        assert np.isclose(matches[0].iou, 4 / 6)

    def test_class_mismatch_blocks_match(self):
        gt = [(1, 1)] * 4
        pred = [(2, 1)] * 4
        assert label_report(columns(pred), columns(gt)).per_instance_iou == []

    def test_greedy_close_to_exhaustive_optimum(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(4, 11))
            def random_labels():
                out = []
                for _ in range(n):
                    if rng.uniform() < 0.25:
                        out.append(None)
                    else:
                        out.append((int(rng.integers(1, 3)), int(rng.integers(1, 4))))
                return out
            pred, gt = random_labels(), random_labels()
            matches = label_report(columns(pred), columns(gt)).per_instance_iou
            greedy_total = sum(m.iou for m in matches)
            optimal = optimal_matching_total(pred, gt)
            max_step = max((m.iou for m in matches), default=0.0)
            assert greedy_total <= optimal + 1e-12
            assert greedy_total >= optimal - max_step - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            label_report(columns([None]), columns([None, None]))


class TestPointAccuracy:
    def test_perfect(self):
        labels = [(1, 1)] * 5 + [None] * 5
        report = label_report(columns(labels), columns(labels))
        assert report.pa_percent == 100.0
        assert report.pa_foreground_percent == 100.0

    def test_eight_of_ten(self):
        gt = [(1, 1)] * 10
        pred = [(1, 1)] * 8 + [None, None]
        report = label_report(columns(pred), columns(gt))
        assert report.pa_percent == 80.0
        assert report.pa_foreground_percent == 80.0

    def test_three_of_fifty_corrupted(self):
        gt = [(1, 1)] * 25 + [(2, 2)] * 20 + [None] * 5
        pred = list(gt)
        pred[0] = None
        pred[30] = None
        pred[46] = (1, 1)
        assert label_report(columns(pred), columns(gt)).pa_percent == 94.0

    def test_id_renaming_is_free(self):
        gt = [(1, 1)] * 5 + [(1, 2)] * 5
        pred = [(1, 42)] * 5 + [(1, 7)] * 5
        assert label_report(columns(pred), columns(gt)).pa_percent == 100.0

    def test_background_only(self):
        report = label_report(columns([None] * 4), columns([None] * 4))
        assert report.pa_percent == 100.0
        assert report.pa_foreground_percent == 100.0  # vacuous foreground

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            label_report(columns([]), columns([]))


class TestMiou:
    def test_identical(self):
        labels = [(1, 1)] * 4 + [(2, 5)] * 6
        assert label_report(columns(labels), columns(labels)).miou_percent == 100.0

    def test_three_of_four(self):
        gt = [(1, 1)] * 4 + [None]
        pred = [(1, 1)] * 3 + [None, None]
        assert label_report(columns(pred), columns(gt)).miou_percent == 75.0

    def test_multi_instance_hand_enumerated(self):
        gt = [(1, 1)] * 4 + [(1, 2)] * 4 + [(2, 3)] * 2
        pred = (
            [(1, 9)] * 3 + [None]          # 3/4 overlap with gt 1
            + [(1, 8)] * 4                 # 4/4 overlap with gt 2
            + [(2, 7), None]               # 1/2 overlap with gt 3
        )
        expected = 100.0 * (3 / 4 + 1.0 + 1 / 2) / 3
        assert np.isclose(label_report(columns(pred), columns(gt)).miou_percent, expected)

    def test_no_matches_zero(self):
        gt = [(1, 1)] * 4
        pred = [None] * 4
        assert label_report(columns(pred), columns(gt)).miou_percent == 0.0

    def test_no_instances_at_all_vacuous_hundred(self):
        assert label_report(columns([None] * 3), columns([None] * 3)).miou_percent == 100.0

    def test_pa_hundred_implies_miou_hundred(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(1, 30))
            labels = [
                None
                if rng.uniform() < 0.3
                else (int(rng.integers(1, 3)), int(rng.integers(1, 5)))
                for _ in range(n)
            ]
            report = label_report(columns(labels), columns(labels))
            assert report.pa_percent == 100.0
            assert report.miou_percent == 100.0

    def test_consistent_relabeling_invariance(self):
        rng = np.random.default_rng(4)
        gt = [
            None if rng.uniform() < 0.3 else (int(rng.integers(1, 3)), int(rng.integers(1, 5)))
            for _ in range(40)
        ]
        pred = [
            None if rng.uniform() < 0.3 else (int(rng.integers(1, 3)), int(rng.integers(1, 5)))
            for _ in range(40)
        ]
        base = label_report(columns(pred), columns(gt))
        remap = {}
        renamed = []
        for lbl in pred:
            if lbl is None:
                renamed.append(None)
            else:
                remap.setdefault(lbl, (lbl[0], 100 + len(remap)))
                renamed.append(remap[lbl])
        report = label_report(columns(renamed), columns(gt))
        assert report.pa_percent == base.pa_percent
        assert report.miou_percent == base.miou_percent


class TestLabelReport:
    def test_report_fields(self):
        gt = [(1, 1)] * 4 + [None]
        pred = [(1, 2)] * 3 + [None, None]
        report = label_report(columns(pred), columns(gt))
        assert report.n_matched == 1
        assert np.isclose(report.miou_percent, 75.0)
        assert report.pa_percent == 80.0
        assert report.per_instance_iou[0].gt == (1, 1)
