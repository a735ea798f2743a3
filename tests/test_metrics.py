import itertools
import math

import numpy as np
import pytest

from radcal.autolabel import LabelColumns
from radcal.metrics import (
    EmptyInput,
    LengthMismatch,
    label_report,
    match_instances,
    miou,
    mre,
    point_accuracy,
    rmse,
)

columns = LabelColumns.from_labels


class TestResidualMetrics:
    def test_three_four_five(self):
        assert mre([(3.0, 4.0)]) == 5.0
        assert rmse([(3.0, 4.0)]) == 5.0

    def test_zero_residuals(self):
        assert mre([(0.0, 0.0), (0.0, 0.0)]) == 0.0

    def test_jensen_gap(self):
        residuals = [(0.0, 0.0), (6.0, 8.0)]
        assert mre(residuals) == 5.0
        assert np.isclose(rmse(residuals), math.sqrt(50.0))
        assert rmse(residuals) > mre(residuals)

    def test_random_residuals_match_summation_oracle(self):
        rng = np.random.default_rng(0)
        residuals = rng.normal(size=(24, 2)) * 3.0
        norms = [math.hypot(du, dv) for du, dv in residuals]
        assert abs(mre(residuals) - math.fsum(norms) / 24) < 1e-12
        assert abs(rmse(residuals) - math.sqrt(math.fsum(n * n for n in norms) / 24)) < 1e-12

    def test_mre_at_most_rmse_property(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            residuals = rng.normal(size=(int(rng.integers(1, 40)), 2)) * 10
            assert mre(residuals) <= rmse(residuals) + 1e-12

    def test_equal_norms_give_equality(self):
        residuals = [(3.0, 4.0), (5.0, 0.0), (0.0, -5.0)]
        assert np.isclose(mre(residuals), rmse(residuals))

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            mre([])
        with pytest.raises(EmptyInput):
            rmse([])


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
        matches = match_instances(columns(labels), columns(labels))
        assert len(matches) == 2
        assert all(m.iou == 1.0 for m in matches)

    def test_split_instance_greedy(self):
        gt = [(1, 1)] * 6 + [None] * 2
        pred = [(1, 10)] * 4 + [(1, 20)] * 2 + [None] * 2
        matches = match_instances(columns(pred), columns(gt))
        assert len(matches) == 1
        assert matches[0].pred == (1, 10)  # larger-overlap half wins
        assert np.isclose(matches[0].iou, 4 / 6)

    def test_class_mismatch_blocks_match(self):
        gt = [(1, 1)] * 4
        pred = [(2, 1)] * 4
        assert match_instances(columns(pred), columns(gt)) == []

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
            matches = match_instances(columns(pred), columns(gt))
            greedy_total = sum(m.iou for m in matches)
            optimal = optimal_matching_total(pred, gt)
            max_step = max((m.iou for m in matches), default=0.0)
            assert greedy_total <= optimal + 1e-12
            assert greedy_total >= optimal - max_step - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            match_instances(columns([None]), columns([None, None]))


class TestPointAccuracy:
    def test_perfect(self):
        labels = [(1, 1)] * 5 + [None] * 5
        pa_all, pa_fg = point_accuracy(columns(labels), columns(labels))
        assert pa_all == 100.0
        assert pa_fg == 100.0

    def test_eight_of_ten(self):
        gt = [(1, 1)] * 10
        pred = [(1, 1)] * 8 + [None, None]
        pa_all, pa_fg = point_accuracy(columns(pred), columns(gt))
        assert pa_all == 80.0
        assert pa_fg == 80.0

    def test_three_of_fifty_corrupted(self):
        gt = [(1, 1)] * 25 + [(2, 2)] * 20 + [None] * 5
        pred = list(gt)
        pred[0] = None
        pred[30] = None
        pred[46] = (1, 1)
        pa_all, _ = point_accuracy(columns(pred), columns(gt))
        assert pa_all == 94.0

    def test_id_renaming_is_free(self):
        gt = [(1, 1)] * 5 + [(1, 2)] * 5
        pred = [(1, 42)] * 5 + [(1, 7)] * 5
        pa_all, pa_fg = point_accuracy(columns(pred), columns(gt))
        assert pa_all == 100.0

    def test_background_only(self):
        pa_all, pa_fg = point_accuracy(columns([None] * 4), columns([None] * 4))
        assert pa_all == 100.0
        assert pa_fg == 100.0  # vacuous foreground

    def test_empty_rejected(self):
        with pytest.raises(EmptyInput):
            point_accuracy(columns([]), columns([]))


class TestMiou:
    def test_identical(self):
        labels = [(1, 1)] * 4 + [(2, 5)] * 6
        assert miou(columns(labels), columns(labels)) == 100.0

    def test_three_of_four(self):
        gt = [(1, 1)] * 4 + [None]
        pred = [(1, 1)] * 3 + [None, None]
        assert miou(columns(pred), columns(gt)) == 75.0

    def test_multi_instance_hand_enumerated(self):
        gt = [(1, 1)] * 4 + [(1, 2)] * 4 + [(2, 3)] * 2
        pred = (
            [(1, 9)] * 3 + [None]          # 3/4 overlap with gt 1
            + [(1, 8)] * 4                 # 4/4 overlap with gt 2
            + [(2, 7), None]               # 1/2 overlap with gt 3
        )
        expected = 100.0 * (3 / 4 + 1.0 + 1 / 2) / 3
        assert np.isclose(miou(columns(pred), columns(gt)), expected)

    def test_no_matches_zero(self):
        gt = [(1, 1)] * 4
        pred = [None] * 4
        assert miou(columns(pred), columns(gt)) == 0.0

    def test_no_instances_at_all_vacuous_hundred(self):
        assert miou(columns([None] * 3), columns([None] * 3)) == 100.0

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
            pa_all, _ = point_accuracy(columns(labels), columns(labels))
            assert pa_all == 100.0
            assert miou(columns(labels), columns(labels)) == 100.0

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
        base_pa, _ = point_accuracy(columns(pred), columns(gt))
        base_miou = miou(columns(pred), columns(gt))
        remap = {}
        renamed = []
        for lbl in pred:
            if lbl is None:
                renamed.append(None)
            else:
                remap.setdefault(lbl, (lbl[0], 100 + len(remap)))
                renamed.append(remap[lbl])
        pa, _ = point_accuracy(columns(renamed), columns(gt))
        assert pa == base_pa
        assert miou(columns(renamed), columns(gt)) == base_miou


class TestLabelReport:
    def test_report_fields(self):
        gt = [(1, 1)] * 4 + [None]
        pred = [(1, 2)] * 3 + [None, None]
        report = label_report(columns(pred), columns(gt))
        assert report.n_matched == 1
        assert np.isclose(report.miou_percent, 75.0)
        assert report.pa_percent == 80.0
        d = report.to_dict()
        assert d["per_instance_iou"][0]["gt_instance_id"] == 1
