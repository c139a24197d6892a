"""Metric arithmetic: hand tallies, algebraic identities, flag conventions."""

import numpy as np
import pytest

from burnmap.errors import DataError
from burnmap.metrics import (
    ConfusionCounts,
    accumulate,
    compute_metrics,
)


class TestAccumulate:
    def test_hand_tally_3x3(self):
        """Counted by hand: tp=2, fp=1, fn=2, tn=4."""
        prediction = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 0]], np.uint8)
        truth = np.array([[1, 0, 1], [0, 1, 1], [0, 0, 0]], np.uint8)
        c = accumulate(prediction, truth)
        assert (c.tp, c.fp, c.fn, c.tn) == (2, 1, 2, 4)
        assert c.tp + c.fp + c.fn + c.tn == 9

    def test_perfect_prediction(self):
        truth = np.array([[1, 0], [0, 1]], np.uint8)
        c = accumulate(truth, truth)
        assert c.fp == 0 and c.fn == 0
        assert (c.tp, c.tn) == (2, 2)

    def test_inverted_prediction(self):
        truth = np.array([[1, 0], [0, 1]], np.uint8)
        c = accumulate(1 - truth, truth)
        assert c.tp == 0 and c.tn == 0
        assert (c.fp, c.fn) == (2, 2)

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="shape"):
            accumulate(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_additivity_over_disjoint_sets(self):
        rng = np.random.default_rng(0)
        p = rng.integers(0, 2, (6, 6))
        t = rng.integers(0, 2, (6, 6))
        whole = accumulate(p, t)
        parts = accumulate(p[:3], t[:3]) + accumulate(p[3:], t[3:])
        assert whole == parts

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        p = rng.integers(0, 2, (5, 7))
        t = rng.integers(0, 2, (5, 7))
        perm_r = rng.permutation(5)
        perm_c = rng.permutation(7)
        a = accumulate(p, t)
        b = accumulate(p[perm_r][:, perm_c], t[perm_r][:, perm_c])
        assert a == b


class TestComputeMetrics:
    def test_hand_case(self):
        """tp=3, fp=1, fn=2: precision 0.75, recall 0.6, F1 2/3, IoU 0.5."""
        r = compute_metrics(ConfusionCounts(tp=3, fp=1, fn=2, tn=10))
        assert r.burnt.precision == 0.75
        assert r.burnt.recall == 0.6
        np.testing.assert_allclose(r.burnt.f1, 2 * 0.75 * 0.6 / 1.35)
        np.testing.assert_allclose(r.burnt.f1, 0.666667, rtol=1e-5)
        assert r.burnt.iou == 0.5

    def test_unburnt_class_by_complement(self):
        # Unburnt positives: tn=10 correct, fn=2 predicted-unburnt-but-burnt,
        # fp=1 burnt-predicted-but-unburnt.
        r = compute_metrics(ConfusionCounts(tp=3, fp=1, fn=2, tn=10))
        np.testing.assert_allclose(r.unburnt.precision, 10 / 12)
        np.testing.assert_allclose(r.unburnt.recall, 10 / 11)
        np.testing.assert_allclose(r.unburnt.iou, 10 / 13)

    def test_perfect_prediction_all_ones(self):
        r = compute_metrics(ConfusionCounts(tp=5, fp=0, fn=0, tn=5))
        for m in (r.burnt, r.unburnt):
            assert (m.precision, m.recall, m.f1, m.iou) == (1.0, 1.0, 1.0, 1.0)
        assert r.mean_f1 == 1.0 and r.mean_iou == 1.0
        assert r.flags == ()

    def test_f1_iou_identity_randomized(self):
        """F1 = 2*IoU/(1+IoU) must hold to 1e-12 for any counts."""
        rng = np.random.default_rng(2)
        for _ in range(500):
            tp, fp, fn, tn = (int(x) for x in rng.integers(0, 1000, 4))
            r = compute_metrics(ConfusionCounts(tp, fp, fn, tn))
            for m in (r.burnt, r.unburnt):
                if m.iou > 0:
                    assert abs(m.f1 - 2 * m.iou / (1 + m.iou)) < 1e-12

    def test_zero_denominators_flagged(self):
        r = compute_metrics(ConfusionCounts(tp=0, fp=0, fn=3, tn=5))
        assert r.burnt.precision == 0.0
        assert r.burnt.iou == 0.0
        assert "burnt.precision" in r.flags
        assert "burnt.f1" in r.flags

    def test_macro_means(self):
        r = compute_metrics(ConfusionCounts(tp=3, fp=1, fn=2, tn=10))
        np.testing.assert_allclose(r.mean_f1, (r.burnt.f1 + r.unburnt.f1) / 2)
        np.testing.assert_allclose(r.mean_iou, (r.burnt.iou + r.unburnt.iou) / 2)

    def test_negative_counts_rejected(self):
        with pytest.raises(DataError):
            ConfusionCounts(tp=-1, fp=0, fn=0, tn=0)

    def test_as_row_ordering(self):
        r = compute_metrics(ConfusionCounts(tp=3, fp=1, fn=2, tn=10))
        names = [n for n, _ in r.as_row()]
        assert names[:2] == ["precision_unburnt", "recall_unburnt"]
        assert names[-2:] == ["mean_f1", "mean_iou"]
        assert len(names) == 10


class TestPooling:
    def test_stacked_masks_match_summed_counts(self):
        """One accumulate over a stack of masks pools them exactly as adding
        each mask's counts does."""
        rng = np.random.default_rng(3)
        pairs = [
            (rng.integers(0, 2, (4, 4)), rng.integers(0, 2, (4, 4))) for _ in range(3)
        ]
        counts = accumulate(np.stack([p for p, _ in pairs]), np.stack([t for _, t in pairs]))
        manual = ConfusionCounts()
        for p, t in pairs:
            manual = manual + accumulate(p, t)
        assert counts == manual
        assert compute_metrics(counts) == compute_metrics(manual)
