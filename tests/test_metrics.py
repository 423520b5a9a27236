import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcn_anticipation.metrics import (MetricsReport, class_mean_top5_recall,
                                      evaluate_predictions, format_table, report_csv,
                                      top_k_accuracy)
from tcn_anticipation.tensor import Rng, TensorError

from oracles import class_mean_top5_recall_loops, top_k_accuracy_loops


def crafted_recall_case():
    """8-class logits over 5 samples with per-class recalls (1.0, 0.5, 0.0).

    Classes 0..2 appear in the labels; a "miss" means the true class ranks
    below 5th. Plain top-5 accuracy is 3/5 = 0.6, the class-mean is 0.5.
    """
    k = 8
    rows = []
    labels = [0, 0, 1, 1, 2]
    hits = [True, True, True, False, False]
    for label, hit in zip(labels, hits):
        row = -np.arange(k, dtype=np.float64)  # classes 0..4 occupy the top-5
        if hit:
            row[label] = 10.0
        else:
            row[label] = -100.0  # rank last
        rows.append(row)
    return np.stack(rows), np.array(labels)


class TestTopK:
    def test_perfect_classifier(self):
        logits = np.eye(4) * 5.0
        labels = np.arange(4)
        assert top_k_accuracy(logits, labels, 1) == 1.0
        assert top_k_accuracy(logits, labels, 5) == 1.0

    def test_k_at_least_num_classes_is_one(self):
        logits = Rng(0).normal(0, 1, (10, 3), "f64")
        labels = np.zeros(10, dtype=np.int64)
        assert top_k_accuracy(logits, labels, 3) == 1.0
        assert top_k_accuracy(logits, labels, 7) == 1.0

    def test_tie_broken_by_ascending_index(self):
        logits = np.array([[0.5, 0.5, 0.1]])
        assert top_k_accuracy(logits, np.array([0]), 1) == 1.0
        assert top_k_accuracy(logits, np.array([1]), 1) == 0.0

    def test_validation(self):
        for k in (0, -1):
            with pytest.raises(TensorError, match=f"k must be >= 1, got {k}"):
                top_k_accuracy(np.zeros((2, 3)), np.array([0, 1]), k)
        with pytest.raises(TensorError):
            top_k_accuracy(np.zeros((0, 3)), np.array([]), 1)
        for label in (-1, 3):  # a class the logits cannot rank is no miss to count
            for metric in (lambda lo, la: top_k_accuracy(lo, la, 1), class_mean_top5_recall):
                with pytest.raises(TensorError, match=rf"labels {min(0, label)} to "
                                                      rf"{max(0, label)} leave \[0, 3\)"):
                    metric(np.zeros((2, 3)), np.array([0, label]))


class TestClassMeanRecall:
    def test_crafted_three_class_case(self):
        logits, labels = crafted_recall_case()
        assert class_mean_top5_recall(logits, labels) == pytest.approx(0.5)
        assert top_k_accuracy(logits, labels, 5) == pytest.approx(0.6)

    def test_matches_loop_oracle(self):
        logits, labels = crafted_recall_case()
        assert class_mean_top5_recall(logits, labels) == \
            class_mean_top5_recall_loops(logits, labels)

    def test_absent_classes_excluded(self):
        # labels only use class 7 out of 10 -> mean over one class
        logits = np.zeros((3, 10))
        logits[:, 7] = 1.0
        labels = np.full(3, 7)
        assert class_mean_top5_recall(logits, labels) == 1.0

    def test_duplicating_a_class_leaves_recall_unchanged(self):
        rng = Rng(4)
        logits = rng.normal(0, 1, (30, 9), "f64")
        labels = (rng.uniform(0, 1, (30,), "f64") * 9).astype(np.int64)
        base = class_mean_top5_recall(logits, labels)
        c = int(labels[0])
        rows = labels == c
        logits2 = np.concatenate([logits, logits[rows]])
        labels2 = np.concatenate([labels, labels[rows]])
        assert class_mean_top5_recall(logits2, labels2) == pytest.approx(base)


class TestAgainstBruteForce:
    def test_hundred_random_prediction_sets_exact(self):
        rng = Rng(99)
        for i in range(100):
            n = 1 + int(rng.uniform(0, 12, ()))
            k_classes = 2 + int(rng.uniform(0, 10, ()))
            logits = rng.normal(0, 1, (n, k_classes), "f64")
            # inject ties to exercise the tie-break rule
            if i % 3 == 0 and k_classes >= 2:
                logits[:, 1] = logits[:, 0]
            labels = (rng.uniform(0, 1, (n,), "f64") * k_classes).astype(np.int64)
            k = 1 + int(rng.uniform(0, 5, ()))
            assert top_k_accuracy(logits, labels, k) == \
                top_k_accuracy_loops(logits, labels, k)
            assert class_mean_top5_recall(logits, labels) == \
                class_mean_top5_recall_loops(logits, labels)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 10), c=st.integers(2, 8),
           k=st.integers(1, 6))
    def test_property_matches_oracle(self, seed, n, c, k):
        rng = Rng(seed)
        logits = rng.normal(0, 1, (n, c), "f64")
        labels = (rng.uniform(0, 1, (n,), "f64") * c).astype(np.int64)
        assert top_k_accuracy(logits, labels, k) == \
            top_k_accuracy_loops(logits, labels, k)


class TestReport:
    def make_report(self):
        logits = {h: np.eye(4) * 3.0 for h in ("action", "verb", "noun")}
        labels = {h: np.arange(4) for h in ("action", "verb", "noun")}
        return evaluate_predictions(logits, labels)

    def test_perfect_report(self):
        report = self.make_report()
        for head in ("action", "verb", "noun"):
            assert report.top1[head] == 1.0
            assert report.top5[head] == 1.0
            assert report.mean_top5_recall[head] == 1.0

    def test_invalid_report_rejected(self):
        with pytest.raises(TensorError):
            MetricsReport({"action": 0.9, "verb": 1.0, "noun": 1.0},
                          {"action": 0.5, "verb": 1.0, "noun": 1.0},
                          {"action": 1.0, "verb": 1.0, "noun": 1.0})

    def test_csv_and_table_render(self):
        report = self.make_report()
        csv = report_csv(report)
        assert csv.splitlines()[0] == "head,top1,top5,mean_top5_recall"
        assert len(csv.splitlines()) == 4
        assert "action" in format_table(report)
