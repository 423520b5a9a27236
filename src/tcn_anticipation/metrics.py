"""Evaluation metrics: top-k accuracy and class-mean top-5 recall."""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .data import HEADS
from .tensor import Tensor, TensorError, argsort_desc


def top_k_accuracy(logits: Tensor, labels, k: int) -> float:
    """Fraction of rows whose label lands in the k highest logits.

    Ties are broken by ascending class index (stable sort), so results are
    deterministic for equal scores.
    """
    labels = _checked(logits, labels, k)
    topk = argsort_desc(logits, axis=1)[:, :k]
    return float((topk == labels[:, None]).any(axis=1).mean())


def class_mean_top5_recall(logits: Tensor, labels) -> float:
    """Per-class top-5 recall averaged over classes present in the labels."""
    labels = _checked(logits, labels, 5)
    top5 = argsort_desc(logits, axis=1)[:, :5]
    hit = (top5 == labels[:, None]).any(axis=1)
    recalls = [float(hit[labels == c].mean()) for c in np.unique(labels)]
    return float(np.mean(recalls))


def _checked(logits: Tensor, labels, k: int) -> np.ndarray:
    """``labels`` as an array: one class index in ``[0, logits.shape[1])`` per row,
    scored over the top ``k >= 1``."""
    if k < 1:
        raise TensorError(f"k must be >= 1, got {k}")
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.ndim != 1 or logits.shape[0] != labels.shape[0]:
        raise TensorError(f"bad metric shapes: {logits.shape} vs {labels.shape}")
    if logits.shape[0] == 0:
        raise TensorError("metrics need at least one sample")
    if labels.min() < 0 or labels.max() >= logits.shape[1]:
        raise TensorError(f"labels {labels.min()} to {labels.max()} leave [0, {logits.shape[1]})")
    return labels


@dataclass(frozen=True)
class MetricsReport:
    top1: dict[str, float]
    top5: dict[str, float]
    mean_top5_recall: dict[str, float]

    def __post_init__(self):
        for head in HEADS:
            for table in (self.top1, self.top5, self.mean_top5_recall):
                v = table[head]
                if not 0.0 <= v <= 1.0:
                    raise TensorError(f"metric out of [0, 1]: {head}={v}")
            if self.top5[head] < self.top1[head] - 1e-12:
                raise TensorError(f"top5 < top1 for {head}")

    def as_rows(self) -> list[tuple[str, float, float, float]]:
        return [(head, self.top1[head], self.top5[head], self.mean_top5_recall[head])
                for head in HEADS]


def evaluate_predictions(logits: dict[str, Tensor], labels: dict[str, np.ndarray]
                         ) -> MetricsReport:
    top1, top5, recall = {}, {}, {}
    for head in HEADS:
        top1[head] = top_k_accuracy(logits[head], labels[head], 1)
        top5[head] = top_k_accuracy(logits[head], labels[head], 5)
        recall[head] = class_mean_top5_recall(logits[head], labels[head])
    return MetricsReport(top1, top5, recall)


def report_csv(report: MetricsReport) -> str:
    out = io.StringIO()
    out.write("head,top1,top5,mean_top5_recall\n")
    for head, t1, t5, r in report.as_rows():
        out.write(f"{head},{t1:.6f},{t5:.6f},{r:.6f}\n")
    return out.getvalue()


def format_table(report: MetricsReport) -> str:
    lines = [f"{'head':<8}{'top-1':>8}{'top-5':>8}{'cm-recall@5':>13}"]
    for head, t1, t5, r in report.as_rows():
        lines.append(f"{head:<8}{t1:>8.4f}{t5:>8.4f}{r:>13.4f}")
    return "\n".join(lines)
