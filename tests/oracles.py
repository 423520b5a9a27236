"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive (explicit loops, no vectorized shortcuts
shared with the library) so the implementations under test are checked against
a second, independent route.
"""

from __future__ import annotations

import numpy as np


def conv1d_loops(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                 dilation: int, counter: "MacCounter | None" = None) -> np.ndarray:
    """Valid cross-correlation, scalar by scalar."""
    b, c_in, n = x.shape
    c_out, _, k = weight.shape
    n_out = n - (k - 1) * dilation
    out = np.zeros((b, c_out, n_out), dtype=x.dtype)
    for bi in range(b):
        for o in range(c_out):
            for t in range(n_out):
                s = bias[o]
                for i in range(c_in):
                    for kk in range(k):
                        s = s + weight[o, i, kk] * x[bi, i, t + kk * dilation]
                        if counter is not None and bi == 0:
                            counter.macs += 1
                out[bi, o, t] = s
    return out


class MacCounter:
    """Multiply-accumulate counter threaded through the naive forward loops."""

    def __init__(self):
        self.macs = 0


def lstm_cell_mac_count(input_dim: int, hidden: int) -> int:
    """MACs of one 4-gate cell step, counted by walking the gate loops."""
    macs = 0
    for _gate in range(4):
        for _row in range(hidden):
            for _col in range(input_dim):
                macs += 1
            for _col in range(hidden):
                macs += 1
    return macs


def branch_mac_loops(input_dim: int, channels: int, kernel: int,
                     dilations: tuple[int, ...], n: int) -> int:
    """Conv MACs of a branch forward, counted via the naive conv loops."""
    counter = MacCounter()
    x = np.zeros((1, input_dim, n))
    w = np.zeros((channels, input_dim, 1))
    conv1d_loops(x, w, np.zeros(channels), 1, counter)
    z_len = n
    for d in dilations:
        w = np.zeros((channels, channels, kernel))
        conv1d_loops(np.zeros((1, channels, z_len)), w, np.zeros(channels), d, counter)
        z_len -= (kernel - 1) * d
    return counter.macs


def top_k_accuracy_loops(logits: np.ndarray, labels: np.ndarray, k: int) -> float:
    hits = 0
    for row, label in zip(logits, labels):
        order = sorted(range(len(row)), key=lambda c: (-row[c], c))
        hits += int(label in order[:k])
    return hits / len(labels)


def class_mean_top5_recall_loops(logits: np.ndarray, labels: np.ndarray, k: int = 5) -> float:
    recalls = []
    for c in sorted(set(int(v) for v in labels)):
        rows = [i for i, lab in enumerate(labels) if lab == c]
        hit = 0
        for i in rows:
            order = sorted(range(logits.shape[1]), key=lambda j: (-logits[i, j], j))
            hit += int(c in order[:k])
        recalls.append(hit / len(rows))
    return float(np.mean(recalls))


def nearest_template_predict(sequences: np.ndarray, templates: np.ndarray,
                             last_n: int | None = None) -> np.ndarray:
    """Min squared distance to each class's expected sequence; ties to lower id."""
    seq = sequences if last_n is None else sequences[:, -last_n:, :]
    tem = templates if last_n is None else templates[:, -last_n:, :]
    d = ((seq[:, None, :, :] - tem[None, :, :, :]) ** 2).sum(axis=(2, 3))
    return d.argmin(axis=1)
