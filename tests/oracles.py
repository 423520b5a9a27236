"""Independent brute-force oracles used across the test suite.

Everything here is deliberately naive (explicit loops, no vectorized shortcuts
shared with the library) so the implementations under test are checked against
a second, independent route. The concurrency tests also share two helpers:
``assert_same`` compares a concurrent result with the serial one, and
``exit_code_in_a_child`` runs a call in a forked process that a hang cannot
keep alive.
"""

from __future__ import annotations

import os
import time
import warnings

import numpy as np

# GEMMs sum in an order that depends on the BLAS thread count, so a pass is bitwise
# reproducible only at a fixed count; CI runs the concurrency oracles at one thread too.
ONE_BLAS_THREAD = os.environ.get("OPENBLAS_NUM_THREADS") == "1"


def assert_same(got, want, dtype, probabilities=False):
    """Bitwise at one BLAS thread; otherwise within the eval tolerance, relative over
    probabilities above 1e-6 or to the largest feature. Every row of k probabilities
    holds one of at least 1/k, so a row with none above 1e-6 is no distribution."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if ONE_BLAS_THREAD:
        assert got.tobytes() == want.tobytes()
        return
    tol = 1e-10 if dtype == "f64" else 1e-5
    if probabilities:
        keep = want > 1e-6
        assert keep.any(axis=-1).all(), "no probability above 1e-6 to compare in a row"
        assert np.all(np.abs(got - want)[keep] <= tol * want[keep])
    else:
        assert np.abs(got - want).max() <= tol * max(1.0, float(np.abs(want).max()))


def exit_code_in_a_child(fn, seconds: float = 30) -> int | None:
    """Forks a child that exits 0 if ``fn()`` returns true, 3 if false and 1 if it
    raises; its exit code, or None if it had not exited within ``seconds`` (it is
    then killed)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # forking a threaded process
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if fn() else 3
        finally:
            os._exit(code)
    deadline = time.monotonic() + seconds
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.05)
    if status[0] == 0:
        os.kill(pid, 9)
        os.waitpid(pid, 0)
        return None
    return os.waitstatus_to_exitcode(status[1])


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


def branch_eval_loops(branch, x: np.ndarray) -> dict[str, np.ndarray]:
    """Eval-mode branch forward over the full window: every conv position through
    ``conv1d_loops``, BN from its running statistics, the residual and ReLU, then
    the heads on the last column."""
    z = conv1d_loops(x, branch.embed.weight.data, branch.embed.bias.data, 1)
    for blk in branch.blocks:
        conv, bn = blk.conv, blk.bn
        y = conv1d_loops(z, conv.weight.data, conv.bias.data, conv.dilation)
        scale = bn.gamma.data / np.sqrt(bn.running_var + bn.eps)
        y = (y - bn.running_mean[None, :, None]) * scale[None, :, None]
        y = y + bn.beta.data[None, :, None]
        z = np.maximum(y + z[:, :, z.shape[2] - y.shape[2]:], 0)
    out = {"feature": z[:, :, -1]}
    for head, (_, fc) in branch.heads.items():
        out[head] = out["feature"] @ fc.weight.data.T + fc.bias.data
    return out


def batchnorm_train_loops(y: np.ndarray, bn) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Train-mode BN of ``y`` from its batch statistics, pooled over batch and time
    one scalar at a time, plus the running mean and variance the step leaves."""
    b, c, n = y.shape
    out = np.empty_like(y)
    running_mean, running_var = bn.running_mean.copy(), bn.running_var.copy()
    for ch in range(c):
        vals = [float(y[bi, ch, t]) for bi in range(b) for t in range(n)]
        mean = sum(vals) / len(vals)
        var = sum((v - mean) ** 2 for v in vals) / len(vals)
        inv = 1.0 / np.sqrt(var + bn.eps)
        for bi in range(b):
            for t in range(n):
                out[bi, ch, t] = (y[bi, ch, t] - mean) * inv * bn.gamma.data[ch] + bn.beta.data[ch]
        running_mean[ch] = (1 - bn.momentum) * running_mean[ch] + bn.momentum * mean
        running_var[ch] = (1 - bn.momentum) * running_var[ch] + bn.momentum * var
    return out, running_mean, running_var


def batchnorm_backward_whole(g: np.ndarray, xhat: np.ndarray, inv: np.ndarray,
                             gamma: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BN backward as the package computed it on whole (C, N*B) arrays before it ran in
    blocks of rows: the gamma and beta gradients and the (C, N*B) input gradient."""
    m = xhat.shape[1]
    dgamma, dbeta = (g * xhat).sum(axis=1), g.sum(axis=1)
    dxhat = g * gamma[:, None]
    sum_dxhat = dxhat.sum(axis=1, keepdims=True)
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=1, keepdims=True)
    return dgamma, dbeta, (inv[:, None] / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)


def cross_entropy_loops(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-softmax of each row's label, one row at a time."""
    total = 0.0
    for row, label in zip(logits, labels):
        top = max(row)
        total += -(row[label] - top - np.log(sum(np.exp(v - top) for v in row)))
    return total / len(labels)


def branch_train_loops(branch, x: np.ndarray, labels: dict) -> dict:
    """Train-mode branch forward with every dropout off: each conv through
    ``conv1d_loops``, BN from the batch's statistics through ``batchnorm_train_loops``,
    the residual and ReLU, then the heads on the last column. Returns the feature, each
    head's logits, the summed loss under ``"loss"``, and each block's updated running
    statistics under ``"running_mean"`` and ``"running_var"``; the branch is not
    changed."""
    z = conv1d_loops(x, branch.embed.weight.data, branch.embed.bias.data, 1)
    means, variances = [], []
    for blk in branch.blocks:
        conv = blk.conv
        y = conv1d_loops(z, conv.weight.data, conv.bias.data, conv.dilation)
        y, mean, var = batchnorm_train_loops(y, blk.bn)
        means.append(mean)
        variances.append(var)
        z = np.maximum(y + z[:, :, z.shape[2] - y.shape[2]:], 0)
    out = {"feature": z[:, :, -1], "running_mean": means, "running_var": variances}
    for head, (_, fc) in branch.heads.items():
        out[head] = out["feature"] @ fc.weight.data.T + fc.bias.data
    out["loss"] = sum(cross_entropy_loops(out[head], labels[head]) for head in branch.heads)
    return out


def fusion_logits_unfolded(model, feats: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """The feature strategies' eval-mode logits, layer after layer from the weights."""
    strategy = model.config.strategy

    def affine(layer, v):
        return v @ layer.weight.data.T + layer.bias.data

    parts = []
    if strategy in ("pairwise", "mutual_pairwise"):
        g = [affine(fc, np.concatenate([feats[a], feats[b]], axis=1))
             for (a, b), fc in model.pairwise_fc.items()]
        parts.append(affine(model.pairwise_merge, np.concatenate(g, axis=1)))
    if strategy in ("mutual", "mutual_pairwise"):
        fcat = np.concatenate([feats[mod] for mod in ("rgb", "flow", "obj")], axis=1)
        parts.append(affine(model.mutual_fc, fcat))
    h = sum(parts)
    return {head: affine(fc, h) for head, (_, fc) in model.heads.items()}


def fold_whole_f64(model) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """The eval-mode fold of the model's feature strategy as the package built it before
    it converted weights block by block: each whole weight cast to f64, then one GEMM."""
    modalities = ("rgb", "flow", "obj")
    strategy = model.config.strategy
    c, e = model.config.channels, model.config.embed_dim

    def f64(a):
        return a.astype(np.float64)

    heads = np.concatenate([f64(fc.weight.data) for _, fc in model.heads.values()])
    mat = np.zeros((heads.shape[0], 3 * c))
    bias = np.concatenate([f64(fc.bias.data) for _, fc in model.heads.values()])
    if strategy in ("pairwise", "mutual_pairwise"):
        merged = heads @ f64(model.pairwise_merge.weight.data)
        bias += heads @ f64(model.pairwise_merge.bias.data)
        for i, ((a, b), fc) in enumerate(model.pairwise_fc.items()):
            part = merged[:, i * e:(i + 1) * e]
            w = part @ f64(fc.weight.data)
            for mod, cols in ((a, w[:, :c]), (b, w[:, c:])):
                j = modalities.index(mod) * c
                mat[:, j:j + c] += cols
            bias += part @ f64(fc.bias.data)
    if strategy in ("mutual", "mutual_pairwise"):
        mat += heads @ f64(model.mutual_fc.weight.data)
        bias += heads @ f64(model.mutual_fc.bias.data)
    dt = model.mutual_fc.weight.data.dtype
    fold, row = {}, 0
    for head, (_, fc) in model.heads.items():
        k = fc.out_features
        fold[head] = (mat[row:row + k].astype(dt), bias[row:row + k].astype(dt))
        row += k
    return fold


def max_rel_prob_error(logits: np.ndarray, want_logits: np.ndarray, floor: float = 1e-6) -> float:
    """Largest relative error of softmax(logits) against softmax(want_logits), over
    the reference probabilities above ``floor``."""
    def softmax(v):
        e = np.exp(v - v.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    p, q = softmax(np.asarray(logits, np.float64)), softmax(np.asarray(want_logits, np.float64))
    keep = q > floor
    return float(np.max(np.abs(p - q)[keep] / q[keep], initial=0.0))


def attention_grads_of_mixed_probs(model, outputs: dict, labels: dict
                                   ) -> tuple[float, np.ndarray, np.ndarray]:
    """Attention fusion scored as the mixed probabilities themselves, in f64: the loss
    is each head's mean negative log of the label's mixed probability, clipped at
    1e-12, and the gradient runs back through the mixture and the softmax of the
    weights by hand. Returns the loss and the attention layer's weight and bias
    gradients."""
    def softmax(v):
        e = np.exp(v - v.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    mods = ("rgb", "flow", "obj")
    fc = model.attention_fc
    fcat = np.concatenate([np.asarray(outputs[m]["feature"], np.float64) for m in mods], axis=1)
    w = softmax(fcat @ fc.weight.data.astype(np.float64).T + fc.bias.data.astype(np.float64))
    b = fcat.shape[0]
    loss, grad_w = 0.0, np.zeros_like(w)
    for head, label in labels.items():
        probs = [softmax(np.asarray(outputs[m][head], np.float64)) for m in mods]
        for r in range(b):
            t = int(label[r])
            picked = max(sum(w[r, i] * probs[i][r, t] for i in range(3)), 1e-12)
            loss -= np.log(picked) / b
            for i in range(3):  # d(-log picked / b) / dw_i
                grad_w[r, i] -= probs[i][r, t] / (picked * b)
    grad_z = np.zeros_like(w)
    for r in range(b):
        for j in range(3):
            grad_z[r, j] = w[r, j] * (grad_w[r, j] - sum(grad_w[r, i] * w[r, i]
                                                         for i in range(3)))
    return loss, grad_z.T @ fcat, grad_z.sum(axis=0)
