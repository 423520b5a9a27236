"""Finite-difference gradient verification for every layer and the full models.

The numeric side is an independent oracle: it only ever calls forward passes,
perturbing one scalar at a time with central differences. Analytic gradients
come from the hand-written backward passes. Errors are reported as
|a - n| / max(1, |a|, |n|), so the threshold acts relatively for O(1)
gradients and absolutely for tiny ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .branch import Branch, BranchConfig, multitask_loss
from .fusion import HEADS, FusionConfig, FusionModel, MODALITIES
from .layers import BatchNorm1d, Conv1d, Linear, ReLU, SoftmaxCrossEntropy, SpatialDropout
from .tensor import Rng

STEP = 1e-5


def finite_difference_grad(f: Callable[[], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x in place."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        up = f()
        flat[i] = orig - STEP
        down = f()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * STEP)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom)) if analytic.size else 0.0


@dataclass
class GradcheckRow:
    name: str
    configs: int
    max_rel_error: float

    def passed(self) -> bool:
        return self.max_rel_error < 1e-4


def _rand(rng: Rng, shape) -> np.ndarray:
    return rng.normal(0.0, 1.0, shape, "f64")


def _layer_error(layer, x: np.ndarray, gout: np.ndarray, params=(), **forward_kw) -> float:
    """Worst error of the input and ``params`` gradients of sum(layer(x) * gout), in
    train mode."""
    layer.training = True

    def f():
        return float((layer.forward(x, **forward_kw) * gout).sum())

    for p in params:
        p.zero_grad()
    f()
    analytic = [layer.backward(gout)] + [p.grad.copy() for p in params]
    return max(max_rel_error(a, finite_difference_grad(f, t))
               for t, a in zip([x] + [p.data for p in params], analytic))


def _model_error(model, x, labels, params) -> float:
    """Worst error of the ``params`` gradients of the train-mode loss of the model's
    logits."""
    model.train()

    def f():
        return multitask_loss(model.forward(x), labels)[0]

    for _, p in params:
        p.zero_grad()
    model.backward(multitask_loss(model.forward(x), labels)[1])
    return max(max_rel_error(p.grad, finite_difference_grad(f, p.data)) for _, p in params)


def check_conv1d(rng: Rng, configs: int = 20) -> float:
    worst = 0.0
    for _ in range(configs):
        b = int(rng.uniform(1, 4, ())) ; cin = int(rng.uniform(1, 5, ()))
        cout = int(rng.uniform(1, 5, ())) ; k = int(rng.uniform(1, 4, ()))
        d = int(rng.uniform(1, 4, ()))
        n = (k - 1) * d + 1 + int(rng.uniform(0, 5, ()))
        layer = Conv1d(cin, cout, k, d, dtype="f64", rng=rng)
        x = _rand(rng, (b, cin, n))
        gout = _rand(rng, (b, cout, layer.out_length(n)))
        worst = max(worst, _layer_error(layer, x, gout, (layer.weight, layer.bias)))
    return worst


def check_batchnorm(rng: Rng, configs: int = 20) -> float:
    worst = 0.0
    for _ in range(configs):
        b = 2 + int(rng.uniform(0, 3, ())) ; c = 1 + int(rng.uniform(0, 4, ()))
        n = 2 + int(rng.uniform(0, 5, ()))
        layer = BatchNorm1d(c, dtype="f64")
        layer.gamma.data = _rand(rng, (c,)) * 0.5 + 1.0
        layer.beta.data = _rand(rng, (c,)) * 0.1
        x = _rand(rng, (b, c, n))
        gout = _rand(rng, (b, c, n))
        worst = max(worst, _layer_error(layer, x, gout, (layer.gamma, layer.beta)))
    return worst


def check_spatial_dropout(rng: Rng, configs: int = 20) -> float:
    """Mask held fixed: the layer is then a constant elementwise scale."""
    worst = 0.0
    for _ in range(configs):
        b = 1 + int(rng.uniform(0, 3, ())) ; c = 1 + int(rng.uniform(0, 5, ()))
        n = 1 + int(rng.uniform(0, 5, ()))
        layer = SpatialDropout(0.5)
        mask = layer.sample_mask(b, c, rng, np.float64)
        x = _rand(rng, (b, c, n))
        gout = _rand(rng, (b, c, n))
        worst = max(worst, _layer_error(layer, x, gout, mask=mask))
    return worst


def check_linear(rng: Rng, configs: int = 20) -> float:
    worst = 0.0
    for _ in range(configs):
        b = 1 + int(rng.uniform(0, 4, ()))
        din = 1 + int(rng.uniform(0, 6, ())) ; dout = 1 + int(rng.uniform(0, 6, ()))
        layer = Linear(din, dout, dtype="f64", rng=rng)
        x = _rand(rng, (b, din))
        gout = _rand(rng, (b, dout))
        worst = max(worst, _layer_error(layer, x, gout, (layer.weight, layer.bias)))
    return worst


def check_relu(rng: Rng, configs: int = 20) -> float:
    worst = 0.0
    for _ in range(configs):
        shape = (1 + int(rng.uniform(0, 3, ())), 1 + int(rng.uniform(0, 6, ())))
        layer = ReLU()
        x = _rand(rng, shape)
        x[np.abs(x) < 0.1] += 0.2  # keep away from the kink
        gout = _rand(rng, shape)
        worst = max(worst, _layer_error(layer, x, gout))
    return worst


def check_softmax_ce(rng: Rng, configs: int = 20) -> float:
    worst = 0.0
    for _ in range(configs):
        b = 1 + int(rng.uniform(0, 4, ())) ; k = 2 + int(rng.uniform(0, 6, ()))
        logits = _rand(rng, (b, k))
        targets = (rng.uniform(0, 1, (b,), "f64") * k).astype(np.int64)
        layer = SoftmaxCrossEntropy()

        def f():
            return layer.forward(logits, targets)

        f()
        grad = layer.backward()
        worst = max(worst, max_rel_error(grad, finite_difference_grad(f, logits)))
    return worst


def check_branch(rng: Rng, configs: int = 20) -> float:
    """End-to-end loss gradient of every branch parameter (dropout off, BN train);
    ``Branch.backward`` returns no input gradient, so none is checked.

    The first configuration is the full four-block network over a 21-snippet
    window (B=2, D=3, C=6); the rest draw random shallow stacks.
    """
    worst = 0.0
    for i in range(configs):
        if i == 0:
            channels, dilations = 6, (1, 2, 3, 4)
        else:
            channels = 2 + int(rng.uniform(0, 5, ()))
            depth = 1 + int(rng.uniform(0, 2, ()))
            dilations = tuple(1 + int(rng.uniform(0, 2, ())) for _ in range(depth))
        cfg = BranchConfig(input_dim=3, num_actions=3, num_verbs=2, num_nouns=2,
                           channels=channels, kernel=3, dilations=dilations,
                           input_dropout=0.0, block_dropout=0.0, head_dropout=0.0,
                           dtype="f64")
        branch = Branch(cfg, rng)
        x = _rand(rng, (2, cfg.input_dim, cfg.required_length + int(rng.uniform(0, 3, ()))))
        labels = {"action": np.array([0, 2]), "verb": np.array([1, 0]), "noun": np.array([0, 1])}
        worst = max(worst, _model_error(branch, x, labels, branch.named_parameters()))
    return worst


def check_fusion(rng: Rng, configs: int = 20) -> float:
    """Fusion layers (branches frozen) through ``FusionModel.forward``: mutual_pairwise,
    then attention over the same features.

    The first configuration uses C=8, E=16, B=2; the rest draw random sizes.
    """
    worst = 0.0
    for i in range(configs):
        if i == 0:
            c, e, b = 8, 16, 2
        else:
            c = 2 + int(rng.uniform(0, 5, ()))
            e = 2 + int(rng.uniform(0, 8, ()))
            b = 1 + int(rng.uniform(0, 3, ()))
        bcfg = BranchConfig(input_dim=3, num_actions=3, num_verbs=2, num_nouns=2,
                            channels=c, kernel=1, dilations=(1,),
                            input_dropout=0.0, block_dropout=0.0, head_dropout=0.0,
                            dtype="f64")
        branches = {mod: Branch(bcfg, rng) for mod in MODALITIES}
        fcfg = FusionConfig(channels=c, num_actions=3, num_verbs=2, num_nouns=2,
                            strategy="mutual_pairwise", embed_dim=e, head_dropout=0.0)
        model = FusionModel(branches, fcfg, rng)
        model.attention_fc.weight.data = _rand(rng, model.attention_fc.weight.data.shape) * 0.3
        feats = {mod: _rand(rng, (b, c)) for mod in MODALITIES}
        labels = {head: (rng.uniform(0, 1, (b,), "f64") * k).astype(np.int64)
                  for head, k in fcfg.class_counts.items()}
        # mutual_pairwise reads only the features; attention also the logits drawn next
        outputs = {mod: {"feature": feats[mod], **dict.fromkeys(HEADS)} for mod in MODALITIES}
        worst = max(worst, _model_error(model, outputs, labels, model.trainable_parameters()))
        for mod in MODALITIES:
            for head, k in fcfg.class_counts.items():
                outputs[mod][head] = _rand(rng, (b, k))
        model.config = replace(fcfg, strategy="attention")
        worst = max(worst, _model_error(model, outputs, labels, model.trainable_parameters()))
    return worst


STANDARD_CHECKS = (
    ("conv1d", check_conv1d, 20),
    ("batchnorm1d", check_batchnorm, 20),
    ("spatial_dropout", check_spatial_dropout, 20),
    ("linear", check_linear, 20),
    ("relu", check_relu, 20),
    ("softmax_ce", check_softmax_ce, 20),
    ("branch", check_branch, 20),
    ("fusion", check_fusion, 20),
)


def run_standard_suite(seed: int = 0) -> list[GradcheckRow]:
    rows = []
    for name, fn, configs in STANDARD_CHECKS:
        rng = Rng(seed)
        rows.append(GradcheckRow(name, configs, fn(rng, configs)))
    return rows
