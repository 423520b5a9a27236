"""Multi-modal fusion over frozen per-branch features.

Five strategies combine the rgb/flow/obj branches:

* ``late``            - average the branch probability distributions
* ``attention``       - per-sample learned convex weights over branch probabilities
* ``mutual``          - one projection of the concatenated features
* ``pairwise``        - projections of each two-modality concat, merged by a further layer
* ``mutual_pairwise`` - element-wise sum of the mutual and pairwise embeddings

Branches are always evaluated frozen in eval mode; only fusion-layer and head
parameters ever receive gradients. The fusion layers take the branches' dtype.

``FusionModel`` offers the interface a ``Branch`` does, so one training step
serves both: ``forward(outputs, rng)`` maps the branch outputs to per-head
scores (fused logits for the feature strategies, mixed probabilities for late
and attention), ``loss(scores, labels)`` returns the loss and its score
gradients, ``backward(grads)`` fills the parameter gradients, and
``trainable_parameters()`` lists the layers the strategy trains. These four,
and ``predict_proba``'s softmax of fused logits, are where the strategy is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .branch import HEADS, Branch, BranchOutput, multitask_loss
from .layers import Linear, Parameter, SpatialDropout, Stateful, softmax
from .tensor import Rng, Tensor, TensorError

MODALITIES = ("rgb", "flow", "obj")
PAIRS = (("rgb", "flow"), ("rgb", "obj"), ("flow", "obj"))
STRATEGIES = ("late", "attention", "mutual", "pairwise", "mutual_pairwise")
FEATURE_STRATEGIES = ("mutual", "pairwise", "mutual_pairwise")
_PROB_TOL = 1e-6


@dataclass(frozen=True)
class FusionConfig:
    channels: int
    num_actions: int
    num_verbs: int
    num_nouns: int
    strategy: str = "mutual_pairwise"
    embed_dim: int = 1024
    head_dropout: float = 0.8

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise TensorError(f"unknown fusion strategy {self.strategy!r}; pick from {STRATEGIES}")
        if not 0.0 <= self.head_dropout < 1.0:
            raise TensorError(f"head_dropout must be in [0, 1), got {self.head_dropout}")
        for name in ("channels", "num_actions", "num_verbs", "num_nouns", "embed_dim"):
            if getattr(self, name) < 1:
                raise TensorError(f"{name} must be positive")

    @property
    def class_counts(self) -> dict[str, int]:
        return {"action": self.num_actions, "verb": self.num_verbs, "noun": self.num_nouns}


def _check_probs(p: Tensor, who: str) -> None:
    sums = p.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _PROB_TOL) or np.any(p < 0):
        raise TensorError(f"{who} expects softmax distributions (rows summing to 1)")


def late_fusion(probs_rgb: Tensor, probs_flow: Tensor, probs_obj: Tensor) -> Tensor:
    """Arithmetic mean of three per-class distributions."""
    for p in (probs_rgb, probs_flow, probs_obj):
        _check_probs(p, "late_fusion")
    return (probs_rgb + probs_flow + probs_obj) / 3.0


class FusionModel(Stateful):
    """Three frozen branches plus the trainable fusion layers and heads.
    Without an ``rng`` the fusion weights start at zero, for a caller that loads them."""

    def __init__(self, branches: dict[str, Branch], config: FusionConfig, rng: Rng | None):
        if set(branches) != set(MODALITIES):
            raise TensorError(f"fusion needs branches for {MODALITIES}, got {sorted(branches)}")
        dt = branches["rgb"].config.dtype
        for mod in MODALITIES:
            bcfg = branches[mod].config
            if (bcfg.channels, bcfg.dtype) != (config.channels, dt):
                raise TensorError(
                    f"{mod} branch has {bcfg.channels} {bcfg.dtype} channels, "
                    f"fusion expects {config.channels} {dt}")
            branches[mod].eval()
        self.branches = branches
        self.config = config
        c, e = config.channels, config.embed_dim
        self.pairwise_fc = {pair: Linear(2 * c, e, dtype=dt, rng=rng) for pair in PAIRS}
        self.pairwise_merge = Linear(3 * e, e, dtype=dt, rng=rng)
        self.mutual_fc = Linear(3 * c, e, dtype=dt, rng=rng)
        # zero init: attention starts at uniform weights, i.e. exactly late fusion
        self.attention_fc = Linear(3 * c, len(MODALITIES), dtype=dt)
        self.heads = {
            head: (SpatialDropout(config.head_dropout), Linear(e, k, dtype=dt, rng=rng))
            for head, k in config.class_counts.items()
        }
        self.training = False
        self._cache = None
        self._att_cache = None

    # -- plumbing -------------------------------------------------------------

    def train(self) -> "FusionModel":
        return self._set_mode(True)

    def eval(self) -> "FusionModel":
        return self._set_mode(False)

    def _set_mode(self, training: bool) -> "FusionModel":
        self.training = training
        for drop, _ in self.heads.values():
            drop.training = training
        for mod in MODALITIES:
            self.branches[mod].eval()  # branches stay frozen regardless
        return self

    def named_fusion_parameters(self) -> list[tuple[str, Parameter]]:
        out = []
        for (a, b), fc in self.pairwise_fc.items():
            out += [(f"fusion.pairwise.{a}_{b}.{n}", p) for n, p in fc.parameters()]
        out += [(f"fusion.pairwise_merge.{n}", p) for n, p in self.pairwise_merge.parameters()]
        out += [(f"fusion.mutual.{n}", p) for n, p in self.mutual_fc.parameters()]
        out += [(f"fusion.attention.{n}", p) for n, p in self.attention_fc.parameters()]
        for head in HEADS:
            out += [(f"fusion.heads.{head}.{n}", p) for n, p in self.heads[head][1].parameters()]
        return out

    def state_slots(self) -> dict[str, tuple[object, str]]:
        """Fusion parameters, then each branch's state under ``branches.{modality}.``."""
        slots = {name: (p, "data") for name, p in self.named_fusion_parameters()}
        for mod in MODALITIES:
            for name, slot in self.branches[mod].state_slots().items():
                slots[f"branches.{mod}.{name}"] = slot
        return slots

    # -- branch pass ------------------------------------------------------------

    def branch_outputs(self, inputs: dict[str, Tensor]) -> dict[str, BranchOutput]:
        """One frozen eval-mode forward per modality."""
        return {mod: self.branches[mod].eval().forward(inputs[mod]) for mod in MODALITIES}

    # -- feature fusion (mutual / pairwise / mutual_pairwise) --------------------

    def fuse_forward(self, feats: dict[str, Tensor], rng: Rng | None = None) -> dict[str, Tensor]:
        strategy = self.config.strategy
        if strategy not in FEATURE_STRATEGIES:
            raise TensorError(f"fuse_forward handles {FEATURE_STRATEGIES}, not {strategy!r}")
        f = [feats[mod] for mod in MODALITIES]
        if any(x.shape != f[0].shape for x in f):
            raise TensorError("branch features disagree in shape")
        h = None
        if strategy in ("pairwise", "mutual_pairwise"):
            g = [self.pairwise_fc[(a, b)].forward(
                    np.concatenate([feats[a], feats[b]], axis=1)) for a, b in PAIRS]
            h = self.pairwise_merge.forward(np.concatenate(g, axis=1))
        if strategy in ("mutual", "mutual_pairwise"):
            m = self.mutual_fc.forward(np.concatenate(f, axis=1))
            h = m if h is None else h + m
        logits = {}
        for head in HEADS:
            drop, fc = self.heads[head]
            logits[head] = fc.forward(drop.forward(h, rng))
        self._cache = strategy
        return logits

    def fuse_backward(self, grad_logits: dict[str, Tensor]) -> None:
        """Backprop into fusion parameters only; the frozen features get no gradient."""
        if self._cache is None:
            raise TensorError("fuse_backward before fuse_forward")
        strategy = self._cache
        e = self.config.embed_dim
        grad_h = None
        for head in HEADS:
            drop, fc = self.heads[head]
            g = drop.backward(fc.backward(grad_logits[head]))
            grad_h = g if grad_h is None else grad_h + g
        if strategy in ("mutual", "mutual_pairwise"):
            self.mutual_fc.backward(grad_h)
        if strategy in ("pairwise", "mutual_pairwise"):
            gg = self.pairwise_merge.backward(grad_h)
            for i, pair in enumerate(PAIRS):
                self.pairwise_fc[pair].backward(gg[:, i * e:(i + 1) * e])

    # -- attention fusion ---------------------------------------------------------

    def attention_forward(self, feats: dict[str, Tensor],
                          probs: dict[str, dict[str, Tensor]]) -> dict[str, Tensor]:
        """Convex per-sample mix of branch probabilities; weights from features."""
        for mod in MODALITIES:
            for head in HEADS:
                _check_probs(probs[mod][head], "attention_fusion")
        fcat = np.concatenate([feats[mod] for mod in MODALITIES], axis=1)
        w = softmax(self.attention_fc.forward(fcat))  # (B, 3)
        mixed = {}
        for head in HEADS:
            mixed[head] = sum(w[:, i:i + 1] * probs[mod][head]
                              for i, mod in enumerate(MODALITIES))
        self._att_cache = (w, probs)
        return mixed

    def attention_backward(self, grad_mixed: dict[str, Tensor]) -> None:
        if self._att_cache is None:
            raise TensorError("attention_backward before attention_forward")
        w, probs = self._att_cache
        grad_w = np.zeros_like(w)
        for head in HEADS:
            for i, mod in enumerate(MODALITIES):
                grad_w[:, i] += (grad_mixed[head] * probs[mod][head]).sum(axis=1)
        # softmax jacobian: dz = w * (gw - sum(gw * w))
        grad_z = w * (grad_w - (grad_w * w).sum(axis=1, keepdims=True))
        self.attention_fc.backward(grad_z)

    # -- the interface both trainers and the predictor use ------------------------

    def forward(self, outputs: dict[str, BranchOutput], rng: Rng | None = None
                ) -> dict[str, Tensor]:
        """Per-head scores from the branch outputs: fused logits for the feature
        strategies, mixed class probabilities for late and attention."""
        strategy = self.config.strategy
        feats = {mod: out.feature for mod, out in outputs.items()}
        if strategy in FEATURE_STRATEGIES:
            return self.fuse_forward(feats, rng)
        probs = {mod: {head: softmax(out[head]) for head in HEADS}
                 for mod, out in outputs.items()}
        if strategy == "late":
            return {head: late_fusion(*(probs[mod][head] for mod in MODALITIES))
                    for head in HEADS}
        return self.attention_forward(feats, probs)

    def loss(self, scores: dict[str, Tensor],
             labels: dict[str, np.ndarray]) -> tuple[float, dict[str, Tensor]]:
        if self.config.strategy in FEATURE_STRATEGIES:
            return multitask_loss(scores, labels)
        return mixed_probs_loss(scores, labels)

    def backward(self, grads: dict[str, Tensor]) -> None:
        strategy = self.config.strategy
        if strategy in FEATURE_STRATEGIES:
            self.fuse_backward(grads)
        elif strategy == "attention":
            self.attention_backward(grads)

    def trainable_parameters(self) -> list[tuple[str, Parameter]]:
        """None for late, the weighting layer for attention, every other fusion
        layer for the feature strategies."""
        strategy = self.config.strategy
        if strategy == "late":
            return []
        attention = strategy == "attention"
        return [(name, p) for name, p in self.named_fusion_parameters()
                if name.startswith("fusion.attention.") == attention]

    def predict_proba(self, inputs: dict[str, Tensor]) -> dict[str, Tensor]:
        """Eval-mode class distributions per head for the configured strategy."""
        was_training = self.training
        scores = self.eval().forward(self.branch_outputs(inputs))
        if was_training:
            self.train()
        if self.config.strategy in FEATURE_STRATEGIES:
            return {head: softmax(scores[head]) for head in HEADS}
        return scores


def mixed_probs_loss(mixed: dict[str, Tensor],
                     labels: dict[str, np.ndarray]) -> tuple[float, dict[str, Tensor]]:
    """NLL of already-mixed probabilities (attention path) plus gradients."""
    total = 0.0
    grads = {}
    eps = 1e-12
    for head in HEADS:
        p = mixed[head]
        n, k = p.shape
        t = np.asarray(labels[head])
        if t.size and (t.min() < 0 or t.max() >= k):
            raise TensorError(f"label out of range [0, {k})")
        picked = np.clip(p[np.arange(n), t], eps, None)
        total += float(-np.log(picked).mean())
        g = np.zeros_like(p)
        g[np.arange(n), t] = -1.0 / (picked * n)
        grads[head] = g
    return total, grads
