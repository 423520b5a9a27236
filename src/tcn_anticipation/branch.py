"""Uni-modal anticipation branch: embedding conv, dilated residual blocks, heads.

The branch embeds a (batch, dim, snippets) feature sequence to C channels with
a pointwise conv, then applies L residual blocks whose dilated valid convs
shrink the sequence until a single feature vector remains. Because block
outputs are shorter than their inputs, the residual keeps only the most recent
timesteps of the incoming sequence. Three classification heads (action, verb,
noun) read the final feature vector.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .layers import (BatchNorm1d, Conv1d, Layout, Linear, Model, ReLU, SoftmaxCrossEntropy,
                     SpatialDropout)
from .tensor import Rng, Tensor, TensorError

HEADS = ("action", "verb", "noun")


def required_input_length(kernel: int, dilations) -> int:
    """Snippet count consumed by a stack of valid dilated convs: 1 + (K-1)*sum(d)."""
    dilations = tuple(int(d) for d in dilations)
    if kernel < 1:
        raise TensorError(f"kernel must be >= 1, got {kernel}")
    if not dilations or any(d < 1 for d in dilations):
        raise TensorError(f"dilations must be non-empty and positive, got {dilations}")
    return 1 + (kernel - 1) * sum(dilations)


@dataclass(frozen=True)
class BranchConfig:
    input_dim: int
    num_actions: int
    num_verbs: int
    num_nouns: int
    channels: int = 1024
    kernel: int = 3
    dilations: tuple[int, ...] = (1, 2, 3, 4)
    input_dropout: float = 0.3
    block_dropout: float = 0.5
    head_dropout: float = 0.7
    dtype: str = "f32"

    def __post_init__(self):
        object.__setattr__(self, "dilations", tuple(int(d) for d in self.dilations))
        for name in ("input_dim", "num_actions", "num_verbs", "num_nouns", "channels", "kernel"):
            if getattr(self, name) < 1:
                raise TensorError(f"{name} must be positive")
        required_input_length(self.kernel, self.dilations)
        for name in ("input_dropout", "block_dropout", "head_dropout"):
            p = getattr(self, name)
            if not 0.0 <= p < 1.0:
                raise TensorError(f"{name} must be in [0, 1), got {p}")

    @property
    def required_length(self) -> int:
        return required_input_length(self.kernel, self.dilations)

    @property
    def class_counts(self) -> dict[str, int]:
        return {"action": self.num_actions, "verb": self.num_verbs, "noun": self.num_nouns}

    def layout(self, rng: Rng | None = None) -> Layout:
        """Every layer with its constructor args, in build order, which is also the
        order of the initial weight draws from ``rng``."""
        c, dt = self.channels, self.dtype
        layout = {"input_drop": (SpatialDropout, (self.input_dropout,)),
                  "embed": (Conv1d, (self.input_dim, c, 1, 1, dt, rng))}
        for i, d in enumerate(self.dilations):
            layout[f"blocks.{i}.conv"] = (Conv1d, (c, c, self.kernel, d, dt, rng))
            layout[f"blocks.{i}.bn"] = (BatchNorm1d, (c, dt))
            layout[f"blocks.{i}.drop"] = (SpatialDropout, (self.block_dropout,))
        for head, k in self.class_counts.items():
            layout[f"heads.{head}.drop"] = (SpatialDropout, (self.head_dropout,))
            layout[f"heads.{head}"] = (Linear, (c, k, dt, rng))
        return layout

    def block_lengths(self, n: int) -> list[int]:
        """Temporal length after each residual block for an n-snippet input."""
        out = []
        for d in self.dilations:
            n = n - (self.kernel - 1) * d
            out.append(n)
        return out

    def for_snippets(self, n: int) -> "BranchConfig":
        """Adapt the dilation schedule to an n-snippet window.

        Keeps the largest prefix of the base schedule whose receptive field
        fits within n; the remaining slack is absorbed by taking the most
        recent output timestep.
        """
        for cut in range(len(self.dilations), 0, -1):
            prefix = self.dilations[:cut]
            if required_input_length(self.kernel, prefix) <= n:
                return replace(self, dilations=prefix)
        raise TensorError(f"{n} snippets cannot cover even one block (K={self.kernel})")


@dataclass
class BranchOutput:
    """The final feature vector and, indexed by head name, the per-head logits."""

    feature: Tensor
    action: Tensor
    verb: Tensor
    noun: Tensor

    def __getitem__(self, head: str) -> Tensor:
        return getattr(self, head)


class _ResidualBlock:
    """conv -> BN -> spatial dropout, plus the truncated residual, then ReLU."""

    def __init__(self, layers: dict, prefix: str):
        self.conv, self.bn, self.drop = (layers[prefix + p] for p in (".conv", ".bn", ".drop"))
        self.relu = ReLU()
        self._n_out = 0

    def forward(self, z: Tensor, rng: Rng | None) -> Tensor:
        y = self.drop.forward(self.bn.forward(self.conv.forward(z)), rng)
        self._n_out = y.shape[2]
        residual = z[:, :, z.shape[2] - self._n_out:]
        return self.relu.forward(y + residual)

    def backward(self, grad_out: Tensor) -> Tensor:
        g = self.relu.backward(grad_out)
        grad_z = self.conv.backward(self.bn.backward(self.drop.backward(g)))
        grad_z[:, :, grad_z.shape[2] - self._n_out:] += g
        return grad_z


class Branch(Model):
    """The uni-modal network, built from ``config.layout(rng)``. Single training writer;
    eval forwards are pure. Without an ``rng`` the weights start at zero, for a caller
    that loads them."""

    def __init__(self, config: BranchConfig, rng: Rng | None):
        super().__init__(config.layout(rng))
        self.config = config
        layers = self.layers
        self.input_drop, self.embed = layers["input_drop"], layers["embed"]
        self.blocks = [_ResidualBlock(layers, f"blocks.{i}") for i in range(len(config.dilations))]
        self.heads = {head: (layers[f"heads.{head}.drop"], layers[f"heads.{head}"])
                      for head in HEADS}
        self._final_shape: tuple[int, ...] | None = None

    # -- forward / backward -------------------------------------------------------

    def forward(self, x: Tensor, rng: Rng | None = None) -> BranchOutput:
        c = self.config
        if x.ndim != 3 or x.shape[1] != c.input_dim:
            raise TensorError(f"branch expected (B, {c.input_dim}, N), got {x.shape}")
        if x.shape[2] < c.required_length:
            raise TensorError(
                f"sequence of {x.shape[2]} snippets is shorter than the "
                f"receptive field {c.required_length}")
        z = self.embed.forward(self.input_drop.forward(x, rng))
        for blk in self.blocks:
            z = blk.forward(z, rng)
        self._final_shape = z.shape
        feature = np.ascontiguousarray(z[:, :, -1])
        logits = {}
        for head in HEADS:
            drop, fc = self.heads[head]
            logits[head] = fc.forward(drop.forward(feature, rng))
        return BranchOutput(feature=feature, **logits)

    def backward(self, grad_logits: dict[str, Tensor]) -> Tensor:
        if self._final_shape is None:
            raise TensorError("branch backward before forward")
        b, ch, _ = self._final_shape
        grad_feature = np.zeros((b, ch), dtype=self.embed.weight.data.dtype)
        for head in HEADS:
            drop, fc = self.heads[head]
            grad_feature += drop.backward(fc.backward(grad_logits[head]))
        grad_z = np.zeros(self._final_shape, dtype=grad_feature.dtype)
        grad_z[:, :, -1] = grad_feature
        for blk in reversed(self.blocks):
            grad_z = blk.backward(grad_z)
        return self.input_drop.backward(self.embed.backward(grad_z))

    def loss(self, scores: BranchOutput,
             labels: dict[str, np.ndarray]) -> tuple[float, dict[str, Tensor]]:
        return multitask_loss(scores, labels)


def multitask_loss(logits: Mapping[str, Tensor] | BranchOutput,
                   labels: dict[str, np.ndarray]) -> tuple[float, dict[str, Tensor]]:
    """Sum of the per-head cross-entropies plus the logit gradients.

    ``logits`` maps each head to its logits: a branch's output or the fused
    heads of a :class:`~tcn_anticipation.fusion.FusionModel`.
    """
    total = 0.0
    grads = {}
    for head in HEADS:
        ce = SoftmaxCrossEntropy()
        total += ce.forward(logits[head], labels[head])
        grads[head] = ce.backward()
    return total, grads
