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

from .layers import BatchNorm1d, Conv1d, Linear, ReLU, SoftmaxCrossEntropy, SpatialDropout
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
    pad_to_receptive_field: bool = False

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

    def block_lengths(self, n: int | None = None) -> list[int]:
        """Temporal length after each residual block for an n-snippet input."""
        n = self.required_length if n is None else n
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
        if n < 1:
            raise TensorError(f"snippet count must be positive, got {n}")
        for cut in range(len(self.dilations), 0, -1):
            prefix = self.dilations[:cut]
            if required_input_length(self.kernel, prefix) <= n:
                return replace(self, dilations=prefix)
        if self.pad_to_receptive_field:
            return replace(self, dilations=self.dilations[:1])
        raise TensorError(
            f"{n} snippets cannot cover even one block (K={self.kernel}); "
            "enable pad_to_receptive_field to left-pad with zeros")


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

    def __init__(self, channels: int, kernel: int, dilation: int, dropout: float,
                 dtype: str, rng: Rng):
        self.conv = Conv1d(channels, channels, kernel, dilation, dtype=dtype, rng=rng)
        self.bn = BatchNorm1d(channels, dtype=dtype)
        self.drop = SpatialDropout(dropout)
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


class Branch:
    """The uni-modal network. Single training writer; eval forwards are pure."""

    def __init__(self, config: BranchConfig, rng: Rng):
        self.config = config
        c = config
        self.input_drop = SpatialDropout(c.input_dropout)
        self.embed = Conv1d(c.input_dim, c.channels, 1, 1, dtype=c.dtype, rng=rng)
        self.blocks = [
            _ResidualBlock(c.channels, c.kernel, d, c.block_dropout, c.dtype, rng)
            for d in c.dilations
        ]
        self.heads = {
            head: (SpatialDropout(c.head_dropout), Linear(c.channels, k, dtype=c.dtype, rng=rng))
            for head, k in c.class_counts.items()
        }
        self.training = False
        self._final_shape: tuple[int, ...] | None = None
        self._padded = 0

    # -- mode & parameter plumbing ------------------------------------------------

    def train(self) -> "Branch":
        return self._set_mode(True)

    def eval(self) -> "Branch":
        return self._set_mode(False)

    def _set_mode(self, training: bool) -> "Branch":
        self.training = training
        self.input_drop.training = training
        for blk in self.blocks:
            blk.bn.training = training
            blk.drop.training = training
        for drop, _ in self.heads.values():
            drop.training = training
        return self

    def named_parameters(self) -> list[tuple[str, "Parameter"]]:
        out = [(f"embed.{n}", p) for n, p in self.embed.parameters()]
        for i, blk in enumerate(self.blocks):
            out += [(f"blocks.{i}.conv.{n}", p) for n, p in blk.conv.parameters()]
            out += [(f"blocks.{i}.bn.{n}", p) for n, p in blk.bn.parameters()]
        for head in HEADS:
            out += [(f"heads.{head}.{n}", p) for n, p in self.heads[head][1].parameters()]
        return out

    def named_buffers(self) -> list[tuple[str, Tensor]]:
        return [(f"blocks.{i}.bn.{n}", b)
                for i, blk in enumerate(self.blocks)
                for n, b in blk.bn.buffers()]

    def named_state(self) -> dict[str, Tensor]:
        state = {name: p.data for name, p in self.named_parameters()}
        state.update(self.named_buffers())
        return state

    def load_state(self, state: dict[str, Tensor]) -> None:
        targets = dict(self.named_parameters())
        for name, arr in state.items():
            if name in targets:
                if targets[name].data.shape != arr.shape:
                    raise TensorError(
                        f"checkpoint tensor {name!r} has shape {arr.shape}, "
                        f"model expects {targets[name].data.shape}")
                targets[name].data = arr.astype(targets[name].data.dtype, copy=True)
            else:
                self._load_buffer(name, arr)

    def _load_buffer(self, name: str, arr: Tensor) -> None:
        for bname, _ in self.named_buffers():
            if bname == name:
                idx = int(name.split(".")[1])
                bn = self.blocks[idx].bn
                attr = name.split(".")[-1]
                if getattr(bn, attr).shape != arr.shape:
                    raise TensorError(f"checkpoint tensor {name!r} shape mismatch")
                setattr(bn, attr, arr.astype(getattr(bn, attr).dtype, copy=True))
                return
        raise TensorError(f"checkpoint tensor {name!r} has no destination in this model")

    # -- forward / backward -------------------------------------------------------

    def forward(self, x: Tensor, rng: Rng | None = None) -> BranchOutput:
        c = self.config
        if x.ndim != 3 or x.shape[1] != c.input_dim:
            raise TensorError(f"branch expected (B, {c.input_dim}, N), got {x.shape}")
        self._padded = 0
        if x.shape[2] < c.required_length:
            if not c.pad_to_receptive_field:
                raise TensorError(
                    f"sequence of {x.shape[2]} snippets is shorter than the "
                    f"receptive field {c.required_length}")
            self._padded = c.required_length - x.shape[2]
            pad = np.zeros((x.shape[0], x.shape[1], self._padded), dtype=x.dtype)
            x = np.concatenate([pad, x], axis=2)
        if self.training and rng is None and (
                c.input_dropout or c.block_dropout or c.head_dropout):
            raise TensorError("train-mode forward needs an Rng for dropout")
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
        grad_x = self.input_drop.backward(self.embed.backward(grad_z))
        if self._padded:
            grad_x = grad_x[:, :, self._padded:]
        return grad_x


def multitask_loss(logits: Mapping[str, Tensor] | BranchOutput,
                   labels: dict[str, np.ndarray],
                   weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
                   ) -> tuple[float, dict[str, Tensor]]:
    """Weighted sum of per-head cross-entropies plus the logit gradients.

    ``logits`` maps each head to its logits: a branch's output or the fused
    heads of a :class:`~tcn_anticipation.fusion.FusionModel`.
    """
    total = 0.0
    grads = {}
    for head, w in zip(HEADS, weights):
        ce = SoftmaxCrossEntropy()
        total += w * ce.forward(logits[head], labels[head])
        grads[head] = ce.backward(w)
    return total, grads
