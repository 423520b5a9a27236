"""Uni-modal anticipation branch: embedding conv, dilated residual blocks, heads.

The branch embeds a (batch, dim, snippets) feature sequence to C channels with
a pointwise conv, then applies L residual blocks whose dilated valid convs
shrink the sequence until a single feature vector remains. Because block
outputs are shorter than their inputs, the residual keeps only the most recent
timesteps of the incoming sequence. Three classification heads (action, verb,
noun) read the final feature vector. ``multitask_loss``, the sum of the heads'
cross-entropies, is the one loss: a fusion model's logits train with it too.

Sequences are (batch, channels, snippets) at every layer boundary, but in
channel-major memory: the embedding conv's im2col transposes the input once,
and from there every activation and gradient is a C-contiguous (C, N, B) array
seen through ``.transpose(2, 0, 1)`` (see :mod:`~tcn_anticipation.layers`). So
a run of snippets, the residual's columns and the last column are contiguous
blocks of B-wide columns, and only the last column's (B, C) feature is copied
out. ``backward`` accumulates every parameter's gradient and skips the input's,
which nothing reads.

Only the last output column is read, so an eval-mode forward without a stream
computes each conv only at the positions that column depends on (its cone:
21/17/9/3/1 of the 21/19/15/9/1 positions at 21 snippets and the default
schedule), at every batch size, and each block reads and writes only those
columns, packed. A plan per conv, cached per (kernel, dilations, snippets),
gives its runs of outputs and where each tap's columns start in its packed
input; the residual reads the last tap's columns. Bias, BN with its running
statistics, the residual and ReLU run on those columns in the train-mode order,
so the cone gives the features of the full-window forward up to the GEMM's
summation order. Eval-mode forwards keep no caches, so ``backward`` needs a
train-mode forward.

An eval-mode forward given a ``stream``, a list the caller keeps, serves windows
that slide one snippet at a time. An empty stream is started: every position is
computed and each block's last (K-1)*d+1 input columns are queued. A filled one
is stepped, the window's first n-1 snippets being the last n-1 of the one before:
the embedding conv reads the newest snippet, and each block's valid conv runs
once over its queue, which drops its oldest column and takes the newest. The
features are the full-window ones up to the GEMM's summation order. A branch
holds nothing between eval forwards; the fusion model keeps B=1 requests' streams.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Mapping

import numpy as np

from .data import HEADS
from .layers import (BatchNorm1d, Conv1d, DeferredGrads, Layout, Linear, Model, Plan, ReLU,
                     SoftmaxCrossEntropy, SpatialDropout)
from .tensor import Rng, Tensor, TensorError


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
            layout[f"blocks.{i}.relu"] = (ReLU, ())
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


@lru_cache(maxsize=64)
def _cone(kernel: int, dilations: tuple[int, ...], n: int) -> tuple[Plan, ...]:
    """The plans of the embedding conv and of each block for the last output column of
    an n-snippet forward: each conv computes the outputs that column depends on, from
    the columns the conv before it computed."""
    need = [n - 1 - (kernel - 1) * sum(dilations)]
    cone = [need]
    for d in reversed(dilations):  # output t reads t + k*d; the residual is the last tap
        need = sorted({t + k * d for t in need for k in range(kernel)})
        cone.insert(0, need)
    return (_plan(cone[0], range(n), (0,)),
            *(_plan(outs, ins, range(0, kernel * d, d))
              for d, ins, outs in zip(dilations, cone, cone[1:])))


def _plan(outputs: list[int], inputs, taps) -> Plan:
    """Runs of consecutive ``outputs``, each with where each tap's columns start among
    the sorted positions ``inputs``."""
    at = {t: j for j, t in enumerate(inputs)}
    runs = []
    for t in outputs:
        if runs and runs[-1][1] == t:
            runs[-1][1] = t + 1
        else:
            runs.append([t, t + 1])
    return tuple((stop - start, tuple(at[start + tap] for tap in taps)) for start, stop in runs)


class _ResidualBlock:
    """conv -> BN -> spatial dropout, plus the truncated residual, then ReLU."""

    def __init__(self, layers: dict, prefix: str):
        self.conv, self.bn, self.drop, self.relu = (
            layers[prefix + p] for p in (".conv", ".bn", ".drop", ".relu"))
        self.span = (self.conv.kernel_size - 1) * self.conv.dilation + 1  # inputs per output

    def forward(self, z: Tensor, rng: Rng | None, plan: Plan | None = None) -> Tensor:
        """The block's outputs in ``plan``, packed (by default every output of ``z``,
        whose residual is the last ``y.shape[2]`` columns)."""
        y = self.drop.forward(self.bn.forward(self.conv.forward(z, plan)), rng)
        yc, zc = y.transpose(1, 2, 0), z.transpose(1, 2, 0)
        j = 0
        for length, starts in plan or ((y.shape[2], (z.shape[2] - y.shape[2],)),):
            yc[:, j:j + length] += zc[:, starts[-1]:starts[-1] + length]
            j += length
        return self.relu.forward(y)

    def backward(self, grad_out: Tensor) -> Tensor:
        g = self.relu.backward(grad_out)
        grad_z = self.conv.backward(self.bn.backward(self.drop.backward(g)))
        gzc, gc = grad_z.transpose(1, 2, 0), g.transpose(1, 2, 0)
        gzc[:, gzc.shape[1] - gc.shape[1]:] += gc
        return grad_z


class Branch(Model):
    """The uni-modal network, built from ``config.layout(rng)``. Single training writer;
    eval forwards compute only the last column's cone, or start or step the stream
    they are given, and keep no backward cache. Without an ``rng`` the weights start
    at zero, for a caller that loads them."""

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

    def forward(self, x: Tensor, rng: Rng | None = None,
                stream: list[Tensor] | None = None) -> dict[str, Tensor]:
        """The final feature vector under ``"feature"`` and each head's logits under its name;
        an eval-mode forward starts an empty ``stream`` and steps a filled one."""
        c = self.config
        self.check_input(x)
        if self.training:
            z = self._run(x, None, rng)
        elif stream is not None:
            z = self._step(x, stream)
        else:
            z = self._run(x, _cone(c.kernel, c.dilations, x.shape[2]), rng)
        self._final_shape = z.shape if self.training else None
        feature = np.ascontiguousarray(z[:, :, -1])
        out = {"feature": feature}
        for head in HEADS:
            drop, fc = self.heads[head]
            out[head] = fc.forward(drop.forward(feature, rng))
        return out

    def check_input(self, x: Tensor) -> None:
        """Raises unless ``x`` is a (B, input_dim, N) batch of at least the receptive field."""
        c = self.config
        if x.ndim != 3 or x.shape[1] != c.input_dim:
            raise TensorError(f"branch expected (B, {c.input_dim}, N), got {x.shape}")
        if x.shape[2] < c.required_length:
            raise TensorError(
                f"sequence of {x.shape[2]} snippets is shorter than the "
                f"receptive field {c.required_length}")

    def _run(self, x: Tensor, plan: tuple[Plan, ...] | None, rng: Rng | None,
             queues: list[Tensor] | None = None) -> Tensor:
        """The last block's outputs in ``plan``, one per conv (every position by
        default). With ``queues``, also appends each block input's last ``span``
        columns to it."""
        plan = plan or (None,) * (1 + len(self.blocks))
        z = self.embed.forward(self.input_drop.forward(x, rng), plan[0])
        for blk, conv_plan in zip(self.blocks, plan[1:]):
            if queues is not None:
                queues.append(z[:, :, -blk.span:].copy())
            z = blk.forward(z, rng, conv_plan)
        return z

    def _step(self, x: Tensor, stream: list[Tensor]) -> Tensor:
        """The last block's output for an eval window continuing ``stream``."""
        if not stream:
            return self._run(x, None, None, stream)
        want = [(x.shape[0], self.config.channels, blk.span) for blk in self.blocks]
        dtype = np.result_type(self.embed.weight.data, x)
        if [q.shape for q in stream] != want or any(q.dtype != dtype for q in stream):
            raise TensorError(
                f"a stream of {stream[0].dtype} queues {[q.shape for q in stream]} cannot step "
                f"a {x.dtype} window of shape {x.shape}: this branch needs {dtype} {want}")
        z = self.embed.forward(x[:, :, -1:])
        for i, blk in enumerate(self.blocks):
            stream[i] = np.concatenate((stream[i][:, :, 1:], z), axis=2)
            z = blk.forward(stream[i], None)
        return z

    def backward(self, grad_logits: dict[str, Tensor]) -> None:
        """Accumulates every parameter's gradient; returns None, as nothing reads the
        input's gradient. From ``CONCURRENT_CHANNELS`` wide each block conv's weight and
        bias gradients go to a pool worker while this thread computes the block's input
        gradient and goes on down the chain; every one has been accumulated before this
        returns or raises (see :class:`~tcn_anticipation.layers.DeferredGrads`)."""
        if self._final_shape is None:
            raise TensorError("branch backward before forward")
        b, ch, n = self._final_shape
        grad_feature = np.zeros((b, ch), dtype=self.embed.weight.data.dtype)
        for head in HEADS:
            drop, fc = self.heads[head]
            grad_feature += drop.backward(fc.backward(grad_logits[head]))
        grad_zc = np.zeros((ch, n, b), dtype=grad_feature.dtype)  # channel-major, as z
        grad_zc[:, -1] = grad_feature.T
        grad_z = grad_zc.transpose(2, 0, 1)
        with DeferredGrads():
            for blk in reversed(self.blocks):
                grad_z = blk.backward(grad_z)
            self.embed.backward(grad_z, input_grad=False)


def multitask_loss(logits: Mapping[str, Tensor],
                   labels: dict[str, np.ndarray]) -> tuple[float, dict[str, Tensor]]:
    """Sum of the per-head cross-entropies plus the logit gradients.

    ``logits`` maps each head to its logits: a branch's output, or a
    :class:`~tcn_anticipation.fusion.FusionModel`'s for any strategy.
    """
    total = 0.0
    grads = {}
    for head in HEADS:
        ce = SoftmaxCrossEntropy()
        total += ce.forward(logits[head], labels[head])
        grads[head] = ce.backward()
    return total, grads
