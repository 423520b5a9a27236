"""Network layers with hand-written forward and backward passes.

There is no autograd graph: each layer caches what its backward needs and
accumulates parameter gradients until the optimizer zeroes them. Convolutions
use the cross-correlation convention and valid (unpadded) windows, so the
temporal axis shrinks by (K-1)*dilation per layer. Layers carrying train/eval
behavior expose a ``training`` flag; stochastic layers take the trainer's Rng
at call time.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .tensor import NonFiniteError, Rng, Tensor, TensorError, dtype_of


class Parameter:
    """Trainable array plus its accumulated gradient.

    ``decay`` marks whether weight decay applies (off for BN gamma/beta).
    """

    __slots__ = ("data", "grad", "decay")

    def __init__(self, data: Tensor, decay: bool = True):
        self.data = data
        self.grad = np.zeros(data.shape, data.dtype)  # calloc'd: no pages until written
        self.decay = decay

    def zero_grad(self) -> None:
        self.grad[...] = 0


class Stateful:
    """Named state over the (owner, attribute) slots that a subclass's ``state_slots`` lists;
    ``load_state`` is the one shape-checked copy into them, cast to each slot's dtype."""

    def named_state(self) -> dict[str, Tensor]:
        return {name: getattr(owner, attr) for name, (owner, attr) in self.state_slots().items()}

    def load_state(self, state: Mapping[str, Tensor]) -> None:
        slots = self.state_slots()
        for name, arr in state.items():
            if name not in slots:
                raise TensorError(f"checkpoint tensor {name!r} has no destination in this model")
            owner, attr = slots[name]
            current = getattr(owner, attr)
            if current.shape != arr.shape:
                raise TensorError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                                  f"model expects {current.shape}")
            setattr(owner, attr, arr.astype(current.dtype, copy=True))


def _init_uniform(rng: Rng | None, bound: float, shape, dtype: str) -> Tensor:
    if rng is None:
        return np.zeros(shape, dtype=dtype_of(dtype))
    return rng.uniform(-bound, bound, shape, dtype)


class Conv1d:
    """Dilated 1-D convolution over (batch, channels, time), valid windows.

    out[b, o, t] = bias[o] + sum_{i,k} weight[o, i, k] * x[b, i, t + k*dilation]
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 dilation: int = 1, *, dtype: str = "f32", rng: Rng | None = None):
        if kernel_size < 1 or dilation < 1:
            raise TensorError("kernel_size and dilation must be positive")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.dilation = dilation
        bound = math.sqrt(1.0 / (in_channels * kernel_size))
        self.weight = Parameter(_init_uniform(rng, bound, (out_channels, in_channels, kernel_size), dtype))
        self.bias = Parameter(np.zeros(out_channels, dtype=dtype_of(dtype)))
        self._cache = None

    def out_length(self, n_in: int) -> int:
        return n_in - (self.kernel_size - 1) * self.dilation

    def _im2col(self, x: Tensor, n_out: int) -> Tensor:
        """(I*K, B*n_out) window matrix so the conv becomes one large GEMM."""
        b, c_in, _ = x.shape
        d = self.dilation
        cols = np.empty((c_in, self.kernel_size, b, n_out), dtype=x.dtype)
        for k in range(self.kernel_size):
            cols[:, k] = x[:, :, k * d:k * d + n_out].transpose(1, 0, 2)
        return cols.reshape(c_in * self.kernel_size, b * n_out)

    def forward(self, x: Tensor) -> Tensor:
        b, c_in, n = x.shape
        if c_in != self.in_channels:
            raise TensorError(f"conv1d expected {self.in_channels} input channels, got {c_in}")
        n_out = self.out_length(n)
        if n_out < 1:
            raise TensorError(
                f"input length {n} shorter than receptive field "
                f"{(self.kernel_size - 1) * self.dilation + 1} (K={self.kernel_size}, d={self.dilation})")
        cols = self._im2col(x, n_out)
        self._cache = (x.shape, cols)
        w2 = self.weight.data.reshape(self.out_channels, -1)
        out = w2 @ cols + self.bias.data[:, None]
        return np.ascontiguousarray(out.reshape(self.out_channels, b, n_out).transpose(1, 0, 2))

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._cache is None:
            raise TensorError("conv1d backward without a matching cached forward")
        x_shape, cols = self._cache
        b, _, n = x_shape
        n_out = grad_out.shape[2]
        if grad_out.shape[0] != b or n_out != self.out_length(n):
            raise TensorError("conv1d grad_out shape inconsistent with cached input")
        d = self.dilation
        g2 = np.ascontiguousarray(grad_out.transpose(1, 0, 2)).reshape(self.out_channels, -1)
        self.bias.grad += g2.sum(axis=1)
        self.weight.grad += (g2 @ cols.T).reshape(self.weight.data.shape)
        gcols = (self.weight.data.reshape(self.out_channels, -1).T @ g2)
        gcols = gcols.reshape(self.in_channels, self.kernel_size, b, n_out)
        grad_x = np.zeros(x_shape, dtype=grad_out.dtype)
        for k in range(self.kernel_size):
            grad_x[:, :, k * d:k * d + n_out] += gcols[:, k].transpose(1, 0, 2)
        return grad_x

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class BatchNorm1d:
    """Per-channel batch normalization over (batch, channels, time).

    Train mode pools statistics over batch and time axes; eval mode uses the
    running estimates. Running stats are touched only in train mode.
    """

    def __init__(self, channels: int, *, dtype: str = "f32"):
        dt = dtype_of(dtype)
        self.channels = channels
        self.eps = 1e-5
        self.momentum = 0.1
        self.gamma = Parameter(np.ones(channels, dtype=dt), decay=False)
        self.beta = Parameter(np.zeros(channels, dtype=dt), decay=False)
        self.running_mean = np.zeros(channels, dtype=dt)
        self.running_var = np.ones(channels, dtype=dt)
        self.training = False
        self._cache = None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise TensorError(f"batchnorm expected (B, {self.channels}, N), got {x.shape}")
        if self.training:
            mean = x.mean(axis=(0, 2))
            var = x.var(axis=(0, 2))
            m = self.momentum
            self.running_mean = ((1 - m) * self.running_mean + m * mean).astype(x.dtype)
            self.running_var = ((1 - m) * self.running_var + m * var).astype(x.dtype)
        else:
            mean = self.running_mean
            var = self.running_var
        inv = 1.0 / np.sqrt(var + x.dtype.type(self.eps))
        xhat = (x - mean[None, :, None]) * inv[None, :, None]
        self._cache = (xhat, inv, x.shape[0] * x.shape[2], self.training)
        return self.gamma.data[None, :, None] * xhat + self.beta.data[None, :, None]

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._cache is None:
            raise TensorError("batchnorm backward before forward")
        xhat, inv, m, was_training = self._cache
        self.gamma.grad += (grad_out * xhat).sum(axis=(0, 2))
        self.beta.grad += grad_out.sum(axis=(0, 2))
        dxhat = grad_out * self.gamma.data[None, :, None]
        if not was_training:
            return dxhat * inv[None, :, None]
        sum_dxhat = dxhat.sum(axis=(0, 2), keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 2), keepdims=True)
        return (inv[None, :, None] / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)

    def parameters(self):
        return [("gamma", self.gamma), ("beta", self.beta)]


class SpatialDropout:
    """Channel dropout: each (sample, channel) is zeroed across all time steps.

    Survivors are scaled by 1/(1-p) at train time so eval is the identity.
    Accepts (B, C, N) sequences or (B, C) vectors; for vectors spatial and
    plain dropout coincide.
    """

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise TensorError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self.training = False
        self._mask: Tensor | None = None

    def sample_mask(self, batch: int, channels: int, rng: Rng, dtype) -> Tensor:
        keep = rng.keep_mask((batch, channels), self.p)
        return keep.astype(dtype) / np.dtype(dtype).type(1.0 - self.p)

    def forward(self, x: Tensor, rng: Rng | None = None, mask: Tensor | None = None) -> Tensor:
        if not self.training or self.p == 0.0:
            # an Rng handed over in eval mode is ignored, not an error
            self._mask = None
            return x
        if mask is None:
            if rng is None:
                raise TensorError("spatial dropout needs an Rng in train mode")
            mask = self.sample_mask(x.shape[0], x.shape[1], rng, x.dtype)
        if x.ndim == 3:
            mask = mask[:, :, None] if mask.ndim == 2 else mask
        self._mask = mask
        return x * mask

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._mask is None:
            return grad_out
        return grad_out * self._mask


class Linear:
    """Affine map y = x @ W.T + b over (batch, features)."""

    def __init__(self, in_features: int, out_features: int, *, dtype: str = "f32",
                 rng: Rng | None = None):
        self.in_features = in_features
        self.out_features = out_features
        bound = math.sqrt(1.0 / in_features)
        self.weight = Parameter(_init_uniform(rng, bound, (out_features, in_features), dtype))
        self.bias = Parameter(np.zeros(out_features, dtype=dtype_of(dtype)))
        self._x: Tensor | None = None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise TensorError(f"linear expected (B, {self.in_features}), got {x.shape}")
        self._x = x
        return x @ self.weight.data.T + self.bias.data

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._x is None:
            raise TensorError("linear backward before forward")
        self.weight.grad += grad_out.T @ self._x
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data

    def parameters(self):
        return [("weight", self.weight), ("bias", self.bias)]


class ReLU:
    def __init__(self):
        self._mask: Tensor | None = None

    def forward(self, x: Tensor) -> Tensor:
        self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._mask is None:
            raise TensorError("relu backward before forward")
        return grad_out * self._mask


def softmax(logits: Tensor) -> Tensor:
    """Row-wise softmax, numerically shifted; rows sum to 1 within 1e-6."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class SoftmaxCrossEntropy:
    """Mean negative log-softmax of the target class. Stateless except cache."""

    def __init__(self):
        self._cache = None

    def forward(self, logits: Tensor, targets: np.ndarray) -> float:
        if logits.ndim != 2 or targets.ndim != 1 or logits.shape[0] != targets.shape[0]:
            raise TensorError(f"cross-entropy shapes mismatch: {logits.shape} vs {targets.shape}")
        k = logits.shape[1]
        targets = np.asarray(targets)
        if targets.size and (targets.min() < 0 or targets.max() >= k):
            raise TensorError(f"label out of range [0, {k}): saw {targets.min()}..{targets.max()}")
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        loss = float(-logp[np.arange(targets.shape[0]), targets].mean())
        if not math.isfinite(loss):
            raise NonFiniteError("cross-entropy loss is non-finite")
        self._cache = (np.exp(logp), targets)
        return loss

    def backward(self) -> Tensor:
        if self._cache is None:
            raise TensorError("cross-entropy backward before forward")
        probs, targets = self._cache
        grad = probs.copy()
        grad[np.arange(targets.shape[0]), targets] -= 1
        return grad * (1.0 / targets.shape[0])  # not a divide: that rounds differently
