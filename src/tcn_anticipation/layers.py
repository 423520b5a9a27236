"""Network layers with hand-written forward and backward passes.

There is no autograd graph: in train mode each layer caches what its backward
needs and accumulates parameter gradients until the optimizer zeroes them.
Eval-mode forwards keep nothing, so a backward after one raises TensorError.
Convolutions use the cross-correlation convention and valid (unpadded)
windows, so the temporal axis shrinks by (K-1)*dilation per layer. By default a
conv computes every output of its input; given a plan it computes runs of
outputs from packed input columns, so a stack of convs can carry only the
columns a later one reads. Layers read their ``training`` flag; stochastic
layers take the trainer's Rng at call time.

Sequences are (batch, channels, time) at every layer boundary, but the sequence
layers compute in channel-major memory: conv, BN and dropout work on
``x.transpose(1, 2, 0)``, a (C, N, B) view whose column ``t*B + b`` is step
``t`` of sample ``b``, and return a C-contiguous (C, N, B) result as
``.transpose(2, 0, 1)``; ReLU, elementwise, keeps its input's order. So a chain
of them passes every activation and gradient on without a copy, a dilated tap
over a run of outputs is one contiguous block per channel, and BN's statistics
are row reductions. A C-order input gives the same values through a strided
view.

A model states its layers once, as a layout: name -> (layer class, constructor
args), in build order, which is also the weight draw order. :class:`Model`
derives parameters, state, loading and mode from the built layers, and
:func:`layout_shapes` every slot's shape without building any.

The package has one pool of two worker threads, started by the first call that
uses it (a forked child starts its own), and one width from which work uses it,
``CONCURRENT_CHANNELS``; numpy releases the GIL in its GEMMs, copies and ufuncs.
From that width on, a train-mode conv computes the top half of its output
channels on a worker while the caller computes the bottom half, and inside
:class:`DeferredGrads` a conv backward leaves its weight and bias gradients to a
worker while the caller computes the input gradient. Each GEMM and accumulation
is the serial one, so at a fixed BLAS thread count the results are the serial
ones bitwise. Eval forwards, narrower convs and work already on a worker stay
serial: a worker that waited on the two-worker pool could deadlock it.
"""

from __future__ import annotations

import math
import os
import threading
from functools import partial
from typing import Callable, Mapping, TypeAlias

import numpy as np

from .tensor import NonFiniteError, Rng, Tensor, TensorError, dtype_of

# Width from which a train-mode conv and the fusion model's branch pass use the pool.
# Below it all work stays on the caller: each worker thread takes its own malloc arena,
# which keeps freed numpy temporaries resident: at 64 channels concurrent branch passes
# raised the desk pipeline's peak RSS from 61 to 82 MB for no speed two pairs could
# resolve (at 1024, paper_batch's went from 1021 to 1089 MB for a B=64 chunk in 256 ms,
# not 401). Medians of interleaved serial and concurrent runs at one BLAS thread on a
# 2-CPU Xeon (serial -> concurrent); a train step is zero_grad, forward, loss, backward
# and SGD step of a default branch whose input is as wide as it, 20 steps a side:
#   channels  B=64 cone        B=1 stream step    B=64 train step
#   128        14 ->  15 ms    0.8 -> 1.0 ms
#   256        43 ->  45 ms    1.3 -> 1.5 ms       53 ->  56 ms
#   384        73 ->  72 ms    2.1 -> 2.3 ms      122 -> 103 ms
#   512       142 ->  76 ms    3.1 -> 2.9 ms      218 -> 153 ms
#   1024      548 -> 286 ms   17.9 -> 12.0 ms     778 -> 501 ms
# Training gains from 384 channels on and eval from 512. One cutoff serves both: a second
# would be a knob for the widths in between, which neither the desk (64) nor the paper
# (1024) model has.
CONCURRENT_CHANNELS = 512

_workers = None  # the two worker threads, started by the first concurrent call
_local = threading.local()  # per thread: whether it is a worker, and its open DeferredGrads


def _mark_worker() -> None:
    _local.worker = True


def _pool():
    global _workers
    if _workers is None:
        # imported here: concurrent.futures pulls in logging, which no cold import should pay
        from concurrent.futures import ThreadPoolExecutor
        _workers = ThreadPoolExecutor(2, thread_name_prefix="tcna-worker",
                                      initializer=_mark_worker)
    return _workers


def _forget_workers() -> None:
    """In a forked child, whose copy of the pool has no threads: start a new one on demand."""
    global _workers
    _workers = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def concurrent_at(channels: int) -> bool:
    """Whether work ``channels`` wide uses the pool: from ``CONCURRENT_CHANNELS`` on,
    and never on a pool worker."""
    return channels >= CONCURRENT_CHANNELS and not getattr(_local, "worker", False)


def run_concurrently(calls: list[Callable]) -> list:
    """The calls' results in order: the first runs on the caller, the others on the
    pool. Every call has finished before this returns or raises the first error in
    call order."""
    futures = [_pool().submit(call) for call in calls[1:]]
    try:
        first = calls[0]()
    finally:
        for future in futures:
            future.exception()  # waits without raising; result() raises below
    return [first, *(future.result() for future in futures)]


class DeferredGrads:
    """``with DeferredGrads():`` lets a conv backward on this thread that computes an
    input gradient, and is wide enough for the pool, leave its parameter gradients to
    one worker, which accumulates them in the order handed over while the caller goes
    on. The ``grad_out`` handed over must not be written before the block ends. Leaving
    the block waits for every one, then raises the first error any raised."""

    def __enter__(self):
        self._jobs = self._done = None
        _local.grads = self
        return self

    def submit(self, job: Callable[[], None]) -> None:
        if self._jobs is None:
            from queue import SimpleQueue
            self._jobs = SimpleQueue()
            self._done = _pool().submit(_drain, self._jobs)
        self._jobs.put(job)

    def __exit__(self, *exc) -> None:
        _local.grads = None
        if self._jobs is not None:
            self._jobs.put(None)
            self._done.result()


def _drain(jobs) -> None:
    """Runs the jobs queued until None, every one, then raises the first error."""
    error = None
    while (job := jobs.get()) is not None:
        try:
            job()
        except Exception as e:
            error = error or e
    if error is not None:
        raise error


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


class Layer:
    """What a model reads off a layer: the attributes holding its Parameters and its
    buffers (state that is not trained), and the train/eval flag. A layer with either
    also has a static ``shapes(*constructor_args)`` giving each one's shape."""

    params: tuple[str, ...] = ()
    buffers: tuple[str, ...] = ()
    training = False


Layout: TypeAlias = dict[str, tuple[type[Layer], tuple]]
# a conv's outputs as runs of consecutive columns, each (length, where each tap's
# input columns start); the outputs are packed in run order
Plan: TypeAlias = tuple[tuple[int, tuple[int, ...]], ...]


def layout_shapes(layout: Layout) -> dict[str, tuple[int, ...]]:
    """Every state slot's shape, in :meth:`Model.state_slots` order, without building a layer."""
    return {f"{name}.{attr}": cls.shapes(*args)[attr]
            for kind in ("params", "buffers") for name, (cls, args) in layout.items()
            for attr in getattr(cls, kind)}


class Model:
    """A network built from a layout; ``layers`` holds the built layers by name, in
    layout order. ``load_state`` adopts each array it is given, cast to its slot's
    dtype only when the dtypes differ, so a caller hands over arrays it owns."""

    training = False

    def __init__(self, layout: Layout):
        self.layers = {name: cls(*args) for name, (cls, args) in layout.items()}

    def train(self, mode: bool = True):
        if mode:
            self.drop_derived()
        self.training = mode
        for layer in self.layers.values():
            layer.training = mode
        return self

    def drop_derived(self) -> None:
        """Forget what eval forwards derived from the weights. ``train(True)`` and
        ``load_state`` call it, so an in-place weight edit takes effect after
        ``train(); eval()``."""

    def eval(self):
        return self.train(False)

    def named_parameters(self) -> list[tuple[str, Parameter]]:
        return [(f"{name}.{attr}", getattr(layer, attr))
                for name, layer in self.layers.items() for attr in layer.params]

    def state_slots(self) -> dict[str, tuple[object, str]]:
        """(owner, attribute) by name: the parameters, then the buffers."""
        slots = {name: (p, "data") for name, p in self.named_parameters()}
        slots.update((f"{name}.{attr}", (layer, attr))
                     for name, layer in self.layers.items() for attr in layer.buffers)
        return slots

    def named_state(self) -> dict[str, Tensor]:
        return {name: getattr(owner, attr) for name, (owner, attr) in self.state_slots().items()}

    def load_state(self, state: Mapping[str, Tensor]) -> None:
        self.drop_derived()
        slots = self.state_slots()
        for name, arr in state.items():
            if name not in slots:
                raise TensorError(f"checkpoint tensor {name!r} has no destination in this model")
            owner, attr = slots[name]
            current = getattr(owner, attr)
            if current.shape != arr.shape:
                raise TensorError(f"checkpoint tensor {name!r} has shape {arr.shape}, "
                                  f"model expects {current.shape}")
            setattr(owner, attr, arr.astype(current.dtype, copy=False))


def _init_uniform(rng: Rng | None, bound: float, shape, dtype: str) -> Tensor:
    if rng is None:
        return np.zeros(shape, dtype=dtype_of(dtype))
    return rng.uniform(-bound, bound, shape, dtype)


def _cm(x: Tensor) -> Tensor:
    """The (C, N, B) channel-major view of a (B, C, N) sequence; free when ``x`` is
    one layer's output."""
    return x.transpose(1, 2, 0)


def _bcn(y: Tensor) -> Tensor:
    """The (B, C, N) view of a C-contiguous (C, N, B) result."""
    return y.transpose(2, 0, 1)


class Conv1d(Layer):
    """Dilated 1-D convolution over (batch, channels, time), valid windows.

    out[b, o, t] = bias[o] + sum_{i,k} weight[o, i, k] * x[b, i, t + k*dilation]
    """

    params = ("weight", "bias")

    @staticmethod
    def shapes(in_channels, out_channels, kernel_size, *_):
        return {"weight": (out_channels, in_channels, kernel_size), "bias": (out_channels,)}

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 dilation: int = 1, dtype: str = "f32", rng: Rng | None = None):
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

    def _im2col(self, xc: Tensor, plan: Plan) -> Tensor:
        """(I*K, n_sel*B) window matrix of the outputs in ``plan`` from the (I, N, B)
        input, so the conv becomes one large GEMM. Each run is one block copy per tap."""
        c_in, _, b = xc.shape
        n_sel = sum(length for length, _ in plan)
        cols = np.empty((c_in, self.kernel_size, n_sel, b), dtype=xc.dtype)
        j = 0
        for length, starts in plan:
            for k, s in enumerate(starts):
                cols[:, k, j:j + length] = xc[:, s:s + length]
            j += length
        return cols.reshape(c_in * self.kernel_size, -1)

    def forward(self, x: Tensor, plan: Plan | None = None) -> Tensor:
        """The outputs in ``plan``, packed in order; by default every output of ``x``."""
        b, c_in, n = x.shape
        if c_in != self.in_channels:
            raise TensorError(f"conv1d expected {self.in_channels} input channels, got {c_in}")
        if plan is None:
            n_out = self.out_length(n)
            if n_out < 1:
                raise TensorError(f"input length {n} shorter than receptive field "
                                  f"{n - n_out + 1} (K={self.kernel_size}, d={self.dilation})")
            plan = ((n_out, tuple(k * self.dilation for k in range(self.kernel_size))),)
        elif any(length < 1 or len(starts) != self.kernel_size or min(starts) < 0
                 or max(starts) + length > n for length, starts in plan):
            raise TensorError(f"conv1d plan {plan} reads outside the {n} input columns")
        cols = self._im2col(_cm(x), plan)
        self._cache = (x.shape, cols) if self.training else None
        w = self.weight.data.reshape(self.out_channels, -1)
        if self.training and concurrent_at(self.out_channels):
            out = np.empty((self.out_channels, cols.shape[1]), np.result_type(w, cols))
            h = self.out_channels // 2
            run_concurrently([partial(np.matmul, w[:h], cols, out=out[:h]),
                              partial(np.matmul, w[h:], cols, out=out[h:])])
        else:
            out = w @ cols
        out += self.bias.data[:, None]
        return _bcn(out.reshape(self.out_channels, -1, b))

    def backward(self, grad_out: Tensor, input_grad: bool = True) -> Tensor | None:
        """The gradient of the input, or None without ``input_grad``. The parameter
        gradients are accumulated either way: before this returns, or inside an open
        :class:`DeferredGrads` that computes an input gradient here, by its end."""
        if self._cache is None:
            raise TensorError("conv1d backward without a train-mode forward")
        x_shape, cols = self._cache
        b, _, n = x_shape
        n_out = grad_out.shape[2]
        if grad_out.shape[0] != b or n_out != self.out_length(n) or cols.shape[1] != b * n_out:
            raise TensorError("conv1d grad_out shape inconsistent with cached input")
        g2 = _cm(grad_out).reshape(self.out_channels, -1)
        deferred = getattr(_local, "grads", None)
        if deferred is not None and input_grad and concurrent_at(self.out_channels):
            deferred.submit(partial(self._param_grads, g2, cols))
        else:
            self._param_grads(g2, cols)
        if not input_grad:
            return None
        gcols = (self.weight.data.reshape(self.out_channels, -1).T @ g2)
        gcols = gcols.reshape(self.in_channels, self.kernel_size, n_out, b)
        grad_x = np.zeros((self.in_channels, n, b), dtype=grad_out.dtype)
        d = self.dilation
        for k in range(self.kernel_size):
            grad_x[:, k * d:k * d + n_out] += gcols[:, k]
        return _bcn(grad_x)

    def _param_grads(self, g2: Tensor, cols: Tensor) -> None:
        self.bias.grad += g2.sum(axis=1)
        self.weight.grad += (g2 @ cols.T).reshape(self.weight.data.shape)


class BatchNorm1d(Layer):
    """Per-channel batch normalization over (batch, channels, time).

    Train mode pools statistics over batch and time axes, one contiguous row per
    channel; eval mode uses the running estimates. Running stats are touched only
    in train mode.
    """

    params = ("gamma", "beta")
    buffers = ("running_mean", "running_var")

    @staticmethod
    def shapes(channels, *_):
        return dict.fromkeys(("gamma", "beta", "running_mean", "running_var"), (channels,))

    def __init__(self, channels: int, dtype: str = "f32"):
        dt = dtype_of(dtype)
        self.channels = channels
        self.eps = 1e-5
        self.momentum = 0.1
        self.gamma = Parameter(np.ones(channels, dtype=dt), decay=False)
        self.beta = Parameter(np.zeros(channels, dtype=dt), decay=False)
        self.running_mean = np.zeros(channels, dtype=dt)
        self.running_var = np.ones(channels, dtype=dt)
        self._cache = None

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 3 or x.shape[1] != self.channels:
            raise TensorError(f"batchnorm expected (B, {self.channels}, N), got {x.shape}")
        b, c, n = x.shape
        rows = _cm(x).reshape(c, -1)
        if self.training:
            mean = rows.mean(axis=1)
            var = rows.var(axis=1)
            m = self.momentum
            self.running_mean = ((1 - m) * self.running_mean + m * mean).astype(x.dtype)
            self.running_var = ((1 - m) * self.running_var + m * var).astype(x.dtype)
        else:
            mean = self.running_mean
            var = self.running_var
        inv = 1.0 / np.sqrt(var + x.dtype.type(self.eps))
        xhat = rows - mean[:, None]
        xhat *= inv[:, None]
        if not self.training:
            self._cache = None
            xhat *= self.gamma.data[:, None]
            xhat += self.beta.data[:, None]
            return _bcn(xhat.reshape(c, n, b))
        self._cache = (xhat, inv, x.shape)
        return _bcn((self.gamma.data[:, None] * xhat + self.beta.data[:, None]).reshape(c, n, b))

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._cache is None:
            raise TensorError("batchnorm backward without a train-mode forward")
        xhat, inv, (b, c, n) = self._cache
        m = xhat.shape[1]
        g = _cm(grad_out).reshape(c, -1)
        self.gamma.grad += (g * xhat).sum(axis=1)
        self.beta.grad += g.sum(axis=1)
        dxhat = g * self.gamma.data[:, None]
        sum_dxhat = dxhat.sum(axis=1, keepdims=True)
        sum_dxhat_xhat = (dxhat * xhat).sum(axis=1, keepdims=True)
        grad_x = (inv[:, None] / m) * (m * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)
        return _bcn(grad_x.reshape(c, n, b))


class SpatialDropout(Layer):
    """Channel dropout: each (sample, channel) is zeroed across all time steps.

    Survivors are scaled by 1/(1-p) at train time so eval is the identity.
    Accepts (B, C, N) sequences or (B, C) vectors; for vectors spatial and
    plain dropout coincide. The (B, C) mask scales a sequence's (C, N, B) view
    as ``mask.T[:, None, :]``.
    """

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise TensorError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
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
        self._mask = mask
        return self._scale(x)

    def _scale(self, x: Tensor) -> Tensor:
        if x.ndim == 2:
            return x * self._mask
        return _bcn(_cm(x) * self._mask.T[:, None, :])

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._mask is None:
            return grad_out
        return self._scale(grad_out)


class Linear(Layer):
    """Affine map y = x @ W.T + b over (batch, features)."""

    params = ("weight", "bias")

    @staticmethod
    def shapes(in_features, out_features, *_):
        return {"weight": (out_features, in_features), "bias": (out_features,)}

    def __init__(self, in_features: int, out_features: int, dtype: str = "f32",
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
        self._x = x if self.training else None
        return x @ self.weight.data.T + self.bias.data

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._x is None:
            raise TensorError("linear backward without a train-mode forward")
        self.weight.grad += grad_out.T @ self._x
        self.bias.grad += grad_out.sum(axis=0)
        return grad_out @ self.weight.data


class ReLU(Layer):
    """max(x, 0). Elementwise over operands in one memory order, so a channel-major
    sequence stays channel-major."""

    def __init__(self):
        self._mask: Tensor | None = None

    def forward(self, x: Tensor) -> Tensor:
        self._mask = x > 0 if self.training else None
        return np.maximum(x, 0)

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._mask is None:
            raise TensorError("relu backward without a train-mode forward")
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
