"""Network layers with hand-written forward and backward passes.

There is no autograd graph: in train mode each layer caches what its backward
needs and accumulates parameter gradients until the optimizer zeroes them. A
conv's, BN's and ReLU's backward drops the activations it read (window matrix,
normalised rows, mask) once it has checked its gradient, so they do not outlive
the step, and a second one after one forward raises TensorError. Eval-mode
forwards keep nothing, so a backward after one raises TensorError.
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
uses it (a forked child starts its own) and entered only through
:func:`run_concurrently`, and one width from which work uses it,
``CONCURRENT_CHANNELS``; numpy releases the GIL in its GEMMs, copies and ufuncs.
The caller runs every call that no worker has started by the time it gets to it
(help-while-waiting, as in work stealing), so a thread only ever waits on a call
that is running: any call, a worker's too, may split, and nesting cannot
deadlock the two workers. From that width on:

* a train-mode conv computes the top half of its output channels on a worker
  while the caller computes the bottom half;
* a backward that computes an input gradient computes it on the caller while a
  worker computes the weight and bias gradients, and one that does not (the
  embedding's) computes them in two halves of output rows when its weight
  gradient is that wide both ways;
* in train mode the per-channel work runs in two halves of channel rows, each
  writing its rows of an array allocated before the split: BN forward and
  backward, 3-D dropout, ReLU, and a conv backward's scatter into the input
  gradient (:mod:`~tcn_anticipation.branch` splits the residual add, the eval
  cone's chunks and the fusion pass's branches, :mod:`~tcn_anticipation.training`
  the optimizer's passes).

Each half does the serial arithmetic on its rows, so the result is the serial
one bitwise at a fixed BLAS thread count, with two exceptions where OpenBLAS
runs a half-height GEMM with another kernel and the last bits may differ: a
forward half at 8 or fewer output columns (a late block at B=2), and a weight
gradient half a few columns wide, which is why narrower ones stay whole. Eval
forwards and narrower work stay serial.
"""

from __future__ import annotations

import math
import os
from functools import partial
from typing import Callable, Mapping, TypeAlias

import numpy as np

from .tensor import BLOCK, NonFiniteError, Rng, Tensor, TensorError, dtype_of

# Width from which train-mode layers, eval cones of more than one chunk, the optimizer and
# the fusion model's branch pass use the pool. Below it all work stays on the caller: each
# worker thread takes its own malloc arena, which keeps freed numpy temporaries resident:
# at 64 channels concurrent branch passes raised the desk pipeline's peak RSS from 61 to
# 82 MB for no speed two pairs could resolve (at 1024, paper_batch's went from 1021 to
# 1089 MB for a B=64 chunk in 256 ms, not 401). Medians of interleaved serial and concurrent runs at one BLAS thread on a
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


def _pool():
    global _workers
    if _workers is None:
        # imported here: concurrent.futures pulls in logging, which no cold import should pay
        from concurrent.futures import ThreadPoolExecutor
        _workers = ThreadPoolExecutor(2, thread_name_prefix="tcna-worker")
    return _workers


def _forget_workers() -> None:
    """In a forked child, whose copy of the pool has no threads: start a new one on demand."""
    global _workers
    _workers = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_workers)


def concurrent_at(channels: int) -> bool:
    """Whether work ``channels`` wide uses the pool: from ``CONCURRENT_CHANNELS`` on."""
    return channels >= CONCURRENT_CHANNELS


def run_concurrently(calls: list[Callable]) -> list:
    """The calls' results in order: the first runs on the caller, the others are offered
    to the pool, and each that no worker has started when the caller reaches it runs on
    the caller too (help-while-waiting). So a thread only ever waits on a call that is
    running, and a call may itself run calls concurrently without a deadlock. Every
    call has finished before this returns or raises the first error in call order."""
    futures = [_pool().submit(call) for call in calls[1:]]
    results, errors = [], []
    for call, future in zip(calls, [None, *futures]):
        try:
            results.append(call() if future is None or future.cancel() else future.result())
        except BaseException as error:  # raised below, once every call has finished
            errors.append(error)
    if errors:
        raise errors[0]
    return results


def in_halves(fn: Callable[[slice], object], rows: int, split: bool = True) -> None:
    """``fn`` over the rows ``range(rows)``, given as one slice: with ``split``, from
    ``CONCURRENT_CHANNELS`` rows on, as two halves run concurrently."""
    if not (split and concurrent_at(rows)):
        fn(slice(0, rows))
        return
    h = rows // 2
    run_concurrently([partial(fn, slice(0, h)), partial(fn, slice(h, rows))])


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


def _split_sequence(x: Tensor) -> bool:
    """Whether elementwise work on ``x`` runs in two channel-row halves: a (B, C, N)
    sequence from ``CONCURRENT_CHANNELS`` channels on."""
    return x.ndim == 3 and concurrent_at(x.shape[1])


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
        gradients have been accumulated before this returns or raises; from
        ``CONCURRENT_CHANNELS`` wide a pool worker computes them while the caller
        computes the input gradient."""
        if self._cache is None:
            raise TensorError("conv1d backward without a train-mode forward")
        x_shape, cols = self._cache
        b, _, n = x_shape
        n_out = grad_out.shape[2]
        if grad_out.shape[0] != b or n_out != self.out_length(n) or cols.shape[1] != b * n_out:
            raise TensorError("conv1d grad_out shape inconsistent with cached input")
        self._cache = None
        g2 = _cm(grad_out).reshape(self.out_channels, -1)
        if not input_grad:
            self._param_grads(g2, cols, True)
            return None
        grad_x = np.zeros((self.in_channels, n, b), dtype=grad_out.dtype)
        input_grad_call = partial(self._input_grad, g2, grad_x)
        if concurrent_at(self.out_channels):
            run_concurrently([input_grad_call, partial(self._param_grads, g2, cols)])
        else:
            self._param_grads(g2, cols)
            input_grad_call()
        return _bcn(grad_x)

    def _input_grad(self, g2: Tensor, grad_x: Tensor) -> None:
        """Adds into the (I, N, B) ``grad_x`` each tap's columns of the input GEMM, in
        two channel-row halves from ``CONCURRENT_CHANNELS`` input channels on."""
        gcols = self.weight.data.reshape(self.out_channels, -1).T @ g2
        gcols = gcols.reshape(self.in_channels, self.kernel_size, -1, grad_x.shape[2])
        n_out, d = gcols.shape[2], self.dilation

        def scatter(r: slice) -> None:
            for k in range(self.kernel_size):
                grad_x[r, k * d:k * d + n_out] += gcols[r, k]

        in_halves(scatter, self.in_channels)

    def _param_grads(self, g2: Tensor, cols: Tensor, split: bool = False) -> None:
        """Accumulates the bias and weight gradients; with ``split``, in two halves of
        output rows when the (O, I*K) weight gradient is ``CONCURRENT_CHANNELS`` wide
        both ways. The product lands in an array allocated here, before any split."""
        grad_w = self.weight.grad.reshape(self.out_channels, -1)
        product = np.empty(grad_w.shape, np.result_type(g2, cols))

        def rows(r: slice) -> None:
            self.bias.grad[r] += g2[r].sum(axis=1)
            np.matmul(g2[r], cols.T, out=product[r])
            grad_w[r] += product[r]

        in_halves(rows, self.out_channels, split and concurrent_at(grad_w.shape[1]))


class BatchNorm1d(Layer):
    """Per-channel batch normalization over (batch, channels, time).

    Train mode pools statistics over batch and time axes, one contiguous row per
    channel; eval mode uses the running estimates. Running stats are touched only
    in train mode. Train mode centres the rows once and takes the variance from
    them with ``np.var``'s own arithmetic (sum of squares over the count), so it
    is bitwise ``rows.var`` without a second centring. Backward runs the
    whole-array formula over blocks of channel rows of about
    :data:`~.tensor.BLOCK` values, so it holds one block's temporaries; every row
    sees the same sums and steps, so the result is bitwise the same. For the same
    reason train mode runs both passes in two halves of channel rows from
    ``CONCURRENT_CHANNELS`` on, the forward writing arrays allocated before the split.
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
        eps = x.dtype.type(self.eps)
        if not self.training:
            self._cache = None
            xhat = rows - self.running_mean[:, None]
            xhat *= (1.0 / np.sqrt(self.running_var + eps))[:, None]
            xhat *= self.gamma.data[:, None]
            xhat += self.beta.data[:, None]
            return _bcn(xhat.reshape(c, n, b))
        xhat = np.empty(rows.shape, rows.dtype)
        out = np.empty(rows.shape, np.result_type(self.gamma.data, xhat, self.beta.data))
        mean, var, inv = (np.empty(c, rows.dtype) for _ in range(3))

        def normalise(r: slice) -> None:
            mean[r] = rows[r].mean(axis=1)
            xr = np.subtract(rows[r], mean[r, None], out=xhat[r])
            # out's rows hold the squares until the output replaces them
            squares = np.multiply(xr, xr, out=out[r] if out.dtype == xr.dtype else None)
            var[r] = squares.sum(axis=1)
            var[r] /= rows.shape[1]
            inv[r] = 1.0 / np.sqrt(var[r] + eps)
            xr *= inv[r, None]
            np.multiply(self.gamma.data[r, None], xr, out=out[r])
            out[r] += self.beta.data[r, None]

        in_halves(normalise, c)
        m = self.momentum
        self.running_mean = ((1 - m) * self.running_mean + m * mean).astype(x.dtype)
        self.running_var = ((1 - m) * self.running_var + m * var).astype(x.dtype)
        self._cache = (xhat, inv, x.shape)
        return _bcn(out.reshape(c, n, b))

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._cache is None:
            raise TensorError("batchnorm backward without a train-mode forward")
        xhat, inv, (b, c, n) = self._cache
        m = xhat.shape[1]
        g = _cm(grad_out).reshape(c, -1)
        grad_x = np.empty((c, m), np.result_type(g, xhat, self.gamma.data))
        step = max(1, BLOCK // m)  # each block's temporaries hold about BLOCK values

        def grad_rows(half: slice) -> None:
            for i in range(half.start, half.stop, step):
                r = slice(i, min(i + step, half.stop))
                gr, xr, gamma = g[r], xhat[r], self.gamma.data[r, None]
                self.gamma.grad[r] += (gr * xr).sum(axis=1)
                self.beta.grad[r] += gr.sum(axis=1)
                dxhat = gr * gamma
                sum_dxhat = dxhat.sum(axis=1, keepdims=True)
                sum_dxhat_xhat = (dxhat * xr).sum(axis=1, keepdims=True)
                np.multiply(inv[r, None] / m, m * dxhat - sum_dxhat - xr * sum_dxhat_xhat,
                            out=grad_x[r])

        in_halves(grad_rows, c)
        self._cache = None
        return _bcn(grad_x.reshape(c, n, b))


class SpatialDropout(Layer):
    """Channel dropout: each (sample, channel) is zeroed across all time steps.

    Survivors are scaled by 1/(1-p) at train time so eval is the identity.
    Accepts (B, C, N) sequences or (B, C) vectors; for vectors spatial and
    plain dropout coincide. The (B, C) mask scales a sequence's (C, N, B) view
    as ``mask.T[:, None, :]``, in two halves of channel rows from
    ``CONCURRENT_CHANNELS`` on; the caller draws the mask first, in the serial order.
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
        xc, mask = _cm(x), self._mask.T[:, None, :]
        if not concurrent_at(x.shape[1]):
            return _bcn(xc * mask)
        out = np.empty(xc.shape, np.result_type(xc, mask))
        in_halves(lambda r: np.multiply(xc[r], mask[r], out=out[r]), x.shape[1])
        return _bcn(out)

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
    sequence stays channel-major. A train-mode sequence from ``CONCURRENT_CHANNELS``
    channels on runs in two halves of channel rows and comes out channel-major."""

    def __init__(self):
        self._mask: Tensor | None = None

    def forward(self, x: Tensor) -> Tensor:
        if not (self.training and _split_sequence(x)):
            self._mask = x > 0 if self.training else None
            return np.maximum(x, 0)
        xc = _cm(x)
        mask, out = np.empty(xc.shape, bool), np.empty(xc.shape, x.dtype)

        def rows(r: slice) -> None:
            np.greater(xc[r], 0, out=mask[r])
            np.maximum(xc[r], 0, out=out[r])

        in_halves(rows, x.shape[1])
        self._mask = _bcn(mask)
        return _bcn(out)

    def backward(self, grad_out: Tensor) -> Tensor:
        if self._mask is None:
            raise TensorError("relu backward without a train-mode forward")
        mask, self._mask = self._mask, None
        if not _split_sequence(grad_out):
            return grad_out * mask
        gc, mc = _cm(grad_out), _cm(mask)
        grad_x = np.empty(gc.shape, np.result_type(grad_out, mask))
        in_halves(lambda r: np.multiply(gc[r], mc[r], out=grad_x[r]), gc.shape[0])
        return _bcn(grad_x)


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
