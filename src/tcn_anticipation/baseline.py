"""Recurrent encoder-decoder baseline for the speed study.

Structural stand-in for an LSTM anticipation model: a standard 4-gate cell
rolls over the N observed snippets, a second cell unrolls for a fixed number
of anticipation steps, and a linear head classifies the final state. The
decoder consumes the encoder's final hidden state as its input at every step
and inherits the encoder's final (h, c). Hidden width matches the conv
branch's channel count so the comparison is width-for-width fair.

Gate order in the fused matrices is (i, f, g, o).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import Layer, Layout, Linear, Model, Parameter, _init_uniform
from .tensor import Rng, Tensor, TensorError, dtype_of


def _sigmoid(x: Tensor) -> Tensor:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@dataclass(frozen=True)
class LstmConfig:
    input_dim: int
    hidden: int
    num_actions: int
    encoder_steps: int = 21
    decoder_steps: int = 8
    dtype: str = "f32"

    def __post_init__(self):
        for name in ("input_dim", "hidden", "num_actions", "encoder_steps", "decoder_steps"):
            if getattr(self, name) < 1:
                raise TensorError(f"{name} must be positive")

    def layout(self, rng: Rng | None = None) -> Layout:
        """Encoder, decoder and head with their constructor args, in weight draw order."""
        h, dt = self.hidden, self.dtype
        return {"encoder": (_Cell, (self.input_dim, h, dt, rng)),
                "decoder": (_Cell, (h, h, dt, rng)),
                "head": (Linear, (h, self.num_actions, dt, rng))}


class _Cell(Layer):
    """One fused-gate LSTM cell with cached per-step state for BPTT."""

    params = ("wx", "wh", "bias")

    @staticmethod
    def shapes(input_dim, hidden, *_):
        return {"wx": (4 * hidden, input_dim), "wh": (4 * hidden, hidden), "bias": (4 * hidden,)}

    def __init__(self, input_dim: int, hidden: int, dtype: str, rng: Rng | None):
        h = hidden
        self.wx = Parameter(_init_uniform(rng, math.sqrt(1.0 / input_dim), (4 * h, input_dim),
                                          dtype))
        self.wh = Parameter(_init_uniform(rng, math.sqrt(1.0 / h), (4 * h, h), dtype))
        self.bias = Parameter(np.zeros(4 * h, dtype=dtype_of(dtype)))
        self.hidden = h

    def step(self, x: Tensor, h: Tensor, c: Tensor, cache: list | None):
        z = x @ self.wx.data.T + h @ self.wh.data.T + self.bias.data
        hh = self.hidden
        i = _sigmoid(z[:, :hh])
        f = _sigmoid(z[:, hh:2 * hh])
        g = np.tanh(z[:, 2 * hh:3 * hh])
        o = _sigmoid(z[:, 3 * hh:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        if cache is not None:
            cache.append((x, h, c, i, f, g, o, tanh_c))
        return h_new, c_new

    def step_backward(self, cache_entry, dh: Tensor, dc: Tensor):
        x, h_prev, c_prev, i, f, g, o, tanh_c = cache_entry
        do = dh * tanh_c
        dci = dh * o * (1.0 - tanh_c * tanh_c) + dc
        df = dci * c_prev
        di = dci * g
        dg = dci * i
        dz = np.concatenate([
            di * i * (1.0 - i),
            df * f * (1.0 - f),
            dg * (1.0 - g * g),
            do * o * (1.0 - o),
        ], axis=1)
        self.wx.grad += dz.T @ x
        self.wh.grad += dz.T @ h_prev
        self.bias.grad += dz.sum(axis=0)
        dh_prev = dz @ self.wh.data
        dc_prev = dci * f
        return dz, dh_prev, dc_prev  # the gradient of the step's input is dz @ wx


class LstmEncoderDecoder(Model):
    def __init__(self, config: LstmConfig, rng: Rng | None = None):
        super().__init__(config.layout(rng))
        self.config = config
        self.encoder, self.decoder, self.head = self.layers.values()
        self._cache = None

    def forward(self, x: Tensor) -> Tensor:
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != cfg.input_dim or x.shape[2] != cfg.encoder_steps:
            raise TensorError(
                f"expected (B, {cfg.input_dim}, {cfg.encoder_steps}), got {x.shape}")
        b = x.shape[0]
        dt = self.encoder.wx.data.dtype
        h = np.zeros((b, cfg.hidden), dtype=dt)
        c = np.zeros((b, cfg.hidden), dtype=dt)
        enc_cache: list | None = [] if self.training else None
        for t in range(cfg.encoder_steps):
            h, c = self.encoder.step(np.ascontiguousarray(x[:, :, t]), h, c, enc_cache)
        h_enc = h
        dec_cache: list | None = [] if self.training else None
        for _ in range(cfg.decoder_steps):
            h, c = self.decoder.step(h_enc, h, c, dec_cache)
        if self.training:
            self._cache = (enc_cache, dec_cache)
        return self.head.forward(h)

    def backward(self, grad_logits: Tensor) -> None:
        """Accumulates every parameter's gradient; returns None, as nothing reads the
        input's gradient."""
        if self._cache is None:
            raise TensorError("backward needs a train-mode forward first")
        enc_cache, dec_cache = self._cache
        dh = self.head.backward(grad_logits)
        dc = np.zeros_like(dh)
        dh_enc = np.zeros_like(dh)
        for entry in reversed(dec_cache):
            dz, dh, dc = self.decoder.step_backward(entry, dh, dc)
            dh_enc += dz @ self.decoder.wx.data  # decoder input is h_enc at every step
        dh = dh + dh_enc  # decoder initial h was h_enc as well
        for entry in reversed(enc_cache):
            _, dh, dc = self.encoder.step_backward(entry, dh, dc)
