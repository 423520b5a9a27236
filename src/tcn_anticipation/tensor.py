"""Dense tensor conventions and the deterministic RNG shared by the library.

A "tensor" here is a plain numpy ndarray restricted to float32/float64 with a
C-contiguous row-major layout. The random draws are checked finite, so
callers can always assume finite values. All randomness flows through one explicitly threaded :class:`Rng` (PCG64), which
makes any seeded pipeline bit-reproducible on the same machine.
"""

from __future__ import annotations

from typing import TypeAlias

import numpy as np

Tensor: TypeAlias = np.ndarray

DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}


class TensorError(ValueError):
    """Shape, dtype, or axis violation in a tensor op."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


def dtype_of(name: str) -> np.dtype:
    try:
        return DTYPES[name]
    except KeyError:
        raise TensorError(f"unknown dtype {name!r}; expected one of {sorted(DTYPES)}") from None


def check_finite(arr: Tensor, what: str = "operation") -> Tensor:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} produced non-finite values")
    return arr


class Rng:
    """Seedable deterministic generator (PCG64).

    One instance is owned by the trainer and threaded explicitly through every
    stochastic op (init, shuffling, dropout); identical seeds yield identical
    scalar streams, hence bitwise-identical tensors.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise TensorError(f"seed must be >= 0, got {seed}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, lo: float, hi: float, shape, dtype: str = "f32") -> Tensor:
        if not lo < hi:
            raise TensorError(f"uniform requires lo < hi, got [{lo}, {hi})")
        out = self._gen.uniform(lo, hi, size=shape)
        return check_finite(np.asarray(out, dtype=dtype_of(dtype)), "uniform")

    def normal(self, mean: float, std: float, shape, dtype: str = "f32") -> Tensor:
        if std < 0:
            raise TensorError(f"normal requires std >= 0, got {std}")
        out = self._gen.normal(mean, std, size=shape)
        return check_finite(np.asarray(out, dtype=dtype_of(dtype)), "normal")

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def keep_mask(self, shape, drop_prob: float) -> np.ndarray:
        """Boolean mask, True with probability 1 - drop_prob."""
        return self._gen.uniform(0.0, 1.0, size=shape) >= drop_prob


def argsort_desc(a: Tensor, axis: int = -1) -> np.ndarray:
    """Indices sorting descending; ties broken by ascending index (stable)."""
    ndim = a.ndim if a.ndim else 1
    if not -ndim <= axis < ndim:
        raise TensorError(f"axis {axis} out of range for ndim {a.ndim}")
    return np.argsort(-a, axis=axis, kind="stable")
