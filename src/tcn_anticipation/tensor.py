"""Dense tensor conventions and the deterministic RNG shared by the library.

A "tensor" here is a plain numpy ndarray restricted to float32/float64 with a
C-contiguous row-major layout. The random draws are checked finite, so
callers can always assume finite values. All randomness flows through one
explicitly threaded :class:`Rng` (PCG64), which makes any seeded pipeline
bit-reproducible on the same machine.

A draw fills its result in the result's dtype, :data:`BLOCK` values at a time,
so it allocates no float64 copy the size of the result. Each block continues
the PCG64 stream where the last one stopped, so a seed gives the same values
as one whole-array numpy draw cast to the dtype.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import TypeAlias

import numpy as np

Tensor: TypeAlias = np.ndarray

DTYPES = {"f32": np.dtype(np.float32), "f64": np.dtype(np.float64)}

# Values per block of a blocked pass (the draws here, the SGD step). A float64
# block is 512 KiB, so a draw's block and its finite mask stay under 1 MiB
# beside the result. Drawing 3M f32 values took the same time at 2**14 to 2**17
# values per block as in one call (2-CPU Xeon VM, numpy 2.4).
BLOCK = 1 << 16


class TensorError(ValueError):
    """Shape, dtype, or axis violation in a tensor op."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


def dtype_of(name: str) -> np.dtype:
    try:
        return DTYPES[name]
    except KeyError:
        raise TensorError(f"unknown dtype {name!r}; expected one of {sorted(DTYPES)}") from None


def blocks(size: int) -> Iterator[slice]:
    """Slices that cover ``range(size)`` in order, each of at most BLOCK values."""
    return (slice(start, start + BLOCK) for start in range(0, size, BLOCK))


def check_finite(arr: Tensor, what: str = "operation") -> Tensor:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{what} produced non-finite values")
    return arr


class Rng:
    """Seedable deterministic generator (PCG64).

    One instance is owned by the trainer and threaded explicitly through every
    stochastic op (init, shuffling, dropout); identical seeds yield identical
    scalar streams, hence bitwise-identical tensors. ``uniform`` and ``normal``
    write one float64 block of numpy's draw at a time into the result's dtype
    and check it finite there: the values, and the stream left for the next
    draw, are those of one whole-array draw cast to the dtype.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        if self.seed < 0:
            raise TensorError(f"seed must be >= 0, got {seed}")
        self._gen = np.random.Generator(np.random.PCG64(self.seed))

    def uniform(self, lo: float, hi: float, shape, dtype: str = "f32") -> Tensor:
        if not lo < hi:
            raise TensorError(f"uniform requires lo < hi, got [{lo}, {hi})")
        return self._fill(lambda size: self._gen.uniform(lo, hi, size), shape, dtype, "uniform")

    def normal(self, mean: float, std: float, shape, dtype: str = "f32") -> Tensor:
        if std < 0:
            raise TensorError(f"normal requires std >= 0, got {std}")
        return self._fill(lambda size: self._gen.normal(mean, std, size), shape, dtype, "normal")

    @staticmethod
    def _fill(draw, shape, dtype: str, what: str) -> Tensor:
        out = np.empty(shape, dtype_of(dtype))
        flat = out.reshape(-1)
        # a zero-size draw still makes one (empty) numpy call, which checks its arguments
        for part in blocks(max(flat.size, 1)):
            block = flat[part]
            block[...] = draw(block.size)
            check_finite(block, what)
        return out

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
