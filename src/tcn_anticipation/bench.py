"""Analytic MAC counts and wall-clock benchmarks for the speed study.

MAC counts cover the sequence-processing core only: conv multiplies for the
branch (embedding conv plus residual-block convs over the shrinking length
ledger) and gate matmuls for the recurrent baseline. Heads, normalization,
and elementwise work are excluded on both sides. Counts are per sample and
batch-invariant, and cover the full window: an eval-mode branch forward
computes only the positions its last output column depends on, at every batch
size, so it does fewer MACs than the count.

Wall-clock runs warm up, then record per-repetition times; the headline
statistic is a median-of-means, which resists desk-machine jitter better than
a plain mean. Nothing is pinned; the hardware note reports the BLAS thread
variables, which fix the BLAS thread count when the process starts, and how
many threads call BLAS in each timed step: from ``CONCURRENT_CHANNELS`` wide
the branch's train step splits its conv GEMMs between the caller and a pool
worker, while the LSTM's train step and both eval forwards stay on the caller.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .baseline import LstmConfig, LstmEncoderDecoder
from .branch import Branch, BranchConfig, multitask_loss
from .layers import CONCURRENT_CHANNELS, SoftmaxCrossEntropy, concurrent_at
from .tensor import Rng, TensorError
from .training import SgdOptimizer


def conv_macs(in_channels: int, out_channels: int, kernel: int, n_out: int) -> int:
    """MACs of one valid conv layer: every output scalar costs C_in*K multiplies."""
    return out_channels * n_out * in_channels * kernel


def branch_macs(config: BranchConfig, n_snippets: int | None = None) -> int:
    """Conv multiply-accumulates of one forward pass, per sample."""
    n = config.required_length if n_snippets is None else n_snippets
    if n < config.required_length:
        raise TensorError(f"{n} snippets below receptive field {config.required_length}")
    total = conv_macs(config.input_dim, config.channels, 1, n)  # embedding conv
    for n_out in config.block_lengths(n):
        total += conv_macs(config.channels, config.channels, config.kernel, n_out)
    return total


def lstm_macs(config: LstmConfig) -> int:
    """Gate matmul MACs: 4 gates x (input proj + recurrent proj) per step."""
    h, d = config.hidden, config.input_dim
    enc = config.encoder_steps * 4 * (h * d + h * h)
    dec = config.decoder_steps * 4 * (h * h + h * h)  # decoder input is h_enc
    return enc + dec


@dataclass
class ModelTiming:
    name: str
    mac_count: int
    inference_mean: float
    inference_std: float
    inference_mom: float  # median of group means
    train_step_mean: float
    train_step_std: float
    train_step_mom: float


@dataclass
class BenchReport:
    models: list[ModelTiming]
    batch_size: int
    repetitions: int
    warmup: int
    hardware_note: str
    inference_speedup: float  # baseline time / branch time
    train_speedup: float

    def csv(self) -> str:
        lines = ["model,mac_count,inference_mean_s,inference_std_s,inference_mom_s,"
                 "train_step_mean_s,train_step_std_s,train_step_mom_s"]
        for m in self.models:
            lines.append(f"{m.name},{m.mac_count},{m.inference_mean:.6g},"
                         f"{m.inference_std:.6g},{m.inference_mom:.6g},"
                         f"{m.train_step_mean:.6g},{m.train_step_std:.6g},"
                         f"{m.train_step_mom:.6g}")
        return "\n".join(lines) + "\n"

    def summary(self) -> str:
        lines = [f"batch={self.batch_size} reps={self.repetitions} warmup={self.warmup}",
                 f"hardware: {self.hardware_note}"]
        for m in self.models:
            lines.append(f"{m.name}: {m.mac_count} MACs/sample, "
                         f"inference {m.inference_mom * 1e3:.2f} ms/batch, "
                         f"train step {m.train_step_mom * 1e3:.2f} ms/batch")
        lines.append(f"speedup (baseline/branch): inference {self.inference_speedup:.2f}x, "
                     f"training step {self.train_speedup:.2f}x")
        return "\n".join(lines) + "\n"


def _time_reps(fn, reps: int, warmup: int) -> list[float]:
    """Per-repetition seconds; inner-loop count grows if the timer is too coarse."""
    resolution = time.get_clock_info("perf_counter").resolution
    inner = 1
    for _ in range(max(warmup, 1)):
        fn()
    t0 = time.perf_counter()
    fn()
    single = time.perf_counter() - t0
    while single * inner < 1000 * resolution and inner < 1 << 20:
        inner *= 2
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        for _ in range(inner):
            fn()
        times.append((time.perf_counter() - t0) / inner)
    return times


def _median_of_means(times: list[float], groups: int = 5) -> float:
    size = max(1, len(times) // groups)
    means = [statistics.fmean(times[i:i + size]) for i in range(0, len(times), size)]
    return statistics.median(means)


def _stats(times: list[float]) -> tuple[float, float, float]:
    return (statistics.fmean(times),
            statistics.stdev(times) if len(times) > 1 else 0.0,
            _median_of_means(times))


def bench_models(branch: Branch, baseline: LstmEncoderDecoder, batch: int,
                 reps: int = 30, warmup: int = 5, seed: int = 0) -> BenchReport:
    """Time eval-mode forwards and full optimizer steps (at lr 1e-3) for both models."""
    if batch < 1:
        raise TensorError(f"benchmark needs a batch of at least 1, got {batch}")
    if reps < 30:
        raise TensorError("benchmark needs at least 30 repetitions")
    if warmup < 5:
        raise TensorError("benchmark needs at least 5 warm-up iterations")
    rng = Rng(seed)
    n = branch.config.required_length
    if baseline.config.encoder_steps != n:
        raise TensorError("models must observe the same number of snippets")
    if baseline.config.hidden != branch.config.channels:
        raise TensorError("baseline hidden width must match the branch channels")
    dtype = branch.config.dtype
    x = rng.normal(0.0, 1.0, (batch, branch.config.input_dim, n), dtype)
    labels = {head: (rng.uniform(0, 1, (batch,), "f64") * k).astype(np.int64)
              for head, k in branch.config.class_counts.items()}

    branch.eval()
    branch_inf = _time_reps(lambda: branch.forward(x), reps, warmup)

    opt_b = SgdOptimizer(branch.named_parameters())

    def branch_step():
        branch.train()
        out = branch.forward(x, rng)
        _, grads = multitask_loss(out, labels)
        opt_b.zero_grad()
        branch.backward(grads)
        opt_b.step(1e-3)

    branch_train = _time_reps(branch_step, reps, warmup)

    baseline.eval()
    lstm_inf = _time_reps(lambda: baseline.forward(x), reps, warmup)

    opt_l = SgdOptimizer(baseline.named_parameters())
    ce = SoftmaxCrossEntropy()

    def lstm_step():
        baseline.train()
        logits = baseline.forward(x)
        ce.forward(logits, labels["action"])
        opt_l.zero_grad()
        baseline.backward(ce.backward())
        opt_l.step(1e-3)

    lstm_train = _time_reps(lstm_step, reps, warmup)

    rows = [
        ModelTiming("tcn_branch", branch_macs(branch.config, n),
                    *_stats(branch_inf), *_stats(branch_train)),
        ModelTiming("lstm_baseline", lstm_macs(baseline.config),
                    *_stats(lstm_inf), *_stats(lstm_train)),
    ]
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}"
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    callers = (f"2 ({CONCURRENT_CHANNELS}+ channels: conv GEMMs split with a pool worker)"
               if concurrent_at(branch.config.channels) else "1")
    note = (f"{platform.machine()} {platform.system()}, {threads}, no CPU pinning, "
            f"dtype={dtype}, threads calling BLAS: branch train step {callers}, "
            f"LSTM train step 1, eval forwards 1")
    return BenchReport(rows, batch, reps, warmup, note,
                       rows[1].inference_mom / rows[0].inference_mom,
                       rows[1].train_step_mom / rows[0].train_step_mom)
