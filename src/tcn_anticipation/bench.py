"""Analytic MAC counts and wall-clock benchmarks for the speed study.

MAC counts cover the sequence-processing core only: conv multiplies for the
branch (embedding conv plus residual-block convs over the shrinking length
ledger) and gate matmuls for the recurrent baseline. Heads, normalization,
and elementwise work are excluded on both sides. Counts are per sample and
batch-invariant, and cover the full window: an eval-mode branch forward
computes only the positions its last output column depends on, at every batch
size, so it does fewer MACs than the count.

Wall-clock runs warm up for ``WARMUP`` repetitions, then record the times of
``REPS`` more; the headline statistic is a median-of-means, which resists
desk-machine jitter better than a plain mean. Nothing is pinned; the hardware
note reports the BLAS thread variables, which fix the BLAS thread count when
the process starts, and how many threads each timed step runs on: from
``CONCURRENT_CHANNELS`` wide the branch's train step splits each conv forward
GEMM, its per-channel work and the SGD passes between the caller and a pool
worker and runs each block conv's backward GEMMs side by side on the two, and
its eval forward shares chunks with a worker above ``EVAL_CHUNK`` windows. The
LSTM's GEMMs stay on the caller; its SGD passes split too once a gate weight
has ``CONCURRENT_CHANNELS`` rows.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from dataclasses import dataclass

import numpy as np

from .baseline import DECODER_STEPS, LstmConfig, LstmEncoderDecoder
from .branch import EVAL_CHUNK, Branch, BranchConfig, multitask_loss
from .layers import CONCURRENT_CHANNELS, SoftmaxCrossEntropy, concurrent_at
from .tensor import Rng, TensorError
from .training import SgdOptimizer

REPS = 30
WARMUP = 5


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
    dec = DECODER_STEPS * 4 * (h * h + h * h)  # decoder input is h_enc
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
        lines = [f"batch={self.batch_size} reps={REPS} warmup={WARMUP}",
                 f"hardware: {self.hardware_note}"]
        for m in self.models:
            lines.append(f"{m.name}: {m.mac_count} MACs/sample, "
                         f"inference {m.inference_mom * 1e3:.2f} ms/batch, "
                         f"train step {m.train_step_mom * 1e3:.2f} ms/batch")
        lines.append(f"speedup (baseline/branch): inference {self.inference_speedup:.2f}x, "
                     f"training step {self.train_speedup:.2f}x")
        return "\n".join(lines) + "\n"


def _time_reps(fn) -> list[float]:
    """Seconds of each of ``REPS`` calls after ``WARMUP`` untimed ones."""
    for _ in range(WARMUP):
        fn()
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def _median_of_means(times: list[float]) -> float:
    size = max(1, len(times) // 5)  # five groups
    means = [statistics.fmean(times[i:i + size]) for i in range(0, len(times), size)]
    return statistics.median(means)


def _stats(times: list[float]) -> tuple[float, float, float]:
    return statistics.fmean(times), statistics.stdev(times), _median_of_means(times)


def bench_models(branch: Branch, baseline: LstmEncoderDecoder, batch: int,
                 seed: int = 0) -> BenchReport:
    """Time eval-mode forwards and full optimizer steps (at lr 1e-3) for both models."""
    if batch < 1:
        raise TensorError(f"benchmark needs a batch of at least 1, got {batch}")
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
    branch_inf = _time_reps(lambda: branch.forward(x))

    opt_b = SgdOptimizer(branch.named_parameters())

    def branch_step():
        branch.train()
        out = branch.forward(x, rng)
        _, grads = multitask_loss(out, labels)
        opt_b.zero_grad()
        branch.backward(grads)
        opt_b.step(1e-3)

    branch_train = _time_reps(branch_step)

    baseline.eval()
    lstm_inf = _time_reps(lambda: baseline.forward(x))

    opt_l = SgdOptimizer(baseline.named_parameters())
    ce = SoftmaxCrossEntropy()

    def lstm_step():
        baseline.train()
        logits = baseline.forward(x)
        ce.forward(logits, labels["action"])
        opt_l.zero_grad()
        baseline.backward(ce.backward())
        opt_l.step(1e-3)

    lstm_train = _time_reps(lstm_step)

    rows = [
        ModelTiming("tcn_branch", branch_macs(branch.config, n),
                    *_stats(branch_inf), *_stats(branch_train)),
        ModelTiming("lstm_baseline", lstm_macs(baseline.config),
                    *_stats(lstm_inf), *_stats(lstm_train)),
    ]
    threads = ", ".join(f"{var}={os.environ.get(var, 'unset')}"
                        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    wide = concurrent_at(branch.config.channels)
    callers = (f"2 ({CONCURRENT_CHANNELS}+ channels: the caller and a pool worker split each "
               f"conv forward GEMM, the per-channel work and the SGD passes and run each "
               f"block conv's backward GEMMs side by side)" if wide else "1")
    lstm = "2 (SGD passes only)" if opt_l.split else "1"
    eval_callers = ("2 (eval chunks shared with a pool worker)"
                    if wide and batch > EVAL_CHUNK else "1")
    note = (f"{platform.machine()} {platform.system()}, {threads}, no CPU pinning, "
            f"dtype={dtype}, threads per step: branch train step {callers}, LSTM train "
            f"step {lstm}, branch eval forward {eval_callers}, LSTM eval forward 1")
    return BenchReport(rows, batch, note,
                       rows[1].inference_mom / rows[0].inference_mom,
                       rows[1].train_step_mom / rows[0].train_step_mom)
