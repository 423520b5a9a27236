"""The benchmark's three workloads; each runs in its own process started by run.py.

run.py sets ``PYTHONPATH=src`` and the BLAS thread count; by hand that is

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 \
        python3 perfbench/workloads.py --workload stream --seed 1 --seconds 25 --trace 0

The process generates every input from ``--seed``, sets up, measures for
``--seconds``, checks the outputs and prints its result as the last line of
stdout. With ``--trace 1`` the timed units alternate between tracing on and
off; the traced ones give the per-layer metrics, and the ratio of the two
groups' medians gives ``trace.overhead_pct``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import tcn_anticipation
from tcn_anticipation import baseline, checkpoint, cli, data, layers, synthetic, training
from tcn_anticipation.branch import Branch, BranchConfig
from tcn_anticipation.fusion import HEADS, MODALITIES, FusionConfig, FusionModel
from tcn_anticipation.tensor import Rng

import envinfo
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 3
PAPER_DIM = 1024          # feature width and channels at paper scale
WINDOW = 21               # snippets per observed window (5.25 s at 0.25 s)
CLASSES = dict(num_actions=12, num_verbs=6, num_nouns=8)   # synthetic defaults

STREAM_SEQUENCES = 4      # feature streams served round-robin
STREAM_SNIPPETS = 52      # each stream yields 52 - 21 + 1 = 32 windows
STREAM_CHECKED = 64       # first requests compared with one batched call
STREAM_WARMUP = 4
STREAM_GROUP = 32         # samples_per_s is the median rate over groups of 32 requests

BATCH = 64
PB_TRAIN_PER_CLASS = 16   # 192 training windows: three B=64 steps per epoch
PB_VAL_PER_CLASS = 32     # 384 val windows: six B=64 predict_proba chunks
PB_VAL_STRIDE = 6         # train_branch validates on every 6th val window (64)
PB_EPOCHS = 1
PB_LR = 0.005             # the CLI's default branch learning rate
BASELINE_STEPS = 2

DESK_TRAIN_PER_CLASS = 30
DESK_VAL_PER_CLASS = 10
DESK_EPOCHS = 5
DESK_WARMUP = 1           # the first pipeline in a process pays one-off costs
DESK_FUSION = ("mutual_pairwise", "attention")
DESK_MIN_TOP1 = 0.5       # guards against a change that stops learning; chance is 1/12
DESK_WINDOWS = 12 * (DESK_TRAIN_PER_CLASS + DESK_VAL_PER_CLASS)   # the dataset synth-gen writes


class Run:
    """What one workload process accumulates: checks, counts, metrics, notes."""

    def __init__(self, args):
        self.seed = args.seed
        self.seconds = args.seconds
        self.tracer = spans.Tracer() if args.trace else None
        self.work = ROOT / ".perfbench" / f"work-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.checks: list[tuple[str, bool, str]] = []
        self.info: dict = {}
        self.metrics: dict[str, float] = {}
        self.setup_times: list[float] = []
        self.overhead = 0.0

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    def latency(self, ops_s: list[float]) -> None:
        """latency_p50_ms and latency_tail_ms over the workload's operations."""
        lat = sorted(1e3 * t for t in ops_s)
        pct = tail_percentile(len(lat))
        self.info.update(latency_samples=len(lat), latency_tail_percentile=pct)
        if lat:
            self.metrics["latency_p50_ms"] = statistics.median(lat)
            self.metrics["latency_tail_ms"] = float(np.percentile(lat, pct))

    def tracing(self, on: bool) -> None:
        if self.tracer is not None:
            self.tracer.enabled = on

    def operation(self, fn, *args):
        """Run one counted operation; an exception is a failure, not an abort."""
        self.attempted += 1
        try:
            return True, fn(*args)
        except Exception:  # noqa: BLE001 - a benchmark keeps going and counts it
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return False, None

    def setup(self, fn):
        """Set up SETUP_REPS times (traced like the rest of a traced run) and
        keep the last result; setup_s is the median."""
        result = None
        for _ in range(SETUP_REPS):
            result = None       # free the previous set-up's model before the next one
            gc.collect()
            self.tracing(True)
            t0 = time.perf_counter()
            result = fn()
            self.setup_times.append(time.perf_counter() - t0)
            self.tracing(False)
        return result

    def timed(self, unit, warmup: int = 0):
        """Call ``unit(k)`` for ``warmup`` units that are not timed, then until
        --seconds have passed, and at least once each with tracing off and on
        in a traced run. ``unit`` returns the seconds to credit to it, or None
        on failure. Returns (untraced, traced) lists of successful unit times."""
        for k in range(warmup):
            unit(k)
        untraced, traced = [], []
        start = time.perf_counter()
        k = 0
        while k < (2 if self.tracer else 1) or time.perf_counter() - start < self.seconds:
            on = self.tracer is not None and k % 2 == 1
            self.tracing(on)
            if self.tracer is not None:
                self.tracer.request = warmup + k
            dt = unit(warmup + k)
            self.tracing(False)
            if dt is not None:
                (traced if on else untraced).append(dt)
            k += 1
        return untraced, traced

    def overhead_pct(self, untraced, traced) -> None:
        if untraced and traced:
            self.overhead = 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1)


def _valid_probs(probs: dict, rows: int) -> bool:
    for head in HEADS:
        p = probs[head]
        if p.shape[0] != rows or not np.all(np.isfinite(p)):
            return False
        if np.any(np.abs(p.sum(axis=1) - 1.0) > 1e-5):
            return False
    return True


def _paper_fusion_model(seed: int) -> FusionModel:
    """Randomly initialised paper-scale model with the CLI's default strategy."""
    rng = Rng(seed)
    bcfg = BranchConfig(input_dim=PAPER_DIM, channels=PAPER_DIM, **CLASSES)
    branches = {mod: Branch(bcfg, rng) for mod in MODALITIES}
    fcfg = FusionConfig(channels=PAPER_DIM, embed_dim=PAPER_DIM, strategy="mutual_pairwise",
                        **CLASSES)
    return FusionModel(branches, fcfg, rng)


TAIL_PERCENTILES = (90, 75, 50)


def tail_percentile(n: int) -> int:
    """The highest of TAIL_PERCENTILES with at least ten of n samples beyond it.

    The ladder keeps the percentile fixed while a run's sample count drifts
    with speed, and stops at p90 because higher ones swing with the host's
    noise; below 40 samples the tail is the median."""
    return next((p for p in TAIL_PERCENTILES if n * (100 - p) / 100 >= 10), 50)


# -- stream ---------------------------------------------------------------------


def stream(run: Run) -> None:
    spec = synthetic.learnable_spec(rgb_dim=PAPER_DIM, flow_dim=PAPER_DIM, obj_dim=PAPER_DIM,
                                    num_snippets=STREAM_SNIPPETS, train_per_class=0,
                                    val_per_class=1)
    _, seqs = synthetic.generate_synthetic(spec, run.seed)
    seqs = seqs[:STREAM_SEQUENCES]
    positions = STREAM_SNIPPETS - WINDOW + 1
    ckpt = run.work / "stream_fusion.ckpt"

    def deploy():
        model = _paper_fusion_model(run.seed)
        checkpoint.save_checkpoint(ckpt, checkpoint.fusion_checkpoint_tensors(model, 0))
        del model
        loaded, _ = checkpoint.fusion_from_checkpoint(ckpt)
        ckpt.unlink()
        return loaded.eval()

    model = run.setup(deploy)

    def window(k: int) -> dict:
        s, p = k % STREAM_SEQUENCES, (k // STREAM_SEQUENCES) % positions
        return {mod: np.ascontiguousarray(seqs[s].features[mod][p:p + WINDOW].T[None])
                for mod in MODALITIES}

    def request(x):
        out = model.predict_proba(x)
        if not _valid_probs(out, 1):
            raise ValueError("prediction is not a finite distribution per head")
        return out

    kept = {}

    def unit(k):
        x = window(k)
        t0 = time.perf_counter()
        ok, out = run.operation(request, x)
        dt = time.perf_counter() - t0
        if ok and k < STREAM_CHECKED:
            kept[k] = out
        return dt if ok else None

    untraced, traced = run.timed(unit, STREAM_WARMUP)
    run.check("stream.outputs_valid", run.failed == 0,
              f"{run.attempted - run.failed}/{run.attempted} requests returned finite rows "
              "summing to 1")
    n = len(kept)
    batch = {mod: np.concatenate([window(k)[mod] for k in sorted(kept)]) for mod in MODALITIES}
    ok, ref = run.operation(model.predict_proba, batch)
    worst = 0.0
    if ok:
        for head in HEADS:
            single = np.concatenate([kept[k][head] for k in sorted(kept)])
            err = np.abs(single - ref[head]) / np.maximum(np.abs(ref[head]), 1e-30)
            worst = max(worst, float(np.max(err[ref[head] > 1e-6], initial=0.0)))
    run.check("stream.matches_batched", ok and n > 0 and worst <= 1e-5,
              f"{n} B=1 requests vs one B={n} call, max rel err {worst:.2e} (limit 1e-5, "
              "probabilities above 1e-6)")

    run.latency(untraced)
    groups = [untraced[i:i + STREAM_GROUP]
              for i in range(0, len(untraced) - STREAM_GROUP + 1, STREAM_GROUP)]
    if groups:
        run.metrics["samples_per_s"] = statistics.median(len(g) / sum(g) for g in groups)
    run.overhead_pct(untraced, traced)


# -- paper_batch ---------------------------------------------------------------

def paper_batch(run: Run) -> None:
    spec = synthetic.learnable_spec(rgb_dim=PAPER_DIM, flow_dim=PAPER_DIM, obj_dim=PAPER_DIM,
                                    train_per_class=PB_TRAIN_PER_CLASS,
                                    val_per_class=PB_VAL_PER_CLASS)
    root = run.work / "paper_batch"

    def prepare():
        train, val = synthetic.generate_synthetic(spec, run.seed)
        data.write_dataset(train, root / "train")
        data.write_dataset(val, root / "val")
        del train, val
        train = data.read_dataset(root / "train" / "index.csv")
        val = data.read_dataset(root / "val" / "index.csv")
        return train, val, _paper_fusion_model(run.seed).eval()

    train, val, model = run.setup(prepare)
    shutil.rmtree(root)
    chunks = [{mod: data.stack_features(val[s:s + BATCH], mod)[0] for mod in MODALITIES}
              for s in range(0, len(val), BATCH)]
    bcfg = BranchConfig(input_dim=PAPER_DIM, channels=PAPER_DIM, **CLASSES)
    sgd = training.SgdConfig(lr0=PB_LR, epochs=PB_EPOCHS, batch_size=BATCH, seed=run.seed)
    losses: list[tuple[float, ...]] = []
    train_s, chunk_s = [], []

    def predict(x):
        t0 = time.perf_counter()
        out = model.predict_proba(x)
        dt = time.perf_counter() - t0
        if not _valid_probs(out, x["rgb"].shape[0]):
            raise ValueError("prediction is not a finite distribution per head")
        return dt

    def unit(k):
        t0 = time.perf_counter()
        ok, res = run.operation(training.train_branch, train, val[::PB_VAL_STRIDE], "rgb",
                                bcfg, sgd)
        dt = time.perf_counter() - t0
        if ok:
            losses.append(tuple(r.train_loss for r in res[1].history))
            del res
        evals = [run.operation(predict, x) for x in chunks]
        if not (ok and all(done for done, _ in evals)):
            return None
        if not run.tracer or not run.tracer.enabled:
            train_s.append(dt)
            chunk_s.extend(t for _, t in evals)
        return dt + sum(t for _, t in evals)

    untraced, traced = run.timed(unit)
    finite = bool(losses) and all(math.isfinite(v) for row in losses for v in row)
    run.check("paper_batch.loss_finite", finite,
              f"{len(losses)} train_branch calls, epoch losses {losses[:1]}")
    run.info.update(iterations=len(untraced) + len(traced),
                    loss_digest=_digest(losses[:1]),
                    loss_repeats_bitwise=len(set(losses)) == 1)
    run.latency(chunk_s)
    if train_s:
        run.metrics["samples_per_s"] = statistics.median(PB_EPOCHS * len(train) / t
                                                         for t in train_s)
        run.info["eval_samples_per_s"] = BATCH / statistics.median(chunk_s)
    if run.tracer is not None:
        _baseline_steps(run, chunks[0]["rgb"])
    run.overhead_pct(untraced, traced)


def _baseline_steps(run: Run, x: np.ndarray) -> None:
    """LSTM encoder-decoder eval forward and train step at the branch's batch
    size and width; traced run only."""
    cfg = baseline.LstmConfig(input_dim=PAPER_DIM, hidden=PAPER_DIM,
                              num_actions=CLASSES["num_actions"], encoder_steps=WINDOW)
    lstm = baseline.LstmEncoderDecoder(cfg, Rng(run.seed))
    labels = np.arange(x.shape[0]) % CLASSES["num_actions"]
    opt = training.SgdOptimizer(lstm.named_parameters())
    ce = layers.SoftmaxCrossEntropy()

    def step():
        lstm.train()
        ce.forward(lstm.forward(x), labels)
        opt.zero_grad()
        lstm.backward(ce.backward())
        opt.step(1e-3)

    traced_step = run.tracer.traced(step, "baseline.train_step")
    for rep in range(BASELINE_STEPS + 1):
        run.tracing(rep > 0)            # first call of each warms up
        run.operation(lstm.eval().forward, x)
        run.operation(traced_step)
        run.tracing(False)


# -- desk ------------------------------------------------------------------------

def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def desk(run: Run) -> None:
    run.work.mkdir(parents=True, exist_ok=True)
    data_cfg = run.work / "data.cfg"
    data_cfg.write_text(f"train_per_class = {DESK_TRAIN_PER_CLASS}\n"
                        f"val_per_class = {DESK_VAL_PER_CLASS}\n", encoding="utf-8")
    desk_cfg = run.work / "desk.cfg"      # the README's configs/desk.cfg
    desk_cfg.write_text("channels = 64\ninput_dropout = 0.1\nblock_dropout = 0.1\n"
                        "head_dropout = 0.1\n", encoding="utf-8")

    def tcna(argv) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main([str(a) for a in argv])
        if code != 0:
            raise RuntimeError(f"tcna {argv[0]} exited {code}")
        return out.getvalue()

    seed = ["--seed", run.seed]

    run.setup(lambda: subprocess.run([sys.executable, "-c", "import tcn_anticipation.cli"],
                                     check=True, cwd=ROOT))
    # The dataset is made once, outside the timed pipelines: creating its
    # 1440 FSEQ files took anywhere from 0.1 s to 0.7 s per run on the ext4
    # disk this was tuned on, which would swamp a 2 s pipeline.
    dat = run.work / "data"
    run.tracing(True)
    t0 = time.perf_counter()
    run.operation(tcna, ["synth-gen", "--out", dat, "--config", data_cfg, *seed])
    run.info["synth_gen_s"] = time.perf_counter() - t0
    run.tracing(False)
    top1: list[float] = []
    digests: list[str] = []
    cli_ok: list[bool] = []
    reloads_ok: list[bool] = []

    def unit(k):
        w = run.work / f"pipeline-{k}"
        out = w / "run"
        steps = []
        for mod in MODALITIES:
            steps.append(["train-branch", "--data", dat, "--out", out, "--modality", mod,
                          "--channels", 64, "--epochs", DESK_EPOCHS, "--lr", 0.02,
                          "--batch", 32, "--config", desk_cfg, *seed])
        ckpts = [a for mod in MODALITIES
                 for a in (f"--{mod}-ckpt", out / f"branch_{mod}_best.ckpt")]
        for strategy in DESK_FUSION:
            steps.append(["train-fusion", "--data", dat, "--out", out, "--strategy", strategy,
                          *ckpts, "--embed-dim", 64, "--epochs", DESK_EPOCHS, "--lr", 0.02,
                          *seed])
        for strategy in DESK_FUSION:
            steps.append(["evaluate", "--ckpt", out / f"fusion_{strategy}.ckpt", "--data", dat,
                          "--out", w / f"eval_{strategy}"])
        t0 = time.perf_counter()
        results = [run.operation(tcna, argv) for argv in steps]
        dt = time.perf_counter() - t0
        run.tracing(False)
        ok = all(r[0] for r in results)
        cli_ok.append(ok)
        if ok:
            evaluated = results[-len(DESK_FUSION)][1]
            top1.append(float(next(line.split()[1] for line in evaluated.splitlines()
                                   if line.startswith("action"))))
            digests.append(_digest([[row.rsplit(",", 1)[0] for row in
                                     p.read_text(encoding="utf-8").splitlines()]
                                    for p in sorted(out.glob("train_log_*.csv"))]))
        reloads = [run.operation(checkpoint.load_any_checkpoint, p)[0]
                   for p in sorted(out.glob("*.ckpt"))]
        reloads_ok.append(len(reloads) == 2 * len(MODALITIES) + len(DESK_FUSION)
                          and all(reloads))
        shutil.rmtree(w, ignore_errors=True)
        return dt if ok else None

    untraced, traced = run.timed(unit, DESK_WARMUP)
    run.check("desk.cli_exit_0", bool(cli_ok) and all(cli_ok),
              f"{sum(cli_ok)}/{len(cli_ok)} pipelines with every tcna call exiting 0")
    run.check("desk.checkpoints_reload", bool(reloads_ok) and all(reloads_ok),
              f"{sum(reloads_ok)}/{len(reloads_ok)} pipelines whose checkpoints all reload")
    run.check("desk.learns", bool(top1) and min(top1) >= DESK_MIN_TOP1,
              f"action top-1 printed by evaluate for mutual_pairwise: {top1[:1]} "
              f"(at least {DESK_MIN_TOP1}; chance is 1/12)")
    run.latency(untraced)
    if untraced:
        run.metrics["samples_per_s"] = DESK_WINDOWS / statistics.median(untraced)
    run.info.update(pipelines=len(cli_ok), val_top1=top1[0] if top1 else None,
                    val_top1_repeats=len(set(top1)) == 1,
                    train_log_digest=digests[0] if digests else None,
                    train_log_repeats=len(set(digests)) == 1)
    run.overhead_pct(untraced, traced)


WORKLOADS = {"stream": stream, "paper_batch": paper_batch, "desk": desk}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not Path(tcn_anticipation.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {tcn_anticipation.__file__}, not the checkout's", file=sys.stderr)
        return 2
    run = Run(args)
    env = envinfo.thread_report()
    if run.tracer is not None:
        spans.install(run.tracer)
    run.work.mkdir(parents=True, exist_ok=True)
    try:
        WORKLOADS[args.workload](run)
    finally:
        if run.tracer is not None:
            run.tracer.unpatch()
        shutil.rmtree(run.work, ignore_errors=True)
    run.metrics["setup_s"] = statistics.median(run.setup_times)
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.info["setup_s_each"] = run.setup_times
    metrics = run.metrics
    if run.tracer is not None:
        trace_file = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.jsonl"
        run.tracer.write(trace_file)
        run.info.update(trace_file=str(trace_file.relative_to(ROOT)),
                        spans=len(run.tracer.spans), end_to_end=run.metrics)
        metrics = spans.reduce(run.tracer.spans, run.overhead)
    print(json.dumps({"env": env, "info": run.info, "checks": run.checks,
                      "correct": all(ok for _, ok, _ in run.checks) and run.failed == 0,
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())
