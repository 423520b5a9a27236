"""Span tracing of tcn_anticipation from outside the program.

The traced run replaces public callables of the package with wrappers that
record one span per call: name, start, end, parent span, and the request and
optimizer-step ids current at the call. Spans stay in memory, are written out
as JSON lines when the run ends, and are reduced to the per-layer metrics in
BENCHMARK.json. ``from ... import`` binds a copy of a function in the caller's
module, so a function is patched under every module name its callers look it
up by (``cli.read_dataset`` as well as ``data.read_dataset``).

All ``*_ms`` metrics are milliseconds per call, so they do not depend on how
many calls fit into a run; counts and rates are named by their unit. A layer
that a workload never calls reads 0.
"""

from __future__ import annotations

import functools
import json
import os
import time

from tcn_anticipation import (baseline, bench, branch, checkpoint, cli, data, fusion, layers,
                              synthetic, tensor, training)

CONV_BLOCKS = ("embed", "block0", "block1", "block2", "block3")
CHECKPOINT_LOADS = ("branch_from_checkpoint", "fusion_from_checkpoint", "load_any_checkpoint")


class Tracer:
    """In-memory span recorder; every wrapper is a pass-through while disabled."""

    def __init__(self):
        self.enabled = False
        self.request = 0
        self.step = 0
        # [name, start, end, parent, request, step, payload]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            label = name(args) if callable(name) else name
            stack = tracer._stack
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, tracer.request,
                    tracer.step, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                span[6] = after(args, result)
            return result

        return wrapper

    def traced(self, fn, name: str):
        """``fn`` recorded as a span; for the benchmark's own code, such as a baseline step."""
        return self._wrap(fn, name)

    def patch(self, owner, attr: str, name, after=None) -> None:
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def next_step(self, args, result):
        """After-hook of ``SgdOptimizer.step``: later spans belong to the next step."""
        self.step += 1

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, request, step, payload in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request, "step": step,
                                     "payload": payload}) + "\n")


# -- what gets patched ---------------------------------------------------------

def _conv_name(direction):
    def name(args):
        conv = args[0]
        block = "embed" if conv.kernel_size == 1 else f"block{conv.dilation - 1}"
        return f"layers.conv1d.{block}.{direction}"
    return name


def _conv_fwd_macs(args, out):
    conv, x = args[0], args[1]
    n_out = conv.out_length(x.shape[2])
    return x.shape[0] * bench.conv_macs(conv.in_channels, conv.out_channels,
                                        conv.kernel_size, n_out)


def _conv_bwd_macs(args, out):
    conv, grad_out = args[0], args[1]
    return 2 * grad_out.shape[0] * bench.conv_macs(conv.in_channels, conv.out_channels,
                                                   conv.kernel_size, grad_out.shape[2])


def _file_bytes(args, out):
    return os.path.getsize(args[0])


def _branch_fwd_name(args):
    return "branch.fwd_train" if args[0].training else "branch.fwd_eval"


def install(tracer: Tracer) -> None:
    """Wrap every public callable the per-layer metrics are built from."""
    p = tracer.patch
    for attr in ("permutation", "keep_mask", "normal"):
        p(tensor.Rng, attr, "tensor.rng")
    p(layers.Conv1d, "forward", _conv_name("fwd"), _conv_fwd_macs)
    p(layers.Conv1d, "backward", _conv_name("bwd"), _conv_bwd_macs)
    p(layers.BatchNorm1d, "forward", "layers.batchnorm.fwd")
    p(layers.BatchNorm1d, "backward", "layers.batchnorm.bwd")
    for attr in ("forward", "backward"):
        p(layers.SpatialDropout, attr, "layers.dropout")
        p(layers.ReLU, attr, "layers.relu")
        p(layers.SoftmaxCrossEntropy, attr, "layers.softmax_ce")
    p(layers.Linear, "forward", "layers.linear.fwd")
    p(layers.Linear, "backward", "layers.linear.bwd")
    p(branch.Branch, "forward", _branch_fwd_name)
    p(branch.Branch, "backward", "branch.bwd")
    p(fusion.FusionModel, "predict_proba", "fusion.predict")
    p(fusion.FusionModel, "fuse_forward", "fusion.fuse_fwd")
    p(fusion.FusionModel, "fuse_backward", "fusion.fuse_bwd")
    p(fusion.FusionModel, "attention_forward", "fusion.attention")
    p(fusion.FusionModel, "attention_backward", "fusion.attention")
    p(training.SgdOptimizer, "zero_grad", "training.zero_grad")
    p(training.SgdOptimizer, "step", "training.sgd_step", tracer.next_step)
    for module in (training, cli):
        p(module, "train_branch", "training.train_branch")
        p(module, "train_fusion", "training.train_fusion")
        p(module, "stack_features", "data.stack_features")
    for module in (checkpoint, cli):
        p(module, "save_checkpoint", "checkpoint.save", _file_bytes)
    p(checkpoint, "load_checkpoint", "checkpoint.read", _file_bytes)
    for attr in CHECKPOINT_LOADS:
        p(checkpoint, attr, "checkpoint.load", _file_bytes)
    for attr in ("branch_from_checkpoint", "load_any_checkpoint"):
        p(cli, attr, "checkpoint.load", _file_bytes)
    for module in (data, cli):
        p(module, "read_dataset", "data.read_dataset")
        p(module, "write_dataset", "data.write_dataset")
    p(data, "read_feature_file", "data.read_feature_file", _file_bytes)
    for module in (synthetic, cli):
        p(module, "generate_synthetic", "synthetic.generate")
    p(cli, "evaluate_predictions", "metrics.evaluate")
    p(cli, "main", "cli.main")
    p(baseline.LstmEncoderDecoder, "forward",
      lambda args: "baseline.fwd_train" if args[0].training else "baseline.fwd")


# -- reduction to per-layer metrics ------------------------------------------

BRANCH_STEP = ("branch.fwd_train", "layers.softmax_ce", "training.zero_grad", "branch.bwd",
               "training.sgd_step")


def reduce(spans: list[list], overhead_pct: float) -> dict[str, float]:
    """Per-layer metrics from recorded spans.

    Spans under ``baseline.*`` spans count only towards the baseline
    metrics, so the LSTM's head does not dilute ``layers.linear``.
    """
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * len(spans)
    in_baseline = [s[0].startswith("baseline.") for s in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            in_baseline[i] = in_baseline[i] or in_baseline[s[3]]

    def has_ancestor(i: int, name: str) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    calls: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        if s[0].startswith("baseline.") or not in_baseline[i]:
            calls.setdefault(s[0], []).append(i)

    def total(*names, self_time=False):
        idx = [i for name in names for i in calls.get(name, ())]
        return sum(dur[i] - (child[i] if self_time else 0.0) for i in idx), len(idx)

    def per_call_ms(*names, self_time=False):
        t, k = total(*names, self_time=self_time)
        return ratio(1e3 * t, k)

    def payload(idx):
        return sum(spans[i][6] for i in idx)

    m: dict[str, float] = {}
    for block in CONV_BLOCKS:
        for d in ("fwd", "bwd"):
            m[f"layers.conv1d.{block}.{d}_ms"] = per_call_ms(f"layers.conv1d.{block}.{d}")
    for d in ("fwd", "bwd"):
        names = [f"layers.conv1d.{b}.{d}" for b in CONV_BLOCKS]
        t, _ = total(*names)
        macs = payload(i for name in names for i in calls.get(name, ()))
        m[f"layers.conv1d.{d}_gmacs"] = ratio(macs / 1e9, t)
    for name in ("layers.batchnorm.fwd", "layers.batchnorm.bwd", "layers.dropout",
                 "layers.relu", "layers.linear.fwd", "layers.linear.bwd", "layers.softmax_ce",
                 "branch.fwd_train", "branch.fwd_eval", "branch.bwd",
                 "fusion.predict", "fusion.fuse_fwd", "fusion.fuse_bwd", "fusion.attention",
                 "training.sgd_step", "training.zero_grad", "checkpoint.save",
                 "data.read_dataset", "data.read_feature_file", "data.write_dataset",
                 "data.stack_features", "synthetic.generate", "metrics.evaluate",
                 "tensor.rng", "baseline.fwd", "baseline.train_step"):
        m[f"{name}_ms"] = per_call_ms(name)
    m["branch.self_ms"] = per_call_ms("branch.fwd_train", "branch.fwd_eval", "branch.bwd",
                                      self_time=True)
    m["training.self_ms"] = per_call_ms("training.train_branch", "training.train_fusion",
                                        self_time=True)
    m["cli.self_ms"] = per_call_ms("cli.main", self_time=True)

    in_predict = [i for name in ("branch.fwd_eval", "branch.fwd_train")
                  for i in calls.get(name, ()) if has_ancestor(i, "fusion.predict")]
    m["fusion.branch_forwards_per_prediction"] = ratio(len(in_predict),
                                                       len(calls.get("fusion.predict", ())))

    loads = [i for i in calls.get("checkpoint.load", ()) if not has_ancestor(i, "checkpoint.load")]
    load_s = sum(dur[i] for i in loads)
    save_s, _ = total("checkpoint.save")
    m["checkpoint.load_ms"] = ratio(1e3 * load_s, len(loads))
    m["checkpoint.save_mb_per_s"] = ratio(payload(calls.get("checkpoint.save", ())) / 1e6, save_s)
    m["checkpoint.load_mb_per_s"] = ratio(payload(loads) / 1e6, load_s)
    m["checkpoint.reads_per_load"] = ratio(len(calls.get("checkpoint.read", ())), len(loads))

    read_s, _ = total("data.read_dataset")
    read_bytes = payload(i for i in calls.get("data.read_feature_file", ())
                         if has_ancestor(i, "data.read_dataset"))
    m["data.read_mb_per_s"] = ratio(read_bytes / 1e6, read_s)

    # one optimizer step of train_branch: the spans it makes directly under the trainer
    trainers = set(calls.get("training.train_branch", ()))
    step_s = sum(dur[i] for name in BRANCH_STEP for i in calls.get(name, ())
                 if spans[i][3] in trainers)
    steps = sum(1 for i in calls.get("training.sgd_step", ()) if spans[i][3] in trainers)
    m["baseline.train_speedup"] = ratio(m["baseline.train_step_ms"], ratio(1e3 * step_s, steps))
    m["trace.overhead_pct"] = overhead_pct
    return m


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
