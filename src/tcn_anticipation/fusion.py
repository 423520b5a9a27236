"""Multi-modal fusion over frozen per-branch features.

Five strategies combine the rgb/flow/obj branches:

* ``late``            - average the branch probability distributions
* ``attention``       - per-sample learned convex weights over branch probabilities
* ``mutual``          - one projection of the concatenated features
* ``pairwise``        - projections of each two-modality concat, merged by a further layer
* ``mutual_pairwise`` - element-wise sum of the mutual and pairwise embeddings

Branches are always evaluated frozen in eval mode; only fusion-layer and head
parameters ever receive gradients. The fusion layers take the branches' dtype.

``FusionModel`` offers the interface a ``Branch`` does, so one training step
serves both: ``forward(outputs, rng)`` maps the branch outputs to per-head
logits, ``backward(grads)`` fills the parameter gradients from the logit
gradients of :func:`~tcn_anticipation.branch.multitask_loss`, and
``trainable_parameters()`` lists the layers the strategy trains. Late and
attention score the log of their mixed probabilities, clipped below at the
dtype's smallest normal so that a class that underflows scores about -87 (f32)
and the loss stays finite. Softmax undoes the log, so ``predict_proba`` is the
softmax of every strategy's logits. These three and the eval-mode fold are
where the strategy is read.

The feature strategies have no nonlinearity between the fusion layers and the
heads, so in eval mode each head is one affine map of ``[f_rgb; f_flow; f_obj]``.
The first eval-mode ``fuse_forward`` folds the layers into one (k_head, 3C)
matrix and bias per head, heads first and accumulated in f64, converting each
fusion weight to f64 in column blocks (see ``_f64_product``) rather than whole,
and keeps the fold until ``train(True)``, ``load_state`` or a change of
``config.strategy`` drops it; ``eval()`` never does. ``branch_outputs`` steps B=1 windows as streams
(see :mod:`~tcn_anticipation.branch`), up to ``STREAMS``, keyed on the three
windows' last n-1 snippets, dtypes and shapes; the least recently served goes
first. ``train(True)`` and ``load_state`` drop them with the fold, so a weight
edited in place, a branch's too, takes effect after ``train(); eval()``.

Without a stream each branch's eval forward runs its cone ``EVAL_CHUNK``
windows at a time (see :mod:`~tcn_anticipation.branch`), so ``branch_outputs``
over a whole split, and with it ``predict_proba`` and ``tcna evaluate``, holds
one chunk's activations per branch and thread whatever the split's size.

The three branches are independent until the fusion layers, so from
:data:`~tcn_anticipation.layers.CONCURRENT_CHANNELS` wide (paper width
included) ``branch_outputs`` offers the flow and obj forwards to the two
workers of the package's pool (see :mod:`~tcn_anticipation.layers`) while the
caller runs rgb's. A forward of more than one chunk also offers the pool a
second taker of its chunks. An offer that no worker has started when its maker
gets to it runs on its maker (the pool's rule), and a worker that finishes its
branch early may take another branch's offer. Each chunk runs the arithmetic it
runs serially, so the outputs are the serial ones bitwise at a fixed BLAS
thread count; with more than one BLAS thread the callers share the cores.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import partial

import numpy as np

from .branch import Branch
from .data import HEADS, MODALITIES
from .layers import (Layout, Linear, Model, Parameter, SpatialDropout, concurrent_at,
                     run_concurrently, softmax)
from .tensor import BLOCK, Rng, Tensor, TensorError

PAIRS = (("rgb", "flow"), ("rgb", "obj"), ("flow", "obj"))
STRATEGIES = ("late", "attention", "mutual", "pairwise", "mutual_pairwise")
FEATURE_STRATEGIES = ("mutual", "pairwise", "mutual_pairwise")
_PROB_TOL = 1e-6
STREAMS = 16  # B=1 streams branch_outputs keeps; the least recently served goes first


@dataclass(frozen=True)
class FusionConfig:
    channels: int
    num_actions: int
    num_verbs: int
    num_nouns: int
    strategy: str = "mutual_pairwise"
    embed_dim: int = 1024
    head_dropout: float = 0.8

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise TensorError(f"unknown fusion strategy {self.strategy!r}; pick from {STRATEGIES}")
        if not 0.0 <= self.head_dropout < 1.0:
            raise TensorError(f"head_dropout must be in [0, 1), got {self.head_dropout}")
        for name in ("channels", "num_actions", "num_verbs", "num_nouns", "embed_dim"):
            if getattr(self, name) < 1:
                raise TensorError(f"{name} must be positive")

    @property
    def class_counts(self) -> dict[str, int]:
        return {"action": self.num_actions, "verb": self.num_verbs, "noun": self.num_nouns}

    def layout(self, dtype: str = "f32", rng: Rng | None = None) -> Layout:
        """Every fusion layer with its constructor args, in build order, which is also
        the order of the initial weight draws from ``rng``."""
        c, e = self.channels, self.embed_dim
        layout = {f"fusion.pairwise.{a}_{b}": (Linear, (2 * c, e, dtype, rng)) for a, b in PAIRS}
        layout["fusion.pairwise_merge"] = (Linear, (3 * e, e, dtype, rng))
        layout["fusion.mutual"] = (Linear, (3 * c, e, dtype, rng))
        # no rng, so zero init: attention starts at uniform weights, i.e. exactly late fusion
        layout["fusion.attention"] = (Linear, (3 * c, len(MODALITIES), dtype))
        for head, k in self.class_counts.items():
            layout[f"fusion.heads.{head}.drop"] = (SpatialDropout, (self.head_dropout,))
            layout[f"fusion.heads.{head}"] = (Linear, (e, k, dtype, rng))
        return layout


def _check_probs(p: Tensor, who: str) -> None:
    sums = p.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > _PROB_TOL) or np.any(p < 0):
        raise TensorError(f"{who} expects softmax distributions (rows summing to 1)")


def _clipped(p: Tensor) -> Tensor:
    """Probabilities raised to the dtype's smallest normal, whose log is finite."""
    return np.maximum(p, np.finfo(p.dtype).tiny)


def _window_key(xs: list[Tensor], snippets: slice) -> tuple:
    return tuple((x.dtype.str, x.shape, x[:, :, snippets].tobytes()) for x in xs)


# A column block of _f64_product is a multiple of FOLD_PANEL columns, at least
# FOLD_MIN_COLUMNS, and more than FOLD_MIN_MACS multiply-adds; the last block takes the
# remainder. With all three, every block's f64 GEMM gave the whole GEMM's bits in 620 of
# 620 shapes tried (OpenBLAS, 1 thread, 3-99 rows, 32-1199 deep, 32-3199 wide). Without
# the least width, blocks of 128 + 3 columns differed in their last 3 columns; without
# the least size, blocks under OpenBLAS's small-matrix cutoff (1e6) differed in any.
FOLD_PANEL, FOLD_MIN_COLUMNS, FOLD_MIN_MACS = 64, 256, 10**6


def _f64_product(left: Tensor, weight: Tensor) -> Tensor:
    """``left @ weight.astype(np.float64)``, converting ``weight`` to f64 one column
    block at a time (``BLOCK`` values, widened as above) rather than whole."""
    rows, (depth, n) = left.shape[0], weight.shape
    width = max(BLOCK // depth, FOLD_MIN_COLUMNS, FOLD_MIN_MACS // (rows * depth) + 1)
    width = -(-width // FOLD_PANEL) * FOLD_PANEL
    cuts = list(range(0, n - width + 1, width)) or [0]
    out = np.empty((rows, n))
    for start, stop in zip(cuts, cuts[1:] + [n]):
        out[:, start:stop] = left @ weight[:, start:stop].astype(np.float64)
    return out


def late_fusion(probs_rgb: Tensor, probs_flow: Tensor, probs_obj: Tensor) -> Tensor:
    """Arithmetic mean of three per-class distributions."""
    for p in (probs_rgb, probs_flow, probs_obj):
        _check_probs(p, "late_fusion")
    return (probs_rgb + probs_flow + probs_obj) / 3.0


class FusionModel(Model):
    """Three frozen branches plus the trainable fusion layers and heads, built from
    ``config.layout``. Without an ``rng`` the fusion weights start at zero, for a
    caller that loads them."""

    def __init__(self, branches: dict[str, Branch], config: FusionConfig, rng: Rng | None):
        if set(branches) != set(MODALITIES):
            raise TensorError(f"fusion needs branches for {MODALITIES}, got {sorted(branches)}")
        dt = branches["rgb"].config.dtype
        for mod in MODALITIES:
            bcfg = branches[mod].config
            if (bcfg.channels, bcfg.dtype) != (config.channels, dt):
                raise TensorError(
                    f"{mod} branch has {bcfg.channels} {bcfg.dtype} channels, "
                    f"fusion expects {config.channels} {dt}")
            if bcfg.class_counts != config.class_counts:
                raise TensorError(f"{mod} branch has class counts {bcfg.class_counts}, "
                                  f"fusion expects {config.class_counts}")
            branches[mod].eval()
        super().__init__(config.layout(dt, rng))
        self.branches = branches
        self.config = config
        layers = self.layers
        self.pairwise_fc = {(a, b): layers[f"fusion.pairwise.{a}_{b}"] for a, b in PAIRS}
        self.pairwise_merge = layers["fusion.pairwise_merge"]
        self.mutual_fc = layers["fusion.mutual"]
        self.attention_fc = layers["fusion.attention"]
        self.heads = {head: (layers[f"fusion.heads.{head}.drop"], layers[f"fusion.heads.{head}"])
                      for head in HEADS}
        self._cache = None
        self._att_cache = None
        self._fold: tuple[str, dict[str, tuple[Tensor, Tensor]]] | None = None
        self._streams: OrderedDict[tuple, list[list[Tensor]]] = OrderedDict()

    def drop_derived(self) -> None:
        self._fold = None
        self._streams.clear()

    def state_slots(self) -> dict[str, tuple[object, str]]:
        """The fusion layers' slots, then each branch's under ``branches.{modality}.``."""
        slots = super().state_slots()
        for mod in MODALITIES:
            slots.update((f"branches.{mod}.{name}", slot)
                         for name, slot in self.branches[mod].state_slots().items())
        return slots

    # -- branch pass ------------------------------------------------------------

    def branch_outputs(self, inputs: dict[str, Tensor]) -> dict[str, dict[str, Tensor]]:
        """One frozen eval-mode forward per modality; windows of one sample each step
        the stream they continue, or start one."""
        xs = [inputs[mod] for mod in MODALITIES]
        if not all(x.ndim == 3 and x.shape[0] == 1 for x in xs):
            return self._forwards(xs, [None] * len(MODALITIES))
        streams = self._streams.pop(_window_key(xs, slice(None, -1)), None) or [[], [], []]
        outs = self._forwards(xs, streams)
        key = _window_key(xs, slice(1, None))
        self._streams[key] = streams
        self._streams.move_to_end(key)
        if len(self._streams) > STREAMS:
            self._streams.popitem(last=False)
        return outs

    def _forwards(self, xs: list[Tensor], streams: list) -> dict[str, dict[str, Tensor]]:
        """Each branch's eval forward of its window, stepping its stream (None: the cone).
        From ``CONCURRENT_CHANNELS`` on, flow and obj are offered to the pool while rgb
        runs here; every forward has finished before this returns or raises the first
        error in ``MODALITIES`` order."""
        calls = [partial(self.branches[mod].eval().forward, x, stream=stream)
                 for mod, x, stream in zip(MODALITIES, xs, streams)]
        if not concurrent_at(self.config.channels):
            return {mod: call() for mod, call in zip(MODALITIES, calls)}
        return dict(zip(MODALITIES, run_concurrently(calls)))

    # -- feature fusion (mutual / pairwise / mutual_pairwise) --------------------

    def fuse_forward(self, feats: dict[str, Tensor], rng: Rng | None = None) -> dict[str, Tensor]:
        strategy = self.config.strategy
        if strategy not in FEATURE_STRATEGIES:
            raise TensorError(f"fuse_forward handles {FEATURE_STRATEGIES}, not {strategy!r}")
        f = [feats[mod] for mod in MODALITIES]
        if any(x.shape != f[0].shape for x in f):
            raise TensorError("branch features disagree in shape")
        if not self.training:
            self._cache = None
            fcat = np.concatenate(f, axis=1)
            return {head: fcat @ w.T + b for head, (w, b) in self._folded().items()}
        h = None
        if strategy in ("pairwise", "mutual_pairwise"):
            g = [self.pairwise_fc[(a, b)].forward(
                    np.concatenate([feats[a], feats[b]], axis=1)) for a, b in PAIRS]
            h = self.pairwise_merge.forward(np.concatenate(g, axis=1))
        if strategy in ("mutual", "mutual_pairwise"):
            m = self.mutual_fc.forward(np.concatenate(f, axis=1))
            h = m if h is None else h + m
        logits = {}
        for head in HEADS:
            drop, fc = self.heads[head]
            logits[head] = fc.forward(drop.forward(h, rng))
        self._cache = strategy
        return logits

    def _folded(self) -> dict[str, tuple[Tensor, Tensor]]:
        """Per head, the (k_head, 3C) matrix and the bias of the eval-mode map."""
        strategy = self.config.strategy
        if self._fold is None or self._fold[0] != strategy:
            self._fold = (strategy, self._fold_layers(strategy))
        return self._fold[1]

    def _fold_layers(self, strategy: str) -> dict[str, tuple[Tensor, Tensor]]:
        c, e = self.config.channels, self.config.embed_dim

        def f64(a):
            return a.astype(np.float64)

        heads = np.concatenate([f64(self.heads[head][1].weight.data) for head in HEADS])
        mat = np.zeros((heads.shape[0], 3 * c))
        bias = np.concatenate([f64(self.heads[head][1].bias.data) for head in HEADS])
        if strategy in ("pairwise", "mutual_pairwise"):
            merged = _f64_product(heads, self.pairwise_merge.weight.data)
            bias += heads @ f64(self.pairwise_merge.bias.data)
            for i, (a, b) in enumerate(PAIRS):
                fc, part = self.pairwise_fc[(a, b)], merged[:, i * e:(i + 1) * e]
                w = _f64_product(part, fc.weight.data)
                for mod, cols in ((a, w[:, :c]), (b, w[:, c:])):
                    j = MODALITIES.index(mod) * c
                    mat[:, j:j + c] += cols
                bias += part @ f64(fc.bias.data)
        if strategy in ("mutual", "mutual_pairwise"):
            mat += _f64_product(heads, self.mutual_fc.weight.data)
            bias += heads @ f64(self.mutual_fc.bias.data)
        dt = self.mutual_fc.weight.data.dtype
        fold, row = {}, 0
        for head in HEADS:
            k = self.heads[head][1].out_features
            fold[head] = (mat[row:row + k].astype(dt), bias[row:row + k].astype(dt))
            row += k
        return fold

    def fuse_backward(self, grad_logits: dict[str, Tensor]) -> None:
        """Backprop into fusion parameters only; the frozen features get no gradient."""
        if self._cache is None:
            raise TensorError("fuse_backward without a train-mode fuse_forward")
        strategy = self._cache
        e = self.config.embed_dim
        grad_h = None
        for head in HEADS:
            drop, fc = self.heads[head]
            g = drop.backward(fc.backward(grad_logits[head]))
            grad_h = g if grad_h is None else grad_h + g
        if strategy in ("mutual", "mutual_pairwise"):
            self.mutual_fc.backward(grad_h)
        if strategy in ("pairwise", "mutual_pairwise"):
            gg = self.pairwise_merge.backward(grad_h)
            for i, pair in enumerate(PAIRS):
                self.pairwise_fc[pair].backward(gg[:, i * e:(i + 1) * e])

    # -- attention fusion ---------------------------------------------------------

    def attention_forward(self, feats: dict[str, Tensor],
                          probs: dict[str, dict[str, Tensor]]) -> dict[str, Tensor]:
        """Convex per-sample mix of branch probabilities; weights from features."""
        for mod in MODALITIES:
            for head in HEADS:
                _check_probs(probs[mod][head], "attention_fusion")
        fcat = np.concatenate([feats[mod] for mod in MODALITIES], axis=1)
        w = softmax(self.attention_fc.forward(fcat))  # (B, 3)
        mixed = {}
        for head in HEADS:
            mixed[head] = sum(w[:, i:i + 1] * probs[mod][head]
                              for i, mod in enumerate(MODALITIES))
        self._att_cache = (w, probs, mixed) if self.training else None
        return mixed

    def attention_backward(self, grad_log_mixed: dict[str, Tensor]) -> None:
        """From the gradients of ``forward``'s log of the clipped mixture."""
        if self._att_cache is None:
            raise TensorError("attention_backward without a train-mode attention_forward")
        w, probs, mixed = self._att_cache
        grad_w = np.zeros_like(w)
        for head in HEADS:
            grad_mixed = grad_log_mixed[head] / _clipped(mixed[head])
            for i, mod in enumerate(MODALITIES):
                grad_w[:, i] += (grad_mixed * probs[mod][head]).sum(axis=1)
        # softmax jacobian: dz = w * (gw - sum(gw * w))
        grad_z = w * (grad_w - (grad_w * w).sum(axis=1, keepdims=True))
        self.attention_fc.backward(grad_z)

    # -- the interface both trainers and the predictor use ------------------------

    def forward(self, outputs: dict[str, dict[str, Tensor]], rng: Rng | None = None
                ) -> dict[str, Tensor]:
        """Per-head logits from the branch outputs: fused logits for the feature
        strategies, the log of the mixed class probabilities for late and attention."""
        strategy = self.config.strategy
        feats = {mod: out["feature"] for mod, out in outputs.items()}
        if strategy in FEATURE_STRATEGIES:
            return self.fuse_forward(feats, rng)
        probs = {mod: {head: softmax(out[head]) for head in HEADS}
                 for mod, out in outputs.items()}
        if strategy == "late":
            mixed = {head: late_fusion(*(probs[mod][head] for mod in MODALITIES))
                     for head in HEADS}
        else:
            mixed = self.attention_forward(feats, probs)
        return {head: np.log(_clipped(p)) for head, p in mixed.items()}

    def backward(self, grads: dict[str, Tensor]) -> None:
        strategy = self.config.strategy
        if strategy in FEATURE_STRATEGIES:
            self.fuse_backward(grads)
        elif strategy == "attention":
            self.attention_backward(grads)

    def trainable_parameters(self) -> list[tuple[str, Parameter]]:
        """None for late, the weighting layer for attention, every other fusion
        layer for the feature strategies."""
        strategy = self.config.strategy
        if strategy == "late":
            return []
        attention = strategy == "attention"
        return [(name, p) for name, p in self.named_parameters()
                if name.startswith("fusion.attention.") == attention]

    def predict_proba(self, inputs: dict[str, Tensor]) -> dict[str, Tensor]:
        """Eval-mode class distributions per head: the softmax of ``forward``'s logits."""
        was_training = self.training
        scores = self.eval().forward(self.branch_outputs(inputs))
        self.train(was_training)
        return {head: softmax(scores[head]) for head in HEADS}
