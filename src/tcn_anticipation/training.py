"""SGD with momentum, the polynomial LR schedule, and the two-stage recipe.

Stage one trains each uni-modal branch. Stage two freezes the branches and
optimizes only the fusion layers on branch outputs computed once per split;
a parameter hash asserts at runtime that fusion training never mutates a
branch tensor. Both stages share one epoch loop over the model's ``forward``
and ``backward`` and the one loss, ``multitask_loss`` of the logits; it never
looks at the fusion strategy and keeps the state of the best-validation epoch.
A split's batches are read-only views of its arrays (``stack_features``), and
each training batch gathers its rows from them in one copy, straight into the
C-contiguous (B, D, N) order the branch's embedding conv reads. A branch's
validation and the fusion stage's branch pass forward a whole split; the
branch's eval forward copies and runs it ``EVAL_CHUNK`` windows at a time, from
``CONCURRENT_CHANNELS`` wide its chunks shared between the caller and a pool
worker (see :mod:`~tcn_anticipation.branch`), so only the split itself and the
outputs grow with its size.
A model with no trainable parameters (late fusion) gets one evaluation record.

An ``EpochRecord`` gives both the log line and the CSV row of an epoch: epoch,
lr, train_loss, val_top1_action, val_top5_action, wall_seconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from .branch import Branch, BranchConfig, multitask_loss
from .checkpoint import parameter_hash
from .data import Split, stack_features
from .fusion import MODALITIES, FusionConfig, FusionModel
from .layers import Parameter, concurrent_at, run_concurrently
from .metrics import top_k_accuracy
from .tensor import BLOCK, NonFiniteError, Rng, Tensor, TensorError, blocks


# the paper's recipe for every branch and fusion head
MOMENTUM = 0.9
WEIGHT_DECAY = 5e-4
LR_POWER = 0.99


@dataclass(frozen=True)
class SgdConfig:
    lr0: float
    epochs: int = 80
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise TensorError(f"lr0 must be finite and positive, got {self.lr0}")
        if self.epochs < 1 or self.batch_size < 1:
            raise TensorError("epochs and batch_size must be positive")


def lr_at_epoch(lr0: float, epoch: int, total_epochs: int) -> float:
    """lr0 * (1 - e/E)^LR_POWER, applied at the start of epoch e."""
    if not 0 <= epoch < total_epochs:
        raise TensorError(f"epoch {epoch} outside [0, {total_epochs})")
    return lr0 * (1.0 - epoch / total_epochs) ** LR_POWER


class SgdOptimizer:
    """Classical momentum: v <- m*v + (g + wd*p); p <- p - lr*v, with m
    ``MOMENTUM`` and wd ``WEIGHT_DECAY``.

    Decay is added to the gradient before the momentum buffer and skipped for
    parameters flagged decay=False (BN gamma/beta). A non-finite gradient
    aborts the step before any parameter moves.

    The step walks each flattened parameter in blocks of :data:`~.tensor.BLOCK`
    values through a scratch buffer, so it allocates nothing the size of a
    parameter. Every element sees the whole-array formula's operations in the
    same order, so the result is bitwise the same. The velocity starts as
    ``np.zeros``, whose pages stay untouched until the first step writes them.

    When a parameter is ``CONCURRENT_CHANNELS`` wide (its first axis), the passes
    over the whole set (``zero_grad``, the step's finite check and its update) run
    in two halves of the parameters' values laid end to end, cut at the middle and
    each with its own scratch buffer; the pool runs them (see
    :mod:`~tcn_anticipation.layers`). Both halves finish the check before either
    starts the update, so a non-finite gradient still moves nothing.
    """

    def __init__(self, named_params: list[tuple[str, Parameter]]):
        self.named_params = named_params
        self._velocity = [np.zeros(p.data.shape, p.data.dtype) for _, p in named_params]
        total = sum(p.data.size for _, p in named_params)
        # whether the passes run in two halves: a parameter is CONCURRENT_CHANNELS wide
        self.split = concurrent_at(max((p.data.shape[0] for _, p in named_params
                                        if p.data.ndim), default=0))
        cuts = [0, total // 2, total] if self.split else [0, total]
        self._halves = [_shares(named_params, self._velocity, lo, hi)
                        for lo, hi in zip(cuts, cuts[1:])]
        # one scratch block per half; viewed as f32, it holds a block too
        self._scratch = [np.empty(BLOCK, np.float64) for _ in self._halves]

    def _each_half(self, fn) -> None:
        """``fn(h)`` for each half ``h``; two halves run concurrently, one on the caller."""
        run_concurrently([partial(fn, h) for h in range(len(self._halves))])

    def zero_grad(self) -> None:
        self._each_half(self._zero)

    def _zero(self, h: int) -> None:
        for p, _, part, _ in self._halves[h]:
            p.grad.reshape(-1)[part] = 0

    def step(self, lr: float) -> None:
        for name, p in self.named_params:
            if not p.data.flags.c_contiguous:
                raise TensorError(f"parameter {name!r} is not C-contiguous; step aborted")
        self._each_half(self._check)  # both halves check before either moves a parameter
        self._each_half(partial(self._update, lr))

    def _check(self, h: int) -> None:
        for p, name, part, _ in self._halves[h]:
            grad = p.grad.reshape(-1)[part]
            if not all(np.isfinite(grad[b]).all() for b in blocks(grad.size)):
                raise NonFiniteError(f"non-finite gradient for {name!r}; step aborted")

    def _update(self, lr: float, h: int) -> None:
        for p, _, part, vel in self._halves[h]:
            dt = p.data.dtype.type
            momentum, rate = dt(MOMENTUM), dt(lr)
            decay = dt(WEIGHT_DECAY) if p.decay else None
            data, grad = p.data.reshape(-1)[part], p.grad.reshape(-1)[part]
            scratch = self._scratch[h].view(p.data.dtype)
            for b in blocks(data.size):
                d, g, u = data[b], grad[b], vel[b]
                t = scratch[:d.size]
                u *= momentum
                if decay is not None:
                    np.multiply(d, decay, out=t)
                    t += g
                    u += t
                else:
                    u += g
                np.multiply(u, rate, out=t)
                d -= t


def _shares(named_params: list[tuple[str, Parameter]], velocity: list[Tensor], start: int,
            stop: int) -> list[tuple[Parameter, str, slice, Tensor]]:
    """(parameter, name, slice of its flat values, that slice of its flat velocity) for
    each parameter's share of the values ``[start, stop)`` of all of them laid end to end.
    The velocity views hold: the optimizer owns the velocities and never replaces them,
    whereas ``load_state`` may replace a parameter's array."""
    shares, offset = [], 0
    for (name, p), v in zip(named_params, velocity):
        lo, hi = max(start, offset), min(stop, offset + p.data.size)
        if lo < hi:
            part = slice(lo - offset, hi - offset)
            shares.append((p, name, part, v.reshape(-1)[part]))
        offset += p.data.size
    return shares


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_top1_action: float
    val_top5_action: float
    wall_seconds: float

    def _formatted(self) -> dict[str, str]:
        specs = ("d", ".8g", ".8g", ".6f", ".6f", ".3f")  # in field order
        return {f.name: format(getattr(self, f.name), s) for f, s in zip(fields(self), specs)}

    def line(self) -> str:
        return " ".join(f"{name}={value}" for name, value in self._formatted().items())

    @classmethod
    def csv_header(cls) -> str:
        return ",".join(f.name for f in fields(cls))

    def csv_row(self) -> str:
        return ",".join(self._formatted().values())


@dataclass
class TrainResult:
    history: list[EpochRecord]
    best_epoch: int
    best_val_top1: float
    best_state: dict[str, Tensor] = field(repr=False)

    def history_csv(self) -> str:
        return "\n".join([EpochRecord.csv_header(), *(r.csv_row() for r in self.history)]) + "\n"


def train_branch(train_split: Split, val_split: Split, modality: str,
                 branch_config: BranchConfig, sgd: SgdConfig, snippets: int | None = None,
                 log=None) -> tuple[Branch, TrainResult]:
    """Stage-one training of one uni-modal branch; returns the trained branch.

    The branch keeps its final weights; the best-validation state (top-1
    action) is returned separately in the result.
    """
    if not train_split or not val_split:
        raise TensorError("empty dataset")
    rng = Rng(sgd.seed)
    branch = Branch(branch_config, rng)
    train, val = (stack_features(s, modality, snippets) for s in (train_split, val_split))
    for x, _ in (train, val):  # val is first forwarded after a whole epoch of steps
        branch.check_input(x)
    result = _run_epochs(branch, branch.named_parameters(), branch.named_state, train, val,
                         sgd, rng, log)
    return branch, result


def stack_modalities(split: Split) -> tuple[dict[str, Tensor], dict[str, np.ndarray]]:
    """Each modality's (B, D, N) batch of whole windows, plus the label arrays: read-only
    views of the split."""
    inputs = {}
    for mod in MODALITIES:
        inputs[mod], labels = stack_features(split, mod)
    return inputs, labels


def _branch_pass(model: FusionModel, split: Split,
                 ) -> tuple[dict[str, dict[str, Tensor]], dict[str, np.ndarray]]:
    inputs, labels = stack_modalities(split)
    return model.branch_outputs(inputs), labels


def train_fusion(branches: dict[str, Branch], train_split: Split, val_split: Split,
                 fusion_config: FusionConfig, sgd: SgdConfig,
                 log=None) -> tuple[FusionModel, TrainResult]:
    """Stage-two training of ``fusion_config.strategy``: branches frozen, only fusion layers move.

    Each branch runs once per split up front, over the end of each window its receptive
    field covers (the branches are frozen eval-mode, so this is exact). The model's
    trainable parameters are the layers its strategy trains; late fusion has none and
    yields a single evaluation record. The model keeps its final weights; the result's
    best state holds the fusion parameters of the best-validation epoch.
    """
    if not train_split or not val_split:
        raise TensorError("empty dataset")
    rng = Rng(sgd.seed)
    model = FusionModel(branches, fusion_config, rng)

    def frozen_hash():
        return parameter_hash({f"{m}.{k}": v for m in MODALITIES
                               for k, v in branches[m].named_state().items()})

    before = frozen_hash()
    result = _run_epochs(model, model.trainable_parameters(),
                         lambda: {name: p.data for name, p in model.named_parameters()},
                         _branch_pass(model, train_split),
                         _branch_pass(model, val_split), sgd, rng, log)
    if frozen_hash() != before:
        raise TensorError("fusion training mutated a frozen branch tensor")
    return model, result


def _rows(x, idx):
    """Rows ``idx`` of an array, or of every array in a (nested) mapping. A (B, D, N)
    view of a split is gathered straight into C order, the order the embedding conv
    reads, in one copy."""
    if isinstance(x, dict):
        return {key: _rows(value, idx) for key, value in x.items()}
    if x.ndim != 3:
        return x[idx]
    return np.concatenate([x[i:i + 1] for i in idx.tolist()],
                          out=np.empty((len(idx), *x.shape[1:]), x.dtype))


def _run_epochs(model, params, state, train, val, sgd, rng, log) -> TrainResult:
    """The epoch loop both trainers share.

    ``train`` and ``val`` are (inputs, labels) pairs. Each epoch shuffles the
    training rows and, per batch, runs ``model.forward`` in train mode,
    ``multitask_loss`` and ``model.backward`` between zero_grad and the SGD step
    over ``params``; then it scores the eval-mode forward of the val inputs.
    With no ``params`` there is nothing to train, and one record at epoch 0
    scores the model as it is. The tensors that ``state()`` returns are copied
    whenever validation top-1 improves.
    """
    (x_train, y_train), (x_val, y_val) = train, val
    opt = SgdOptimizer(params)
    n = len(y_train["action"])
    history: list[EpochRecord] = []
    best_epoch, best_top1 = -1, -1.0
    best_state: dict[str, Tensor] = {}
    for epoch in range(sgd.epochs if params else 1):
        t0 = time.perf_counter()
        lr, total = 0.0, 0.0
        if params:
            lr = lr_at_epoch(sgd.lr0, epoch, sgd.epochs)
            order = rng.permutation(n)
            for start in range(0, n, sgd.batch_size):
                idx = order[start:start + sgd.batch_size]
                opt.zero_grad()
                loss, grads = multitask_loss(model.train().forward(_rows(x_train, idx), rng),
                                             _rows(y_train, idx))
                model.backward(grads)
                opt.step(lr)
                total += loss * len(idx)
            total /= n
        scores = model.eval().forward(x_val)["action"]
        rec = EpochRecord(epoch, lr, total, top_k_accuracy(scores, y_val["action"], 1),
                          top_k_accuracy(scores, y_val["action"], min(5, scores.shape[1])),
                          time.perf_counter() - t0)
        history.append(rec)
        if log:
            log(rec.line())
        if rec.val_top1_action > best_top1:
            best_top1, best_epoch = rec.val_top1_action, epoch
            best_state = {k: v.copy() for k, v in state().items()}
    return TrainResult(history, best_epoch, best_top1, best_state)
