"""SGD with momentum, the polynomial LR schedule, and the two-stage recipe.

Stage one trains each uni-modal branch. Stage two freezes the branches and
optimizes only the fusion layers on branch outputs computed once per split;
a parameter hash asserts at runtime that fusion training never mutates a
branch tensor. Both stages share one epoch loop over the model's ``forward``,
``loss`` and ``backward``, which never looks at the fusion strategy and keeps
the state of the best-validation epoch. A model with no trainable parameters
(late fusion) gets one evaluation record.

Per-epoch log records carry: epoch, lr, train_loss, val_top1_action,
val_top5_action, wall_seconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .branch import Branch, BranchConfig
from .checkpoint import parameter_hash
from .data import Sample, stack_features
from .fusion import MODALITIES, FusionConfig, FusionModel
from .layers import Parameter
from .metrics import top_k_accuracy
from .tensor import NonFiniteError, Rng, Tensor, TensorError


@dataclass(frozen=True)
class SgdConfig:
    lr0: float
    epochs: int = 80
    batch_size: int = 64
    momentum: float = 0.9
    weight_decay: float = 5e-4
    power: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise TensorError(f"lr0 must be finite and positive, got {self.lr0}")
        for name, value in (("weight_decay", self.weight_decay), ("power", self.power)):
            if not (math.isfinite(value) and value >= 0):
                raise TensorError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.momentum < 1.0:
            raise TensorError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.epochs < 1 or self.batch_size < 1:
            raise TensorError("epochs and batch_size must be positive")


def lr_at_epoch(lr0: float, epoch: int, total_epochs: int, power: float = 0.99) -> float:
    """lr0 * (1 - e/E)^power, applied at the start of epoch e."""
    if not 0 <= epoch < total_epochs:
        raise TensorError(f"epoch {epoch} outside [0, {total_epochs})")
    return lr0 * (1.0 - epoch / total_epochs) ** power


class SgdOptimizer:
    """Classical momentum: v <- m*v + (g + wd*p); p <- p - lr*v.

    Decay is added to the gradient before the momentum buffer and skipped for
    parameters flagged decay=False (BN gamma/beta). A non-finite gradient
    aborts the step before any parameter moves.
    """

    def __init__(self, named_params: list[tuple[str, Parameter]],
                 momentum: float = 0.9, weight_decay: float = 5e-4):
        self.named_params = named_params
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for _, p in named_params]

    def zero_grad(self) -> None:
        for _, p in self.named_params:
            p.zero_grad()

    def step(self, lr: float) -> None:
        for name, p in self.named_params:
            if not np.all(np.isfinite(p.grad)):
                raise NonFiniteError(f"non-finite gradient for {name!r}; step aborted")
        for v, (_, p) in zip(self._velocity, self.named_params):
            g = p.grad
            if self.weight_decay and p.decay:
                g = g + p.data.dtype.type(self.weight_decay) * p.data
            v *= p.data.dtype.type(self.momentum)
            v += g
            p.data -= p.data.dtype.type(lr) * v


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_top1_action: float
    val_top5_action: float
    wall_seconds: float

    def line(self) -> str:
        return (f"epoch={self.epoch} lr={self.lr:.8g} train_loss={self.train_loss:.8g} "
                f"val_top1_action={self.val_top1_action:.6f} "
                f"val_top5_action={self.val_top5_action:.6f} "
                f"wall_seconds={self.wall_seconds:.3f}")


@dataclass
class TrainResult:
    history: list[EpochRecord]
    best_epoch: int
    best_val_top1: float
    best_state: dict[str, Tensor] = field(repr=False)


def train_branch(train_samples: list[Sample], val_samples: list[Sample],
                 modality: str, branch_config: BranchConfig, sgd: SgdConfig,
                 snippets: int | None = None,
                 log=None) -> tuple[Branch, TrainResult]:
    """Stage-one training of one uni-modal branch; returns the trained branch.

    The branch keeps its final weights; the best-validation state (top-1
    action) is returned separately in the result.
    """
    if not train_samples or not val_samples:
        raise TensorError("empty dataset")
    rng = Rng(sgd.seed)
    branch = Branch(branch_config, rng)
    train, val = (stack_features(s, modality, snippets) for s in (train_samples, val_samples))
    for x, _ in (train, val):  # val is first forwarded after a whole epoch of steps
        branch.check_input(x)
    result = _run_epochs(branch, branch.named_parameters(), branch.named_state, train, val,
                         sgd, rng, log)
    return branch, result


def _branch_pass(model: FusionModel, samples: list[Sample], snippets: int | None,
                 ) -> tuple[dict[str, dict[str, Tensor]], dict[str, np.ndarray]]:
    inputs = {}
    for mod in MODALITIES:
        inputs[mod], labels = stack_features(samples, mod, snippets)
    return model.branch_outputs(inputs), labels


def train_fusion(branches: dict[str, Branch], train_samples: list[Sample],
                 val_samples: list[Sample], fusion_config: FusionConfig, sgd: SgdConfig,
                 snippets: int | None = None,
                 log=None) -> tuple[FusionModel, TrainResult]:
    """Stage-two training of ``fusion_config.strategy``: branches frozen, only fusion layers move.

    Each branch runs once per split up front (the branches are frozen
    eval-mode, so this is exact). The model's trainable parameters are the
    layers its strategy trains; late fusion has none and yields a single
    evaluation record. The model keeps its final weights; the result's best
    state holds the fusion parameters of the best-validation epoch.
    """
    if not train_samples or not val_samples:
        raise TensorError("empty dataset")
    rng = Rng(sgd.seed)
    model = FusionModel(branches, fusion_config, rng)

    def frozen_hash():
        return parameter_hash({f"{m}.{k}": v for m in MODALITIES
                               for k, v in branches[m].named_state().items()})

    before = frozen_hash()
    result = _run_epochs(model, model.trainable_parameters(),
                         lambda: {name: p.data for name, p in model.named_parameters()},
                         _branch_pass(model, train_samples, snippets),
                         _branch_pass(model, val_samples, snippets), sgd, rng, log)
    if frozen_hash() != before:
        raise TensorError("fusion training mutated a frozen branch tensor")
    return model, result


def _rows(x, idx):
    """Rows ``idx`` of an array, or of every array in a (nested) mapping."""
    if isinstance(x, dict):
        return {key: _rows(value, idx) for key, value in x.items()}
    return x[idx]


def _run_epochs(model, params, state, train, val, sgd, rng, log) -> TrainResult:
    """The epoch loop both trainers share.

    ``train`` and ``val`` are (inputs, labels) pairs. Each epoch shuffles the
    training rows and, per batch, runs ``model.forward`` in train mode,
    ``model.loss`` and ``model.backward`` between zero_grad and the SGD step
    over ``params``; then it scores the eval-mode forward of the val inputs.
    With no ``params`` there is nothing to train, and one record at epoch 0
    scores the model as it is. The tensors that ``state()`` returns are copied
    whenever validation top-1 improves.
    """
    (x_train, y_train), (x_val, y_val) = train, val
    opt = SgdOptimizer(params, sgd.momentum, sgd.weight_decay)
    n = len(y_train["action"])
    history: list[EpochRecord] = []
    best_epoch, best_top1 = -1, -1.0
    best_state: dict[str, Tensor] = {}
    for epoch in range(sgd.epochs if params else 1):
        t0 = time.perf_counter()
        lr, total = 0.0, 0.0
        if params:
            lr = lr_at_epoch(sgd.lr0, epoch, sgd.epochs, sgd.power)
            order = rng.permutation(n)
            for start in range(0, n, sgd.batch_size):
                idx = order[start:start + sgd.batch_size]
                opt.zero_grad()
                loss, grads = model.loss(model.train().forward(_rows(x_train, idx), rng),
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
