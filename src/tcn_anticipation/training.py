"""SGD with momentum, the polynomial LR schedule, and the two-stage recipe.

Stage one trains each uni-modal branch. Stage two freezes the branches and
optimizes only the fusion layers on branch outputs computed once per split;
a parameter hash asserts at runtime that fusion training never mutates a
branch tensor. Both stages share one epoch loop, which keeps the state of the
best-validation epoch.

Per-epoch log records carry: epoch, lr, train_loss, val_top1_action,
val_top5_action, wall_seconds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .branch import Branch, BranchConfig, BranchOutput, multitask_loss
from .checkpoint import parameter_hash
from .data import Sample, stack_features
from .fusion import (FEATURE_STRATEGIES, HEADS, MODALITIES, FusionConfig,
                     FusionModel, branch_features, branch_probs, late_fusion,
                     mixed_probs_loss)
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
        if self.lr0 <= 0:
            raise TensorError(f"lr0 must be positive, got {self.lr0}")
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


def _batches(n: int, batch_size: int, order: np.ndarray):
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def _copy_state(state: dict[str, Tensor]) -> dict[str, Tensor]:
    return {k: v.copy() for k, v in state.items()}


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
    x_train, y_train = stack_features(train_samples, modality, snippets)
    x_val, y_val = stack_features(val_samples, modality, snippets)
    if x_train.shape[1] != branch_config.input_dim:
        raise TensorError(
            f"{modality} features have dim {x_train.shape[1]}, "
            f"config expects {branch_config.input_dim}")
    opt = SgdOptimizer(branch.named_parameters(), sgd.momentum, sgd.weight_decay)

    def step(idx):
        branch.train()
        out = branch.forward(np.ascontiguousarray(x_train[idx]), rng)
        loss, grads = multitask_loss(out, {head: y_train[head][idx] for head in HEADS})
        branch.backward(grads)
        return loss

    def val_scores():
        return branch.eval().forward(x_val).action

    result = _run_epochs(opt, rng, sgd, x_train.shape[0], step, val_scores, y_val["action"],
                         branch_config.num_actions, branch.named_state, log)
    return branch, result


def _branch_pass(model: FusionModel, samples: list[Sample], snippets: int | None,
                 ) -> tuple[dict[str, BranchOutput], dict[str, np.ndarray]]:
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
    eval-mode, so this is exact). Late fusion has nothing to train and yields
    a single evaluation record; attention trains only the weighting layer.
    The model keeps its final weights; the result's best state holds the
    fusion parameters of the best-validation epoch.
    """
    if not train_samples or not val_samples:
        raise TensorError("empty dataset")
    rng = Rng(sgd.seed)
    model = FusionModel(branches, fusion_config, rng)
    frozen_before = parameter_hash({f"{m}.{k}": v for m in MODALITIES
                                    for k, v in branches[m].named_state().items()})
    out_train, y_train = _branch_pass(model, train_samples, snippets)
    out_val, y_val = _branch_pass(model, val_samples, snippets)
    f_train, f_val = branch_features(out_train), branch_features(out_val)

    def fusion_state():
        return {name: p.data for name, p in model.named_fusion_parameters()}

    def batch_labels(idx):
        return {head: y_train[head][idx] for head in HEADS}

    strategy = fusion_config.strategy
    if strategy in FEATURE_STRATEGIES:
        def val_scores():
            model.eval()
            return model.fuse_forward(f_val)["action"]

        def step(idx):
            feats_b = {mod: f_train[mod][idx] for mod in MODALITIES}
            model.train()
            logits = model.fuse_forward(feats_b, rng)
            loss, grads = multitask_loss(logits, batch_labels(idx))
            model.fuse_backward(grads)
            return loss
    elif strategy == "attention":
        p_train, p_val = branch_probs(out_train), branch_probs(out_val)

        def val_scores():
            model.eval()
            return model.attention_forward(f_val, p_val)["action"]

        def step(idx):
            feats_b = {mod: f_train[mod][idx] for mod in MODALITIES}
            probs_b = {mod: {head: p_train[mod][head][idx] for head in HEADS}
                       for mod in MODALITIES}
            model.train()
            mixed = model.attention_forward(feats_b, probs_b)
            loss, grads = mixed_probs_loss(mixed, batch_labels(idx))
            model.attention_backward(grads)
            return loss
    else:  # late: nothing to train
        t0 = time.perf_counter()
        p_val = branch_probs(out_val)
        scores = late_fusion(p_val["rgb"]["action"], p_val["flow"]["action"],
                             p_val["obj"]["action"])
        rec = EpochRecord(0, 0.0, 0.0, *_top1_top5(scores, y_val["action"],
                                                    fusion_config.num_actions),
                          time.perf_counter() - t0)
        if log:
            log(rec.line())
        result = TrainResult([rec], 0, rec.val_top1_action, _copy_state(fusion_state()))
    if strategy != "late":  # attention trains only its weighting layer, the others all but it
        params = [(n, p) for n, p in model.named_fusion_parameters()
                  if ("attention" in n) == (strategy == "attention")]
        result = _run_epochs(SgdOptimizer(params, sgd.momentum, sgd.weight_decay), rng, sgd,
                             len(train_samples), step, val_scores, y_val["action"],
                             fusion_config.num_actions, fusion_state, log)

    frozen_after = parameter_hash({f"{m}.{k}": v for m in MODALITIES
                                   for k, v in branches[m].named_state().items()})
    if frozen_before != frozen_after:
        raise TensorError("fusion training mutated a frozen branch tensor")
    return model, result


def _top1_top5(scores: Tensor, labels: np.ndarray, num_classes: int) -> tuple[float, float]:
    return (top_k_accuracy(scores, labels, 1),
            top_k_accuracy(scores, labels, min(5, num_classes)))


def _run_epochs(opt, rng, sgd, n, step, val_scores, y_val, num_classes, state,
                log) -> TrainResult:
    """The epoch loop both trainers share.

    Each epoch shuffles the n training rows, runs ``step(idx)`` (forward and
    backward of one batch, returning its loss) between zero_grad and the SGD
    step, then scores ``val_scores()`` against ``y_val``. The tensors that
    ``state()`` returns are copied whenever validation top-1 improves.
    """
    history: list[EpochRecord] = []
    best_epoch, best_top1 = -1, -1.0
    best_state: dict[str, Tensor] = {}
    for epoch in range(sgd.epochs):
        t0 = time.perf_counter()
        lr = lr_at_epoch(sgd.lr0, epoch, sgd.epochs, sgd.power)
        order = rng.permutation(n)
        total, seen = 0.0, 0
        for idx in _batches(n, sgd.batch_size, order):
            opt.zero_grad()
            loss = step(idx)
            opt.step(lr)
            total += loss * len(idx)
            seen += len(idx)
        rec = EpochRecord(epoch, lr, total / seen, *_top1_top5(val_scores(), y_val, num_classes),
                          time.perf_counter() - t0)
        history.append(rec)
        if log:
            log(rec.line())
        if rec.val_top1_action > best_top1:
            best_top1, best_epoch = rec.val_top1_action, epoch
            best_state = _copy_state(state())
    return TrainResult(history, best_epoch, best_top1, best_state)
