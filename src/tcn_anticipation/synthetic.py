"""Synthetic multi-modal datasets with controllable structure.

Actions are (verb, noun) pairs. Information is split across modalities so
that fusing them is genuinely necessary:

* flow features carry the verb prototype,
* obj features carry the noun prototype,
* rgb features carry an action-level prototype.

Actions come in confusable pairs: partners share their late-window prototypes
in every modality, and the component that tells the partners apart is emitted
only in the earliest snippets (1..EARLY_CUTOFF, farthest from the action).
Watching only the recent window therefore narrows a sample to its pair but
never to the member, which creates a real long-range dependency: accuracy
must grow with the observed window.

Verbs and nouns are paired the same way (partner verbs 2j/2j+1 share a late
flow prototype, partner nouns share a late obj prototype), and partner
actions use partner verbs and partner nouns, so the late window is ambiguous
consistently across modalities.

Emission per snippet t: feature_t = prototype_t * ramp(t) + Normal(0, sigma),
with ramp rising linearly from RAMP_START to 1 toward the action.
``rgb_member_scale`` scales the early distinguishing component in rgb only: at
1.0 rgb alone suffices to learn the action; at 0.0 rgb identifies only the
pair, so no single modality determines the action while flow+obj jointly do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .data import HEADS, MODALITIES, Split
from .tensor import Rng, TensorError

EARLY_CUTOFF = 8  # snippets that carry the component telling partner actions apart
RAMP_START = 0.5  # emission scale of the first snippet; the last is at 1


@dataclass(frozen=True)
class SyntheticSpec:
    num_verbs: int = 6
    num_nouns: int = 8
    num_actions: int = 12
    rgb_dim: int = 32
    flow_dim: int = 32
    obj_dim: int = 32
    num_snippets: int = 21
    sigma: float = 0.5
    rgb_member_scale: float = 1.0
    train_per_class: int = 200
    val_per_class: int = 50

    def __post_init__(self):
        if self.num_verbs < 2 or self.num_verbs % 2:
            raise TensorError("num_verbs must be even and >= 2")
        if self.num_nouns < 2 or self.num_nouns % 2:
            raise TensorError("num_nouns must be even and >= 2")
        if self.num_actions < 2 or self.num_actions % 2:
            raise TensorError("num_actions must be even and >= 2")
        if self.num_actions // 2 > (self.num_verbs // 2) * (self.num_nouns // 2):
            raise TensorError(
                f"{self.num_actions} actions are not coverable by a "
                f"{self.num_verbs} x {self.num_nouns} verb/noun grid of pairs")
        if not (math.isfinite(self.sigma) and self.sigma >= 0):
            raise TensorError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.num_snippets < EARLY_CUTOFF:
            raise TensorError(f"the window must cover the {EARLY_CUTOFF} early snippets")
        if self.train_per_class < 0 or self.val_per_class < 0:
            raise TensorError(f"per-class counts must be >= 0, got train_per_class="
                              f"{self.train_per_class}, val_per_class={self.val_per_class}")
        if not 0.0 <= self.rgb_member_scale <= 1.0:
            raise TensorError("rgb_member_scale must be in [0, 1]")


def learnable_spec(**overrides) -> SyntheticSpec:
    """Action fully decodable from rgb alone; moderate noise."""
    return replace(SyntheticSpec(), **overrides)


def complementary_spec(**overrides) -> SyntheticSpec:
    """rgb identifies only the confusable pair; fusion is required."""
    return replace(SyntheticSpec(rgb_member_scale=0.0), **overrides)


def long_range_spec(**overrides) -> SyntheticSpec:
    """High noise: pair identification needs many snippets, members the early ones."""
    return replace(SyntheticSpec(sigma=6.0, val_per_class=100), **overrides)


def action_table(spec: SyntheticSpec) -> list[tuple[int, int]]:
    """(verb, noun) per action id; actions 2i and 2i+1 are confusable partners.

    Action pairs take verb/noun pair (j, k) first along the diagonal
    (i % vp, i % np_), i < lcm(vp, np_), then the unused (j, k) in row-major order."""
    vp, np_ = spec.num_verbs // 2, spec.num_nouns // 2
    combos = [(i % vp, i % np_) for i in range(math.lcm(vp, np_))]
    diagonal = set(combos)
    combos += [(j, k) for j in range(vp) for k in range(np_) if (j, k) not in diagonal]
    return [(2 * j + m, 2 * k + m) for j, k in combos[:spec.num_actions // 2] for m in (0, 1)]


class _Prototypes:
    """All prototype tables, drawn in a fixed order from one seeded stream."""

    def __init__(self, spec: SyntheticSpec, seed: int):
        rng = Rng(seed)
        self.spec = spec
        self.actions = action_table(spec)
        vp, np_, ap = spec.num_verbs // 2, spec.num_nouns // 2, spec.num_actions // 2
        self.late_verb = rng.normal(0, 1, (vp, spec.flow_dim), "f64")
        self.early_verb = rng.normal(0, 1, (spec.num_verbs, spec.flow_dim), "f64")
        self.late_noun = rng.normal(0, 1, (np_, spec.obj_dim), "f64")
        self.early_noun = rng.normal(0, 1, (spec.num_nouns, spec.obj_dim), "f64")
        self.late_action = rng.normal(0, 1, (ap, spec.rgb_dim), "f64")
        self.early_action = rng.normal(0, 1, (spec.num_actions, spec.rgb_dim), "f64")

    def sequence(self, action: int, modality: str) -> np.ndarray:
        """Noise-free (N, D) expected feature sequence for one class."""
        spec = self.spec
        verb, noun = self.actions[action]
        if modality == "flow":
            late, early = self.late_verb[verb // 2], self.early_verb[verb]
        elif modality == "obj":
            late, early = self.late_noun[noun // 2], self.early_noun[noun]
        elif modality == "rgb":
            late = self.late_action[action // 2]
            early = spec.rgb_member_scale * self.early_action[action]
        else:
            raise TensorError(f"unknown modality {modality!r}")
        n = spec.num_snippets
        ramp = RAMP_START + (1.0 - RAMP_START) * np.arange(n) / (n - 1)
        seq = np.tile(late, (n, 1))
        seq[:EARLY_CUTOFF] += early
        return seq * ramp[:, None]


def class_templates(spec: SyntheticSpec, seed: int, modality: str) -> np.ndarray:
    """(num_actions, N, D) noise-free expected sequences; oracle support."""
    protos = _Prototypes(spec, seed)
    return np.stack([protos.sequence(a, modality) for a in range(spec.num_actions)])


def generate_synthetic(spec: SyntheticSpec, seed: int) -> tuple[Split, Split]:
    """Seeded train/val splits; identical seeds give identical datasets."""
    actions = action_table(spec)
    rng = Rng(seed + 1)  # emission noise stream, separate from prototypes
    templates = {mod: class_templates(spec, seed, mod) for mod in MODALITIES}

    def emit(split: str, per_class: int) -> Split:
        windows = [(a, i) for a in range(spec.num_actions) for i in range(per_class)]
        features = {mod: np.empty((len(windows), *templates[mod].shape[1:]), np.float32)
                    for mod in MODALITIES}
        for w, (action, _) in enumerate(windows):
            for mod in MODALITIES:
                base = templates[mod][action]
                features[mod][w] = base + rng.normal(0.0, spec.sigma, base.shape, "f64")
        labels = {head: np.array([(a, *actions[a])[j] for a, _ in windows], np.int64)
                  for j, head in enumerate(HEADS)}
        return Split(split, [f"{split}-{a:03d}-{i:05d}" for a, i in windows], labels, features)

    return emit("train", spec.train_per_class), emit("val", spec.val_per_class)
