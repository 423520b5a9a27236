"""Command-line interface: data generation, training, evaluation, studies.

``SETTINGS`` states every setting once. Each command in ``COMMANDS`` lists the
settings it reads and its built-in defaults, and accepts exactly those, as
flags and as config keys: any other flag or key is a usage error. A
``key = value`` config file (``--config``) replaces the defaults, checked as
flags are, and flags win over both. ``--seed`` falls back to the TCNA_SEED
environment variable, then 0. Commands exit 0 on success and 2 on a usage or
input error, and write CSV artifacts plus a plain-text summary into ``--out``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .baseline import LstmConfig, LstmEncoderDecoder
from .bench import bench_models
from .branch import Branch, BranchConfig
from .checkpoint import (CheckpointError, branch_checkpoint_tensors, branch_from_checkpoint,
                         fusion_checkpoint_tensors, load_any_checkpoint, save_checkpoint)
from .data import DatasetError, read_dataset, stack_features, write_dataset
from .fusion import HEADS, MODALITIES, STRATEGIES, FusionConfig
from .gradcheck import run_standard_suite
from .metrics import evaluate_predictions, format_table, report_csv
from .synthetic import complementary_spec, generate_synthetic, learnable_spec, long_range_spec
from .tensor import NonFiniteError, Rng, TensorError
from .training import SgdConfig, train_branch, train_fusion

PRESETS = {"learnable": learnable_spec, "complementary": complementary_spec,
           "long-range": long_range_spec}


class Setting(NamedTuple):
    type: type
    help: str | None             # None: only a config file sets it
    choices: tuple | None = None
    config: bool = True          # False: only a flag sets it


SETTINGS = {
    "data": Setting(str, "dataset directory (train/ and val/ splits)"),
    "out": Setting(str, "output directory for artifacts"),
    "seed": Setting(int, "RNG seed (fallback: TCNA_SEED, then 0)"),
    "preset": Setting(str, "synthetic dataset preset", tuple(sorted(PRESETS))),
    "modality": Setting(str, "branch modality", MODALITIES),
    "strategy": Setting(str, "fusion strategy", STRATEGIES),
    "snippets": Setting(int, "observed window length in snippets"),
    "channels": Setting(int, "branch width"),
    "dtype": Setting(str, "floating-point precision", ("f32", "f64")),
    "epochs": Setting(int, "training epochs"),
    "lr": Setting(float, "initial learning rate"),
    "batch": Setting(int, "batch size"),
    "embed_dim": Setting(int, "fusion embedding width"),
    "reps": Setting(int, "timed repetitions"),
    "warmup": Setting(int, "untimed repetitions before them"),
    "ckpt": Setting(str, "branch or fusion checkpoint", config=False),
    **{f"{mod}_ckpt": Setting(str, f"checkpoint of the pre-trained {mod} branch", config=False)
       for mod in MODALITIES},
    **{key: Setting(int, None) for key in ("kernel", "train_per_class", "val_per_class")},
    **{key: Setting(float, None) for key in ("sigma", "input_dropout", "block_dropout",
                                             "head_dropout", "fusion_dropout", "momentum",
                                             "weight_decay", "power")},
}


class CliError(ValueError):
    pass


def parse_config(path, command: str) -> dict:
    """The file's values, checked as argparse checks flags; a key ``command``
    does not read is an error."""
    keys = [key for key in COMMANDS[command][2] if SETTINGS[key].config]
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text ({exc})") from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise CliError(f"{path}:{lineno}: unknown config key {key!r} for {command}; "
                           f"it reads {', '.join(keys)}")
        setting = SETTINGS[key]
        try:
            values[key] = setting.type(value)
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
        if setting.choices and values[key] not in setting.choices:
            raise CliError(f"{path}:{lineno}: unknown {key} {value!r}; "
                           f"choose from {', '.join(setting.choices)}")
    return values


def _out_dir(args) -> Path:
    if args.out is None:
        raise CliError("an output directory is required (--out or config key 'out')")
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_split(args, split: str):
    if args.data is None:
        raise CliError("--data is required")
    return read_dataset(Path(args.data) / split / "index.csv")


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# -- commands -----------------------------------------------------------------

def cmd_synth_gen(args) -> int:
    out = _out_dir(args)
    spec = PRESETS[args.preset](**_settings(args, _SPEC_KEYS))
    train, val = generate_synthetic(spec, args.seed)
    write_dataset(train, out / "train")
    write_dataset(val, out / "val")
    summary = (f"preset={args.preset} seed={args.seed}\n{spec}\n"
               f"train samples={len(train)} val samples={len(val)}\n")
    _write(out / "summary.txt", summary)
    print(summary, end="")
    return 0


# desk-scale branch settings for the ablation studies
_DESK_BRANCH = {"channels": 64, "input_dropout": 0.1, "block_dropout": 0.1, "head_dropout": 0.1}

# flag or config key -> config field
_SPEC_KEYS = {"sigma": "sigma", "snippets": "num_snippets", "train_per_class": "train_per_class",
              "val_per_class": "val_per_class"}
_BRANCH_KEYS = {key: key for key in ("channels", "kernel", "dtype", "input_dropout",
                                     "block_dropout", "head_dropout")}
_FUSION_KEYS = {"embed_dim": "embed_dim", "fusion_dropout": "head_dropout"}
_SGD_KEYS = {"lr": "lr0", "epochs": "epochs", "batch": "batch_size", "momentum": "momentum",
             "weight_decay": "weight_decay", "power": "power"}


def _settings(args, keys: dict[str, str]) -> dict:
    """The fields whose key the namespace sets; any other field keeps its class's default."""
    return {name: getattr(args, key) for key, name in keys.items()
            if getattr(args, key, None) is not None}


def _branch_config_from_args(args, samples, modality: str,
                             snippets: int | None = None) -> BranchConfig:
    """Class counts from the labels; adapted to ``snippets`` if given."""
    counts = {f"num_{head}s": max(s.labels[head] for s in samples) + 1 for head in HEADS}
    base = BranchConfig(input_dim=samples[0].features[modality].shape[1], **counts,
                        **_settings(args, _BRANCH_KEYS))
    return base if snippets is None else base.for_snippets(snippets)


def _fusion_config_from_args(args, branches, strategy: str) -> FusionConfig:
    """Channels and class counts come from the branches."""
    bcfg = branches["rgb"].config
    return FusionConfig(bcfg.channels, bcfg.num_actions, bcfg.num_verbs, bcfg.num_nouns,
                        strategy=strategy, **_settings(args, _FUSION_KEYS))


def _sgd_from_args(args) -> SgdConfig:
    return SgdConfig(seed=args.seed, **_settings(args, _SGD_KEYS))


def _history_csv(history) -> str:
    lines = ["epoch,lr,train_loss,val_top1_action,val_top5_action,wall_seconds"]
    for r in history:
        lines.append(f"{r.epoch},{r.lr:.8g},{r.train_loss:.8g},"
                     f"{r.val_top1_action:.6f},{r.val_top5_action:.6f},{r.wall_seconds:.3f}")
    return "\n".join(lines) + "\n"


def _save_best(out: Path, branch, modality: str, result) -> None:
    """Loads the best epoch's state into ``branch``, then saves it."""
    branch.load_state(result.best_state)
    save_checkpoint(out / f"branch_{modality}_best.ckpt",
                    branch_checkpoint_tensors(branch, modality, result.best_epoch))


def cmd_train_branch(args) -> int:
    out = _out_dir(args)
    modality = args.modality
    train = _load_split(args, "train")
    val = _load_split(args, "val")
    bcfg = _branch_config_from_args(args, train + val, modality, args.snippets)
    sgd = _sgd_from_args(args)
    branch, result = train_branch(train, val, modality, bcfg, sgd,
                                  snippets=args.snippets, log=print)
    save_checkpoint(out / f"branch_{modality}.ckpt",
                    branch_checkpoint_tensors(branch, modality, sgd.epochs - 1))
    _save_best(out, branch, modality, result)
    _write(out / f"train_log_{modality}.csv", _history_csv(result.history))
    summary = (f"modality={modality} epochs={sgd.epochs} "
               f"best_epoch={result.best_epoch} best_val_top1={result.best_val_top1:.4f}\n")
    _write(out / "summary.txt", summary)
    print(summary, end="")
    return 0


def cmd_train_fusion(args) -> int:
    out = _out_dir(args)
    strategy = args.strategy
    branches = {}
    for mod in MODALITIES:
        path = getattr(args, f"{mod}_ckpt")
        if path is None:
            raise CliError(f"--{mod}-ckpt is required")
        branch, ck_mod, _ = branch_from_checkpoint(path)
        if ck_mod != mod:
            raise CliError(f"{path} holds a {ck_mod} branch, expected {mod}")
        branches[mod] = branch
    train = _load_split(args, "train")
    val = _load_split(args, "val")
    fcfg = _fusion_config_from_args(args, branches, strategy)
    sgd = _sgd_from_args(args)
    model, result = train_fusion(branches, train, val, fcfg, sgd, snippets=args.snippets,
                                 log=print)
    model.load_state(result.best_state)
    save_checkpoint(out / f"fusion_{strategy}.ckpt",
                    fusion_checkpoint_tensors(model, result.best_epoch))
    _write(out / f"train_log_fusion_{strategy}.csv", _history_csv(result.history))
    summary = (f"strategy={strategy} best_epoch={result.best_epoch} "
               f"best_val_top1={result.best_val_top1:.4f}\n")
    _write(out / "summary.txt", summary)
    print(summary, end="")
    return 0


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    if args.ckpt is None:
        raise CliError("--ckpt is required")
    val = _load_split(args, "val")
    kind, model, info = load_any_checkpoint(args.ckpt)
    if kind == "branch":
        modality = info["modality"]
        if args.modality not in (None, modality):
            raise CliError(f"{args.ckpt} holds a {modality} branch, expected {args.modality}")
        x, labels = stack_features(val, modality, args.snippets)
        scores = model.eval().forward(x)
    else:
        inputs = {}
        for mod in MODALITIES:
            inputs[mod], labels = stack_features(val, mod, args.snippets)
        scores = model.predict_proba(inputs)  # distributions rank identically to logits
    report = evaluate_predictions(scores, labels)
    _write(out / "metrics.csv", report_csv(report))
    table = format_table(report)
    _write(out / "metrics.txt", table + "\n")
    print(table)
    return 0


def cmd_gradcheck(args) -> int:
    rows = run_standard_suite(args.seed)
    lines = ["layer,configs,max_rel_error,pass"]
    ok = True
    print(f"{'layer':<18}{'configs':>8}{'max rel err':>14}  status")
    for row in rows:
        passed = row.passed()
        ok &= passed
        print(f"{row.name:<18}{row.configs:>8}{row.max_rel_error:>14.3e}  "
              f"{'ok' if passed else 'FAIL'}")
        lines.append(f"{row.name},{row.configs},{row.max_rel_error:.6e},{int(passed)}")
    if args.out:
        _write(_out_dir(args) / "gradcheck.csv", "\n".join(lines) + "\n")
    return 0 if ok else 3


def cmd_bench(args) -> int:
    out = _out_dir(args)
    channels, dtype, rng = args.channels, args.dtype, Rng(args.seed)
    bcfg = BranchConfig(input_dim=channels, num_actions=100, num_verbs=20, num_nouns=30,
                        channels=channels, input_dropout=0.0, block_dropout=0.0,
                        head_dropout=0.0, dtype=dtype).for_snippets(args.snippets)
    branch = Branch(bcfg, rng)
    lcfg = LstmConfig(input_dim=channels, hidden=channels, num_actions=100,
                      encoder_steps=bcfg.required_length, dtype=dtype)
    baseline = LstmEncoderDecoder(lcfg, rng)
    report = bench_models(branch, baseline, args.batch, args.reps, args.warmup, args.seed)
    _write(out / "bench.csv", report.csv())
    _write(out / "bench_summary.txt", report.summary())
    print(report.summary(), end="")
    return 0


def cmd_ablate_obslen(args) -> int:
    out = _out_dir(args)
    train = _load_split(args, "train")
    val = _load_split(args, "val")
    modality = args.modality
    rows = ["snippets,obs_seconds,val_top1_action"]
    results = {}
    sgd = _sgd_from_args(args)
    for n in (3, 7, 13, 21):
        if n > train[0].num_snippets:
            continue
        base = _branch_config_from_args(args, train + val, modality, n)
        _, result = train_branch(train, val, modality, base, sgd, snippets=n)
        results[n] = result.best_val_top1
        rows.append(f"{n},{n * 0.25:.2f},{result.best_val_top1:.6f}")
        print(f"snippets={n:>2} obs={n * 0.25:.2f}s val_top1={result.best_val_top1:.4f}")
    _write(out / "obslen.csv", "\n".join(rows) + "\n")
    _write(out / "summary.txt", "".join(f"N={n}: {acc:.4f}\n" for n, acc in results.items()))
    return 0


def cmd_ablate_fusion(args) -> int:
    out = _out_dir(args)
    train = _load_split(args, "train")
    val = _load_split(args, "val")
    sgd = _sgd_from_args(args)
    branches = {}
    rows = ["model,val_top1_action"]
    for mod in MODALITIES:
        bcfg = _branch_config_from_args(args, train + val, mod)
        branch, result = train_branch(train, val, mod, bcfg, sgd)
        _save_best(out, branch, mod, result)  # the scored branch is the one fused
        branches[mod] = branch
        rows.append(f"{mod},{result.best_val_top1:.6f}")
        print(f"branch {mod}: val_top1={result.best_val_top1:.4f}")
    for strategy in STRATEGIES:
        fcfg = _fusion_config_from_args(args, branches, strategy)
        _, result = train_fusion(branches, train, val, fcfg, sgd)
        rows.append(f"{strategy},{result.best_val_top1:.6f}")
        print(f"fusion {strategy}: val_top1={result.best_val_top1:.4f}")
    _write(out / "fusion_ablation.csv", "\n".join(rows) + "\n")
    _write(out / "summary.txt", "\n".join(rows[1:]) + "\n")
    return 0


# -- parser ---------------------------------------------------------------------

# command -> (function, help, the settings it reads, its built-in defaults)
COMMANDS = {
    "synth-gen": (cmd_synth_gen, "generate a synthetic multi-modal dataset",
                  ("out", "seed", "preset", *_SPEC_KEYS), {"preset": "learnable"}),
    "train-branch": (cmd_train_branch, "train one uni-modal branch",
                     ("data", "out", "seed", "modality", "snippets", *_BRANCH_KEYS, *_SGD_KEYS),
                     {"modality": "rgb", "lr": 0.005}),
    "train-fusion": (cmd_train_fusion, "train fusion layers over frozen branches",
                     ("data", "out", "seed", "strategy", "snippets", *_FUSION_KEYS, *_SGD_KEYS,
                      *(f"{mod}_ckpt" for mod in MODALITIES)),
                     {"strategy": "mutual_pairwise", "lr": 0.0005}),
    "evaluate": (cmd_evaluate, "evaluate a checkpoint on the val split",
                 ("data", "out", "modality", "snippets", "ckpt"), {}),
    "gradcheck": (cmd_gradcheck, "finite-difference check of every layer in f64",
                  ("out", "seed"), {}),
    "bench": (cmd_bench, "speed study: conv branch vs recurrent baseline",
              ("out", "seed", "channels", "dtype", "snippets", "batch", "reps", "warmup"),
              {"channels": 1024, "snippets": 21, "batch": 4, "reps": 30, "warmup": 5,
               "dtype": "f32"}),
    "ablate-obslen": (cmd_ablate_obslen, "observation-length study",
                      ("data", "out", "seed", "modality", *_BRANCH_KEYS, *_SGD_KEYS),
                      {"lr": 0.02, "epochs": 25, "batch": 32, "modality": "rgb", **_DESK_BRANCH}),
    "ablate-fusion": (cmd_ablate_fusion, "uni-modal vs fusion-strategy study",
                      ("data", "out", "seed", *_BRANCH_KEYS, *_FUSION_KEYS, *_SGD_KEYS),
                      {"lr": 0.02, "epochs": 15, "batch": 32, "embed_dim": 64,
                       "fusion_dropout": 0.1, **_DESK_BRANCH}),
}


def build_parser() -> argparse.ArgumentParser:
    """Each command's flags and built-in defaults; ``main`` lays a config file over them."""
    parser = argparse.ArgumentParser(
        prog="tcna", description="Temporal-convolutional action anticipation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, about, keys, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=about)
        p.add_argument("--config", help="key = value config file; flags override it")
        for key in keys:
            setting = SETTINGS[key]
            if setting.help is not None:
                p.add_argument(f"--{key.replace('_', '-')}", dest=key, type=setting.type,
                               choices=setting.choices, help=setting.help)
        if "seed" in keys:  # a string default, so argparse checks it as it checks --seed
            defaults = {"seed": os.environ.get("TCNA_SEED") or 0, **defaults}
        p.set_defaults(func=func, parser=p, **defaults)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args.parser.set_defaults(**parse_config(args.config, args.command))
            args = parser.parse_args(argv)
        return args.func(args)
    except (CliError, TensorError, DatasetError, CheckpointError, NonFiniteError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
