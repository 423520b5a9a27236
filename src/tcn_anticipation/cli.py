"""Command-line interface: data generation, training, evaluation, studies.

Every command reads one namespace. Its built-in defaults are stated once, in
``build_parser``; an optional ``key = value`` config file replaces them, and
explicit flags win over both. ``--seed`` falls back to the TCNA_SEED
environment variable, then 0. Commands exit 0 on success and write
machine-readable CSV artifacts plus a plain-text summary into the output
directory.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

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

_KEY_TYPES = {
    "seed": int, "epochs": int, "lr": float, "batch": int, "dtype": str,
    "snippets": int, "modality": str, "strategy": str, "data": str, "out": str,
    "channels": int, "kernel": int, "embed_dim": int,
    "input_dropout": float, "block_dropout": float, "head_dropout": float,
    "fusion_dropout": float, "momentum": float, "weight_decay": float,
    "power": float, "preset": str, "sigma": float, "train_per_class": int,
    "val_per_class": int, "reps": int, "warmup": int,
}


class CliError(ValueError):
    pass


def parse_config(path) -> dict:
    values = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _KEY_TYPES:
                raise CliError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _KEY_TYPES[key](value)
            except ValueError:
                raise CliError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from None
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


def _class_counts(samples) -> dict[str, int]:
    return {head: max(s.labels[head] for s in samples) + 1 for head in HEADS}


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8")


# -- commands -----------------------------------------------------------------

def cmd_synth_gen(args) -> int:
    out = _out_dir(args)
    if args.preset not in PRESETS:
        raise CliError(f"unknown preset {args.preset!r}; choose from {sorted(PRESETS)}")
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
_DESK_BRANCH = {"channels": 64, "input_dropout": 0.1, "block_dropout": 0.1,
               "head_dropout": 0.1}

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
    """Adapted to ``snippets`` if given."""
    counts = _class_counts(samples)
    base = BranchConfig(
        input_dim=samples[0].features[modality].shape[1],
        num_actions=counts["action"], num_verbs=counts["verb"], num_nouns=counts["noun"],
        **_settings(args, _BRANCH_KEYS))
    return base if snippets is None else base.for_snippets(snippets)


def _fusion_config_from_args(args, branches, samples, strategy: str) -> FusionConfig:
    """Channels come from the branches."""
    counts = _class_counts(samples)
    return FusionConfig(
        channels=branches["rgb"].config.channels,
        num_actions=counts["action"], num_verbs=counts["verb"], num_nouns=counts["noun"],
        strategy=strategy, **_settings(args, _FUSION_KEYS))


def _sgd_from_args(args) -> SgdConfig:
    return SgdConfig(seed=args.seed, **_settings(args, _SGD_KEYS))


def _history_csv(history) -> str:
    lines = ["epoch,lr,train_loss,val_top1_action,val_top5_action,wall_seconds"]
    for r in history:
        lines.append(f"{r.epoch},{r.lr:.8g},{r.train_loss:.8g},"
                     f"{r.val_top1_action:.6f},{r.val_top5_action:.6f},{r.wall_seconds:.3f}")
    return "\n".join(lines) + "\n"


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
    branch.load_state(result.best_state)
    save_checkpoint(out / f"branch_{modality}_best.ckpt",
                    branch_checkpoint_tensors(branch, modality, result.best_epoch))
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
    fcfg = _fusion_config_from_args(args, branches, train + val, strategy)
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
        modality = args.modality or info["modality"]
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
    if args.dtype != "f64":
        raise CliError("gradient checking runs in f64; pass --dtype f64")
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
    channels, dtype = args.channels, args.dtype
    rng = Rng(args.seed)
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
    windows = (3, 7, 13, 21)
    max_n = train[0].num_snippets
    rows = ["snippets,obs_seconds,val_top1_action"]
    results = {}
    sgd = _sgd_from_args(args)
    for n in windows:
        if n > max_n:
            continue
        base = _branch_config_from_args(args, train + val, modality, n)
        _, result = train_branch(train, val, modality, base, sgd, snippets=n)
        results[n] = result.best_val_top1
        rows.append(f"{n},{n * 0.25:.2f},{result.best_val_top1:.6f}")
        print(f"snippets={n:>2} obs={n * 0.25:.2f}s val_top1={result.best_val_top1:.4f}")
    _write(out / "obslen.csv", "\n".join(rows) + "\n")
    _write(out / "summary.txt",
           "".join(f"N={n}: {acc:.4f}\n" for n, acc in results.items()))
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
        branches[mod] = branch
        save_checkpoint(out / f"branch_{mod}.ckpt",
                        branch_checkpoint_tensors(branch, mod, sgd.epochs - 1))
        rows.append(f"{mod},{result.best_val_top1:.6f}")
        print(f"branch {mod}: val_top1={result.best_val_top1:.4f}")
    for strategy in STRATEGIES:
        fcfg = _fusion_config_from_args(args, branches, train + val, strategy)
        _, result = train_fusion(branches, train, val, fcfg, sgd)
        rows.append(f"{strategy},{result.best_val_top1:.6f}")
        print(f"fusion {strategy}: val_top1={result.best_val_top1:.4f}")
    _write(out / "fusion_ablation.csv", "\n".join(rows) + "\n")
    _write(out / "summary.txt", "\n".join(rows[1:]) + "\n")
    return 0


# -- parser ---------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key = value config file; flags override it")
    p.add_argument("--data", help="dataset directory (train/ and val/ splits)")
    p.add_argument("--out", help="output directory for artifacts")
    p.add_argument("--seed", type=int, default=os.environ.get("TCNA_SEED") or 0,
                   help="RNG seed (fallback: TCNA_SEED, then 0)")
    p.add_argument("--modality", choices=MODALITIES)
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch", type=int)
    p.add_argument("--dtype", choices=("f32", "f64"))
    p.add_argument("--snippets", type=int, help="observed window length in snippets")
    p.add_argument("--channels", type=int)


def build_parser() -> argparse.ArgumentParser:
    """Each command's built-in defaults; ``main`` lays a config file over them."""
    parser = argparse.ArgumentParser(
        prog="tcna",
        description="Temporal-convolutional action anticipation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        _add_common(p)
        p.set_defaults(func=func, parser=p, **defaults)
        return p

    p = command("synth-gen", cmd_synth_gen, "generate a synthetic multi-modal dataset",
                preset="learnable")
    p.add_argument("--preset", choices=sorted(PRESETS))

    command("train-branch", cmd_train_branch, "train one uni-modal branch",
            modality="rgb", lr=0.005)

    p = command("train-fusion", cmd_train_fusion, "train fusion layers over frozen branches",
                strategy="mutual_pairwise", lr=0.0005)
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    for mod in MODALITIES:
        p.add_argument(f"--{mod}-ckpt", dest=f"{mod}_ckpt",
                       help=f"checkpoint of the pre-trained {mod} branch")

    p = command("evaluate", cmd_evaluate, "evaluate a checkpoint on the val split")
    p.add_argument("--ckpt", help="branch or fusion checkpoint")

    command("gradcheck", cmd_gradcheck, "finite-difference check of every layer", dtype="f64")

    p = command("bench", cmd_bench, "speed study: conv branch vs recurrent baseline",
                channels=1024, snippets=21, batch=4, reps=30, warmup=5, dtype="f32")
    p.add_argument("--reps", type=int)
    p.add_argument("--warmup", type=int)

    command("ablate-obslen", cmd_ablate_obslen, "observation-length study",
            lr=0.02, epochs=25, batch=32, modality="rgb", **_DESK_BRANCH)

    p = command("ablate-fusion", cmd_ablate_fusion, "uni-modal vs fusion-strategy study",
                lr=0.02, epochs=15, batch=32, embed_dim=64, fusion_dropout=0.1, **_DESK_BRANCH)
    p.add_argument("--embed-dim", dest="embed_dim", type=int)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            args.parser.set_defaults(**parse_config(args.config))
            args = parser.parse_args(argv)
        if args.modality not in (None, *MODALITIES):  # a file value skips argparse's choices
            raise CliError(f"unknown modality {args.modality!r}")
        return args.func(args)
    except (CliError, TensorError, DatasetError, CheckpointError, NonFiniteError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
