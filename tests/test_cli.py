import argparse
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from tcn_anticipation import cli
from tcn_anticipation.branch import Branch, BranchConfig
from tcn_anticipation.checkpoint import (branch_checkpoint_tensors, fusion_from_checkpoint,
                                         load_checkpoint, save_checkpoint)
from tcn_anticipation.data import (read_dataset, read_feature_file, stack_features,
                                   write_dataset, write_feature_file)
from tcn_anticipation.fusion import MODALITIES
from tcn_anticipation.metrics import top_k_accuracy
from tcn_anticipation.synthetic import complementary_spec, generate_synthetic
from tcn_anticipation.tensor import Rng
from tcn_anticipation.training import SgdConfig, train_branch

from test_checkpoint import BROKEN_CASES, small_fusion_tensors, write_broken_checkpoint
from test_data import (BAD_INDEX_ROWS, SPLIT_FILE_CORRUPTIONS, corrupt_split_file,
                       write_bad_index_row)

CLI = [sys.executable, "-m", "tcn_anticipation"]

_BRANCH = {"channels", "dtype"}
_SGD = {"epochs", "lr", "batch"}
# each command's flags: the settings it reads, less those only a config file sets
FLAGS = {
    "synth-gen": {"out", "seed", "preset", "snippets"},
    "train-branch": {"data", "out", "seed", "modality", "snippets", *_BRANCH, *_SGD},
    "train-fusion": {"data", "out", "seed", "strategy", "snippets", "embed-dim", *_SGD,
                     "rgb-ckpt", "flow-ckpt", "obj-ckpt"},
    "evaluate": {"data", "out", "modality", "snippets", "ckpt"},
    "gradcheck": {"out", "seed"},
    "bench": {"out", "seed", "channels", "dtype", "snippets", "batch", "reps", "warmup"},
    "ablate-obslen": {"data", "out", "seed", "modality", *_BRANCH, *_SGD},
    "ablate-fusion": {"data", "out", "seed", "embed-dim", *_BRANCH, *_SGD},
}
_BRANCH_FILE = {"kernel", "input_dropout", "block_dropout", "head_dropout"}
_SGD_FILE = {"momentum", "weight_decay", "power"}
# each command's config keys: the settings it reads, less the checkpoint paths
CONFIG_KEYS = {
    "synth-gen": {"out", "seed", "preset", "snippets", "sigma", "train_per_class",
                  "val_per_class"},
    "train-branch": {"data", "out", "seed", "modality", "snippets", *_BRANCH, *_SGD,
                     *_BRANCH_FILE, *_SGD_FILE},
    "train-fusion": {"data", "out", "seed", "strategy", "snippets", "embed_dim", *_SGD,
                     "fusion_dropout", *_SGD_FILE},
    "evaluate": {"data", "out", "modality", "snippets"},
    "gradcheck": {"out", "seed"},
    "bench": FLAGS["bench"],
    "ablate-obslen": {"data", "out", "seed", "modality", *_BRANCH, *_SGD, *_BRANCH_FILE,
                      *_SGD_FILE},
    "ablate-fusion": {"data", "out", "seed", "embed_dim", *_BRANCH, *_SGD, *_BRANCH_FILE,
                      "fusion_dropout", *_SGD_FILE},
}


def run(*argv, env=None, check=True):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    proc = subprocess.run(CLI + list(argv), capture_output=True, text=True, env=full_env)
    if check and proc.returncode != 0:
        raise AssertionError(f"command failed ({proc.returncode}):\n{proc.stderr}")
    return proc


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    run("synth-gen", "--out", str(out), "--seed", "11", "--preset", "learnable",
        "--config", _tiny_cfg(tmp_path_factory))
    return out


def _tiny_cfg(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "tiny.txt"
    cfg.write_text("train_per_class = 8\nval_per_class = 4\n", encoding="utf-8")
    return str(cfg)


@pytest.fixture(scope="module")
def trained_branch(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    run("train-branch", "--data", str(synth_dir), "--out", str(out),
        "--modality", "rgb", "--seed", "3", "--epochs", "2", "--lr", "0.02",
        "--batch", "16", "--channels", "12")
    return out


class TestSynthGen:
    def test_writes_splits_and_summary(self, synth_dir):
        assert (synth_dir / "train" / "index.csv").exists()
        assert (synth_dir / "val" / "index.csv").exists()
        assert (synth_dir / "summary.txt").exists()

    def test_fixed_seed_byte_identical_artifacts(self, tmp_path, tmp_path_factory):
        cfg = _tiny_cfg(tmp_path_factory)
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth-gen", "--out", str(a), "--seed", "9", "--config", cfg)
        run("synth-gen", "--out", str(b), "--seed", "9", "--config", cfg)
        assert (a / "train" / "index.csv").read_bytes() == \
            (b / "train" / "index.csv").read_bytes()
        for mod in MODALITIES:
            assert (a / "train" / f"{mod}.fseq").read_bytes() == \
                (b / "train" / f"{mod}.fseq").read_bytes()

    def test_unknown_preset_fails(self, tmp_path):
        proc = run("synth-gen", "--out", str(tmp_path / "x"), "--preset", "nope",
                   check=False)
        assert proc.returncode == 2
        assert "preset" in proc.stderr


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("not_a_key = 1\n", encoding="utf-8")
        proc = run("synth-gen", "--out", str(tmp_path / "o"), "--config", str(cfg),
                   check=False)
        assert proc.returncode == 2 and "unknown config key" in proc.stderr

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("epochs\n", encoding="utf-8")
        proc = run("synth-gen", "--out", str(tmp_path / "o"), "--config", str(cfg),
                   check=False)
        assert proc.returncode == 2 and "key = value" in proc.stderr

    def test_flags_override_config(self, tmp_path, synth_dir):
        cfg = tmp_path / "c.txt"
        cfg.write_text("epochs = 50\nchannels = 12\nlr = 0.02\n", encoding="utf-8")
        out = tmp_path / "run"
        run("train-branch", "--data", str(synth_dir), "--out", str(out),
            "--modality", "rgb", "--seed", "1", "--config", str(cfg),
            "--epochs", "1", "--batch", "16")
        log = (out / "train_log_rgb.csv").read_text().strip().splitlines()
        assert len(log) == 2  # header + one epoch: the flag won

    def test_env_seed_fallback(self, tmp_path, tmp_path_factory):
        cfg = _tiny_cfg(tmp_path_factory)
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth-gen", "--out", str(a), "--config", cfg, env={"TCNA_SEED": "77"})
        run("synth-gen", "--out", str(b), "--seed", "77", "--config", cfg)
        assert (a / "train" / "rgb.fseq").read_bytes() == (b / "train" / "rgb.fseq").read_bytes()

    def test_bad_env_seed_is_a_usage_error(self, tmp_path, tmp_path_factory):
        proc = run("synth-gen", "--out", str(tmp_path / "o"), "--config",
                   _tiny_cfg(tmp_path_factory), env={"TCNA_SEED": "abc"}, check=False)
        assert proc.returncode == 2 and "--seed" in proc.stderr

    def test_config_value_replaces_command_default(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("preset = complementary\ntrain_per_class = 2\nval_per_class = 1\n",
                       encoding="utf-8")
        a, b = tmp_path / "a", tmp_path / "b"
        run("synth-gen", "--out", str(a), "--config", str(cfg))
        run("synth-gen", "--out", str(b), "--preset", "complementary", "--config", str(cfg))
        summary = (a / "summary.txt").read_text()
        assert summary.startswith("preset=complementary ")
        assert summary == (b / "summary.txt").read_text()


class TestTrainEvaluate:
    def test_train_branch_artifacts(self, trained_branch):
        assert (trained_branch / "branch_rgb.ckpt").exists()
        assert (trained_branch / "branch_rgb_best.ckpt").exists()
        log = (trained_branch / "train_log_rgb.csv").read_text().splitlines()
        assert log[0] == "epoch,lr,train_loss,val_top1_action,val_top5_action,wall_seconds"
        assert len(log) == 3

    def test_deterministic_modulo_timing_columns(self, synth_dir, tmp_path):
        logs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            run("train-branch", "--data", str(synth_dir), "--out", str(out),
                "--modality", "flow", "--seed", "5", "--epochs", "2", "--lr", "0.02",
                "--batch", "16", "--channels", "12")
            rows = (out / "train_log_flow.csv").read_text().splitlines()
            logs.append([",".join(r.split(",")[:-1]) for r in rows])  # drop wall_seconds
        assert logs[0] == logs[1]

    def test_missing_data_dir_fails(self, tmp_path):
        proc = run("train-branch", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o"), check=False)
        assert proc.returncode == 2

    def test_fusion_then_evaluate(self, synth_dir, trained_branch, tmp_path):
        for mod in ("flow", "obj"):
            run("train-branch", "--data", str(synth_dir), "--out", str(trained_branch),
                "--modality", mod, "--seed", "3", "--epochs", "1", "--lr", "0.02",
                "--batch", "16", "--channels", "12")
        out = tmp_path / "fusion"
        run("train-fusion", "--data", str(synth_dir), "--out", str(out),
            "--strategy", "mutual", "--seed", "4", "--epochs", "1", "--lr", "0.01",
            "--batch", "16", "--embed-dim", "16",
            "--rgb-ckpt", str(trained_branch / "branch_rgb_best.ckpt"),
            "--flow-ckpt", str(trained_branch / "branch_flow_best.ckpt"),
            "--obj-ckpt", str(trained_branch / "branch_obj_best.ckpt"),
            "--config", "/dev/null")
        ckpt = out / "fusion_mutual.ckpt"
        assert ckpt.exists()
        eval_out = tmp_path / "eval"
        proc = run("evaluate", "--ckpt", str(ckpt), "--data", str(synth_dir),
                   "--out", str(eval_out))
        assert (eval_out / "metrics.csv").exists()
        assert "action" in proc.stdout

    def test_evaluate_branch_checkpoint(self, synth_dir, trained_branch, tmp_path):
        eval_out = tmp_path / "eval"
        run("evaluate", "--ckpt", str(trained_branch / "branch_rgb_best.ckpt"),
            "--data", str(synth_dir), "--out", str(eval_out))
        lines = (eval_out / "metrics.csv").read_text().splitlines()
        assert lines[0] == "head,top1,top5,mean_top5_recall" and len(lines) == 4

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_evaluate_rejects_another_modality(self, via, trained_branch, synth_dir, tmp_path):
        """A flow checkpoint is not scored on rgb features, whether a flag or a
        config file (one shared with train-branch, say) names rgb."""
        tensors = load_checkpoint(trained_branch / "branch_rgb_best.ckpt")
        tensors["meta.modality"] = np.array([1.0])  # flow
        ckpt = tmp_path / "branch_flow.ckpt"
        save_checkpoint(ckpt, tensors)
        cfg = tmp_path / "c.txt"
        cfg.write_text("modality = rgb\n", encoding="utf-8")
        rgb = ["--modality", "rgb"] if via == "flag" else ["--config", str(cfg)]
        proc = run("evaluate", "--ckpt", str(ckpt), "--data", str(synth_dir),
                   "--out", str(tmp_path / "eval"), *rgb, check=False)
        assert proc.returncode == 2 and "holds a flow branch, expected rgb" in proc.stderr

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_evaluate_rejects_a_modality_for_a_fusion_checkpoint(self, via, synth_dir,
                                                                 tmp_path):
        """A fusion checkpoint reads every modality, so naming one is a usage error,
        not a setting that is silently ignored."""
        ckpt = tmp_path / "fusion_attention.ckpt"
        save_checkpoint(ckpt, small_fusion_tensors())
        cfg = tmp_path / "c.txt"
        cfg.write_text("modality = flow\n", encoding="utf-8")
        flow = ["--modality", "flow"] if via == "flag" else ["--config", str(cfg)]
        proc = run("evaluate", "--ckpt", str(ckpt), "--data", str(synth_dir),
                   "--out", str(tmp_path / "eval"), *flow, check=False)
        assert proc.returncode == 2 and "--modality flow" in proc.stderr
        assert not (tmp_path / "eval" / "metrics.csv").exists()

    def test_train_fusion_saves_best_epoch(self, tmp_path):
        train, val = generate_synthetic(complementary_spec(train_per_class=40,
                                                           val_per_class=15), 2024)
        data = tmp_path / "data"
        write_dataset(train, data / "train")
        write_dataset(val, data / "val")
        sgd = SgdConfig(lr0=0.02, epochs=4, batch_size=32, seed=7)
        bcfg = BranchConfig(input_dim=32, num_actions=12, num_verbs=6, num_nouns=8,
                            channels=32, input_dropout=0.1, block_dropout=0.1,
                            head_dropout=0.1)
        ckpts = []
        for mod in MODALITIES:
            branch, _ = train_branch(train, val, mod, bcfg, sgd)
            save_checkpoint(tmp_path / f"{mod}.ckpt",
                            branch_checkpoint_tensors(branch, mod, sgd.epochs - 1))
            ckpts += [f"--{mod}-ckpt", str(tmp_path / f"{mod}.ckpt")]
        out = tmp_path / "run"
        run("train-fusion", "--data", str(data), "--out", str(out), "--strategy", "attention",
            "--epochs", "4", "--lr", "0.02", "--batch", "32", "--seed", "7", *ckpts)
        summary = dict(kv.split("=") for kv in (out / "summary.txt").read_text().split())
        best_epoch = int(summary["best_epoch"])
        assert best_epoch < sgd.epochs - 1  # the final state is not the best one
        log = (out / "train_log_fusion_attention.csv").read_text().splitlines()
        best_top1 = log[1 + best_epoch].split(",")[3]

        model, info = fusion_from_checkpoint(out / "fusion_attention.ckpt")
        inputs = {mod: stack_features(val, mod)[0] for mod in MODALITIES}
        labels = stack_features(val, "rgb")[1]["action"]
        top1 = top_k_accuracy(model.eval().predict_proba(inputs)["action"], labels, 1)
        assert info["epoch"] == best_epoch and f"{top1:.6f}" == best_top1

    @pytest.mark.parametrize("case", BROKEN_CASES)
    def test_evaluate_broken_checkpoint_exits_2(self, case, synth_dir, trained_branch, tmp_path):
        """A branch case breaks a checkpoint that fits the data, so only its defect
        can stop the evaluation."""
        write_broken_checkpoint(case, tmp_path / "broken.ckpt",
                                load_checkpoint(trained_branch / "branch_rgb_best.ckpt"))
        proc = run("evaluate", "--ckpt", str(tmp_path / "broken.ckpt"), "--data", str(synth_dir),
                   "--out", str(tmp_path / "eval"), check=False)
        assert proc.returncode == 2 and proc.stderr.startswith("error:")

    @pytest.mark.parametrize("case", BAD_INDEX_ROWS)
    def test_train_branch_broken_index_exits_2(self, case, synth_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        write_bad_index_row(data / "train" / "index.csv", case)
        proc = run("train-branch", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--epochs", "1", "--channels", "4", check=False)
        assert proc.returncode == 2 and proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr and not list(tmp_path.glob("o/*.ckpt"))

    def test_train_branch_unequal_feature_widths_exit_2(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        _, wide = read_feature_file(data / "val" / "rgb.fseq")
        write_feature_file(data / "val" / "rgb.fseq", "rgb",
                           np.concatenate([wide, wide[:, :, :8]], axis=2))
        proc = run("train-branch", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--epochs", "1", "--channels", "4", check=False)
        assert proc.returncode == 2 and proc.stderr.startswith("error:")
        assert "branch expected (B, 32, N), got (48, 40, 21)" in proc.stderr
        assert "Traceback" not in proc.stderr and not list(tmp_path.glob("o/*.ckpt"))

    @pytest.mark.parametrize("case", SPLIT_FILE_CORRUPTIONS)
    def test_corrupt_split_file_exits_2_naming_it(self, case, synth_dir, trained_branch,
                                                  tmp_path, capsys):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        corrupt_split_file(data / "val" / "obj.fseq", case)
        assert cli.main(["evaluate", "--ckpt", str(trained_branch / "branch_rgb_best.ckpt"),
                         "--data", str(data), "--out", str(tmp_path / "eval")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(data / "val" / "obj.fseq") in err

    def test_evaluate_label_outside_the_heads_exits_2(self, synth_dir, trained_branch, tmp_path):
        """An action the 12-way head cannot score is no silent miss in the metrics."""
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        index = data / "val" / "index.csv"
        header, first, *rows = index.read_text(encoding="utf-8").splitlines()
        sid, _, verb, noun = first.split(",")
        index.write_text("\n".join([header, f"{sid},50,{verb},{noun}", *rows]) + "\n",
                         encoding="utf-8")
        proc = run("evaluate", "--ckpt", str(trained_branch / "branch_rgb_best.ckpt"),
                   "--data", str(data), "--out", str(tmp_path / "eval"), check=False)
        assert proc.returncode == 2 and proc.stderr.startswith("error:")
        assert "labels 0 to 50 leave [0, 12)" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("case", ["config_is_a_directory", "config_not_utf8",
                                      "ckpt_is_a_directory", "out_is_a_file",
                                      "feature_path_is_a_directory"])
    def test_unusable_path_exits_2_naming_it(self, case, synth_dir, trained_branch, tmp_path):
        bad = tmp_path / "bad"
        ckpt = str(trained_branch / "branch_rgb_best.ckpt")
        data, out = str(synth_dir), str(tmp_path / "o")
        if case == "config_not_utf8":
            bad.write_bytes(b"epochs = 1  # caf\xe9\n")
        elif case == "out_is_a_file":
            bad.write_bytes(b"")
            out = str(bad)
        elif case == "feature_path_is_a_directory":
            data = str(tmp_path / "data")
            shutil.copytree(synth_dir, data)
            bad = tmp_path / "data" / "val" / "flow.fseq"
            bad.unlink()
            bad.mkdir()
        else:
            bad.mkdir()
        argv = {"config_is_a_directory": ["--config", str(bad)],
                "config_not_utf8": ["--config", str(bad)],
                "ckpt_is_a_directory": ["--ckpt", str(bad)]}.get(case, ["--ckpt", ckpt])
        proc = run("evaluate", *argv, "--data", data, "--out", out, check=False)
        assert proc.returncode == 2 and proc.stderr.startswith("error:")
        assert str(bad) in proc.stderr

    @pytest.mark.parametrize("command", ["evaluate", "ablate-obslen"])
    def test_config_modality_outside_choices_exits_2(self, command, synth_dir, trained_branch,
                                                      tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("modality = nope\n", encoding="utf-8")
        ckpt = ["--ckpt", str(trained_branch / "branch_rgb_best.ckpt")] if command == "evaluate" \
            else []
        proc = run(command, *ckpt, "--data", str(synth_dir), "--out", str(tmp_path / "o"),
                   "--config", str(cfg), check=False)
        assert proc.returncode == 2 and "unknown modality 'nope'" in proc.stderr

    def test_train_fusion_takes_class_counts_from_the_branches(self, synth_dir, tmp_path):
        """Labels that never reach the last action do not shrink the fused heads."""
        data = tmp_path / "data"
        for split in ("train", "val"):
            samples = read_dataset(synth_dir / split / "index.csv")
            write_dataset([s for s in samples if s.action != 11], data / split)
        bcfg = BranchConfig(input_dim=32, num_actions=12, num_verbs=6, num_nouns=8, channels=8)
        ckpts = []
        for mod in MODALITIES:
            save_checkpoint(tmp_path / f"{mod}.ckpt",
                            branch_checkpoint_tensors(Branch(bcfg, Rng(0)), mod, 0))
            ckpts += [f"--{mod}-ckpt", str(tmp_path / f"{mod}.ckpt")]
        run("train-fusion", "--data", str(data), "--out", str(tmp_path / "o"),
            "--strategy", "mutual", "--epochs", "1", "--batch", "16", *ckpts)
        model, _ = fusion_from_checkpoint(tmp_path / "o" / "fusion_mutual.ckpt")
        assert model.config.class_counts == bcfg.class_counts

    @pytest.mark.parametrize("command,setting,field", [
        ("train-branch", "--lr nan", "lr0"), ("train-branch", "--lr inf", "lr0"),
        ("train-branch", "power = nan", "power"),
        ("train-branch", "weight_decay = -3", "weight_decay"),
        ("synth-gen", "sigma = nan", "sigma"),
        ("synth-gen", "train_per_class = -2", "train_per_class")])
    def test_non_finite_or_negative_setting_exits_2_naming_it(self, command, setting, field,
                                                              synth_dir, tmp_path, capsys):
        """NaN and inf pass a bare sign check; trained on, they give NaN weights."""
        if "=" in setting:
            (tmp_path / "c.txt").write_text(setting + "\n", encoding="utf-8")
            extra = ["--config", str(tmp_path / "c.txt")]
        else:
            extra = setting.split()
        data = ["--data", str(synth_dir), "--epochs", "1", "--channels", "8"] \
            if command == "train-branch" else []
        out = tmp_path / "o"
        assert cli.main([command, "--out", str(out), *data, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert not any(out.iterdir())  # no checkpoint, no dataset

    @pytest.mark.parametrize("command,via", [("synth-gen", "flag"), ("gradcheck", "flag"),
                                             ("train-branch", "config"), ("train-branch", "env")])
    def test_negative_seed_exits_2_naming_it(self, command, via, synth_dir, tmp_path, capsys,
                                             monkeypatch):
        """numpy's generator takes no negative seed, and its ValueError is no usage error."""
        extra = []
        if via == "flag":
            extra = ["--seed", "-1"]
        elif via == "config":
            (tmp_path / "c.txt").write_text("seed = -2\n", encoding="utf-8")
            extra = ["--config", str(tmp_path / "c.txt")]
        else:
            monkeypatch.setenv("TCNA_SEED", "-3")
        data = ["--data", str(synth_dir), "--epochs", "1", "--channels", "8"] \
            if command == "train-branch" else []
        out = tmp_path / "o"
        assert cli.main([command, "--out", str(out), *data, *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed must be >= 0, got -" in err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command,split", [
        ("train-branch", "train"), ("train-branch", "val"), ("train-fusion", "train"),
        ("evaluate", "val"), ("ablate-obslen", "train"), ("ablate-fusion", "train")])
    def test_empty_split_exits_2_naming_it(self, command, split, trained_branch, tmp_path,
                                           capsys):
        """A split with no samples stops every command that reads it, before any training."""
        data = tmp_path / "data"
        counts = {"train_per_class": 1, "val_per_class": 1, f"{split}_per_class": 0}
        (tmp_path / "c.txt").write_text("".join(f"{k} = {v}\n" for k, v in counts.items()),
                                        encoding="utf-8")
        assert cli.main(["synth-gen", "--out", str(data), "--config",
                         str(tmp_path / "c.txt")]) == 0
        extra = []
        if command == "evaluate":
            extra = ["--ckpt", str(trained_branch / "branch_rgb_best.ckpt")]
        elif command == "train-fusion":
            tensors = load_checkpoint(trained_branch / "branch_rgb_best.ckpt")
            for code, mod in enumerate(MODALITIES):
                tensors["meta.modality"] = np.array([float(code)])
                save_checkpoint(tmp_path / f"{mod}.ckpt", tensors)
                extra += [f"--{mod}-ckpt", str(tmp_path / f"{mod}.ckpt")]
        capsys.readouterr()
        out = tmp_path / "o"
        assert cli.main([command, "--data", str(data), "--out", str(out), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(data / split / "index.csv") in err
        assert not any(out.iterdir())

    def test_mismatched_fusion_checkpoint_modality(self, synth_dir, trained_branch, tmp_path):
        proc = run("train-fusion", "--data", str(synth_dir), "--out", str(tmp_path / "o"),
                   "--strategy", "late",
                   "--rgb-ckpt", str(trained_branch / "branch_rgb_best.ckpt"),
                   "--flow-ckpt", str(trained_branch / "branch_rgb_best.ckpt"),
                   "--obj-ckpt", str(trained_branch / "branch_rgb_best.ckpt"),
                   check=False)
        assert proc.returncode == 2 and "flow" in proc.stderr


class TestGradcheckCommand:
    def test_exit_zero_and_table(self, tmp_path):
        proc = run("gradcheck", "--seed", "0", "--out", str(tmp_path))
        assert "conv1d" in proc.stdout and "fusion" in proc.stdout
        csv = (tmp_path / "gradcheck.csv").read_text().splitlines()
        assert csv[0] == "layer,configs,max_rel_error,pass"
        assert all(row.endswith(",1") for row in csv[1:])

    def test_f32_rejected(self):
        """It runs in f64 only and has no --dtype to ask for another precision."""
        proc = run("gradcheck", "--dtype", "f32", check=False)
        assert proc.returncode == 2 and "--dtype" in proc.stderr


class TestStudies:
    def test_ablate_fusion_row_structure(self, tmp_path, tmp_path_factory):
        data = tmp_path / "data"
        run("synth-gen", "--out", str(data), "--seed", "2", "--preset", "complementary",
            "--config", _tiny_cfg(tmp_path_factory))
        out = tmp_path / "study"
        run("ablate-fusion", "--data", str(data), "--out", str(out), "--seed", "1",
            "--epochs", "1", "--channels", "12", "--batch", "16")
        rows = (out / "fusion_ablation.csv").read_text().strip().splitlines()
        assert rows[0] == "model,val_top1_action"
        assert [r.split(",")[0] for r in rows[1:]] == \
            ["rgb", "flow", "obj", "late", "attention", "mutual", "pairwise",
             "mutual_pairwise"]

    def test_ablate_fusion_saves_the_branches_it_scores(self, tmp_path, tmp_path_factory):
        """Each branch checkpoint scores the study's row for it, so it is the
        best-epoch branch, the one the fusion rows fuse."""
        data = tmp_path / "data"
        run("synth-gen", "--out", str(data), "--seed", "2", "--preset", "complementary",
            "--config", _tiny_cfg(tmp_path_factory))
        out = tmp_path / "study"
        run("ablate-fusion", "--data", str(data), "--out", str(out), "--seed", "1",
            "--epochs", "4", "--channels", "12", "--batch", "16")
        rows = dict(r.split(",") for r in (out / "fusion_ablation.csv").read_text().split()[1:])
        epochs = []
        for mod in MODALITIES:
            ckpt = out / f"branch_{mod}_best.ckpt"
            epochs.append(load_checkpoint(ckpt)["meta.epoch"][0])
            run("evaluate", "--ckpt", str(ckpt), "--data", str(data), "--out", str(tmp_path / mod))
            metrics = (tmp_path / mod / "metrics.csv").read_text().splitlines()
            assert metrics[1].split(",")[:2] == ["action", rows[mod]]
        assert min(epochs) < 3  # some branch scored best before the final epoch

    def test_bench_window_beyond_receptive_field(self, tmp_path):
        proc = run("bench", "--out", str(tmp_path), "--channels", "8", "--snippets", "25")
        assert "speedup" in proc.stdout
        assert (tmp_path / "bench.csv").read_text().startswith("model,mac_count")

    def test_ablate_obslen_rows(self, tmp_path, tmp_path_factory):
        data = tmp_path / "data"
        run("synth-gen", "--out", str(data), "--seed", "2", "--preset", "long-range",
            "--config", _tiny_cfg(tmp_path_factory))
        out = tmp_path / "study"
        run("ablate-obslen", "--data", str(data), "--out", str(out), "--seed", "1",
            "--epochs", "1", "--channels", "12", "--batch", "16")
        rows = (out / "obslen.csv").read_text().strip().splitlines()
        assert rows[0] == "snippets,obs_seconds,val_top1_action"
        assert [r.split(",")[0] for r in rows[1:]] == ["3", "7", "13", "21"]


class TestSettingsPerCommand:
    """Each command accepts exactly the settings it reads."""

    def test_flags(self):
        sub = next(a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        flags = {name: {opt[2:] for action in p._actions for opt in action.option_strings
                        if opt.startswith("--")} - {"help", "config"}
                 for name, p in sub.choices.items()}
        assert flags == FLAGS

    @pytest.mark.parametrize("command", CONFIG_KEYS)
    def test_config_keys(self, command, tmp_path):
        accepted = set()
        for key, setting in cli.SETTINGS.items():
            value = setting.choices[0] if setting.choices else setting.type(1)
            (tmp_path / "c.txt").write_text(f"{key} = {value}\n", encoding="utf-8")
            try:
                cli.parse_config(tmp_path / "c.txt", command)
                accepted.add(key)
            except cli.CliError as exc:
                assert f"unknown config key {key!r}" in str(exc)
        assert accepted == CONFIG_KEYS[command]

    @pytest.mark.parametrize("argv", [
        ["ablate-fusion", "--snippets", "13"], ["ablate-obslen", "--snippets", "7"],
        ["train-fusion", "--channels", "256"], ["train-fusion", "--dtype", "f64"],
        ["gradcheck", "--dtype", "f64"], ["evaluate", "--seed", "3"],
        ["synth-gen", "--data", "d"], ["bench", "--modality", "rgb"],
        ["train-branch", "--embed-dim", "8"]], ids=" ".join)
    def test_ignored_flag_is_a_usage_error_naming_it(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2 and argv[1] in capsys.readouterr().err

    @pytest.mark.parametrize("command,line", [
        ("synth-gen", "channels = 12"), ("train-fusion", "channels = 256"),
        ("evaluate", "seed = 3"), ("gradcheck", "dtype = f64"), ("evaluate", "ckpt = a.ckpt"),
        ("train-fusion", "rgb_ckpt = a.ckpt"), ("train-branch", "fusion_dropout = 0.1")])
    def test_unread_config_key_is_a_usage_error_naming_it(self, command, line, tmp_path,
                                                          capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert cli.main([command, "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
        key = line.split(" = ")[0]
        assert f"unknown config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command,line,error", [
        ("bench", "dtype = f16", "unknown dtype 'f16'"),
        ("train-fusion", "strategy = best", "unknown strategy 'best'"),
        ("synth-gen", "preset = nope", "unknown preset 'nope'"),
        ("train-branch", "epochs = 2.5", "bad value for 'epochs'")])
    def test_config_values_checked_as_flags_are(self, command, line, error, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text(line + "\n", encoding="utf-8")
        assert cli.main([command, "--out", str(tmp_path / "o"), "--config", str(cfg)]) == 2
        assert error in capsys.readouterr().err
