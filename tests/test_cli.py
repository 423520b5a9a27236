import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from tcn_anticipation.branch import BranchConfig
from tcn_anticipation.checkpoint import (branch_checkpoint_tensors, fusion_from_checkpoint,
                                         load_checkpoint, save_checkpoint)
from tcn_anticipation.data import (read_dataset, stack_features, write_dataset,
                                   write_feature_file)
from tcn_anticipation.fusion import MODALITIES
from tcn_anticipation.metrics import top_k_accuracy
from tcn_anticipation.synthetic import complementary_spec, generate_synthetic
from tcn_anticipation.training import SgdConfig, train_branch

from test_checkpoint import BROKEN_CASES, write_broken_checkpoint
from test_data import BAD_INDEX_ROWS, write_bad_index_row

CLI = [sys.executable, "-m", "tcn_anticipation"]


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
        sample = "train-000-00000_rgb.fseq"
        assert (a / "train" / "features" / sample).read_bytes() == \
            (b / "train" / "features" / sample).read_bytes()

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
        assert (a / "train" / "features" / "train-000-00000_rgb.fseq").read_bytes() == \
            (b / "train" / "features" / "train-000-00000_rgb.fseq").read_bytes()

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

    def test_train_branch_unequal_feature_widths_exit_2(self, synth_dir, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(synth_dir, data)
        val = read_dataset(data / "val" / "index.csv")
        wide = val[1].features["rgb"]
        write_feature_file(data / "val" / "features" / f"{val[1].sample_id}_rgb.fseq", "rgb",
                           np.concatenate([wide, wide[:, :8]], axis=1))
        proc = run("train-branch", "--data", str(data), "--out", str(tmp_path / "o"),
                   "--epochs", "1", "--channels", "4", check=False)
        assert proc.returncode == 2 and proc.stderr.startswith("error:")
        assert f"{val[1].sample_id!r} has rgb features of shape (21, 40)" in proc.stderr

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
        proc = run("gradcheck", "--dtype", "f64", "--seed", "0",
                   "--out", str(tmp_path))
        assert "conv1d" in proc.stdout and "fusion" in proc.stdout
        csv = (tmp_path / "gradcheck.csv").read_text().splitlines()
        assert csv[0] == "layer,configs,max_rel_error,pass"
        assert all(row.endswith(",1") for row in csv[1:])

    def test_f32_rejected(self):
        proc = run("gradcheck", "--dtype", "f32", check=False)
        assert proc.returncode == 2


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
