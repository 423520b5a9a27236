"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs the same assertions. The heavier criteria train
small models on the synthetic presets with fixed seeds, so every number here
is reproducible bit-for-bit on the same machine. Criteria 4-6 are the paper's
studies: they run the README's ``tcna`` study commands as written and read
the CSVs those commands write.
"""

import contextlib
import csv
import io
import shlex
import time

import numpy as np
import pytest

from tcn_anticipation import cli
from tcn_anticipation.bench import branch_macs
from tcn_anticipation.branch import BranchConfig, required_input_length
from tcn_anticipation.checkpoint import (branch_checkpoint_tensors, load_checkpoint,
                                         parameter_hash, save_checkpoint)
from tcn_anticipation.data import DatasetError, read_feature_file, write_feature_file
from tcn_anticipation.fusion import MODALITIES, FusionConfig
from tcn_anticipation.gradcheck import run_standard_suite
from tcn_anticipation.metrics import class_mean_top5_recall, top_k_accuracy
from tcn_anticipation.synthetic import class_templates, generate_synthetic, learnable_spec
from tcn_anticipation.tensor import Rng
from tcn_anticipation.training import SgdConfig, train_branch, train_fusion

from oracles import (branch_mac_loops, class_mean_top5_recall_loops,
                     nearest_template_predict, top_k_accuracy_loops)

DATA_SEED = 2024
TRAIN_SEED = 7

# The README's "Studies" block, line for line (test_readme checks that they
# match): criteria 4-6 run these commands and read the CSVs they write.
FUSION_STUDY = (
    "tcna synth-gen --out data/complementary --preset complementary --seed 2024",
    "tcna ablate-fusion --data data/complementary --out results/fusion --seed 7 --epochs 8",
)
OBSLEN_STUDY = (
    "tcna synth-gen --out data/long_range --preset long-range --seed 2024",
    "tcna ablate-obslen --data data/long_range --out results/obslen --seed 7",
)
SPEED_STUDY = ("tcna bench --out results/bench --batch 4",)


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} ({name}): {detail}"


def desk_branch_config(**overrides):
    base = dict(input_dim=32, num_actions=12, num_verbs=6, num_nouns=8, channels=64,
                input_dropout=0.1, block_dropout=0.1, head_dropout=0.1)
    base.update(overrides)
    return BranchConfig(**base)


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    rows = run_standard_suite(seed=0)
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_error for r in rows)
    ok = all(r.passed(1e-4) for r in rows) and elapsed < 120
    detail = f"max rel err {worst:.2e} over {len(rows)} layer groups in {elapsed:.1f}s"
    report(1, "gradient-suite", ok, detail)


def test_criterion_2_length_ledger():
    cfg = desk_branch_config()
    ledger = cfg.block_lengths(21)
    required = required_input_length(3, [1, 2, 3, 4])
    ok = ledger == [19, 15, 9, 1] and required == 21
    report(2, "length-ledger", ok, f"lengths {ledger}, required input {required}")


def test_criterion_3_synthetic_learnability():
    t0 = time.perf_counter()
    spec = learnable_spec()  # 12 actions, 200/50 per class, sigma 0.5
    train, val = generate_synthetic(spec, DATA_SEED)

    # independent nearest-prototype oracle must clear 95% on the same data
    templates = class_templates(spec, DATA_SEED, "rgb")
    xv = np.stack([s.features["rgb"].astype(np.float64) for s in val])
    yv = np.array([s.action for s in val])
    oracle_acc = float((nearest_template_predict(xv, templates) == yv).mean())

    sgd = SgdConfig(lr0=0.02, epochs=8, batch_size=32, seed=TRAIN_SEED)
    _, result = train_branch(train, val, "rgb", desk_branch_config(), sgd)
    elapsed = time.perf_counter() - t0
    ok = result.best_val_top1 >= 0.90 and oracle_acc >= 0.95 and elapsed < 300
    detail = (f"val top-1 {result.best_val_top1:.3f} within {sgd.epochs} epochs "
              f"(<=20), oracle {oracle_acc:.3f}, {elapsed:.0f}s")
    report(3, "synthetic-learnability", ok, detail)


def run_studies(lines: tuple[str, ...], workdir, monkeypatch) -> None:
    """Runs README "Studies" lines through ``cli.main`` in ``workdir``, their
    per-model lines kept out of the test's output."""
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("TCNA_SEED", raising=False)
    with contextlib.redirect_stdout(io.StringIO()):
        for line in lines:
            assert cli.main(shlex.split(line)[1:]) == 0, line


def read_csv(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def test_criterion_4_fusion_ablation_analog(tmp_path, monkeypatch):
    run_studies(FUSION_STUDY, tmp_path, monkeypatch)
    scores = {row["model"]: float(row["val_top1_action"])
              for row in read_csv(tmp_path / "results/fusion/fusion_ablation.csv")}
    uni = {mod: scores.pop(mod) for mod in MODALITIES}
    best_uni = max(uni.values())
    margin = min(scores.values()) - best_uni
    combined_gap = scores["mutual_pairwise"] - max(scores["mutual"], scores["pairwise"])
    ok = margin >= 0.05 and combined_gap >= -0.01
    detail = (f"uni {dict((k, round(v, 3)) for k, v in uni.items())}, "
              f"fusion {dict((k, round(v, 3)) for k, v in scores.items())}, "
              f"min margin {margin * 100:.1f} pts, combined-vs-best {combined_gap * 100:.1f} pts")
    report(4, "fusion-ablation-analog", ok, detail)


def test_criterion_5_observation_length_analog(tmp_path, monkeypatch):
    run_studies(OBSLEN_STUDY, tmp_path, monkeypatch)
    accs = {int(row["snippets"]): float(row["val_top1_action"])
            for row in read_csv(tmp_path / "results/obslen/obslen.csv")}
    values = [accs[n] for n in (3, 7, 13, 21)]
    non_decreasing = all(a <= b for a, b in zip(values, values[1:]))
    gap = accs[21] - accs[3]
    ok = non_decreasing and gap >= 0.10
    detail = (f"top-1 by window {dict((k, round(v, 3)) for k, v in accs.items())}, "
              f"21-vs-3 gap {gap * 100:.1f} pts")
    report(5, "observation-length-analog", ok, detail)


def test_criterion_6_speed_analog(tmp_path, monkeypatch):
    run_studies(SPEED_STUDY, tmp_path, monkeypatch)
    tcn, rnn = read_csv(tmp_path / "results/bench/bench.csv")
    assert (tcn["model"], rnn["model"]) == ("tcn_branch", "lstm_baseline")
    tcn_macs, rnn_macs = int(tcn["mac_count"]), int(rnn["mac_count"])
    counts_ok = tcn_macs == 160_432_128 and rnn_macs == 243_269_632
    # baseline time / branch time, as BenchReport computes its speedups
    inference_speedup = float(rnn["inference_mom_s"]) / float(tcn["inference_mom_s"])
    train_speedup = float(rnn["train_step_mom_s"]) / float(tcn["train_step_mom_s"])

    # instrumented-counter oracle: loop-counted MACs match analytically,
    # verified exactly over 10 random configurations at tractable sizes
    rng = Rng(0)
    oracle_ok = True
    for _ in range(10):
        d_in = 1 + int(rng.uniform(0, 4, ()))
        c = 1 + int(rng.uniform(0, 4, ()))
        k = 1 if rng.uniform(0, 1, ()) < 0.5 else 3
        layers = 1 + int(rng.uniform(0, 3, ()))
        dilations = tuple(1 + int(rng.uniform(0, 3, ())) for _ in range(layers))
        cfg = BranchConfig(input_dim=d_in, num_actions=2, num_verbs=2, num_nouns=2,
                           channels=c, kernel=k, dilations=dilations)
        n = cfg.required_length + int(rng.uniform(0, 4, ()))
        oracle_ok &= branch_macs(cfg, n) == branch_mac_loops(d_in, c, k, dilations, n)

    ok = (counts_ok and oracle_ok and tcn_macs < rnn_macs
          and inference_speedup > 1.2 and train_speedup > 1.2)
    detail = (f"MACs {tcn_macs} vs {rnn_macs}, loop-counter oracle "
              f"{'exact' if oracle_ok else 'MISMATCH'}, wall-clock speedup "
              f"inference {inference_speedup:.2f}x / train {train_speedup:.2f}x")
    report(6, "speed-analog", ok, detail)


def test_criterion_7_metrics_against_brute_force():
    rng = Rng(99)
    exact = True
    for i in range(100):
        n = 1 + int(rng.uniform(0, 12, ()))
        classes = 2 + int(rng.uniform(0, 10, ()))
        logits = rng.normal(0, 1, (n, classes), "f64")
        if i % 4 == 0 and classes >= 2:
            logits[:, 1] = logits[:, 0]  # exercise tie-breaking
        labels = (rng.uniform(0, 1, (n,), "f64") * classes).astype(np.int64)
        k = 1 + int(rng.uniform(0, 5, ()))
        exact &= top_k_accuracy(logits, labels, k) == top_k_accuracy_loops(logits, labels, k)
        exact &= class_mean_top5_recall(logits, labels) == \
            class_mean_top5_recall_loops(logits, labels)

    # crafted case: per-class recalls (1.0, 0.5, 0.0) -> class-mean 0.5
    crafted = np.tile(-np.arange(8, dtype=np.float64), (5, 1))
    labels = np.array([0, 0, 1, 1, 2])
    for row, (label, hit) in enumerate(zip(labels, [True, True, True, False, False])):
        crafted[row, label] = 10.0 if hit else -100.0
    crafted_value = class_mean_top5_recall(crafted, labels)
    ok = exact and crafted_value == pytest.approx(0.5)
    report(7, "metrics-oracle", ok,
           f"100 random sets exact={exact}, crafted class-mean {crafted_value:.3f}")


def test_criterion_8_determinism_and_persistence(tmp_path):
    spec = learnable_spec(train_per_class=12, val_per_class=6)
    train, val = generate_synthetic(spec, 5)
    cfg = desk_branch_config(channels=16)
    sgd = SgdConfig(lr0=0.02, epochs=2, batch_size=16, seed=3)
    curves = []
    branch = None
    for _ in range(2):
        branch, result = train_branch(train, val, "rgb", cfg, sgd)
        curves.append([r.train_loss for r in result.history])
    loss_bitwise = curves[0] == curves[1]

    path = tmp_path / "branch.ckpt"
    save_checkpoint(path, branch_checkpoint_tensors(branch, "rgb", sgd.epochs - 1))
    save_checkpoint(tmp_path / "again.ckpt", load_checkpoint(path))
    roundtrip = path.read_bytes() == (tmp_path / "again.ckpt").read_bytes()

    sgd_all = SgdConfig(lr0=0.02, epochs=1, batch_size=16, seed=3)
    branches = {}
    for mod in MODALITIES:
        branches[mod], _ = train_branch(train, val, mod, cfg, sgd_all)
    before = {m: parameter_hash(branches[m].named_state()) for m in MODALITIES}
    fcfg = FusionConfig(channels=16, num_actions=12, num_verbs=6, num_nouns=8,
                        strategy="mutual_pairwise", embed_dim=16, head_dropout=0.1)
    train_fusion(branches, train, val, fcfg,
                 SgdConfig(lr0=0.02, epochs=2, batch_size=16, seed=4))
    frozen = before == {m: parameter_hash(branches[m].named_state()) for m in MODALITIES}

    ok = loss_bitwise and roundtrip and frozen
    report(8, "determinism-persistence", ok,
           f"loss curves bitwise={loss_bitwise}, checkpoint bytes={roundtrip}, "
           f"branch hashes frozen={frozen}")


def test_criterion_9_file_format(tmp_path):
    rng = Rng(17)
    lossless = True
    for i in range(1000):
        n = 1 + int(rng.uniform(0, 8, ()))
        d = 1 + int(rng.uniform(0, 6, ()))
        mod = ("rgb", "flow", "obj")[i % 3]
        arr = rng.normal(0, 1, (n, d), "f32")
        path = tmp_path / f"s{i:04d}.fseq"
        write_feature_file(path, mod, arr)
        got_mod, got = read_feature_file(path)
        lossless &= got_mod == mod and arr.tobytes() == got.tobytes()

    sample = tmp_path / "victim.fseq"
    write_feature_file(sample, "rgb", rng.normal(0, 1, (6, 5), "f32"))
    raw = bytearray(sample.read_bytes())
    raw[25] ^= 0x40
    (tmp_path / "corrupt.fseq").write_bytes(bytes(raw))
    with pytest.raises(DatasetError, match="CRC32"):
        read_feature_file(tmp_path / "corrupt.fseq")
    (tmp_path / "short.fseq").write_bytes(sample.read_bytes()[:-9])
    with pytest.raises(DatasetError, match="truncated"):
        read_feature_file(tmp_path / "short.fseq")
    report(9, "file-format", lossless,
           "1000 random samples lossless, corruption and truncation rejected by name")
