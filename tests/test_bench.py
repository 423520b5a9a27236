import numpy as np
import pytest

from tcn_anticipation.baseline import LstmConfig, LstmEncoderDecoder
from tcn_anticipation.bench import BenchReport, bench_models, branch_macs, lstm_macs
from tcn_anticipation.branch import Branch, BranchConfig
from tcn_anticipation.tensor import Rng, TensorError

from oracles import branch_mac_loops, lstm_cell_mac_count


class TestAnalyticCounts:
    def test_full_width_branch_count(self):
        cfg = BranchConfig(input_dim=1024, num_actions=10, num_verbs=5, num_nouns=5,
                           channels=1024)
        assert branch_macs(cfg, 21) == 160_432_128
        # embedding conv alone
        assert 1024 * 1024 * 21 == 22_020_096
        # residual blocks over the shrinking ledger
        assert 3 * 1024 * 1024 * (19 + 15 + 9 + 1) == 138_412_032

    def test_full_width_lstm_count(self):
        cfg = LstmConfig(input_dim=1024, hidden=1024, num_actions=10, encoder_steps=21)
        assert lstm_macs(cfg) == 243_269_632
        assert 21 * 4 * (1024 * 1024 + 1024 * 1024) == 176_160_768

    def test_single_mac_case(self):
        from tcn_anticipation.bench import conv_macs
        # one K=1 conv layer with a single channel over a single step
        assert conv_macs(1, 1, 1, 1) == 1
        cfg = BranchConfig(input_dim=1, num_actions=2, num_verbs=2, num_nouns=2,
                           channels=1, kernel=1, dilations=(1,))
        # embed K=1 over 1 step + one pointwise block over 1 step
        assert branch_macs(cfg, 1) == 2

    def test_branch_beats_lstm_at_reference_width(self):
        bcfg = BranchConfig(input_dim=1024, num_actions=10, num_verbs=5, num_nouns=5,
                            channels=1024)
        lcfg = LstmConfig(1024, 1024, 10, encoder_steps=21)
        assert branch_macs(bcfg, 21) < lstm_macs(lcfg)

    def test_below_receptive_field_rejected(self):
        cfg = BranchConfig(input_dim=4, num_actions=2, num_verbs=2, num_nouns=2,
                           channels=4)
        with pytest.raises(TensorError):
            branch_macs(cfg, 5)


class TestInstrumentedCounterOracle:
    def test_branch_counts_match_loop_instrumentation(self):
        rng = Rng(0)
        for _ in range(10):
            d_in = 1 + int(rng.uniform(0, 4, ()))
            c = 1 + int(rng.uniform(0, 4, ()))
            k = int(rng.uniform(0, 1, ()) * 2) * 2 + 1  # 1 or 3
            n_layers = 1 + int(rng.uniform(0, 3, ()))
            dilations = tuple(1 + int(rng.uniform(0, 3, ())) for _ in range(n_layers))
            cfg = BranchConfig(input_dim=d_in, num_actions=2, num_verbs=2, num_nouns=2,
                               channels=c, kernel=k, dilations=dilations)
            n = cfg.required_length + int(rng.uniform(0, 4, ()))
            assert branch_macs(cfg, n) == branch_mac_loops(d_in, c, k, dilations, n)

    def test_lstm_step_count_matches_loop_instrumentation(self):
        for d, h in ((3, 4), (5, 5), (2, 7)):
            assert lstm_cell_mac_count(d, h) == 4 * (h * d + h * h)

    def test_macs_are_batch_invariant(self):
        cfg = BranchConfig(input_dim=4, num_actions=2, num_verbs=2, num_nouns=2,
                           channels=4, dilations=(1, 2))
        assert branch_macs(cfg) == branch_macs(cfg)  # per-sample by definition


class TestBenchRun:
    def make_models(self, channels=8, snippets=7):
        rng = Rng(0)
        bcfg = BranchConfig(input_dim=channels, num_actions=5, num_verbs=3, num_nouns=3,
                            channels=channels, dilations=(1, 2), input_dropout=0.0,
                            block_dropout=0.0, head_dropout=0.0)
        branch = Branch(bcfg, rng)
        lcfg = LstmConfig(channels, channels, 5, encoder_steps=snippets)
        return branch, LstmEncoderDecoder(lcfg, rng)

    def test_report_structure(self):
        branch, baseline = self.make_models()
        report = bench_models(branch, baseline, batch=2)
        assert isinstance(report, BenchReport)
        assert report.summary().startswith("batch=2 reps=30 warmup=5\n")
        names = [m.name for m in report.models]
        assert names == ["tcn_branch", "lstm_baseline"]
        for m in report.models:
            assert m.inference_mean > 0 and m.train_step_mean > 0
            assert m.inference_std >= 0
        csv = report.csv()
        assert csv.splitlines()[0].startswith("model,mac_count")
        assert len(csv.splitlines()) == 3
        assert "speedup" in report.summary()

    def test_batch_below_one_rejected(self):
        branch, baseline = self.make_models()
        for batch in (0, -2):
            with pytest.raises(TensorError, match=f"got {batch}"):
                bench_models(branch, baseline, batch=batch)

    def test_self_comparison_ratio_near_one(self):
        # time the same workload twice; the ratio is 1 up to timing noise
        from tcn_anticipation.bench import _median_of_means, _time_reps
        branch, _ = self.make_models()
        branch.eval()
        x = Rng(1).normal(0, 1, (2, 8, 7))
        a = _median_of_means(_time_reps(lambda: branch.forward(x)))
        b = _median_of_means(_time_reps(lambda: branch.forward(x)))
        assert 0.5 < a / b < 2.0

    def test_mismatched_windows_rejected(self):
        branch, _ = self.make_models(snippets=7)
        rng = Rng(2)
        wrong = LstmEncoderDecoder(LstmConfig(8, 8, 5, encoder_steps=9), rng)
        with pytest.raises(TensorError):
            bench_models(branch, wrong, batch=1)
