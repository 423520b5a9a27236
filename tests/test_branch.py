import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcn_anticipation.branch import (Branch, BranchConfig, multitask_loss,
                                     required_input_length)
from tcn_anticipation.gradcheck import check_branch
from tcn_anticipation.layers import SoftmaxCrossEntropy
from tcn_anticipation.tensor import Rng, TensorError


def small_config(**overrides):
    base = dict(input_dim=4, num_actions=4, num_verbs=2, num_nouns=2, channels=8,
                kernel=3, dilations=(1, 2), input_dropout=0.0, block_dropout=0.0,
                head_dropout=0.0, dtype="f64")
    base.update(overrides)
    return BranchConfig(**base)


class TestRequiredInputLength:
    def test_default_schedule_needs_21(self):
        assert required_input_length(3, [1, 2, 3, 4]) == 21

    def test_pointwise_never_shrinks(self):
        assert required_input_length(1, [1, 2, 3]) == 1

    def test_single_block(self):
        assert required_input_length(3, [1]) == 3

    def test_invalid(self):
        with pytest.raises(TensorError):
            required_input_length(3, [])
        with pytest.raises(TensorError):
            required_input_length(3, [0, 1])

    @settings(max_examples=30, deadline=None)
    @given(k=st.sampled_from([1, 3, 5]), dils=st.lists(st.integers(1, 8), min_size=1, max_size=6))
    def test_formula(self, k, dils):
        assert required_input_length(k, dils) == 1 + (k - 1) * sum(dils)


class TestLengthLedger:
    def test_default_config_ledger(self):
        cfg = BranchConfig(input_dim=8, num_actions=3, num_verbs=2, num_nouns=2,
                           channels=16)
        assert cfg.required_length == 21
        assert cfg.block_lengths(21) == [19, 15, 9, 1]

    def test_two_block_ledger(self):
        assert small_config().block_lengths(7) == [5, 1]

    def test_forward_lengths_match_ledger(self):
        rng = Rng(0)
        cfg = small_config()
        branch = Branch(cfg, rng)
        x = rng.normal(0, 1, (2, 4, 7), "f64")
        z = branch.embed.forward(x)
        for blk, want in zip(branch.blocks, cfg.block_lengths(7)):
            z = blk.forward(z, None)
            assert z.shape[2] == want


class TestForward:
    def test_zero_weight_blocks_reduce_to_relu_chain(self):
        # conv weights/biases zeroed, fresh BN (mean 0, var 1), eval mode:
        # each block adds zero, so the network is a ReLU chain over the
        # truncated embedded input.
        rng = Rng(1)
        cfg = small_config(input_dropout=0.0)
        branch = Branch(cfg, rng).eval()
        for blk in branch.blocks:
            blk.conv.weight.data[...] = 0
            blk.conv.bias.data[...] = 0
        x = rng.normal(0, 1, (3, 4, 7), "f64")
        out = branch.forward(x)
        bn_scale = 1.0 / np.sqrt(1.0 + 1e-5)
        embedded = branch.embed.forward(x)
        want = np.maximum(np.maximum(bn_scale * 0 + embedded[:, :, -1], 0), 0)
        assert np.allclose(out.feature, np.maximum(embedded[:, :, -1], 0))

    def test_sequence_too_short(self):
        rng = Rng(0)
        branch = Branch(small_config(), rng)
        with pytest.raises(TensorError):
            branch.forward(rng.normal(0, 1, (1, 4, 6), "f64"))

    def test_longer_window_takes_most_recent(self):
        # with valid convs, the final timestep depends only on the last R
        # inputs, so feeding extra history cannot change the feature vector
        rng = Rng(2)
        branch = Branch(small_config(), rng).eval()
        x = rng.normal(0, 1, (2, 4, 11), "f64")
        out_full = branch.forward(x)
        out_tail = branch.forward(np.ascontiguousarray(x[:, :, -7:]))
        assert out_full.feature.shape == (2, 8)
        assert np.allclose(out_full.feature, out_tail.feature, rtol=0, atol=1e-12)

    def test_train_mode_needs_rng(self):
        rng = Rng(0)
        branch = Branch(small_config(input_dropout=0.3), rng).train()
        with pytest.raises(TensorError):
            branch.forward(rng.normal(0, 1, (1, 4, 7), "f64"))

    def test_receptive_field_completeness(self):
        # every one of the 21 input steps influences F; none are ignored
        rng = Rng(3)
        cfg = BranchConfig(input_dim=3, num_actions=3, num_verbs=2, num_nouns=2,
                           channels=8, dilations=(1, 2, 3, 4), input_dropout=0.0,
                           block_dropout=0.0, head_dropout=0.0, dtype="f64")
        branch = Branch(cfg, rng).eval()
        x = rng.normal(0, 1, (1, 3, 21), "f64")
        base = branch.forward(x).feature
        for t in range(21):
            bumped = x.copy()
            bumped[0, :, t] += 0.5
            assert not np.allclose(branch.forward(bumped).feature, base), f"step {t} ignored"


class TestSnippetAdaptation:
    def test_prefix_rule(self):
        cfg = BranchConfig(input_dim=4, num_actions=3, num_verbs=2, num_nouns=2, channels=8)
        assert cfg.for_snippets(3).dilations == (1,)
        assert cfg.for_snippets(7).dilations == (1, 2)
        assert cfg.for_snippets(13).dilations == (1, 2, 3)
        assert cfg.for_snippets(21).dilations == (1, 2, 3, 4)
        assert cfg.for_snippets(31).dilations == (1, 2, 3, 4)

    def test_window_below_one_block(self):
        cfg = BranchConfig(input_dim=4, num_actions=3, num_verbs=2, num_nouns=2, channels=8)
        with pytest.raises(TensorError):
            cfg.for_snippets(2)


class TestLoss:
    def setup_method(self):
        rng = Rng(5)
        self.branch = Branch(small_config(), rng).eval()
        self.x = rng.normal(0, 1, (2, 4, 7), "f64")

    def test_uniform_action_head_gives_ln4(self):
        out = self.branch.forward(self.x)
        out.action[...] = 0.0
        loss = SoftmaxCrossEntropy().forward(out.action, np.array([0, 1]))
        assert abs(loss - np.log(4)) < 1e-12

    def test_all_heads_uniform(self):
        out = self.branch.forward(self.x)
        out.action[...] = 0.0
        out.verb[...] = 0.0
        out.noun[...] = 0.0
        labels = {"action": np.array([0, 1]), "verb": np.array([0, 1]), "noun": np.array([0, 1])}
        loss, _ = multitask_loss(out, labels)
        assert abs(loss - (np.log(4) + np.log(2) + np.log(2))) < 1e-12

    def test_saturated_correct_logits(self):
        out = self.branch.forward(self.x)
        labels = {"action": np.array([0, 1]), "verb": np.array([0, 1]), "noun": np.array([0, 1])}
        for head in ("action", "verb", "noun"):
            logits = out[head]
            logits[...] = -200.0
            logits[np.arange(2), labels[head]] = 200.0
        loss, _ = multitask_loss(out, labels)
        assert loss < 1e-12

    def test_label_out_of_range(self):
        out = self.branch.forward(self.x)
        labels = {"action": np.array([0, 9]), "verb": np.array([0, 1]), "noun": np.array([0, 1])}
        with pytest.raises(TensorError):
            multitask_loss(out, labels)


class TestEndToEndGradcheck:
    def test_branch_gradients_match_finite_differences(self):
        assert check_branch(Rng(0), 3) < 1e-4
