import numpy as np
import pytest

from tcn_anticipation.branch import Branch, BranchConfig
from tcn_anticipation.checkpoint import parameter_hash
from tcn_anticipation.data import Sample
from tcn_anticipation.fusion import FusionConfig, MODALITIES, STRATEGIES
from tcn_anticipation.layers import Parameter
from tcn_anticipation.tensor import NonFiniteError, Rng, TensorError
from tcn_anticipation.training import (SgdConfig, SgdOptimizer, lr_at_epoch,
                                       train_branch, train_fusion)


class TestLrSchedule:
    def test_epoch_zero_is_lr0(self):
        assert lr_at_epoch(0.005, 0, 80) == 0.005

    def test_midpoint_value(self):
        want = 0.005 * 0.5 ** 0.99  # direct evaluation
        got = lr_at_epoch(0.005, 40, 80)
        assert got == want
        assert abs(got - 2.517e-3) < 2.517e-3 * 0.01

    def test_last_epoch_value(self):
        want = 0.0005 * (1 - 79 / 80) ** 0.99  # direct evaluation of the formula
        got = lr_at_epoch(0.0005, 79, 80)
        assert got == want
        assert abs(got - 6.51e-6) < 6.51e-6 * 0.01

    def test_strictly_decreasing(self):
        lrs = [lr_at_epoch(0.01, e, 50) for e in range(50)]
        assert all(a > b for a, b in zip(lrs, lrs[1:]))

    def test_epoch_out_of_range(self):
        with pytest.raises(TensorError):
            lr_at_epoch(0.01, 80, 80)


def params_of(arrays, decay=True):
    return [(f"p{i}", Parameter(a, decay=decay)) for i, a in enumerate(arrays)]


class TestSgdStep:
    def test_plain_sgd_without_momentum(self):
        named = params_of([np.array([1.0, 2.0])])
        opt = SgdOptimizer(named, momentum=0.0, weight_decay=0.0)
        named[0][1].grad[...] = np.array([0.5, -0.5])
        opt.step(0.1)
        assert np.allclose(named[0][1].data, [0.95, 2.05])

    def test_zero_grads_decaying_velocity(self):
        named = params_of([np.array([1.0])])
        opt = SgdOptimizer(named, momentum=0.9, weight_decay=0.0)
        named[0][1].grad[...] = 1.0
        opt.step(0.0)  # builds velocity 1 without moving params (lr 0)
        v0 = opt._velocity[0].copy()
        for _ in range(3):
            named[0][1].grad[...] = 0.0
            opt.step(0.0)
        assert np.allclose(opt._velocity[0], v0 * 0.9 ** 3)

    def test_two_steps_constant_gradient(self):
        # hand-unrolled: v1 = g, v2 = 1.9 g, total update = lr*g*(1 + 1.9)
        named = params_of([np.array([0.0])])
        opt = SgdOptimizer(named, momentum=0.9, weight_decay=0.0)
        for _ in range(2):
            named[0][1].grad[...] = 2.0
            opt.step(0.1)
        assert np.allclose(named[0][1].data, -0.1 * 2.0 * (1 + 1.9))

    def test_weight_decay_shrinks_params_monotonically(self):
        named = params_of([np.array([5.0])])
        opt = SgdOptimizer(named, momentum=0.0, weight_decay=0.1)
        norms = [abs(named[0][1].data[0])]
        for _ in range(5):
            named[0][1].grad[...] = 0.0
            opt.step(0.1)
            norms.append(abs(named[0][1].data[0]))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_decay_excluded_for_flagged_params(self):
        named = params_of([np.array([5.0])], decay=False)
        opt = SgdOptimizer(named, momentum=0.0, weight_decay=0.1)
        named[0][1].grad[...] = 0.0
        opt.step(0.1)
        assert named[0][1].data[0] == 5.0

    def test_non_finite_gradient_aborts_before_moving(self):
        named = params_of([np.array([1.0]), np.array([2.0])])
        opt = SgdOptimizer(named, momentum=0.0, weight_decay=0.0)
        named[0][1].grad[...] = 1.0
        named[1][1].grad[...] = np.nan
        with pytest.raises(NonFiniteError, match="p1"):
            opt.step(0.1)
        assert named[0][1].data[0] == 1.0  # nothing moved

    def test_config_validation(self):
        with pytest.raises(TensorError):
            SgdConfig(lr0=0.0)
        with pytest.raises(TensorError):
            SgdConfig(lr0=0.1, momentum=1.0)
        # NaN and inf pass a bare sign check, and train to NaN weights
        for field, value in [("lr0", float("nan")), ("lr0", float("inf")),
                             ("weight_decay", -3.0), ("weight_decay", float("nan")),
                             ("weight_decay", float("inf")), ("power", -1.0),
                             ("power", float("nan")), ("power", float("inf")),
                             ("momentum", float("nan"))]:
            with pytest.raises(TensorError, match=field):
                SgdConfig(**{"lr0": 0.1, field: value})
        SgdConfig(lr0=0.1, weight_decay=0.0, power=0.0)  # zero is a valid decay and power


def tiny_dataset(rng, n_per_class=6, num_actions=2, dim=4, snippets=7):
    samples = []
    for action in range(num_actions):
        proto = rng.normal(0, 1, (snippets, dim), "f64")
        for i in range(n_per_class):
            feats = {mod: (proto + rng.normal(0, 0.3, (snippets, dim), "f64")
                           ).astype(np.float32)
                     for mod in MODALITIES}
            samples.append(Sample(f"s{action}-{i}", feats, action, action % 2, action % 2))
    return samples


def tiny_branch_config(**overrides):
    base = dict(input_dim=4, num_actions=2, num_verbs=2, num_nouns=2, channels=6,
                kernel=3, dilations=(1, 2), input_dropout=0.1, block_dropout=0.1,
                head_dropout=0.1)
    base.update(overrides)
    return BranchConfig(**base)


class TestTrainBranch:
    def test_loss_decreases_on_toy_problem(self):
        rng = Rng(0)
        data = tiny_dataset(rng)
        sgd = SgdConfig(lr0=0.01, epochs=3, batch_size=4, seed=1)
        _, result = train_branch(data, data, "rgb", tiny_branch_config(), sgd)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_fixed_seed_bitwise_identical_loss_curves(self):
        rng = Rng(3)
        data = tiny_dataset(rng)
        sgd = SgdConfig(lr0=0.01, epochs=2, batch_size=4, seed=9)
        _, r1 = train_branch(data, data, "rgb", tiny_branch_config(), sgd)
        _, r2 = train_branch(data, data, "rgb", tiny_branch_config(), sgd)
        assert [r.train_loss for r in r1.history] == [r.train_loss for r in r2.history]
        assert [r.val_top1_action for r in r1.history] == [r.val_top1_action for r in r2.history]

    def test_empty_dataset_rejected(self):
        with pytest.raises(TensorError):
            train_branch([], [], "rgb", tiny_branch_config(), SgdConfig(lr0=0.1, epochs=1))

    def test_wrong_feature_dim_rejected(self):
        rng = Rng(0)
        data = tiny_dataset(rng)
        cfg = tiny_branch_config(input_dim=9)
        with pytest.raises(TensorError):
            train_branch(data, data, "rgb", cfg, SgdConfig(lr0=0.1, epochs=1))

    def test_a_val_split_of_another_width_is_rejected_before_any_step(self, monkeypatch):
        """Val is first forwarded after a whole epoch, so its width is checked up front."""
        rng = Rng(2)
        train, val = tiny_dataset(rng, dim=32), tiny_dataset(rng, dim=40)
        monkeypatch.setattr(SgdOptimizer, "step", lambda *args: pytest.fail("an SGD step ran"))
        with pytest.raises(TensorError, match=r"branch expected \(B, 32, N\), got \(12, 40, 7\)"):
            train_branch(train, val, "rgb", tiny_branch_config(input_dim=32),
                         SgdConfig(lr0=0.01, epochs=2, batch_size=4))

    def test_log_records_have_expected_fields(self):
        rng = Rng(1)
        data = tiny_dataset(rng)
        lines = []
        sgd = SgdConfig(lr0=0.01, epochs=1, batch_size=4, seed=0)
        train_branch(data, data, "rgb", tiny_branch_config(), sgd, log=lines.append)
        assert len(lines) == 1
        for key in ("epoch=", "lr=", "train_loss=", "val_top1_action=",
                    "val_top5_action=", "wall_seconds="):
            assert key in lines[0]


class TestTrainFusion:
    def make_branches(self, data, sgd):
        branches = {}
        for mod in MODALITIES:
            branch, _ = train_branch(data, data, mod, tiny_branch_config(), sgd)
            branches[mod] = branch
        return branches

    @pytest.mark.parametrize("strategy", ["late", "attention", "mutual", "pairwise",
                                          "mutual_pairwise"])
    def test_branch_hash_unchanged_by_fusion_training(self, strategy):
        rng = Rng(5)
        data = tiny_dataset(rng)
        sgd = SgdConfig(lr0=0.01, epochs=1, batch_size=4, seed=2)
        branches = self.make_branches(data, sgd)
        before = {mod: parameter_hash(branches[mod].named_state()) for mod in MODALITIES}
        fcfg = FusionConfig(channels=6, num_actions=2, num_verbs=2, num_nouns=2,
                            strategy=strategy, embed_dim=5, head_dropout=0.1)
        train_fusion(branches, data, data, fcfg,
                     SgdConfig(lr0=0.01, epochs=2, batch_size=4, seed=3))
        after = {mod: parameter_hash(branches[mod].named_state()) for mod in MODALITIES}
        assert before == after

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_each_branch_forwarded_once_per_split(self, strategy, branch_forwards):
        rng = Rng(5)
        data = tiny_dataset(rng)
        branches = self.make_branches(data, SgdConfig(lr0=0.01, epochs=1, batch_size=4, seed=2))
        branch_forwards.clear()
        fcfg = FusionConfig(channels=6, num_actions=2, num_verbs=2, num_nouns=2,
                            strategy=strategy, embed_dim=5, head_dropout=0.1)
        train_fusion(branches, data, data[:4], fcfg,
                     SgdConfig(lr0=0.01, epochs=2, batch_size=4, seed=3))
        assert branch_forwards == {id(branches[mod]): 2 for mod in MODALITIES}

    def test_fusion_deterministic(self):
        rng = Rng(6)
        data = tiny_dataset(rng)
        sgd = SgdConfig(lr0=0.01, epochs=1, batch_size=4, seed=2)
        branches = self.make_branches(data, sgd)
        fcfg = FusionConfig(channels=6, num_actions=2, num_verbs=2, num_nouns=2,
                            strategy="mutual_pairwise", embed_dim=5, head_dropout=0.1)
        fsgd = SgdConfig(lr0=0.01, epochs=2, batch_size=4, seed=8)
        _, r1 = train_fusion(branches, data, data, fcfg, fsgd)
        _, r2 = train_fusion(branches, data, data, fcfg, fsgd)
        assert [r.train_loss for r in r1.history] == [r.train_loss for r in r2.history]
