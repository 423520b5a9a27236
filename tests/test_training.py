import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tcn_anticipation import training
from tcn_anticipation.branch import Branch, BranchConfig
from tcn_anticipation.checkpoint import parameter_hash
from tcn_anticipation.data import Split, read_dataset, write_dataset
from tcn_anticipation.fusion import FusionConfig, FusionModel, MODALITIES, STRATEGIES
from tcn_anticipation.layers import Conv1d, Parameter
from tcn_anticipation.tensor import BLOCK, NonFiniteError, Rng, TensorError
from tcn_anticipation.training import (SgdConfig, SgdOptimizer, lr_at_epoch, stack_modalities,
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
    """The step at the paper's momentum 0.9 and weight decay 5e-4; a decay=False
    parameter isolates the momentum."""

    def test_zero_grads_decaying_velocity(self):
        named = params_of([np.array([1.0])], decay=False)
        opt = SgdOptimizer(named)
        named[0][1].grad[...] = 1.0
        opt.step(0.0)  # builds velocity 1 without moving params (lr 0)
        v0 = opt._velocity[0].copy()
        for _ in range(3):
            named[0][1].grad[...] = 0.0
            opt.step(0.0)
        assert np.allclose(opt._velocity[0], v0 * 0.9 ** 3)

    def test_two_steps_constant_gradient(self):
        # hand-unrolled: v1 = g, v2 = 1.9 g, total update = lr*g*(1 + 1.9)
        named = params_of([np.array([0.0])], decay=False)
        opt = SgdOptimizer(named)
        for _ in range(2):
            named[0][1].grad[...] = 2.0
            opt.step(0.1)
        assert np.allclose(named[0][1].data, -0.1 * 2.0 * (1 + 1.9))

    def test_weight_decay_shrinks_params_monotonically(self):
        named = params_of([np.array([5.0])])
        opt = SgdOptimizer(named)
        norms = [abs(named[0][1].data[0])]
        for _ in range(5):
            named[0][1].grad[...] = 0.0
            opt.step(0.1)
            norms.append(abs(named[0][1].data[0]))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_decay_excluded_for_flagged_params(self):
        named = params_of([np.array([5.0])], decay=False)
        opt = SgdOptimizer(named)
        named[0][1].grad[...] = 0.0
        opt.step(0.1)
        assert named[0][1].data[0] == 5.0

    def test_non_finite_gradient_aborts_before_moving(self):
        named = params_of([np.array([1.0]), np.array([2.0])])
        opt = SgdOptimizer(named)
        named[0][1].grad[...] = 1.0
        named[1][1].grad[...] = np.nan
        with pytest.raises(NonFiniteError, match="p1"):
            opt.step(0.1)
        assert named[0][1].data[0] == 1.0  # nothing moved

    def test_a_non_contiguous_parameter_is_refused_before_moving(self):
        named = params_of([np.array([1.0]), np.ones((3, 2)).T])
        opt = SgdOptimizer(named)
        named[0][1].grad[...] = 1.0
        with pytest.raises(TensorError, match="p1"):
            opt.step(0.1)
        assert named[0][1].data[0] == 1.0

    def test_config_validation(self):
        # NaN and inf pass a bare sign check, and train to NaN weights
        for lr0 in (0.0, float("nan"), float("inf")):
            with pytest.raises(TensorError, match="lr0"):
                SgdConfig(lr0=lr0)


def tiny_split(rng, n_per_class=6, num_actions=2, dim=4, snippets=7):
    """``n_per_class`` windows per action, in action order; each modality's rows are the
    action's prototype plus noise, drawn window by window."""
    features = {mod: np.empty((num_actions * n_per_class, snippets, dim), np.float32)
                for mod in MODALITIES}
    for action in range(num_actions):
        proto = rng.normal(0, 1, (snippets, dim), "f64")
        for i in range(n_per_class):
            for mod in MODALITIES:
                features[mod][action * n_per_class + i] = \
                    proto + rng.normal(0, 0.3, (snippets, dim), "f64")
    actions = np.repeat(np.arange(num_actions), n_per_class)
    return Split("tiny", [f"s{a}-{i}" for a in range(num_actions) for i in range(n_per_class)],
                 {"action": actions, "verb": actions % 2, "noun": actions % 2}, features)


def tiny_branch_config(**overrides):
    base = dict(input_dim=4, num_actions=2, num_verbs=2, num_nouns=2, channels=6,
                kernel=3, dilations=(1, 2), input_dropout=0.1, block_dropout=0.1,
                head_dropout=0.1)
    base.update(overrides)
    return BranchConfig(**base)


def whole_array_steps(data, grads, lr, momentum, weight_decay):
    """The step's formula on whole arrays: v <- m*v + (g + wd*p); p <- p - lr*v."""
    dt = data.dtype.type
    data, v = data.copy(), np.zeros_like(data)
    for g in grads:
        if weight_decay:
            g = g + dt(weight_decay) * data
        v *= dt(momentum)
        v += g
        data -= dt(lr) * v
    return data, v


class TestBlockedSgdStep:
    SIZE = 3 * BLOCK + 5

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("decay", [True, False], ids=["decayed", "decay_off"])
    def test_three_steps_equal_the_whole_array_formula(self, dtype, decay):
        rng = Rng(4)
        start = rng.normal(0, 1, (self.SIZE,), dtype)
        grads = [rng.normal(0, 1, (self.SIZE,), dtype) for _ in range(3)]
        named = params_of([start.copy()], decay=decay)
        opt = SgdOptimizer(named)
        for g in grads:
            named[0][1].grad[...] = g
            opt.step(0.0125)
        want, want_v = whole_array_steps(start, grads, 0.0125, 0.9, 5e-4 if decay else 0.0)
        assert named[0][1].data.tobytes() == want.tobytes()
        assert opt._velocity[0].tobytes() == want_v.tobytes()

    def test_decay_off_for_a_flagged_parameter_matches_the_formula_without_it(self):
        rng = Rng(6)
        start, g = (rng.normal(0, 1, (BLOCK + 2, 3), "f32") for _ in range(2))
        named = params_of([start.copy()], decay=False)
        opt = SgdOptimizer(named)
        named[0][1].grad[...] = g
        opt.step(0.5)
        want, _ = whole_array_steps(start, [g], 0.5, 0.9, 0.0)
        assert named[0][1].data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_the_velocity_starts_as_zeros_like_did(self, dtype):
        data = np.arange(12, dtype=dtype).reshape(3, 4)
        named = params_of([data.copy()])
        opt = SgdOptimizer(named)
        v = opt._velocity[0]
        want = np.zeros_like(data)
        assert v.dtype == want.dtype and v.shape == want.shape and v.tobytes() == want.tobytes()
        named[0][1].grad[...] = 1.0
        opt.step(0.1)
        _, want_v = whole_array_steps(data, [np.ones_like(data)], 0.1, 0.9, 5e-4)
        assert opt._velocity[0].tobytes() == want_v.tobytes()

    def test_a_step_allocates_nothing_the_size_of_its_parameter(self):
        named = params_of([np.ones(3 << 20, np.float32)])  # 12 MiB
        opt = SgdOptimizer(named)
        named[0][1].grad[...] = 0.25
        tracemalloc.start()
        try:
            opt.step(0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20, peak / (1 << 20)


class TestTrainBranch:
    def test_loss_decreases_on_toy_problem(self):
        rng = Rng(0)
        data = tiny_split(rng)
        sgd = SgdConfig(lr0=0.01, epochs=3, batch_size=4, seed=1)
        _, result = train_branch(data, data, "rgb", tiny_branch_config(), sgd)
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_fixed_seed_bitwise_identical_loss_curves(self):
        rng = Rng(3)
        data = tiny_split(rng)
        sgd = SgdConfig(lr0=0.01, epochs=2, batch_size=4, seed=9)
        _, r1 = train_branch(data, data, "rgb", tiny_branch_config(), sgd)
        _, r2 = train_branch(data, data, "rgb", tiny_branch_config(), sgd)
        assert [r.train_loss for r in r1.history] == [r.train_loss for r in r2.history]
        assert [r.val_top1_action for r in r1.history] == [r.val_top1_action for r in r2.history]

    def test_empty_dataset_rejected(self):
        empty = tiny_split(Rng(0), n_per_class=0)
        with pytest.raises(TensorError):
            train_branch(empty, empty, "rgb", tiny_branch_config(), SgdConfig(lr0=0.1, epochs=1))

    def test_wrong_feature_dim_rejected(self):
        rng = Rng(0)
        data = tiny_split(rng)
        cfg = tiny_branch_config(input_dim=9)
        with pytest.raises(TensorError):
            train_branch(data, data, "rgb", cfg, SgdConfig(lr0=0.1, epochs=1))

    def test_a_val_split_of_another_width_is_rejected_before_any_step(self, monkeypatch):
        """Val is first forwarded after a whole epoch, so its width is checked up front."""
        rng = Rng(2)
        train, val = tiny_split(rng, dim=32), tiny_split(rng, dim=40)
        monkeypatch.setattr(SgdOptimizer, "step", lambda *args: pytest.fail("an SGD step ran"))
        with pytest.raises(TensorError, match=r"branch expected \(B, 32, N\), got \(12, 40, 7\)"):
            train_branch(train, val, "rgb", tiny_branch_config(input_dim=32),
                         SgdConfig(lr0=0.01, epochs=2, batch_size=4))

    def test_log_records_have_expected_fields(self):
        rng = Rng(1)
        data = tiny_split(rng)
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
        data = tiny_split(rng)
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
        data = tiny_split(rng)
        branches = self.make_branches(data, SgdConfig(lr0=0.01, epochs=1, batch_size=4, seed=2))
        branch_forwards.clear()
        fcfg = FusionConfig(channels=6, num_actions=2, num_verbs=2, num_nouns=2,
                            strategy=strategy, embed_dim=5, head_dropout=0.1)
        train_fusion(branches, data, data[:4], fcfg,
                     SgdConfig(lr0=0.01, epochs=2, batch_size=4, seed=3))
        assert branch_forwards == {id(branches[mod]): 2 for mod in MODALITIES}

    def test_fusion_deterministic(self):
        rng = Rng(6)
        data = tiny_split(rng)
        sgd = SgdConfig(lr0=0.01, epochs=1, batch_size=4, seed=2)
        branches = self.make_branches(data, sgd)
        fcfg = FusionConfig(channels=6, num_actions=2, num_verbs=2, num_nouns=2,
                            strategy="mutual_pairwise", embed_dim=5, head_dropout=0.1)
        fsgd = SgdConfig(lr0=0.01, epochs=2, batch_size=4, seed=8)
        _, r1 = train_fusion(branches, data, data, fcfg, fsgd)
        _, r2 = train_fusion(branches, data, data, fcfg, fsgd)
        assert [r.train_loss for r in r1.history] == [r.train_loss for r in r2.history]


def last_snippets(split, n):
    """``split`` with only each window's last ``n`` snippets: views of its arrays."""
    return replace(split, features={mod: arr[:, -n:] for mod, arr in split.features.items()})


class TestWindowInvariance:
    """A frozen branch reads only the last ``required_length`` snippets of a window,
    so fusion training and prediction over longer windows give the bits of windows
    cut to that length: nothing needs to tell them the branches' window."""

    @pytest.fixture(scope="class")
    def trained(self):
        rng = Rng(9)
        train = tiny_split(rng, snippets=21)
        val = tiny_split(rng, n_per_class=3, snippets=21)
        bcfg = tiny_branch_config(dilations=(1, 2, 3, 4)).for_snippets(13)
        assert bcfg.required_length == 13
        sgd = SgdConfig(lr0=0.01, epochs=1, batch_size=4, seed=2)
        branches = {mod: train_branch(train, val, mod, bcfg, sgd, snippets=13)[0]
                    for mod in MODALITIES}
        return branches, train, val

    @staticmethod
    def fusion_config(strategy):
        return FusionConfig(channels=6, num_actions=2, num_verbs=2, num_nouns=2,
                            strategy=strategy, embed_dim=5, head_dropout=0.1)

    @pytest.mark.parametrize("strategy", ["mutual_pairwise", "attention", "late"])
    def test_whole_windows_train_and_predict_as_the_receptive_field(self, strategy, trained):
        branches, train, val = trained
        fcfg = self.fusion_config(strategy)
        fsgd = SgdConfig(lr0=0.01, epochs=3, batch_size=4, seed=8)
        model, full = train_fusion(branches, train, val, fcfg, fsgd)
        _, cut = train_fusion(branches, last_snippets(train, 13), last_snippets(val, 13),
                              fcfg, fsgd)

        def scores(result):  # every field but the wall clock
            return [(r.epoch, r.lr, r.train_loss, r.val_top1_action, r.val_top5_action)
                    for r in result.history]

        assert scores(full) == scores(cut) and full.best_epoch == cut.best_epoch
        assert full.best_state.keys() == cut.best_state.keys()
        for name, value in full.best_state.items():
            assert value.tobytes() == cut.best_state[name].tobytes(), name
        got = model.eval().predict_proba(stack_modalities(val)[0])
        want = model.predict_proba(stack_modalities(last_snippets(val, 13))[0])
        for head in got:
            assert got[head].tobytes() == want[head].tobytes(), head

    def test_a_window_shorter_than_the_receptive_field_is_an_error(self, trained):
        branches, train, val = trained
        short = last_snippets(val, 12)
        with pytest.raises(TensorError, match="shorter than the receptive field 13"):
            train_fusion(branches, last_snippets(train, 12), short,
                         self.fusion_config("mutual_pairwise"),
                         SgdConfig(lr0=0.01, epochs=1, batch_size=4, seed=8))
        model = FusionModel(branches, self.fusion_config("late"), Rng(0))
        with pytest.raises(TensorError, match="shorter than the receptive field 13"):
            model.eval().predict_proba(stack_modalities(short)[0])


def contiguous_copy(split):
    """``split`` with C-contiguous copies of its arrays."""
    return replace(split, labels={head: arr.copy() for head, arr in split.labels.items()},
                   features={mod: arr.copy() for mod, arr in split.features.items()})


class TestFileViewsAndContiguousCopies:
    """A split read from disk, whose batches are views of the file buffers, trains and
    predicts with the bits of a split that holds C-contiguous copies of the same windows."""

    def test_train_branch_and_predict_proba_bitwise(self, tmp_path):
        windows = tiny_split(Rng(10), n_per_class=20)  # 40 windows: two eval chunks
        split = read_dataset(write_dataset(windows, tmp_path))
        copies = contiguous_copy(split), contiguous_copy(split[::2])
        for part in copies:
            for mod, arr in part.features.items():
                assert arr.flags.c_contiguous and not np.shares_memory(arr, split.features[mod])
        sgd = SgdConfig(lr0=0.01, epochs=2, batch_size=8, seed=4)
        branches, results = {}, {}
        for name, train, val in (("split", split, split[::2]), ("copies", *copies)):
            branches[name], results[name] = train_branch(train, val, "rgb",
                                                         tiny_branch_config(), sgd)

        def scores(result):  # every field but the wall clock
            return [(r.epoch, r.lr, r.train_loss, r.val_top1_action, r.val_top5_action)
                    for r in result.history]

        got, want = results["split"], results["copies"]
        assert scores(got) == scores(want) and got.best_epoch == want.best_epoch
        assert got.best_state.keys() == want.best_state.keys()
        for name, value in got.best_state.items():
            assert value.tobytes() == want.best_state[name].tobytes(), name
        fcfg = FusionConfig(channels=6, num_actions=2, num_verbs=2, num_nouns=2,
                            strategy="mutual_pairwise", embed_dim=5, head_dropout=0.1)
        model = FusionModel({mod: branches["split"] for mod in MODALITIES}, fcfg, Rng(3))
        probs = [model.eval().predict_proba(stack_modalities(windows)[0])
                 for windows in (split, copies[0])]
        for head in probs[0]:
            assert probs[0][head].tobytes() == probs[1][head].tobytes(), head


class TestTrainBatchOrder:
    def test_each_batch_reaches_the_embedding_conv_gathered_in_c_order(self, tmp_path,
                                                                       monkeypatch):
        """From a split read from disk (views of the file buffers, in (W, N, D) memory),
        each training batch is gathered in one copy into the C-contiguous (B, D, N) array
        the embedding conv reads, with the bits of the old gather and second copy."""
        split = read_dataset(write_dataset(tiny_split(Rng(10), n_per_class=20), tmp_path))
        gathered, reached = [], []
        rows, forward = training._rows, Conv1d.forward

        def gathering(x, idx):
            out = rows(x, idx)
            if isinstance(x, np.ndarray) and x.ndim == 3:
                gathered.append((out, np.ascontiguousarray(x[idx])))
            return out

        def conv_forward(self, x, plan=None):
            if self.training and self.kernel_size == 1:
                reached.append(x)
            return forward(self, x, plan)

        monkeypatch.setattr(training, "_rows", gathering)
        monkeypatch.setattr(Conv1d, "forward", conv_forward)
        sgd = SgdConfig(lr0=0.01, epochs=2, batch_size=8, seed=4)
        train_branch(split, split[::2], "rgb", tiny_branch_config(input_dropout=0.0), sgd)
        assert len(reached) == len(gathered) == 2 * 40 // 8
        for x, (batch, want) in zip(reached, gathered):
            assert np.shares_memory(x, batch) and x.flags.c_contiguous  # no second copy
            assert x.tobytes() == want.tobytes()
