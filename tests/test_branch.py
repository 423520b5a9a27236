import contextlib
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcn_anticipation.branch import (HEADS, STREAMS, Branch, BranchConfig, _cone,
                                     multitask_loss, required_input_length)
from tcn_anticipation.fusion import MODALITIES, FusionConfig, FusionModel
from tcn_anticipation.gradcheck import check_branch
from tcn_anticipation.layers import SoftmaxCrossEntropy, layout_shapes
from tcn_anticipation.tensor import Rng, TensorError

from oracles import branch_eval_loops, fusion_logits_unfolded, max_rel_prob_error


def small_config(**overrides):
    base = dict(input_dim=4, num_actions=4, num_verbs=2, num_nouns=2, channels=8,
                kernel=3, dilations=(1, 2), input_dropout=0.0, block_dropout=0.0,
                head_dropout=0.0, dtype="f64")
    base.update(overrides)
    return BranchConfig(**base)


def perturbed_branch(cfg, rng):
    """An eval-mode branch whose BN statistics and offsets are away from their initial values."""
    branch = Branch(cfg, rng).eval()
    c, dtype = cfg.channels, cfg.dtype
    for blk in branch.blocks:
        blk.conv.bias.data = rng.normal(0, 0.5, (c,), dtype)
        blk.bn.gamma.data = rng.uniform(0.5, 1.5, (c,), dtype)
        blk.bn.beta.data = rng.normal(0, 0.5, (c,), dtype)
        blk.bn.running_mean = rng.normal(0, 0.5, (c,), dtype)
        blk.bn.running_var = rng.uniform(0.5, 2.0, (c,), dtype)
    return branch


def assert_matches_oracle(out, want, dtype):
    tol = 1e-10 if dtype == "f64" else 1e-5
    for head in HEADS:
        assert max_rel_prob_error(out[head], want[head]) <= tol
    scale = max(1.0, float(np.abs(want["feature"]).max()))
    assert np.abs(out["feature"] - want["feature"]).max() <= tol * scale


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


class TestLayout:
    @pytest.mark.parametrize("cfg", [
        small_config(),
        small_config(dtype="f32", kernel=1, dilations=(1,)),
        BranchConfig(input_dim=5, num_actions=7, num_verbs=3, num_nouns=4, channels=9),
        BranchConfig(input_dim=5, num_actions=7, num_verbs=3, num_nouns=4, channels=9,
                     dtype="f64").for_snippets(12),
    ], ids=["two_blocks_f64", "pointwise_f32", "default_f32", "for_snippets_12_f64"])
    def test_layout_shapes_are_the_built_state(self, cfg):
        branch = Branch(cfg, Rng(0))
        assert list(layout_shapes(cfg.layout()).items()) == [
            (name, a.shape) for name, a in branch.named_state().items()]

    def test_state_order_is_parameters_then_running_statistics(self):
        assert list(Branch(small_config(), Rng(0)).named_state()) == [
            "embed.weight", "embed.bias",
            "blocks.0.conv.weight", "blocks.0.conv.bias", "blocks.0.bn.gamma", "blocks.0.bn.beta",
            "blocks.1.conv.weight", "blocks.1.conv.bias", "blocks.1.bn.gamma", "blocks.1.bn.beta",
            "heads.action.weight", "heads.action.bias", "heads.verb.weight", "heads.verb.bias",
            "heads.noun.weight", "heads.noun.bias",
            "blocks.0.bn.running_mean", "blocks.0.bn.running_var",
            "blocks.1.bn.running_mean", "blocks.1.bn.running_var"]


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
        assert np.allclose(out["feature"], np.maximum(embedded[:, :, -1], 0))

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
        assert out_full["feature"].shape == (2, 8)
        assert np.allclose(out_full["feature"], out_tail["feature"], rtol=0, atol=1e-12)

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
        base = branch.forward(x)["feature"]
        for t in range(21):
            bumped = x.copy()
            bumped[0, :, t] += 0.5
            assert not np.allclose(branch.forward(bumped)["feature"], base), f"step {t} ignored"


class TestLeanEval:
    """Eval forwards compute only the last column's cone and keep no caches."""

    @settings(max_examples=40, deadline=None)
    @given(kernel=st.integers(1, 3), dilations=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           extra=st.integers(0, 4), batch=st.sampled_from([1, 3]),
           dtype=st.sampled_from(["f64", "f32"]), seed=st.integers(0, 1 << 16))
    def test_matches_the_full_window_oracle(self, kernel, dilations, extra, batch, dtype, seed):
        cfg = small_config(input_dim=3, channels=5, kernel=kernel, dilations=tuple(dilations),
                           dtype=dtype)
        rng = Rng(seed)
        branch = perturbed_branch(cfg, rng)
        x = rng.normal(0, 1, (batch, 3, cfg.required_length + extra), dtype)
        assert_matches_oracle(branch.forward(x), branch_eval_loops(branch, x), dtype)

    def test_cone_packs_only_the_columns_the_last_one_reads(self):
        """At 21 snippets and the default schedule the convs compute 21/17/9/3/1 packed
        columns, and tap k of block output t reads the packed column of position
        t + k*d, so the last tap reads the residual's column t + (K-1)*d."""
        kernel, dilations, n = 3, (1, 2, 3, 4), 21
        plans = _cone(kernel, dilations, n)
        assert [sum(length for length, _ in plan) for plan in plans] == [21, 17, 9, 3, 1]
        positions = [s + j for length, (s,) in plans[0] for j in range(length)]  # of the window
        for d, plan in zip(dilations, plans[1:]):
            outputs = []
            for length, starts in plan:
                for j in range(length):
                    t = positions[starts[0] + j]
                    assert [positions[s + j] for s in starts] == [t + k * d for k in range(kernel)]
                    outputs.append(t)
            positions = outputs
        assert positions == [n - 1 - (kernel - 1) * sum(dilations)]

    def test_eval_forward_keeps_no_cache(self):
        rng = Rng(0)
        branch = Branch(small_config(), rng).train()
        x = rng.normal(0, 1, (2, 4, 7), "f64")
        out = branch.forward(x, rng)  # fills every training cache
        branch.eval().forward(x)
        held = [f"{name}.{attr}" for name, layer in branch.layers.items()
                for attr in ("_cache", "_x", "_mask") if getattr(layer, attr, None) is not None]
        assert held == []
        with pytest.raises(TensorError):
            branch.backward({head: np.ones_like(out[head]) for head in HEADS})


@contextlib.contextmanager
def counted_misses():
    """Counts, per branch id, the B=1 eval forwards that started a stream's queues."""
    misses = {}
    run = Branch._run

    def counting(self, x, plan, rng, queues=None):
        if queues is not None:
            misses[id(self)] = misses.get(id(self), 0) + 1
        return run(self, x, plan, rng, queues)

    with mock.patch.object(Branch, "_run", counting):
        yield misses


def lru_misses(order, capacity=STREAMS):
    """Misses of a least-recently-used table of ``capacity`` streams serving ``order``."""
    table, misses = OrderedDict(), 0
    for stream in order:
        misses += stream not in table
        table.pop(stream, None)
        table[stream] = None
        if len(table) > capacity:
            table.popitem(last=False)
    return misses


def stream_order(steps):
    """Streams 0 and 1 alternate; then STREAMS others come once each, which evicts 0 and
    1; then 0 and 1 re-fill and alternate with the newest other stream."""
    return [0, 1] * steps + list(range(2, STREAMS + 2)) + [0, 1, STREAMS + 1] * (2 * steps)


def sliding(seq, n):
    """The n-snippet windows of a (1, dim, length) stream, one snippet apart."""
    return [np.ascontiguousarray(seq[:, :, p:p + n]) for p in range(seq.shape[2] - n + 1)]


def fusion_of(branches, rng):
    c = next(iter(branches.values())).config.channels
    cfg = FusionConfig(channels=c, num_actions=4, num_verbs=2, num_nouns=2, embed_dim=4,
                       head_dropout=0.0)
    return FusionModel(branches, cfg, rng).eval()


class TestStreaming:
    """A B=1 eval window that overlaps a recently served one steps that stream's queues."""

    @settings(max_examples=40, deadline=None)
    @given(kernel=st.integers(1, 3), dilations=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           extra=st.integers(0, 4), dtype=st.sampled_from(["f64", "f32"]),
           seed=st.integers(0, 1 << 16))
    def test_every_step_matches_the_full_window_oracle(self, kernel, dilations, extra, dtype,
                                                       seed):
        cfg = small_config(input_dim=2, channels=3, kernel=kernel, dilations=tuple(dilations),
                           dtype=dtype)
        rng = Rng(seed)
        branches = {mod: perturbed_branch(cfg, rng) for mod in MODALITIES}
        model = fusion_of(branches, rng)
        n = cfg.required_length + extra
        order = stream_order(cfg.required_length)  # 3x the required length per re-filled stream
        windows = [{mod: sliding(rng.normal(0, 1, (1, 2, n + order.count(s) - 1), dtype), n)
                    for mod in MODALITIES} for s in range(STREAMS + 2)]
        served = [0] * len(windows)
        tol = 1e-10 if dtype == "f64" else 1e-5
        with counted_misses() as misses:
            for s in order:
                x = {mod: windows[s][mod][served[s]] for mod in MODALITIES}
                served[s] += 1
                outs = model.branch_outputs(x)
                want = {mod: branch_eval_loops(branches[mod], x[mod].astype(np.float64))
                        for mod in MODALITIES}
                for mod in MODALITIES:
                    assert_matches_oracle(outs[mod], want[mod], dtype)
                    assert len(branches[mod]._streams) <= STREAMS
                fused = model.forward(outs)
                want_fused = fusion_logits_unfolded(
                    model, {mod: want[mod]["feature"] for mod in MODALITIES})
                for head in HEADS:
                    assert max_rel_prob_error(fused[head], want_fused[head]) <= tol
        # a one-snippet window shares its zero earlier snippets with every other
        assert misses == {id(b): 1 if n == 1 else lru_misses(order) for b in branches.values()}

    def test_queues_hold_one_receptive_field_per_block(self):
        rng = Rng(0)
        cfg = small_config(dilations=(1, 2, 3))
        branch = perturbed_branch(cfg, rng)
        want = [(1, cfg.channels, (cfg.kernel - 1) * d + 1) for d in cfg.dilations]
        for x in sliding(rng.normal(0, 1, (1, 4, cfg.required_length + 5), "f64"),
                         cfg.required_length + 3):  # one miss, then hits
            branch.forward(x)
            [queues] = branch._streams.values()
            assert [q.shape for q in queues] == want

    def test_a_window_of_another_dtype_and_length_is_a_miss(self):
        # an f32 window whose first 2m snippets have the bytes of the last m snippets
        # of the f64 window served before it
        rng = Rng(1)
        cfg = small_config()
        branch = perturbed_branch(cfg, rng)
        m = cfg.required_length - 1
        y = (rng.uniform(0.5, 2.0, (1, 4, 2 * m), "f32")
             * np.where(rng.uniform(0, 1, (1, 4, 2 * m), "f64") < 0.5, -1, 1).astype(np.float32))
        w = np.concatenate([rng.normal(0, 1, (1, 4, 1), "f64"), y.view(np.float64)], axis=2)
        x = np.concatenate([y, rng.uniform(0.5, 2.0, (1, 4, 1), "f32")], axis=2)
        assert x[:, :, :-1].tobytes() == w[:, :, 1:].tobytes()
        with counted_misses() as misses:
            branch.forward(w)
            out = branch.forward(x)
        assert misses == {id(branch): 2}
        assert_matches_oracle(out, branch_eval_loops(branch, x.astype(np.float64)), "f64")

    def test_at_most_streams_are_kept_least_recently_served_out_first(self):
        rng = Rng(2)
        cfg = small_config()
        branch = perturbed_branch(cfg, rng)
        n = cfg.required_length
        streams = [sliding(rng.normal(0, 1, (1, 4, n + 1), "f64"), n) for _ in range(STREAMS + 3)]
        with counted_misses() as misses:
            for windows in streams:
                branch.forward(windows[0])
            assert len(branch._streams) == STREAMS
            for windows in reversed(streams[3:]):
                branch.forward(windows[1])
            assert misses == {id(branch): STREAMS + 3}
            for windows in streams[:3]:
                branch.forward(windows[1])
            assert misses == {id(branch): STREAMS + 6}
        assert len(branch._streams) == STREAMS


class TestStreamTable:
    """What drops a branch's stream table, and what never touches it."""

    def setup_method(self):
        self.rng = Rng(3)
        self.cfg = small_config()
        self.windows = sliding(self.rng.normal(0, 1, (1, 4, 12), "f64"), self.cfg.required_length)

    def test_dropped_by_train_and_kept_by_eval(self):
        branch = perturbed_branch(self.cfg, self.rng)
        with counted_misses() as misses:
            branch.forward(self.windows[0])
            branch.eval()
            branch.train(False)
            branch.forward(self.windows[1])
            assert misses == {id(branch): 1}
            branch.train()
            assert len(branch._streams) == 0
            branch.eval().forward(self.windows[2])
            assert misses == {id(branch): 2}

    def test_in_place_edit_takes_effect_after_train_eval(self):
        branch = perturbed_branch(self.cfg, self.rng)
        branch.forward(self.windows[0])
        for blk in branch.blocks:
            blk.conv.weight.data *= 2.0
        branch.train()
        branch.eval()
        out = branch.forward(self.windows[1])
        assert_matches_oracle(out, branch_eval_loops(branch, self.windows[1]), "f64")

    def test_dropped_by_branch_load_state(self):
        branch = perturbed_branch(self.cfg, self.rng)
        other = perturbed_branch(self.cfg, self.rng)
        branch.forward(self.windows[0])
        branch.load_state({name: a.copy() for name, a in other.named_state().items()})
        assert len(branch._streams) == 0
        out = branch.forward(self.windows[1])
        assert_matches_oracle(out, branch_eval_loops(other, self.windows[1]), "f64")

    @pytest.mark.parametrize("drop", ["load_state", "train"])
    def test_dropped_by_the_fusion_model(self, drop):
        branches = {mod: perturbed_branch(self.cfg, self.rng) for mod in MODALITIES}
        model = fusion_of(branches, self.rng)
        other = fusion_of({mod: perturbed_branch(self.cfg, self.rng) for mod in MODALITIES},
                          self.rng)
        inputs = {mod: self.windows[0] for mod in MODALITIES}
        model.predict_proba(inputs)
        if drop == "load_state":
            model.load_state({name: a.copy() for name, a in other.named_state().items()})
        else:
            model.train()
        assert all(len(b._streams) == 0 for b in branches.values())
        if drop == "load_state":
            got = model.predict_proba({mod: self.windows[1] for mod in MODALITIES})
            want = other.predict_proba({mod: self.windows[1] for mod in MODALITIES})
            for head in HEADS:
                assert np.array_equal(got[head], want[head])

    def test_batched_and_train_forwards_never_touch_it(self, monkeypatch):
        branch = perturbed_branch(self.cfg, self.rng)
        branch.forward(self.windows[0])
        before = list(branch._streams.items())
        monkeypatch.setattr(Branch, "_step", lambda self, x: pytest.fail("table touched"))
        branch.forward(np.concatenate([self.windows[1]] * 3))
        assert list(branch._streams.items()) == before
        branch.train().forward(self.windows[1], self.rng)
        assert len(branch._streams) == 0


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
        out["action"][...] = 0.0
        loss = SoftmaxCrossEntropy().forward(out["action"], np.array([0, 1]))
        assert abs(loss - np.log(4)) < 1e-12

    def test_all_heads_uniform(self):
        out = self.branch.forward(self.x)
        out["action"][...] = 0.0
        out["verb"][...] = 0.0
        out["noun"][...] = 0.0
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
