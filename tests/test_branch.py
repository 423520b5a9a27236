import contextlib
import math
import os
import threading
import time
import tracemalloc
from collections import OrderedDict
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcn_anticipation import layers
from tcn_anticipation.branch import (EVAL_CHUNK, HEADS, Branch, BranchConfig, _cone,
                                     _ResidualBlock, multitask_loss, required_input_length)
from tcn_anticipation.fusion import MODALITIES, STREAMS, FusionConfig, FusionModel
from tcn_anticipation.gradcheck import check_branch
from tcn_anticipation.layers import (CONCURRENT_CHANNELS, BatchNorm1d, Conv1d, ReLU,
                                     SoftmaxCrossEntropy, SpatialDropout, layout_shapes)
from tcn_anticipation.tensor import Rng, TensorError
from tcn_anticipation.training import SgdOptimizer

from oracles import (assert_same, branch_eval_loops, branch_train_loops,
                     exit_code_in_a_child, fusion_logits_unfolded, max_rel_prob_error)


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

    def test_one_sample_runs_the_cone_and_keeps_nothing(self):
        """Without a stream a B=1 eval forward runs the cone, as any batch size does,
        and the same window served twice is computed twice from scratch."""
        rng = Rng(4)
        cfg = small_config(dilations=(1, 2, 3))
        branch = perturbed_branch(cfg, rng)
        x = rng.normal(0, 1, (1, 4, cfg.required_length + 2), "f64")
        before = dict(vars(branch))
        calls, run = [], Branch._run

        def recording(self, x, plan, rng, queues=None):
            calls.append((plan, queues))
            return run(self, x, plan, rng, queues)

        with mock.patch.object(Branch, "_run", recording):
            outs = [branch.forward(x) for _ in range(2)]
        plan = _cone(cfg.kernel, cfg.dilations, x.shape[2])
        assert calls == [(plan, None)] * 2
        assert vars(branch) == before
        for out in outs:
            assert_matches_oracle(out, branch_eval_loops(branch, x), "f64")

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


def one_batch_pass(branch, x):
    """The eval forward as one batch: the cone of every window at once, then the heads."""
    c = branch.config
    z = branch._run(x, _cone(c.kernel, c.dilations, x.shape[2]), None)
    feature = np.ascontiguousarray(z[:, :, -1])
    return {"feature": feature, **{head: branch.heads[head][1].forward(feature) for head in HEADS}}


def traced_peak(call):
    """``call()``'s result and the peak bytes numpy and Python held while it ran, its
    result included."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def output_bytes(outs):
    return sum(a.nbytes for out in outs for a in out.values())


class TestChunkedEval:
    """An eval forward without a stream runs the cone EVAL_CHUNK windows at a time, inside
    the one forward call, so a whole split holds a chunk's activations."""

    BATCHES = (1, EVAL_CHUNK - 1, EVAL_CHUNK, EVAL_CHUNK + 1, 3 * EVAL_CHUNK + 5)

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("batch", BATCHES)
    def test_matches_the_one_batch_pass(self, batch, dtype):
        """Bitwise up to one chunk; above, within rounding of the one-batch GEMMs (a
        ragged last chunk included), as contiguous (B, C) and (B, k) arrays."""
        rng = Rng(batch)
        cfg = small_config(input_dim=6, channels=24, dilations=(1, 2, 3), dtype=dtype)
        branch = perturbed_branch(cfg, rng)
        x = rng.normal(0, 1, (batch, 6, cfg.required_length + 2), dtype)
        out, want = branch.forward(x), one_batch_pass(branch, x)
        tol = 1e-10 if dtype == "f64" else 1e-5
        for key in ("feature", *HEADS):
            assert out[key].flags.c_contiguous
            assert out[key].dtype == want[key].dtype and out[key].shape == want[key].shape
            if batch <= EVAL_CHUNK:
                assert out[key].tobytes() == want[key].tobytes(), key
            else:
                scale = max(1.0, float(np.abs(want[key]).max()))
                assert np.abs(out[key] - want[key]).max() <= tol * scale, key

    def test_each_chunk_is_one_run_of_the_cone(self):
        """Each chunk is one ``_run`` of the next EVAL_CHUNK windows with the cone."""
        rng = Rng(1)
        cfg = small_config()
        branch = perturbed_branch(cfg, rng)
        x = rng.normal(0, 1, (3 * EVAL_CHUNK + 5, 4, cfg.required_length), "f64")
        calls, run = [], Branch._run

        def recording(self, xs, plan, rng, queues=None):
            calls.append((xs.shape[0], np.shares_memory(xs, x), plan, queues))
            return run(self, xs, plan, rng, queues)

        with mock.patch.object(Branch, "_run", recording):
            branch.forward(x)
        plan = _cone(cfg.kernel, cfg.dilations, x.shape[2])
        assert calls == [(n, True, plan, None) for n in (EVAL_CHUNK,) * 3 + (5,)]

    def test_a_branch_forward_holds_one_chunk(self):
        """At 64 channels a forward of 8 chunks peaks no higher than one of a chunk plus
        its larger outputs (the one-batch pass held about 8 chunks' activations)."""
        rng = Rng(2)
        cfg = small_config(input_dim=32, channels=64, dilations=(1, 2, 3, 4), dtype="f32")
        branch = perturbed_branch(cfg, rng)
        x = rng.normal(0, 1, (8 * EVAL_CHUNK, 32, cfg.required_length), "f32")
        branch.forward(x[:EVAL_CHUNK])  # the plans' cache
        one, one_peak = traced_peak(lambda: branch.forward(x[:EVAL_CHUNK]))
        eight, eight_peak = traced_peak(lambda: branch.forward(x))
        assert eight_peak <= one_peak + output_bytes([eight]) - output_bytes([one]) + (64 << 10)

    def test_a_fusion_branch_pass_holds_one_chunk_per_branch(self):
        rng = Rng(3)
        cfg = small_config(input_dim=32, channels=64, dilations=(1, 2, 3, 4), dtype="f32")
        model = fusion_of({mod: perturbed_branch(cfg, rng) for mod in MODALITIES}, rng)
        xs = {mod: rng.normal(0, 1, (8 * EVAL_CHUNK, 32, cfg.required_length), "f32")
              for mod in MODALITIES}
        first = {mod: x[:EVAL_CHUNK] for mod, x in xs.items()}
        model.branch_outputs(first)
        one, one_peak = traced_peak(lambda: model.branch_outputs(first))
        eight, eight_peak = traced_peak(lambda: model.branch_outputs(xs))
        grown = output_bytes(eight.values()) - output_bytes(one.values())
        assert eight_peak <= one_peak + grown + (64 << 10)

    def test_a_prediction_forwards_each_branch_once(self):
        """One ``Branch.forward`` per branch, as the traced benchmark counts them, and
        each conv's ``forward`` once per chunk."""
        rng = Rng(4)
        cfg = small_config()
        branches = {mod: perturbed_branch(cfg, rng) for mod in MODALITIES}
        model = fusion_of(branches, rng)
        batch = 3 * EVAL_CHUNK + 5
        xs = {mod: rng.normal(0, 1, (batch, 4, cfg.required_length), "f64") for mod in MODALITIES}
        counts = {}

        def counting(method):
            def call(self, *args, **kwargs):
                counts[id(self)] = counts.get(id(self), 0) + 1
                return method(self, *args, **kwargs)
            return call

        with mock.patch.object(Branch, "forward", counting(Branch.forward)), \
                mock.patch.object(Conv1d, "forward", counting(Conv1d.forward)):
            model.predict_proba(xs)
        convs = [blk.conv for b in branches.values() for blk in b.blocks]
        convs += [b.embed for b in branches.values()]
        assert counts == {**{id(b): 1 for b in branches.values()},
                          **{id(conv): math.ceil(batch / EVAL_CHUNK) for conv in convs}}


def random_labels(rng, cfg, batch):
    return {head: (rng.uniform(0, k, (batch,), "f64")).astype(np.int64)
            for head, k in cfg.class_counts.items()}


class TestTrainOracle:
    """The train-mode forward (BN on batch statistics, dropout off) against a naive f64
    one, so the training path has a check other than itself."""

    @settings(max_examples=30, deadline=None)
    @given(kernel=st.integers(1, 3), dilations=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           extra=st.integers(0, 3), batch=st.integers(1, 3), seed=st.integers(0, 1 << 16))
    def test_matches_the_naive_train_forward(self, kernel, dilations, extra, batch, seed):
        cfg = small_config(input_dim=3, channels=5, kernel=kernel, dilations=tuple(dilations))
        rng = Rng(seed)
        branch = perturbed_branch(cfg, rng).train()
        x = rng.normal(0, 1, (batch, 3, cfg.required_length + extra), "f64")
        labels = random_labels(rng, cfg, batch)
        want = branch_train_loops(branch, x, labels)
        out = branch.forward(x, rng)
        loss, _ = multitask_loss(out, labels)
        for key in ("feature", *HEADS):
            assert np.abs(out[key] - want[key]).max() <= 1e-10 * max(1.0, np.abs(want[key]).max())
        assert abs(loss - want["loss"]) <= 1e-10 * max(1.0, abs(want["loss"]))
        for blk, mean, var in zip(branch.blocks, want["running_mean"], want["running_var"]):
            assert np.abs(blk.bn.running_mean - mean).max() <= 1e-10
            assert np.abs(blk.bn.running_var - var).max() <= 1e-10


def channel_major(x):
    """``x`` with the same values, in (C, N, B) memory."""
    return np.ascontiguousarray(x.transpose(1, 2, 0)).transpose(2, 0, 1)


def is_channel_major(x):
    return x.transpose(1, 2, 0).flags.c_contiguous


@st.composite
def layer_cases(draw):
    """Sizes, a conv and a plan for it (None: every output)."""
    batch, channels = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    kernel, dilation = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    n = (kernel - 1) * dilation + 1 + draw(st.integers(0, 4))
    plan = None
    if draw(st.booleans()):
        lengths = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
        plan = tuple((length, tuple(draw(st.integers(0, n - length)) for _ in range(kernel)))
                     for length in lengths)
    return batch, channels, kernel, dilation, n, plan, draw(st.integers(0, 1 << 16))


class TestMemoryOrder:
    """Sequence layers give a C-order input and one in channel-major memory the same
    values (the same bits where the operations are the same), and return a
    channel-major input's outputs and gradients channel-major, so the branch passes
    every activation on without copying it to another order."""

    @settings(max_examples=60, deadline=None)
    @given(case=layer_cases())
    def test_layers_give_the_same_values_in_either_order(self, case):
        batch, channels, kernel, dilation, n, plan, seed = case
        rng = Rng(seed)
        x = rng.normal(0, 1, (batch, channels, n), "f64")
        conv_args = (channels, channels + 1, kernel, dilation, "f64")
        makers = {"conv": lambda: Conv1d(*conv_args, rng=Rng(seed)),
                  "bn": lambda: BatchNorm1d(channels, "f64"),
                  "drop": lambda: SpatialDropout(0.5), "relu": ReLU}
        mask = SpatialDropout(0.5).sample_mask(batch, channels, rng, np.float64)
        grads = {}  # by output shape, the same for both orders
        for name, make in makers.items():
            for training in (False, True):
                results = []
                for order in (np.ascontiguousarray, channel_major):
                    layer = make()
                    layer.training = training
                    kw = {"mask": mask} if name == "drop" else {}
                    if name == "conv" and not training:
                        kw = {"plan": plan}
                    out = layer.forward(order(x), **kw)
                    assert is_channel_major(out) or order is np.ascontiguousarray
                    got = [out]
                    if training:
                        if out.shape not in grads:
                            grads[out.shape] = rng.normal(0, 1, out.shape, "f64")
                        grad_x = layer.backward(order(grads[out.shape]))
                        assert is_channel_major(grad_x) or order is np.ascontiguousarray
                        got += [grad_x] + [getattr(layer, p).grad for p in layer.params]
                        got += [getattr(layer, b) for b in layer.buffers]
                    results.append(got)
                for want, have in zip(*results):
                    if name in ("drop", "relu"):  # elementwise: the same operations
                        assert want.tobytes() == np.ascontiguousarray(have).tobytes()
                    else:  # a GEMM or a reduction may sum a strided view in another order
                        tol = 1e-12 * max(1.0, float(np.abs(want).max(initial=0.0)))
                        assert np.abs(want - have).max(initial=0.0) <= tol, (name, training)

    @pytest.mark.parametrize("mode, batch", [("train", 3), ("eval", 3), ("eval", 1)])
    def test_every_sequence_the_branch_passes_on_is_channel_major(self, mode, batch):
        """Each block's and each of its layers' outputs and gradients, and the embedding
        conv's output: only the input arrives in another order."""
        cfg = small_config(input_dropout=0.2, block_dropout=0.2, dilations=(1, 2, 1))
        rng = Rng(5)
        branch = Branch(cfg, rng).train(mode == "train")
        seen = []

        def recording(method):
            def call(self, *args, **kwargs):
                out = method(self, *args, **kwargs)
                if self is not branch.input_drop and getattr(out, "ndim", 0) == 3:
                    seen.append((type(self).__name__, method.__name__, out))
                return out
            return call

        x = rng.normal(0, 1, (batch, cfg.input_dim, cfg.required_length + 2), "f64")
        with contextlib.ExitStack() as stack:
            for cls in (_ResidualBlock, Conv1d, BatchNorm1d, SpatialDropout, ReLU):
                for name in ("forward", "backward"):
                    stack.enter_context(
                        mock.patch.object(cls, name, recording(getattr(cls, name))))
            out = branch.forward(x, rng)
            if mode == "train":
                branch.backward(multitask_loss(out, random_labels(rng, cfg, batch))[1])
        classes = ("_ResidualBlock", "Conv1d", "BatchNorm1d", "SpatialDropout", "ReLU")
        methods = ("forward", "backward") if mode == "train" else ("forward",)
        assert {(cls, name) for cls, name, _ in seen} == {(cls, name) for cls in classes
                                                          for name in methods}
        assert all(is_channel_major(z) for _, _, z in seen)


@contextlib.contextmanager
def counted_misses():
    """Counts, per branch id, the eval forwards that started a stream's queues."""
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
    """The n-snippet windows of a (batch, dim, length) stream, one snippet apart."""
    return [np.ascontiguousarray(seq[:, :, p:p + n]) for p in range(seq.shape[2] - n + 1)]


def fusion_of(branches, rng):
    c = next(iter(branches.values())).config.channels
    cfg = FusionConfig(channels=c, num_actions=4, num_verbs=2, num_nouns=2, embed_dim=4,
                       head_dropout=0.0)
    return FusionModel(branches, cfg, rng).eval()


class TestStreaming:
    """A B=1 request whose windows overlap a recently served request's steps that
    stream's queues, which the fusion model's table holds."""

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
                assert len(model._streams) <= STREAMS
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
        model = fusion_of({mod: perturbed_branch(cfg, rng) for mod in MODALITIES}, rng)
        want = [(1, cfg.channels, (cfg.kernel - 1) * d + 1) for d in cfg.dilations]
        for x in sliding(rng.normal(0, 1, (1, 4, cfg.required_length + 5), "f64"),
                         cfg.required_length + 3):  # one miss, then hits
            model.branch_outputs({mod: x for mod in MODALITIES})
            [streams] = model._streams.values()
            assert [[q.shape for q in stream] for stream in streams] == [want] * len(MODALITIES)

    def test_a_window_of_another_dtype_and_length_is_a_miss(self):
        # an f32 window whose first 2m snippets have the bytes of the last m snippets
        # of the f64 window served before it
        rng = Rng(1)
        cfg = small_config()
        branches = {mod: perturbed_branch(cfg, rng) for mod in MODALITIES}
        model = fusion_of(branches, rng)
        m = cfg.required_length - 1
        y = (rng.uniform(0.5, 2.0, (1, 4, 2 * m), "f32")
             * np.where(rng.uniform(0, 1, (1, 4, 2 * m), "f64") < 0.5, -1, 1).astype(np.float32))
        w = np.concatenate([rng.normal(0, 1, (1, 4, 1), "f64"), y.view(np.float64)], axis=2)
        x = np.concatenate([y, rng.uniform(0.5, 2.0, (1, 4, 1), "f32")], axis=2)
        assert x[:, :, :-1].tobytes() == w[:, :, 1:].tobytes()
        with counted_misses() as misses:
            model.branch_outputs({mod: w for mod in MODALITIES})
            outs = model.branch_outputs({mod: x for mod in MODALITIES})
        assert misses == {id(b): 2 for b in branches.values()}
        for mod in MODALITIES:
            assert_matches_oracle(outs[mod], branch_eval_loops(branches[mod],
                                                               x.astype(np.float64)), "f64")

    def test_at_most_streams_are_kept_least_recently_served_out_first(self):
        rng = Rng(2)
        cfg = small_config()
        branches = {mod: perturbed_branch(cfg, rng) for mod in MODALITIES}
        model = fusion_of(branches, rng)
        n = cfg.required_length
        streams = [sliding(rng.normal(0, 1, (1, 4, n + 1), "f64"), n) for _ in range(STREAMS + 3)]

        def serve(x):
            model.branch_outputs({mod: x for mod in MODALITIES})

        with counted_misses() as misses:
            for windows in streams:
                serve(windows[0])
            assert len(model._streams) == STREAMS
            for windows in reversed(streams[3:]):
                serve(windows[1])
            assert misses == {id(b): STREAMS + 3 for b in branches.values()}
            for windows in streams[:3]:
                serve(windows[1])
            assert misses == {id(b): STREAMS + 6 for b in branches.values()}
        assert len(model._streams) == STREAMS

    def test_a_caller_held_stream_steps_at_any_batch_size(self):
        """The branch's own stream API: an empty list is started, then every window
        that slides one snippet on is stepped, for one sample or several."""
        rng = Rng(6)
        cfg = small_config(dilations=(1, 2, 1))
        branch = perturbed_branch(cfg, rng)
        for batch in (1, 3):
            stream = []
            windows = sliding(rng.normal(0, 1, (batch, 4, cfg.required_length + 4), "f64"),
                              cfg.required_length + 1)
            with counted_misses() as misses:
                for x in windows:
                    assert_matches_oracle(branch.forward(x, stream=stream),
                                          branch_eval_loops(branch, x), "f64")
            assert misses == {id(branch): 1}
            assert [q.shape for q in stream] == [(batch, cfg.channels, (cfg.kernel - 1) * d + 1)
                                                 for d in cfg.dilations]

    @pytest.mark.parametrize("case", ["batch", "width", "dtype"])
    def test_a_window_the_stream_does_not_fit_is_a_tensor_error(self, case):
        """A stream started at B=3, by a branch of another width, or on f32 windows is
        not stepped with a B=1 f64 window: the error names the stream and the window."""
        rng = Rng(7)
        overrides = {"width": {"channels": 10}, "dtype": {"dtype": "f32"}}.get(case, {})
        starter = perturbed_branch(small_config(**overrides), rng)
        branch = perturbed_branch(small_config(), rng) if case == "width" else starter
        n = starter.config.required_length
        window = rng.normal(0, 1, (3 if case == "batch" else 1, 4, n + 1), starter.config.dtype)
        stream = []
        starter.forward(window[:, :, :-1], stream=stream)
        x = window[:1, :, 1:].astype(np.float64)
        with pytest.raises(TensorError, match=r"a stream of float(32|64) queues \[\(.* cannot "
                                              r"step a float64 window of shape \(1, 4, "):
            branch.forward(x, stream=stream)


class TestStreamTable:
    """What drops the fusion model's table of B=1 streams, and what never touches it."""

    def setup_method(self):
        self.rng = Rng(3)
        self.cfg = small_config()
        self.branches = {mod: perturbed_branch(self.cfg, self.rng) for mod in MODALITIES}
        self.model = fusion_of(self.branches, self.rng)
        self.inputs = [{mod: x for mod in MODALITIES} for x in sliding(
            self.rng.normal(0, 1, (1, 4, 12), "f64"), self.cfg.required_length)]

    def test_dropped_by_train_and_kept_by_eval(self):
        model = self.model
        with counted_misses() as misses:
            model.branch_outputs(self.inputs[0])
            model.eval()
            model.train(False)
            model.branch_outputs(self.inputs[1])
            assert misses == {id(b): 1 for b in self.branches.values()}
            model.train()
            assert len(model._streams) == 0
            model.eval().branch_outputs(self.inputs[2])
            assert misses == {id(b): 2 for b in self.branches.values()}

    def test_in_place_edit_takes_effect_after_train_eval(self):
        self.model.branch_outputs(self.inputs[0])
        for branch in self.branches.values():
            for blk in branch.blocks:
                blk.conv.weight.data *= 2.0
        self.model.train()
        self.model.eval()
        outs = self.model.branch_outputs(self.inputs[1])
        for mod, branch in self.branches.items():
            assert_matches_oracle(outs[mod], branch_eval_loops(branch, self.inputs[1][mod]), "f64")

    @pytest.mark.parametrize("drop", ["load_state", "train"])
    def test_dropped_by_the_fusion_model(self, drop):
        model = self.model
        other = fusion_of({mod: perturbed_branch(self.cfg, self.rng) for mod in MODALITIES},
                          self.rng)
        model.predict_proba(self.inputs[0])
        if drop == "load_state":
            model.load_state({name: a.copy() for name, a in other.named_state().items()})
        else:
            model.train()
        assert len(model._streams) == 0
        if drop == "load_state":
            got = model.predict_proba(self.inputs[1])
            want = other.predict_proba(self.inputs[1])
            for head in HEADS:
                assert np.array_equal(got[head], want[head])

    def test_batched_and_train_forwards_never_touch_it(self, monkeypatch):
        model, branch = self.model, self.branches["rgb"]
        model.branch_outputs(self.inputs[0])
        before = list(model._streams.items())
        monkeypatch.setattr(Branch, "_step", lambda *args: pytest.fail("a stream touched"))
        model.branch_outputs({mod: np.concatenate([x] * 3) for mod, x in self.inputs[1].items()})
        stream = []
        branch.train().forward(self.inputs[1]["rgb"], self.rng, stream=stream)
        assert stream == []  # a train-mode forward leaves a stream alone
        assert list(model._streams.items()) == before


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


def wide_case(dtype="f32", channels=CONCURRENT_CHANNELS, batch=4, snippets=None, **overrides):
    """A branch ``channels`` wide (two blocks unless ``overrides`` say otherwise) with every
    dropout on, a batch of ``snippets`` (one past the receptive field by default) and its
    labels, and the trainer's Rng."""
    cfg = small_config(**{"input_dim": 3, "channels": channels, "input_dropout": 0.2,
                          "block_dropout": 0.3, "head_dropout": 0.4, "dtype": dtype,
                          **overrides})
    rng = Rng(0)
    branch = Branch(cfg, rng)
    x = rng.normal(0, 1, (batch, cfg.input_dim, snippets or cfg.required_length + 1), dtype)
    return branch, x, random_labels(rng, cfg, batch), rng


def sgd_steps(branch, x, labels, rng, steps=3):
    """SGD steps on one batch, taken as ``training._run_epochs`` takes them; their losses."""
    opt = SgdOptimizer(branch.named_parameters())
    losses = []
    for _ in range(steps):
        opt.zero_grad()
        loss, grads = multitask_loss(branch.train().forward(x, rng), labels)
        branch.backward(grads)
        opt.step(0.05)
        losses.append(loss)
    return losses


class TestConcurrentTrainStep:
    """From ``CONCURRENT_CHANNELS`` wide, a train-mode conv computes the top half of its
    output channels on a pool worker, and a block conv's backward computes its input
    gradient on the caller while a worker computes its weight and bias gradients."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    def test_equals_the_serial_steps(self, dtype, monkeypatch):
        branch, *case = wide_case(dtype)
        losses = sgd_steps(branch, *case)
        monkeypatch.setattr(layers, "CONCURRENT_CHANNELS", CONCURRENT_CHANNELS + 1)
        serial, *case = wide_case(dtype)
        assert_same(np.array(losses), np.array(sgd_steps(serial, *case)), dtype)
        for (_, got), (_, want) in zip(branch.named_parameters(), serial.named_parameters()):
            assert_same(got.grad, want.grad, dtype)
            assert_same(got.data, want.data, dtype)
        for blk, want in zip(branch.blocks, serial.blocks):
            assert_same(blk.bn.running_mean, want.bn.running_mean, dtype)
            assert_same(blk.bn.running_var, want.bn.running_var, dtype)

    def test_a_forward_gemm_of_few_columns_stays_within_the_tolerance(self, monkeypatch):
        """At 8 or fewer output columns OpenBLAS may compute a half-height GEMM with
        another kernel, so the split forward need not give the serial bits. Here the last
        block's conv has 2 (one position, B=2), as an epoch's last batch can."""
        thin = dict(dtype="f64", batch=2, snippets=21, input_dim=CONCURRENT_CHANNELS,
                    dilations=(1, 2, 3, 4))
        branch, *case = wide_case(**thin)
        losses = sgd_steps(branch, *case, steps=2)
        monkeypatch.setattr(layers, "CONCURRENT_CHANNELS", CONCURRENT_CHANNELS + 1)
        serial, *case = wide_case(**thin)
        pairs = [(np.array(losses), np.array(sgd_steps(serial, *case, steps=2)))]
        for (_, got), (_, want) in zip(branch.named_parameters(), serial.named_parameters()):
            pairs += [(got.grad, want.grad), (got.data, want.data)]
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-10 * max(1.0, float(np.abs(want).max()))

    @pytest.mark.parametrize("channels", [CONCURRENT_CHANNELS, CONCURRENT_CHANNELS - 1])
    def test_the_gemms_leave_the_caller_from_the_cutoff(self, channels, monkeypatch):
        """Each conv forward and each block conv's backward is one ``run_concurrently``
        call: the forward's two halves, or the input gradient on the caller and the weight
        and bias gradients on a worker. The embedding's gradients stay on the caller."""
        grads, runs = [], []
        param_grads, run = Conv1d._param_grads, layers.run_concurrently

        def recording(self, *args):
            grads.append((self, threading.get_ident()))
            return param_grads(self, *args)

        def placing(calls):
            threads = [None] * len(calls)

            def placed(i, call):
                threads[i] = threading.get_ident()
                return call()

            names = tuple(call.func.__name__ for call in calls)
            results = run([partial(placed, i, call) for i, call in enumerate(calls)])
            runs.append((names, *threads))
            return results

        monkeypatch.setattr(Conv1d, "_param_grads", recording)
        monkeypatch.setattr(layers, "run_concurrently", placing)
        branch, *case = wide_case(channels=channels)
        sgd_steps(branch, *case, steps=2)
        here, blocks = threading.get_ident(), len(branch.blocks)
        assert len(grads) == 2 * (1 + blocks)
        assert {t for conv, t in grads if conv is branch.embed} == {here}
        on_blocks = {t for conv, t in grads if conv is not branch.embed}
        if channels >= CONCURRENT_CHANNELS:
            assert here not in on_blocks
            fwd, bwd = ("matmul", "matmul"), ("matmul", "recording")
            assert [names for names, *_ in runs] == ([fwd] * (1 + blocks) + [bwd] * blocks) * 2
            assert all(caller == here and worker != here for _, caller, worker in runs)
        else:
            assert on_blocks == {here}
            assert runs == []

    def test_a_direct_conv_backward_accumulates_before_it_returns(self):
        rng = Rng(0)
        conv = Conv1d(3, CONCURRENT_CHANNELS, 2, 1, "f64", rng)
        conv.training = True
        out = conv.forward(rng.normal(0, 1, (2, 3, 4), "f64"))
        conv.backward(np.ones_like(out))
        assert np.all(conv.bias.grad == 6.0)
        assert np.any(conv.weight.grad != 0)

    def test_each_conv_has_its_gradients_when_its_backward_returns(self, monkeypatch):
        """Inside ``Branch.backward`` too: a block conv's gradients, though computed on a
        worker that takes 0.2 s, are accumulated before the chain goes on to the next."""
        branch, x, labels, rng = wide_case()
        events = []
        param_grads, conv_backward = Conv1d._param_grads, Conv1d.backward

        def slow(self, *args):
            time.sleep(0.2)
            param_grads(self, *args)
            events.append(("gradients", self))

        def backward(self, *args, **kwargs):
            out = conv_backward(self, *args, **kwargs)
            events.append(("returned", self))
            return out

        monkeypatch.setattr(Conv1d, "_param_grads", slow)
        monkeypatch.setattr(Conv1d, "backward", backward)
        _, grads = multitask_loss(branch.train().forward(x, rng), labels)
        branch.backward(grads)
        convs = [blk.conv for blk in reversed(branch.blocks)] + [branch.embed]
        assert events == [(event, conv) for conv in convs for event in ("gradients", "returned")]

    def test_a_failing_weight_gradient_is_raised_after_its_input_gradient(self, monkeypatch):
        """The last block conv's weight gradient fails at once on the worker; the error
        reaches the caller only after that conv's input gradient, 0.2 s slower, has
        finished, and stops the chain there. The next step trains."""
        branch, x, labels, rng = wide_case()
        events = []
        param_grads, run = Conv1d._param_grads, layers.run_concurrently

        def failing(self, *args):
            if self is branch.blocks[-1].conv:
                events.append("weight gradient failed")
                raise RuntimeError("injected")
            param_grads(self, *args)
            events.append("weight gradient")

        def slow_input_gradient(calls):
            def first():
                time.sleep(0.2)
                out = calls[0]()
                events.append("input gradient")
                return out
            return run([first, *calls[1:]])

        _, grads = multitask_loss(branch.train().forward(x, rng), labels)
        monkeypatch.setattr(Conv1d, "_param_grads", failing)
        monkeypatch.setattr(layers, "run_concurrently", slow_input_gradient)
        with pytest.raises(RuntimeError, match="injected"):
            branch.backward(grads)
        assert events == ["weight gradient failed", "input gradient"]
        monkeypatch.undo()
        assert np.isfinite(sgd_steps(branch, x, labels, rng, steps=1)).all()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_train_steps_on_both_pool_workers_finish(self):
        """A worker that waited on the two-worker pool could deadlock it: here both would
        wait at once. The steps run in a forked child, whose hung pool cannot hang the
        suite."""
        def on_the_workers():
            here = threading.get_ident()
            grads = []
            param_grads = Conv1d._param_grads

            def recording(self, *args):
                grads.append(threading.get_ident())
                return param_grads(self, *args)

            Conv1d._param_grads = recording  # the child's own class, gone with it
            losses = layers.run_concurrently([lambda: None] + [
                lambda: sgd_steps(*wide_case(), steps=1) for _ in range(2)])[1:]
            return np.isfinite(losses).all() and grads and here not in grads

        code = exit_code_in_a_child(on_the_workers)
        assert code is not None, "train steps on the pool workers did not finish within 30 s"
        assert code == 0

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_takes_a_concurrent_train_step(self):
        """The child inherits a pool whose threads did not survive the fork; it must
        start its own rather than wait for them."""
        branch, *case = wide_case()
        sgd_steps(branch, *case, steps=1)
        code = exit_code_in_a_child(lambda: np.isfinite(sgd_steps(branch, *case, steps=1)).all())
        assert code is not None, "the forked child's train step did not finish within 30 s"
        assert code == 0

    def test_train_steps_and_fusion_passes_start_no_more_than_the_two_workers(self):
        branch, x, labels, rng = wide_case()
        cfg = branch.config
        fusion = FusionModel({mod: Branch(cfg, rng) for mod in MODALITIES},
                             FusionConfig(cfg.channels, cfg.num_actions, cfg.num_verbs,
                                          cfg.num_nouns, embed_dim=8), rng)
        before = threading.active_count()
        for _ in range(10):
            sgd_steps(branch, x, labels, rng, steps=1)
            fusion.branch_outputs({mod: x for mod in MODALITIES})
        assert threading.active_count() <= before + 2
