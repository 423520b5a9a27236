import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from tcn_anticipation import fusion
from tcn_anticipation.branch import Branch, BranchConfig, multitask_loss
from tcn_anticipation.fusion import (FEATURE_STRATEGIES, FOLD_MIN_COLUMNS, HEADS, MODALITIES,
                                     STRATEGIES, FusionConfig, FusionModel, late_fusion)
from tcn_anticipation.gradcheck import check_fusion
from tcn_anticipation.layers import CONCURRENT_CHANNELS, layout_shapes, softmax
from tcn_anticipation.tensor import DTYPES, Rng, TensorError
from tcn_anticipation.training import SgdOptimizer

from oracles import (assert_same, attention_grads_of_mixed_probs, exit_code_in_a_child,
                     fold_whole_f64, fusion_logits_unfolded, max_rel_prob_error)


def make_model(strategy="mutual_pairwise", channels=6, embed=10, rng_seed=0, dtype="f64"):
    rng = Rng(rng_seed)
    bcfg = BranchConfig(input_dim=3, num_actions=4, num_verbs=2, num_nouns=3,
                        channels=channels, kernel=1, dilations=(1,),
                        input_dropout=0.0, block_dropout=0.0, head_dropout=0.0,
                        dtype=dtype)
    branches = {mod: Branch(bcfg, rng) for mod in MODALITIES}
    fcfg = FusionConfig(channels=channels, num_actions=4, num_verbs=2, num_nouns=3,
                        strategy=strategy, embed_dim=embed, head_dropout=0.0)
    return FusionModel(branches, fcfg, rng), rng


def fuse_as(model, strategy, feats):
    model.config = replace(model.config, strategy=strategy)
    return model.fuse_forward(feats)


def random_feats(rng, b=3, c=6, dtype="f64"):
    return {mod: rng.normal(0, 1, (b, c), dtype) for mod in MODALITIES}


def assert_matches_unfolded(model, feats):
    """The eval-mode (folded) logits against the layer-by-layer composition."""
    tol = 1e-10 if model.mutual_fc.weight.data.dtype == np.float64 else 1e-5
    got, want = model.eval().fuse_forward(feats), fusion_logits_unfolded(model, feats)
    for head in HEADS:
        assert got[head].dtype == feats["rgb"].dtype
        assert max_rel_prob_error(got[head], want[head]) <= tol


class TestFeatureFusion:
    def test_zero_pairwise_path_reduces_to_mutual(self):
        model, rng = make_model()
        feats = random_feats(rng)
        for fc in model.pairwise_fc.values():
            fc.weight.data[...] = 0
            fc.bias.data[...] = 0
        model.pairwise_merge.weight.data[...] = 0
        model.pairwise_merge.bias.data[...] = 0
        both = fuse_as(model, "mutual_pairwise", feats)
        mutual = fuse_as(model, "mutual", feats)
        for head in HEADS:
            assert np.array_equal(both[head], mutual[head])

    def test_zero_mutual_path_reduces_to_pairwise(self):
        model, rng = make_model()
        feats = random_feats(rng)
        model.mutual_fc.weight.data[...] = 0
        model.mutual_fc.bias.data[...] = 0
        both = fuse_as(model, "mutual_pairwise", feats)
        pairwise = fuse_as(model, "pairwise", feats)
        for head in HEADS:
            assert np.array_equal(both[head], pairwise[head])

    def test_feature_shape_mismatch(self):
        model, rng = make_model()
        feats = random_feats(rng)
        feats["obj"] = feats["obj"][:, :4]
        with pytest.raises(TensorError):
            model.fuse_forward(feats)

    def test_late_strategy_rejected_by_fuse_forward(self):
        model, rng = make_model()
        with pytest.raises(TensorError):
            fuse_as(model, "late", random_feats(rng))

    def test_all_strategies_produce_distributions(self):
        model, rng = make_model()
        feats = random_feats(rng)
        for strategy in ("mutual", "pairwise", "mutual_pairwise"):
            logits = fuse_as(model, strategy, feats)
            for head in HEADS:
                p = softmax(logits[head])
                assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-6


class TestFold:
    """Eval mode folds the feature strategies into one affine map per head."""

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("strategy", FEATURE_STRATEGIES)
    def test_fold_matches_the_unfolded_layers(self, strategy, dtype):
        model, rng = make_model(strategy, dtype=dtype)
        for _, p in model.named_parameters():  # biases away from zero
            p.data = p.data + rng.normal(0, 0.2, p.data.shape, dtype)
        for b in (1, 3):
            assert_matches_unfolded(model, random_feats(rng, b=b, dtype=dtype))

    @pytest.mark.parametrize("strategy", FEATURE_STRATEGIES)
    def test_train_mode_is_the_unfolded_layers(self, strategy):
        model, rng = make_model(strategy)
        feats = random_feats(rng)
        got, want = model.train().fuse_forward(feats), fusion_logits_unfolded(model, feats)
        for head in HEADS:
            assert np.allclose(got[head], want[head], rtol=0, atol=1e-12)

    def test_eval_keeps_no_cache(self):
        model, rng = make_model()
        feats = random_feats(rng)
        model.train().fuse_forward(feats)
        model.eval().fuse_forward(feats)
        with pytest.raises(TensorError, match="train-mode"):
            model.fuse_backward({head: np.ones((3, k)) for head, k
                                 in model.config.class_counts.items()})

    def test_built_lazily_once_and_kept_by_eval(self, monkeypatch):
        builds = []
        fold_layers = FusionModel._fold_layers
        monkeypatch.setattr(FusionModel, "_fold_layers",
                            lambda self, strategy: builds.append(strategy)
                            or fold_layers(self, strategy))
        model, rng = make_model()
        model.eval()
        model.train(False)
        assert builds == []
        inputs = {mod: rng.normal(0, 1, (2, 3, 4), "f64") for mod in MODALITIES}
        for _ in range(3):
            model.predict_proba(inputs)
            model.eval()
        assert builds == ["mutual_pairwise"]

    def test_rebuilt_after_an_sgd_step(self):
        model, rng = make_model()
        feats = random_feats(rng)
        before = model.eval().fuse_forward(feats)
        labels = {head: np.arange(3) % k for head, k in model.config.class_counts.items()}
        _, grads = multitask_loss(model.train().fuse_forward(feats, rng), labels)
        model.fuse_backward(grads)
        SgdOptimizer(model.trainable_parameters()).step(0.5)
        assert not np.array_equal(model.eval().fuse_forward(feats)["action"], before["action"])
        assert_matches_unfolded(model, feats)

    def test_rebuilt_after_load_state(self):
        model, rng = make_model()
        feats = random_feats(rng)
        model.eval().fuse_forward(feats)
        other, _ = make_model(rng_seed=1)
        model.load_state({name: a.copy() for name, a in other.named_state().items()})
        got = model.fuse_forward(feats)
        want = other.eval().fuse_forward(feats)
        for head in HEADS:
            assert np.array_equal(got[head], want[head])
        assert_matches_unfolded(model, feats)

    def test_rebuilt_after_a_strategy_swap(self):
        model, rng = make_model()
        feats = random_feats(rng)
        model.eval().fuse_forward(feats)
        for strategy in ("mutual", "pairwise", "mutual_pairwise"):
            model.config = replace(model.config, strategy=strategy)
            assert_matches_unfolded(model, feats)

    def test_in_place_edit_takes_effect_after_train_eval(self):
        model, rng = make_model()
        feats = random_feats(rng)
        model.eval().fuse_forward(feats)
        model.mutual_fc.weight.data *= 2.0
        model.train()
        model.eval()
        assert_matches_unfolded(model, feats)


# action/verb/noun classes: the synthetic data's (26 head rows) and a small head (9 rows)
HEAD_CLASSES = {"26rows": (12, 6, 8), "9rows": (4, 2, 3)}


def paper_heads_model(strategy, dtype, classes=HEAD_CLASSES["26rows"]):
    """Fusion layers 512 wide with ``classes`` action/verb/noun classes, every parameter
    away from its initial value; the branches are one pointwise conv."""
    rng = Rng(0)
    classes = dict(zip(("num_actions", "num_verbs", "num_nouns"), classes))
    bcfg = BranchConfig(input_dim=3, channels=512, kernel=1, dilations=(1,), dtype=dtype,
                        **classes)
    fcfg = FusionConfig(channels=512, embed_dim=512, strategy=strategy, **classes)
    model = FusionModel({mod: Branch(bcfg, rng) for mod in MODALITIES}, fcfg, rng)
    for _, p in model.named_parameters():
        p.data = p.data + rng.normal(0, 0.1, p.data.shape, dtype)
    return model.eval()


class TestBlockedFold:
    """The fold converts each fusion weight to f64 in column blocks, not whole. A block is
    wide enough that its GEMM gives the whole GEMM's bits at one BLAS thread: with 9 head
    rows, blocks of ``BLOCK`` values (128 columns of 512) fell under OpenBLAS's
    small-matrix cutoff and an f64 fold differed from the whole-weight one in its last
    bits."""

    @pytest.mark.parametrize("classes", HEAD_CLASSES.values(), ids=HEAD_CLASSES.keys())
    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("strategy", FEATURE_STRATEGIES)
    def test_equals_the_whole_weight_fold(self, strategy, dtype, classes):
        model = paper_heads_model(strategy, dtype, classes)
        got, want = model._folded(), fold_whole_f64(model)
        for head in HEADS:
            for g, w in zip(got[head], want[head]):
                assert_same(g, w, dtype)

    def test_building_it_holds_no_whole_f64_weight(self):
        """Peak traced memory of one build at 512 wide: one f64 block (256 of a weight's
        512-deep columns here), the f64 products (26 rows of 3C, 3E and 2C, and a 3C
        product being added) and the fold itself. A 512 x 1536 weight's f64 copy is 6 MiB."""
        model = paper_heads_model("mutual_pairwise", "f32")
        rows, c = 26, 512
        bound = (8 * c * FOLD_MIN_COLUMNS + 8 * rows * (3 * c + 3 * c + 3 * c + 2 * c)
                 + 4 * rows * 3 * c)
        tracemalloc.start()
        try:
            model._folded()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound + (64 << 10), f"fold build peaked at {peak} bytes"


class TestLateFusion:
    def test_idempotent_on_identical_distributions(self):
        p = softmax(Rng(0).normal(0, 1, (4, 5), "f64"))
        assert np.allclose(late_fusion(p, p, p), p)

    def test_two_thirds_example(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        out = late_fusion(a, b, a)
        assert np.allclose(out, [[2 / 3, 1 / 3]])

    def test_symmetry_under_modality_permutation(self):
        rng = Rng(1)
        ps = [softmax(rng.normal(0, 1, (3, 6), "f64")) for _ in range(3)]
        out = late_fusion(*ps)
        assert np.allclose(out, late_fusion(ps[2], ps[0], ps[1]))

    def test_output_normalized(self):
        rng = Rng(2)
        ps = [softmax(rng.normal(0, 1, (5, 4), "f64")) for _ in range(3)]
        assert np.abs(late_fusion(*ps).sum(axis=1) - 1.0).max() < 1e-6

    def test_rejects_unnormalized(self):
        good = softmax(Rng(0).normal(0, 1, (2, 3), "f64"))
        with pytest.raises(TensorError):
            late_fusion(good, good, good * 2)


class TestAttentionFusion:
    def test_zero_weights_equal_late_fusion(self):
        model, rng = make_model()
        feats = random_feats(rng)
        probs = {mod: {h: softmax(rng.normal(0, 1, (3, k), "f64"))
                       for h, k in model.config.class_counts.items()}
                 for mod in MODALITIES}
        mixed = model.attention_forward(feats, probs)
        for head in HEADS:
            want = late_fusion(probs["rgb"][head], probs["flow"][head], probs["obj"][head])
            assert np.allclose(mixed[head], want)

    def test_saturated_weight_selects_that_branch(self):
        model, rng = make_model()
        feats = random_feats(rng)
        # huge bias on the flow logit saturates its softmax weight to 1
        model.attention_fc.bias.data[...] = np.array([-200.0, 200.0, -200.0])
        probs = {mod: {h: softmax(rng.normal(0, 1, (3, k), "f64"))
                       for h, k in model.config.class_counts.items()}
                 for mod in MODALITIES}
        mixed = model.attention_forward(feats, probs)
        for head in HEADS:
            assert np.allclose(mixed[head], probs["flow"][head])

    def test_outputs_are_convex_combinations(self):
        model, rng = make_model()
        model.attention_fc.weight.data = rng.normal(0, 1, (3, 18), "f64")
        feats = random_feats(rng)
        probs = {mod: {h: softmax(rng.normal(0, 1, (3, k), "f64"))
                       for h, k in model.config.class_counts.items()}
                 for mod in MODALITIES}
        mixed = model.attention_forward(feats, probs)
        for head in HEADS:
            assert np.abs(mixed[head].sum(axis=1) - 1.0).max() < 1e-6
            assert mixed[head].min() >= 0


def attention_case(rng, dtype, b=5):
    """An attention model away from uniform weights, branch outputs and labels."""
    model, _ = make_model("attention", dtype=dtype)
    model.attention_fc.weight.data = rng.normal(0, 0.5, (3, 18), dtype)
    model.attention_fc.bias.data = rng.normal(0, 0.5, (3,), dtype)
    outputs = {mod: {"feature": rng.normal(0, 1, (b, 6), dtype),
                     **{head: rng.normal(0, 2, (b, k), dtype)
                        for head, k in model.config.class_counts.items()}}
               for mod in MODALITIES}
    labels = {head: (rng.uniform(0, 1, (b,), "f64") * k).astype(np.int64)
              for head, k in model.config.class_counts.items()}
    return model, outputs, labels


class TestLogProbabilityScores:
    """Late and attention score the log of their mixture, so cross-entropy is their loss."""

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_attention_gradients_equal_the_mixed_probability_loss(self, dtype):
        """Through ``multitask_loss`` and ``backward``, against the NLL of the mixed
        probabilities and its hand-derived chain, in f64."""
        tol = 1e-12 if dtype == "f64" else 1e-5
        rng = Rng(11)
        for b in (1, 2, 5, 9):
            model, outputs, labels = attention_case(rng, dtype, b)
            loss, grads = multitask_loss(model.train().forward(outputs), labels)
            for _, p in model.trainable_parameters():
                p.zero_grad()
            model.backward(grads)
            want_loss, want_w, want_b = attention_grads_of_mixed_probs(model, outputs, labels)
            assert abs(loss - want_loss) <= tol * abs(want_loss)
            for got, want in ((model.attention_fc.weight.grad, want_w),
                              (model.attention_fc.bias.grad, want_b)):
                assert got.dtype == DTYPES[dtype]
                assert np.abs(got - want).max() <= tol * np.abs(want).max()

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    def test_late_predict_proba_is_the_mean_of_the_branch_softmaxes(self, dtype):
        model, rng = make_model("late", dtype=dtype)
        inputs = {mod: rng.normal(0, 1, (4, 3, 2), dtype) for mod in MODALITIES}
        outputs = model.eval().branch_outputs(inputs)
        probs = model.predict_proba(inputs)
        for head in HEADS:
            want = sum(softmax(outputs[mod][head].astype(np.float64))
                       for mod in MODALITIES) / 3
            assert probs[head].dtype == DTYPES[dtype]
            assert np.abs(probs[head] - want).max() <= (1e-12 if dtype == "f64" else 1e-6)

    @pytest.mark.parametrize("dtype", ["f64", "f32"])
    @pytest.mark.parametrize("strategy", ["late", "attention"])
    def test_a_label_no_branch_gives_any_probability_scores_finitely(self, strategy, dtype):
        """Each branch gives the action label a probability that underflows to 0: its
        log-mixture is the log of the dtype's smallest normal, not -inf."""
        rng = Rng(12)
        model, outputs, labels = attention_case(rng, dtype)
        model.config = replace(model.config, strategy=strategy)
        rows = np.arange(len(labels["action"]))
        for mod in MODALITIES:
            outputs[mod]["action"][rows, labels["action"]] = -1e4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scores = model.train().forward(outputs)
            assert np.all(softmax(outputs["rgb"]["action"])[rows, labels["action"]] == 0)
            assert np.all(scores["action"][rows, labels["action"]]
                          == np.log(np.finfo(DTYPES[dtype]).tiny))
            loss, grads = multitask_loss(scores, labels)
            for _, p in model.trainable_parameters():
                p.zero_grad()
            model.backward(grads)
        assert np.isfinite(loss) and loss >= -0.99 * np.log(np.finfo(DTYPES[dtype]).tiny)
        assert all(np.isfinite(p.grad).all() for _, p in model.trainable_parameters())


class TestFusionGradcheck:
    def test_fusion_layer_gradients(self):
        assert check_fusion(Rng(0), 3) < 1e-4


class TestFrozenBranches:
    def test_branches_forced_to_eval(self):
        model, rng = make_model()
        model.train()
        for mod in MODALITIES:
            assert model.branches[mod].training is False

    def test_fusion_dtype_follows_branches(self):
        model, _ = make_model()  # f64 branches, no fusion dtype given
        assert {p.data.dtype for _, p in model.named_parameters()} == {np.dtype("f8")}

    def test_layout_shapes_are_the_built_state(self):
        """Fusion slots from the fusion layout, then each branch's from its own."""
        model, _ = make_model()
        want = layout_shapes(model.config.layout())
        for mod in MODALITIES:
            want.update((f"branches.{mod}.{name}", shape) for name, shape
                        in layout_shapes(model.branches[mod].config.layout()).items())
        assert list(want.items()) == [(name, a.shape) for name, a in model.named_state().items()]

    def test_mixed_branch_dtypes_rejected(self):
        model, _ = make_model()
        branches = dict(model.branches)
        branches["obj"] = Branch(replace(branches["obj"].config, dtype="f32"), Rng(1))
        with pytest.raises(TensorError, match="obj"):
            FusionModel(branches, model.config, Rng(2))

    def test_class_counts_unlike_the_branches_rejected(self):
        """Else late fusion gives the branches' 4 action columns and the fused heads 5."""
        model, _ = make_model()
        with pytest.raises(TensorError, match="'action': 4.*'action': 5"):
            FusionModel(model.branches, replace(model.config, num_actions=5), Rng(2))

    def test_load_state_unknown_branch_tensor_is_tensor_error(self):
        model, _ = make_model()
        with pytest.raises(TensorError, match="no destination"):
            model.load_state({"branches.xyz.embed.weight": np.zeros((6, 3, 1))})

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_predict_proba_forwards_each_branch_once(self, strategy, branch_forwards):
        model, rng = make_model(strategy)
        model.predict_proba({mod: rng.normal(0, 1, (2, 3, 4), "f64") for mod in MODALITIES})
        assert branch_forwards == {id(model.branches[mod]): 1 for mod in MODALITIES}


class TestOneInterface:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_forward_of_branch_outputs_is_predict_proba(self, strategy):
        model, rng = make_model(strategy)
        model.attention_fc.weight.data = rng.normal(0, 1, (3, 18), "f64")
        inputs = {mod: rng.normal(0, 1, (4, 3, 2), "f64") for mod in MODALITIES}
        scores = model.eval().forward(model.branch_outputs(inputs))
        probs = model.predict_proba(inputs)
        for head in HEADS:
            assert softmax(scores[head]).tobytes() == probs[head].tobytes()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_trainable_parameters_are_the_strategy_layers(self, strategy):
        model, _ = make_model(strategy)
        feature_layers = [*model.pairwise_fc.values(), model.pairwise_merge, model.mutual_fc,
                          *(fc for _, fc in model.heads.values())]
        layers = {"late": [], "attention": [model.attention_fc]}.get(strategy, feature_layers)
        want = [id(getattr(layer, attr)) for layer in layers for attr in layer.params]
        assert sorted(id(p) for _, p in model.trainable_parameters()) == sorted(want)


def wide_model(strategy="mutual_pairwise", dtype="f32", channels=CONCURRENT_CHANNELS, seed=0):
    """Two-block branches as wide as the cutoff from which the branch pass is concurrent,
    and an attention layer away from uniform weights."""
    rng = Rng(seed)
    bcfg = BranchConfig(input_dim=3, num_actions=4, num_verbs=2, num_nouns=3,
                        channels=channels, kernel=2, dilations=(1, 2), input_dropout=0.0,
                        block_dropout=0.0, head_dropout=0.0, dtype=dtype)
    fcfg = FusionConfig(channels=channels, num_actions=4, num_verbs=2, num_nouns=3,
                        strategy=strategy, embed_dim=8, head_dropout=0.0)
    model = FusionModel({mod: Branch(bcfg, rng) for mod in MODALITIES}, fcfg, rng)
    model.attention_fc.weight.data = rng.normal(0, 0.1, (3, 3 * channels), dtype)
    return model.eval(), rng


def serial_probs(model, outs):
    """``predict_proba``'s fusion of branch outputs computed outside the model."""
    return {head: softmax(scores) for head, scores in model.forward(outs).items()}


class TestConcurrentBranchPass:
    """From ``CONCURRENT_CHANNELS`` wide, rgb's forward runs on the caller while flow's
    and obj's are offered to the two pool workers."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_equals_three_serial_forwards(self, strategy, dtype):
        """Four B=1 streams served in turn (each one's first window a table miss, the
        rest hits), then a B=3 cone, against direct forwards that step their own streams."""
        model, rng = wide_model(strategy, dtype)
        branches = model.branches
        n = branches["rgb"].config.required_length + 1
        seqs = [{mod: rng.normal(0, 1, (1, 3, n + 3), dtype) for mod in MODALITIES}
                for _ in range(4)]
        held = [[[] for _ in MODALITIES] for _ in seqs]
        for p in range(4):
            for seq, streams in zip(seqs, held):
                x = {mod: np.ascontiguousarray(seq[mod][:, :, p:p + n]) for mod in MODALITIES}
                want = {mod: branches[mod].eval().forward(x[mod], stream=stream)
                        for mod, stream in zip(MODALITIES, streams)}
                got, want = model.predict_proba(x), serial_probs(model, want)
                for head in HEADS:
                    assert_same(got[head], want[head], dtype, probabilities=True)
        assert len(model._streams) == len(seqs)
        x = {mod: rng.normal(0, 1, (3, 3, n), dtype) for mod in MODALITIES}
        want = {mod: branches[mod].eval().forward(x[mod]) for mod in MODALITIES}
        got = model.branch_outputs(x)
        for mod in MODALITIES:
            assert got[mod].keys() == want[mod].keys()
            for key in want[mod]:
                assert_same(got[mod][key], want[mod][key], dtype)
        got, want = model.predict_proba(x), serial_probs(model, want)
        for head in HEADS:
            assert_same(got[head], want[head], dtype, probabilities=True)

    @pytest.mark.parametrize("channels", [CONCURRENT_CHANNELS, CONCURRENT_CHANNELS - 1])
    def test_the_three_forwards_are_one_concurrent_call_from_the_cutoff(self, channels,
                                                                        monkeypatch):
        """rgb's forward first, so the caller runs it; which thread runs flow's and obj's
        depends on which worker is free when the caller gets to them."""
        model, rng = wide_model(channels=channels)
        runs, run = [], fusion.run_concurrently

        def recording(calls):
            runs.append([call.func.__self__ for call in calls])
            return run(calls)

        monkeypatch.setattr(fusion, "run_concurrently", recording)
        n = model.branches["rgb"].config.required_length
        for batch in (1, 3, 1):
            model.branch_outputs({mod: rng.normal(0, 1, (batch, 3, n), "f32")
                                  for mod in MODALITIES})
        branches = [model.branches[mod] for mod in MODALITIES]
        assert runs == ([branches] * 3 if channels >= CONCURRENT_CHANNELS else [])

    @pytest.mark.parametrize("failing", ["rgb", "flow"])
    def test_an_error_is_raised_after_every_forward_has_finished(self, failing, monkeypatch):
        """A window of the wrong width in ``failing`` and in obj, whose forward starts late:
        the first error in modality order is raised once obj's forward has returned, the
        table keeps nothing of the request, and the next window is served."""
        model, rng = wide_model()
        branches = model.branches
        finished = []
        mods = {id(branches[mod]): mod for mod in MODALITIES}
        forward = Branch.forward

        def recording(self, *args, **kwargs):
            if mods[id(self)] == "obj":
                time.sleep(0.2)
            try:
                return forward(self, *args, **kwargs)
            finally:
                finished.append(mods[id(self)])

        n = branches["rgb"].config.required_length
        seq = {mod: rng.normal(0, 1, (1, 3, n + 1), "f32") for mod in MODALITIES}
        windows = [{mod: np.ascontiguousarray(seq[mod][:, :, p:p + n]) for mod in MODALITIES}
                   for p in (0, 1)]
        held = [[] for _ in MODALITIES]
        for x in windows[:1]:
            for mod, stream in zip(MODALITIES, held):
                branches[mod].eval().forward(x[mod], stream=stream)
        model.branch_outputs(windows[0])
        bad = {**windows[1], failing: rng.normal(0, 1, (1, 5, n), "f32"),
               "obj": rng.normal(0, 1, (1, 6, n), "f32")}
        monkeypatch.setattr(Branch, "forward", recording)
        with pytest.raises(TensorError, match=r"branch expected \(B, 3, N\), got \(1, 5, "):
            model.branch_outputs(bad)
        assert sorted(finished) == sorted(MODALITIES)
        assert len(model._streams) == 1
        got = model.branch_outputs(windows[1])
        monkeypatch.undo()
        for mod, stream in zip(MODALITIES, held):
            want = branches[mod].eval().forward(windows[1][mod], stream=stream)
            for key in want:
                assert_same(got[mod][key], want[key], "f32")

    def test_repeated_passes_start_no_more_than_the_two_workers(self):
        model, rng = wide_model()
        n = model.branches["rgb"].config.required_length
        seq = {mod: rng.normal(0, 1, (1, 3, n + 49), "f32") for mod in MODALITIES}
        before = threading.active_count()
        for p in range(50):
            model.branch_outputs({mod: np.ascontiguousarray(seq[mod][:, :, p:p + n])
                                  for mod in MODALITIES})
        assert threading.active_count() <= before + 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_runs_a_concurrent_pass(self):
        """The child inherits a pool whose threads did not survive the fork; it must
        start its own rather than wait for them."""
        model, rng = wide_model()
        x = {mod: rng.normal(0, 1, (2, 3, model.branches["rgb"].config.required_length),
                             "f32") for mod in MODALITIES}
        want = model.branch_outputs(x)

        def same_pass():
            got = model.branch_outputs(x)
            return all(np.array_equal(got[mod]["feature"], want[mod]["feature"])
                       for mod in MODALITIES)

        code = exit_code_in_a_child(same_pass)
        assert code is not None, "the forked child's branch pass did not finish within 30 s"
        assert code == 0

    def test_a_cold_import_loads_no_pool_machinery(self):
        """``concurrent.futures`` pulls in ``logging``; a cold ``import
        tcn_anticipation.cli``, which the CLI pays on every run, loads neither."""
        code = ("import sys, tcn_anticipation.cli; "
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert proc.stdout.strip() == "[]"

