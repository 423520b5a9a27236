from dataclasses import replace

import numpy as np
import pytest

from tcn_anticipation.branch import Branch, BranchConfig
from tcn_anticipation.fusion import (FEATURE_STRATEGIES, FusionConfig, FusionModel, HEADS,
                                     MODALITIES, STRATEGIES, late_fusion)
from tcn_anticipation.gradcheck import check_fusion
from tcn_anticipation.layers import layout_shapes, softmax
from tcn_anticipation.tensor import Rng, TensorError
from tcn_anticipation.training import SgdOptimizer

from oracles import fusion_logits_unfolded, max_rel_prob_error


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
        _, grads = model.loss(model.train().fuse_forward(feats, rng), labels)
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
        if strategy in FEATURE_STRATEGIES:
            scores = {head: softmax(scores[head]) for head in HEADS}
        probs = model.predict_proba(inputs)
        for head in HEADS:
            assert scores[head].tobytes() == probs[head].tobytes()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_trainable_parameters_are_the_strategy_layers(self, strategy):
        model, _ = make_model(strategy)
        feature_layers = [*model.pairwise_fc.values(), model.pairwise_merge, model.mutual_fc,
                          *(fc for _, fc in model.heads.values())]
        layers = {"late": [], "attention": [model.attention_fc]}.get(strategy, feature_layers)
        want = [id(getattr(layer, attr)) for layer in layers for attr in layer.params]
        assert sorted(id(p) for _, p in model.trainable_parameters()) == sorted(want)
