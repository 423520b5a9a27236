import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tcn_anticipation.gradcheck import (check_batchnorm, check_conv1d, check_linear,
                                        check_relu, check_softmax_ce,
                                        check_spatial_dropout, finite_difference_grad,
                                        max_rel_error)
from tcn_anticipation.layers import (BatchNorm1d, Conv1d, Linear, ReLU,
                                     SoftmaxCrossEntropy, SpatialDropout, softmax)
from tcn_anticipation.tensor import Rng, TensorError

from oracles import conv1d_loops

GRADCHECK_TOL = 1e-4


def make_conv(w, dilation=1):
    w = np.asarray(w, dtype=np.float64)
    conv = Conv1d(w.shape[1], w.shape[0], w.shape[2], dilation, dtype="f64")
    conv.weight.data = w
    return conv


class TestConv1d:
    def test_hand_expanded_kernel(self):
        conv = make_conv([[[1.0, 0.0, -1.0]]])
        x = np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]])
        assert np.array_equal(conv.forward(x), [[[-2.0, -2.0, -2.0]]])

    def test_hand_expanded_dilation_two(self):
        conv = make_conv([[[1.0, 0.0, -1.0]]], dilation=2)
        x = np.array([[[1.0, 2.0, 3.0, 4.0, 5.0]]])
        assert np.array_equal(conv.forward(x), [[[-4.0]]])

    def test_identity_kernel(self):
        conv = make_conv([[[1.0]]])
        x = Rng(0).normal(0, 1, (2, 1, 6), "f64")
        assert np.array_equal(conv.forward(x), x)

    def test_too_short_input(self):
        conv = make_conv([[[1.0, 0.0, -1.0]]], dilation=3)
        with pytest.raises(TensorError):
            conv.forward(np.zeros((1, 1, 6)))

    def test_matches_loop_oracle(self):
        rng = Rng(4)
        conv = Conv1d(3, 5, 3, dilation=2, dtype="f64", rng=rng)
        x = rng.normal(0, 1, (2, 3, 9), "f64")
        want = conv1d_loops(x, conv.weight.data, conv.bias.data, 2)
        assert np.allclose(conv.forward(x), want, rtol=0, atol=1e-12)

    def test_grad_bias_is_sum_of_grad_out(self):
        rng = Rng(1)
        conv = Conv1d(2, 3, 3, dtype="f64", rng=rng)
        conv.training = True
        x = rng.normal(0, 1, (2, 2, 8), "f64")
        conv.forward(x)
        gout = rng.normal(0, 1, (2, 3, 6), "f64")
        conv.backward(gout)
        assert np.allclose(conv.bias.grad, gout.sum(axis=(0, 2)))

    def test_zero_grad_out_zero_grads(self):
        rng = Rng(2)
        conv = Conv1d(2, 2, 3, dtype="f64", rng=rng)
        conv.training = True
        x = rng.normal(0, 1, (1, 2, 7), "f64")
        conv.forward(x)
        gx = conv.backward(np.zeros((1, 2, 5)))
        assert not gx.any() and not conv.weight.grad.any() and not conv.bias.grad.any()

    def test_backward_matches_finite_differences_tight(self):
        # B=2, C=3, K=3, N=9, dilation=2: the spec-level random instance
        rng = Rng(6)
        conv = Conv1d(3, 3, 3, dilation=2, dtype="f64", rng=rng)
        conv.training = True
        x = rng.normal(0, 1, (2, 3, 9), "f64")
        gout = rng.normal(0, 1, (2, 3, 5), "f64")

        def f():
            return float((conv.forward(x) * gout).sum())

        f()
        grad_x = conv.backward(gout)
        worst = max_rel_error(grad_x, finite_difference_grad(f, x))
        worst = max(worst, max_rel_error(conv.weight.grad, finite_difference_grad(f, conv.weight.data)))
        worst = max(worst, max_rel_error(conv.bias.grad, finite_difference_grad(f, conv.bias.data)))
        assert worst < 1e-6

    @pytest.mark.parametrize("runs", [((0, 5),), ((0, 1), (3, 5)), ((2, 3),), ((1, 2), (4, 5))])
    def test_plan_computes_those_outputs(self, runs):
        """Each (start, stop) run of output positions, read from the whole input and from
        a packed one that holds only the columns the runs read."""
        rng = Rng(4)
        conv = Conv1d(3, 5, 3, dilation=2, dtype="f64", rng=rng)
        x = rng.normal(0, 1, (2, 3, 9), "f64")
        positions = [t for start, stop in runs for t in range(start, stop)]
        want = conv1d_loops(x, conv.weight.data, conv.bias.data, 2)[:, :, positions]
        whole = tuple((stop - start, (start, start + 2, start + 4)) for start, stop in runs)
        read = sorted({t + 2 * k for t in positions for k in range(3)})
        packed = tuple((stop - start, tuple(read.index(start + 2 * k) for k in range(3)))
                       for start, stop in runs)
        assert np.allclose(conv.forward(x, whole), want, rtol=0, atol=1e-12)
        assert np.allclose(conv.forward(x[:, :, read], packed), want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("plan", [((2, (2, 3, 4)),), ((1, (-1, 0, 1)),), ((0, (0, 1, 2)),),
                                      ((1, (0, 1)),), ((1, (0, 1, 2)), (1, (3, 4, 5)))])
    def test_plan_reading_outside_x_rejected(self, plan):
        conv = make_conv([[[1.0, 0.0, -1.0]]])
        with pytest.raises(TensorError):
            conv.forward(np.zeros((1, 1, 5)), plan)

    @settings(max_examples=20, deadline=None)
    @given(k=st.sampled_from([1, 3, 5]), dils=st.lists(st.integers(1, 8), min_size=1, max_size=4))
    def test_length_arithmetic_composes(self, k, dils):
        rng = Rng(0)
        n = 1 + (k - 1) * sum(dils) + 3
        x = rng.normal(0, 1, (1, 2, n), "f64")
        for d in dils:
            conv = Conv1d(2, 2, k, d, dtype="f64", rng=rng)
            x = conv.forward(x)
            n = n - (k - 1) * d
            assert x.shape[2] == n


class TestBatchNorm:
    def test_constant_channel_maps_to_zero(self):
        bn = BatchNorm1d(2, dtype="f64")
        bn.training = True
        x = np.stack([np.full((2, 5), 3.0), np.full((2, 5), -1.0)]).transpose(1, 0, 2)
        out = bn.forward(np.ascontiguousarray(x))
        assert np.allclose(out, 0.0, atol=1e-6)

    def test_normalized_statistics(self):
        rng = Rng(3)
        bn = BatchNorm1d(4, dtype="f64")
        bn.training = True
        x = rng.normal(2.0, 3.0, (8, 4, 16), "f64")
        out = bn.forward(x)
        assert np.abs(out.mean(axis=(0, 2))).max() < 1e-5
        assert np.abs(out.var(axis=(0, 2)) - 1.0).max() < 1e-3

    def test_running_stats_only_update_in_train(self):
        rng = Rng(5)
        bn = BatchNorm1d(3)
        x = rng.normal(1.0, 2.0, (4, 3, 6))
        before = bn.running_mean.copy(), bn.running_var.copy()
        bn.training = False
        bn.forward(x)
        assert np.array_equal(bn.running_mean, before[0])
        assert np.array_equal(bn.running_var, before[1])
        bn.training = True
        bn.forward(x)
        assert not np.array_equal(bn.running_mean, before[0])

    def test_batch_of_one_constant_uses_eps(self):
        bn = BatchNorm1d(1, dtype="f64")
        bn.training = True
        out = bn.forward(np.full((1, 1, 4), 7.0))
        assert np.all(np.isfinite(out))

    def test_eval_uses_running_stats(self):
        rng = Rng(8)
        bn = BatchNorm1d(2, dtype="f64")
        bn.training = True
        for _ in range(5):
            bn.forward(rng.normal(3.0, 2.0, (16, 2, 8), "f64"))
        bn.training = False
        x = rng.normal(3.0, 2.0, (4, 2, 8), "f64")
        out = bn.forward(x)
        want = (x - bn.running_mean[None, :, None]) / np.sqrt(bn.running_var + 1e-5)[None, :, None]
        assert np.allclose(out, want)


class TestSpatialDropout:
    def test_p_zero_is_identity(self):
        drop = SpatialDropout(0.0)
        drop.training = True
        x = Rng(0).normal(0, 1, (3, 4, 5))
        assert drop.forward(x, Rng(1)) is x

    def test_eval_mode_is_identity_and_ignores_rng(self):
        drop = SpatialDropout(0.5)
        x = Rng(0).normal(0, 1, (3, 4, 5))
        assert drop.forward(x, Rng(1)) is x

    def test_train_mode_requires_rng(self):
        drop = SpatialDropout(0.5)
        drop.training = True
        with pytest.raises(TensorError):
            drop.forward(np.ones((2, 3, 4)))

    def test_drop_rate_and_exact_scaling(self):
        drop = SpatialDropout(0.5)
        drop.training = True
        x = np.ones((1, 10_000, 7), dtype=np.float64)
        out = drop.forward(x, Rng(123))
        per_channel = out[0, :, 0]
        dropped = (per_channel == 0).mean()
        assert abs(dropped - 0.5) < 0.02
        kept = per_channel[per_channel != 0]
        assert np.all(kept == 2.0)

    def test_channel_atomicity(self):
        drop = SpatialDropout(0.4)
        drop.training = True
        x = Rng(9).normal(1.0, 0.1, (6, 32, 11), "f64")
        out = drop.forward(x, Rng(10))
        scaled = x / (1 - 0.4)
        for b in range(6):
            for c in range(32):
                row = out[b, c]
                assert np.all(row == 0) or np.allclose(row, scaled[b, c])

    def test_vector_input(self):
        drop = SpatialDropout(0.5)
        drop.training = True
        out = drop.forward(np.ones((4, 1000)), Rng(3))
        assert set(np.unique(out)).issubset({0.0, 2.0})

    def test_invalid_probability(self):
        with pytest.raises(TensorError):
            SpatialDropout(1.0)


class TestLinearRelu:
    def test_linear_forward(self):
        lin = Linear(2, 3, dtype="f64")
        lin.weight.data = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        lin.bias.data = np.array([0.0, 1.0, -1.0])
        out = lin.forward(np.array([[2.0, 3.0]]))
        assert np.array_equal(out, [[2.0, 4.0, 4.0]])

    def test_relu_forward_backward(self):
        relu = ReLU()
        relu.training = True
        out = relu.forward(np.array([-1.0, 0.0, 2.0]))
        assert np.array_equal(out, [0.0, 0.0, 2.0])
        assert np.array_equal(relu.backward(np.ones(3)), [0.0, 0.0, 1.0])


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        ce = SoftmaxCrossEntropy()
        loss = ce.forward(np.zeros((2, 4)), np.array([1, 3]))
        assert abs(loss - np.log(4)) < 1e-12

    def test_softmax_rows_sum_to_one(self):
        p = softmax(Rng(0).normal(0, 5, (10, 7), "f64"))
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-6

    def test_saturated_correct_logits_loss_to_zero(self):
        logits = np.full((1, 3), -100.0)
        logits[0, 1] = 100.0
        ce = SoftmaxCrossEntropy()
        assert ce.forward(logits, np.array([1])) < 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(TensorError):
            SoftmaxCrossEntropy().forward(np.zeros((1, 3)), np.array([3]))

    def test_extreme_logits_stable(self):
        ce = SoftmaxCrossEntropy()
        loss = ce.forward(np.array([[1000.0, -1000.0]]), np.array([0]))
        assert loss == 0.0


class TestGradimalSuite:
    """Per-layer finite-difference checks, 20 random configs each."""

    @pytest.mark.parametrize("check", [
        check_conv1d, check_batchnorm, check_spatial_dropout,
        check_linear, check_relu, check_softmax_ce,
    ])
    def test_twenty_configs_under_tolerance(self, check):
        assert check(Rng(0), 20) < GRADCHECK_TOL


class TestEvalDeterminism:
    def test_two_eval_forwards_bitwise_identical(self):
        rng = Rng(2)
        conv = Conv1d(3, 4, 3, dtype="f32", rng=rng)
        bn = BatchNorm1d(4)
        drop = SpatialDropout(0.5)
        x = rng.normal(0, 1, (2, 3, 9))
        a = drop.forward(bn.forward(conv.forward(x)))
        b = drop.forward(bn.forward(conv.forward(x)))
        assert a.tobytes() == b.tobytes()


class TestEvalKeepsNothing:
    @pytest.mark.parametrize("make, shape", [
        (lambda rng: Conv1d(2, 3, 3, dtype="f64", rng=rng), (2, 2, 7)),
        (lambda rng: BatchNorm1d(2, dtype="f64"), (2, 2, 7)),
        (lambda rng: Linear(2, 3, dtype="f64", rng=rng), (2, 2)),
        (lambda rng: ReLU(), (2, 3)),
    ], ids=["conv1d", "batchnorm", "linear", "relu"])
    def test_backward_after_eval_forward_raises(self, make, shape):
        rng = Rng(0)
        layer = make(rng)
        x = rng.normal(0, 1, shape, "f64")
        layer.training = True
        out = layer.forward(x)
        layer.training = False
        layer.forward(x)
        with pytest.raises(TensorError, match="train-mode forward"):
            layer.backward(np.ones_like(out))
