import numpy as np
import pytest

from tcn_anticipation.baseline import LstmConfig, LstmEncoderDecoder, _sigmoid
from tcn_anticipation.gradcheck import finite_difference_grad, max_rel_error
from tcn_anticipation.layers import SoftmaxCrossEntropy, layout_shapes
from tcn_anticipation.tensor import Rng, TensorError


class TestCellMath:
    def test_sigmoid_stable_and_correct(self):
        x = np.array([-800.0, -1.0, 0.0, 1.0, 800.0])
        out = _sigmoid(x)
        assert np.all(np.isfinite(out))
        assert out[2] == 0.5
        assert np.allclose(out[1:4], 1 / (1 + np.exp(-x[1:4])))

    def test_forward_shapes(self):
        rng = Rng(0)
        cfg = LstmConfig(input_dim=5, hidden=7, num_actions=4, encoder_steps=6)
        model = LstmEncoderDecoder(cfg, rng)
        x = rng.normal(0, 1, (3, 5, 6))
        assert model.forward(x).shape == (3, 4)

    def test_layout_shapes_are_the_built_parameters(self):
        cfg = LstmConfig(input_dim=5, hidden=7, num_actions=4, encoder_steps=6)
        model = LstmEncoderDecoder(cfg, Rng(0))
        assert list(layout_shapes(cfg.layout()).items()) == [
            (name, p.data.shape) for name, p in model.named_parameters()]

    def test_wrong_length_rejected(self):
        rng = Rng(0)
        model = LstmEncoderDecoder(LstmConfig(4, 4, 3, encoder_steps=6), rng)
        with pytest.raises(TensorError):
            model.forward(rng.normal(0, 1, (1, 4, 5)))

    def test_eval_forward_deterministic(self):
        rng = Rng(1)
        model = LstmEncoderDecoder(LstmConfig(4, 6, 3, encoder_steps=5), rng).eval()
        x = rng.normal(0, 1, (2, 4, 5))
        assert model.forward(x).tobytes() == model.forward(x).tobytes()


class TestBptt:
    def test_gradients_match_finite_differences(self):
        rng = Rng(3)
        cfg = LstmConfig(input_dim=3, hidden=4, num_actions=3, encoder_steps=5, dtype="f64")
        model = LstmEncoderDecoder(cfg, rng).train()
        x = rng.normal(0, 1, (2, 3, 5), "f64")
        y = np.array([0, 2])

        def f():
            return SoftmaxCrossEntropy().forward(model.forward(x), y)

        for _, p in model.named_parameters():
            p.zero_grad()
        ce = SoftmaxCrossEntropy()
        ce.forward(model.forward(x), y)
        assert model.backward(ce.backward()) is None  # no input gradient: nothing reads it
        worst = 0.0
        for _, p in model.named_parameters():
            worst = max(worst, max_rel_error(p.grad, finite_difference_grad(f, p.data)))
        assert worst < 1e-4

    def test_backward_requires_train_forward(self):
        rng = Rng(4)
        model = LstmEncoderDecoder(LstmConfig(3, 4, 3, encoder_steps=4), rng).eval()
        model.forward(rng.normal(0, 1, (1, 3, 4)))
        with pytest.raises(TensorError):
            model.backward(np.ones((1, 3)))
