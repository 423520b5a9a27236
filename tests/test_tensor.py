import numpy as np
import pytest

from tcn_anticipation import tensor
from tcn_anticipation.tensor import NonFiniteError, Rng, TensorError


class TestRng:
    def test_zero_std_normal(self):
        assert np.array_equal(Rng(1).normal(0, 0, (4,)), np.zeros(4, np.float32))

    def test_uniform_mean_large_sample(self):
        mean = Rng(7).uniform(0, 1, (10 ** 6,), "f64").mean()
        assert abs(mean - 0.5) < 0.005

    def test_uniform_std_within_one_percent(self):
        draws = Rng(7).uniform(0, 1, (10 ** 6,), "f64")
        want = 1.0 / np.sqrt(12.0)
        assert abs(draws.std() - want) / want < 0.01

    def test_normal_stats_within_one_percent(self):
        draws = Rng(9).normal(2.0, 3.0, (10 ** 6,), "f64")
        assert abs(draws.mean() - 2.0) < 0.01 * 3.0
        assert abs(draws.std() - 3.0) / 3.0 < 0.01

    def test_same_seed_bitwise_identical(self):
        a = Rng(42).normal(0, 1, (100,), "f64")
        b = Rng(42).normal(0, 1, (100,), "f64")
        assert a.tobytes() == b.tobytes()

    def test_invalid_range(self):
        with pytest.raises(TensorError):
            Rng(0).uniform(1.0, 1.0, (3,))

    def test_negative_std(self):
        with pytest.raises(TensorError):
            Rng(0).normal(0.0, -1.0, (3,))

    @pytest.mark.parametrize("seed", [-1, -3])
    def test_negative_seed_rejected_naming_it(self, seed):
        with pytest.raises(TensorError, match=f"seed must be >= 0, got {seed}"):
            Rng(seed)


class TestElementwise:
    def test_argsort_desc_tie_by_index(self):
        assert tensor.argsort_desc(np.array([0.3, 0.9, 0.3])).tolist() == [1, 0, 2]

    def test_check_finite_rejects_nan_and_inf(self):
        finite = np.array([1.0, -2.0])
        assert tensor.check_finite(finite) is finite
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError, match="draw"):
                tensor.check_finite(np.array([1.0, bad]), "draw")
