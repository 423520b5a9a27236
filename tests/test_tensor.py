import tracemalloc

import numpy as np
import pytest

from tcn_anticipation import tensor
from tcn_anticipation.tensor import BLOCK, DTYPES, NonFiniteError, Rng, TensorError

MIB = 1 << 20


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


DRAWS = {"uniform": (-0.3, 1.7), "normal": (0.5, 2.0)}


class TestBlockedDraws:
    """Each draw equals numpy's one-shot draw cast to the dtype, and leaves the stream where
    that draw would."""

    @pytest.mark.parametrize("dtype", ["f32", "f64"])
    @pytest.mark.parametrize("method", sorted(DRAWS))
    @pytest.mark.parametrize("shape", [(), (0, 5), (1,), (3, 7), (BLOCK - 1,), (BLOCK,),
                                       (BLOCK + 1,), (3, BLOCK + 5), (2, 3, BLOCK // 2 + 3)])
    def test_equals_the_one_shot_draw_and_the_next_permutation(self, dtype, method, shape):
        rng = Rng(11)
        got = getattr(rng, method)(*DRAWS[method], shape, dtype)
        got_perm = rng.permutation(17)
        gen = np.random.Generator(np.random.PCG64(11))
        want = np.asarray(getattr(gen, method)(*DRAWS[method], size=shape), DTYPES[dtype])
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert np.array_equal(got_perm, gen.permutation(17))

    def test_draws_in_a_row_continue_one_stream(self):
        rng, gen = Rng(5), np.random.Generator(np.random.PCG64(5))
        for method, shape, dtype in (("uniform", (BLOCK + 7,), "f32"), ("normal", (), "f64"),
                                     ("normal", (2, BLOCK), "f32"), ("uniform", (0,), "f64"),
                                     ("uniform", (9,), "f64")):
            got = getattr(rng, method)(*DRAWS[method], shape, dtype)
            want = np.asarray(getattr(gen, method)(*DRAWS[method], size=shape), DTYPES[dtype])
            assert got.tobytes() == want.tobytes(), (method, shape, dtype)

    @pytest.mark.parametrize("shape", [(0,), (0, 5)])
    def test_a_zero_size_draw_with_an_unusable_range_raises_numpys_error(self, shape):
        with pytest.raises(OverflowError):
            Rng(0).uniform(-1e308, 1e308, shape, "f64")

    def test_a_non_finite_result_is_a_non_finite_error(self):
        with pytest.raises(NonFiniteError, match="normal"):
            Rng(0).normal(np.nan, 1.0, (BLOCK + 3,), "f64")
        with pytest.raises(NonFiniteError, match="normal"):
            Rng(0).normal(0.0, np.inf, (4,), "f64")
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="uniform"):
            Rng(0).uniform(0.0, 1e39, (2, BLOCK), "f32")  # finite in f64, infinite in f32

    def test_a_large_draw_allocates_little_beside_its_result(self):
        shape = (1024, 1024, 3)
        rng = Rng(3)
        tracemalloc.start()
        try:
            out = rng.uniform(-0.05, 0.05, shape, "f32")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.nbytes == 12 * MIB
        assert peak < out.nbytes + MIB, peak / MIB


class TestElementwise:
    def test_argsort_desc_tie_by_index(self):
        assert tensor.argsort_desc(np.array([0.3, 0.9, 0.3])).tolist() == [1, 0, 2]

    def test_check_finite_rejects_nan_and_inf(self):
        finite = np.array([1.0, -2.0])
        assert tensor.check_finite(finite) is finite
        for bad in (np.nan, np.inf):
            with pytest.raises(NonFiniteError, match="draw"):
                tensor.check_finite(np.array([1.0, bad]), "draw")
