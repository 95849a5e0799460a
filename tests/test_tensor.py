import math

import numpy as np
import numpy.testing as npt
import pytest

from camfuse.tensor import (
    DimensionError,
    LayerNormParams,
    LinearMap,
    TokenTensor,
    affine,
    affine_vjp,
    layer_norm,
    layer_norm_vjp,
    sigmoid,
    softmax_rows,
    softmax_vjp,
    swish,
    swish_vjp,
)
from camfuse.gradcheck import finite_difference_grad, max_relative_error

from oracles import ref_affine


class TestTokenTensor:
    def test_rejects_wrong_rank(self):
        with pytest.raises(DimensionError):
            TokenTensor(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        data = np.zeros((1, 2, 3))
        data[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            TokenTensor(data)

    def test_casts_ints_to_float64(self):
        t = TokenTensor(np.arange(6).reshape(1, 2, 3))
        assert t.data.dtype == np.float64

    def test_accepts_float32(self):
        t = TokenTensor(np.zeros((1, 1, 1), dtype=np.float32))
        assert t.data.dtype == np.float32


class TestMatmulTokens:
    """The affine kernel applied to [frames, tokens, width] arrays."""

    def test_zero_input_yields_bias(self):
        rng = np.random.default_rng(0)
        bias = rng.standard_normal(5)
        lin = LinearMap(rng.standard_normal((4, 5)), bias)
        out = affine(np.zeros((2, 3, 4)), lin)
        npt.assert_array_equal(out, np.broadcast_to(bias, (2, 3, 5)))

    def test_identity_map(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((2, 3, 4))
        lin = LinearMap(np.eye(4), np.zeros(4))
        npt.assert_array_equal(affine(x, lin), x)

    def test_against_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 3, 4))
        lin = LinearMap(rng.standard_normal((4, 5)), rng.standard_normal(5))
        expected = ref_affine(x, lin.weight, lin.bias)
        npt.assert_allclose(affine(x, lin), expected, rtol=0, atol=1e-12)


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        p = LayerNormParams.identity(4)
        x = np.full((2, 3, 4), 7.25)
        npt.assert_array_equal(layer_norm(x, p), np.zeros((2, 3, 4)))

    def test_already_normalized_row(self):
        p = LayerNormParams.identity(2, epsilon=1e-15)
        x = np.array([[[1.0, -1.0]]])
        npt.assert_allclose(layer_norm(x, p), x, atol=1e-9)

    def test_random_row_statistics(self):
        rng = np.random.default_rng(3)
        row = rng.standard_normal(16)
        row = (row - row.mean()) / row.std()  # pin variance so the check is sharp
        out = layer_norm(row.reshape(1, 1, 16), LayerNormParams.identity(16))[0, 0]
        assert abs(out.mean()) < 1e-10
        assert abs(out.var() - 1.0) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        p = LayerNormParams(rng.standard_normal(5), rng.standard_normal(5))
        x = rng.standard_normal((2, 3, 5))
        a = layer_norm(x, p)
        b = layer_norm(x + 123.456, p)
        npt.assert_allclose(a, b, atol=1e-9)


class TestSoftmax:
    def test_uniform_rows(self):
        out = softmax_rows(np.full((3, 5), 2.0))
        npt.assert_allclose(out, np.full((3, 5), 0.2), atol=1e-15)

    def test_shift_invariance_no_overflow(self):
        out = softmax_rows(np.array([[1e4, 1e4]]))
        npt.assert_array_equal(out, np.array([[0.5, 0.5]]))

    def test_small_row_against_exponentials(self):
        out = softmax_rows(np.array([[0.0, 1.0, 2.0]]))[0]
        raw = [math.exp(0.0), math.exp(1.0), math.exp(2.0)]
        expected = [r / sum(raw) for r in raw]
        npt.assert_allclose(out, expected, atol=1e-15)
        assert abs(out.sum() - 1.0) < 1e-9

    def test_rows_sum_to_one_and_nonnegative(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 7)) * 30
        out = softmax_rows(x)
        assert (out >= 0).all()
        npt.assert_allclose(out.sum(axis=-1), np.ones(20), atol=1e-9)


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_range_and_stability(self):
        moderate = sigmoid(np.array([-30.0, -3.0, 0.0, 3.0, 30.0]))
        assert (moderate > 0).all() and (moderate < 1).all()
        extreme = sigmoid(np.array([-1e4, 1e4]))  # saturates, but never NaN/Inf
        assert np.isfinite(extreme).all()
        assert (extreme >= 0).all() and (extreme <= 1).all()

    def test_swish_at_zero(self):
        assert swish(np.array([0.0]))[0] == 0.0

    def test_swish_at_one(self):
        npt.assert_allclose(swish(np.array([1.0]))[0], 0.7310585786300049, atol=1e-15)

    def test_swish_approaches_identity(self):
        npt.assert_allclose(swish(np.array([40.0]))[0], 40.0, rtol=1e-12)


class TestShapePurity:
    """Output shapes depend only on input shapes."""

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_shapes(self, seed):
        rng = np.random.default_rng(seed)
        n, m, a, b = rng.integers(1, 6, size=4)
        x = rng.standard_normal((n, m, a))
        lin = LinearMap(rng.standard_normal((a, b)), rng.standard_normal(b))
        assert affine(x, lin).shape == (n, m, b)
        assert layer_norm(x, LayerNormParams.identity(a)).shape == (n, m, a)
        assert softmax_rows(rng.standard_normal((m, a))).shape == (m, a)


class TestVjps:
    def test_identity_map_passes_cotangent_through(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((2, 3, 4))
        lin = LinearMap(np.eye(4), np.zeros(4))
        g = rng.standard_normal((2, 3, 4))
        gx, _, _ = affine_vjp(x, lin, g)
        npt.assert_array_equal(gx, g)

    def test_matmul_vjp_vs_finite_differences(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((2, 3, 4))
        lin = LinearMap(rng.standard_normal((4, 5)), rng.standard_normal(5))
        g = rng.standard_normal((2, 3, 5))
        gx, gw, gb = affine_vjp(x, lin, g)

        def loss():
            return float(np.sum(g * affine(x, lin)))

        assert max_relative_error(gx, finite_difference_grad(loss, x)) < 1e-6
        assert max_relative_error(gw, finite_difference_grad(loss, lin.weight)) < 1e-6
        assert max_relative_error(gb, finite_difference_grad(loss, lin.bias)) < 1e-6

    def test_layer_norm_vjp_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 5))
        p = LayerNormParams(rng.standard_normal(5), rng.standard_normal(5))
        g = rng.standard_normal((2, 3, 5))
        gx, ggain, gshift = layer_norm_vjp(x, p, g)

        def loss():
            return float(np.sum(g * layer_norm(x, p)))

        assert max_relative_error(gx, finite_difference_grad(loss, x)) < 1e-5
        assert max_relative_error(ggain, finite_difference_grad(loss, p.gain)) < 1e-5
        assert max_relative_error(gshift, finite_difference_grad(loss, p.shift)) < 1e-5

    def test_softmax_vjp_along_ones_is_zero(self):
        # shift invariance: the Jacobian annihilates the all-ones direction
        x = np.full((3, 4), 0.25)
        out = softmax_vjp(softmax_rows(x), np.ones((3, 4)))
        npt.assert_allclose(out, np.zeros((3, 4)), atol=1e-15)

    def test_softmax_vjp_vs_finite_differences(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((3, 4))
        g = rng.standard_normal((3, 4))
        analytic = softmax_vjp(softmax_rows(x), g)

        def loss():
            return float(np.sum(g * softmax_rows(x)))

        assert max_relative_error(analytic, finite_difference_grad(loss, x)) < 1e-5

    @pytest.mark.parametrize("op,op_vjp", [(swish, swish_vjp)])
    def test_elementwise_vjps_vs_finite_differences(self, op, op_vjp):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 5))
        g = rng.standard_normal((2, 5))
        analytic = op_vjp(x, g)

        def loss():
            return float(np.sum(g * op(x)))

        assert max_relative_error(analytic, finite_difference_grad(loss, x)) < 1e-5
