import errno
import math
import mmap

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from camfuse.tensor import (
    LN_EPSILON,
    DimensionError,
    LayerNormParams,
    LinearMap,
    TokenTensor,
    affine,
    affine_vjp,
    empty_buffer,
    normalise,
    normalise_vjp,
    sigmoid,
    softmax_rows,
    swish,
    swish_vjp,
)
from camfuse.gradcheck import finite_difference_grad, max_relative_error

from helpers import in_own_mapping
from oracles import (former_affine, former_layer_norm, former_sigmoid, former_swish,
                     former_swish_vjp, ref_affine, two_branch_sigmoid)

# the edges of float64 that a logistic function must get right: signed zeros,
# subnormals, the exp underflow/overflow thresholds (about ±708 and ±745) and
# the infinities
_SIGMOID_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e-300, -1e-300,
                  36.0, -36.0, 708.0, -708.0, 710.0, -710.0, 745.0, -745.0, 746.0, -746.0,
                  1.7976931348623157e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]


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

    def test_boundary_types_widen_float32_exactly(self):
        narrow = np.random.default_rng(0).standard_normal((2, 3, 4)).astype(np.float32)
        wide = narrow.astype(np.float64)
        lin = LinearMap(narrow[0], narrow[0, 0])
        ln = LayerNormParams(narrow[0, 0], narrow[1, 0])
        for got, expected in ((TokenTensor(narrow).data, wide), (lin.weight, wide[0]),
                              (lin.bias, wide[0, 0]), (ln.gain, wide[0, 0]),
                              (ln.shift, wide[1, 0])):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == expected.tobytes()

    def test_contiguous_float64_is_not_copied(self):
        data = np.zeros((1, 2, 3))
        assert TokenTensor(data).data is data

    def test_scalar_is_not_rank_1(self):
        with pytest.raises(DimensionError, match="rank 1"):
            LinearMap(np.ones((2, 1)), 0.0)

    def test_bias_is_required(self):
        with pytest.raises(DimensionError, match="linear bias"):
            LinearMap(np.ones((2, 1)), None)
        with pytest.raises(TypeError):
            LinearMap(np.ones((2, 1)))


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


def normalised(x: np.ndarray) -> np.ndarray:
    """The rows `normalise` writes for `x`, without its ones column."""
    return normalise(x, np.empty(x.shape[:-1] + (x.shape[-1] + 1,)))[..., :-1]


class TestLayerNorm:
    def test_constant_row_maps_to_zero(self):
        x = np.full((2, 3, 4), 7.25)
        npt.assert_array_equal(normalised(x), np.zeros((2, 3, 4)))

    def test_already_normalized_row(self):
        x = np.array([[[1.0, -1.0]]])
        npt.assert_allclose(normalised(x), x / math.sqrt(1 + LN_EPSILON), rtol=1e-15, atol=0)

    def test_random_row_statistics(self):
        rng = np.random.default_rng(3)
        row = rng.standard_normal(16)
        row = (row - row.mean()) / row.std()  # pin variance so the check is sharp
        out = normalised(row.reshape(1, 1, 16))[0, 0]
        assert abs(out.mean()) < 1e-10
        assert abs(out.var() - 1.0) < 1e-6

    def test_shift_invariance(self):
        rng = np.random.default_rng(4)
        p = LayerNormParams(rng.standard_normal(5), rng.standard_normal(5))
        x = rng.standard_normal((2, 3, 5))
        a = normalised(x) * p.gain + p.shift
        b = normalised(x + 123.456) * p.gain + p.shift
        npt.assert_allclose(a, b, atol=1e-9)


def _kernel_inputs():
    """Inputs for the byte-identity tests: widths 1, 5 and 64, 2-D and 3-D,
    constant rows (zero variance), rows offset by 1e8 and a non-contiguous
    view."""
    rng = np.random.default_rng(60)
    for width in (1, 5, 64):
        constant = rng.standard_normal((3, 4, width))
        constant[0] = 2.5
        yield pytest.param(rng.standard_normal((7, width)), id=f"2d-{width}")
        yield pytest.param(constant, id=f"3d-constant-rows-{width}")
        yield pytest.param(rng.standard_normal((2, 5, width)) + 1e8, id=f"offset-1e8-{width}")
        yield pytest.param(rng.standard_normal((6, 9, 2 * width))[::2, 1::2, ::2],
                           id=f"strided-view-{width}")


class TestEmptyBuffer:
    @pytest.mark.parametrize("shape, dtype, mapped", [
        ((0,), np.uint8, False),
        (((1 << 20) - 1,), np.uint8, False),
        ((1 << 20,), np.uint8, True),
        ((3, 5), np.float64, False),
        ((2, 1024, 64), np.float64, True),
    ])
    def test_writable_c_contiguous_and_mapped_from_1_mib(self, shape, dtype, mapped):
        array = empty_buffer(shape, dtype)
        assert array.shape == shape and array.dtype == dtype
        assert array.flags.writeable and array.flags.c_contiguous
        assert in_own_mapping(array) == mapped
        array[...] = 7
        assert (array == 7).all()

    @pytest.mark.skipif(not hasattr(mmap, "MADV_HUGEPAGE"), reason="no huge-page advice here")
    def test_refused_huge_page_advice_still_maps(self, monkeypatch):
        # a kernel built without transparent huge pages answers the advice with EINVAL
        advised = []

        class NoHugePages(mmap.mmap):
            def madvise(self, *args):
                advised.append(args)
                raise OSError(errno.EINVAL, "Invalid argument")

        monkeypatch.setattr(mmap, "mmap", NoHugePages)
        array = empty_buffer((2, 1024, 64))
        assert advised == [(mmap.MADV_HUGEPAGE,)]
        assert in_own_mapping(array) and array.flags.writeable
        array[...] = 7
        assert (array == 7).all()


def _activation_inputs():
    """Inputs for the activations' byte-identity tests: 0-d and empty arrays,
    an [m, 1] column (as `tw_mlp.1` gives), a [1, d] row (as the gate is),
    signed zeros and the exp thresholds +-745 and +-800, and a strided view."""
    rng = np.random.default_rng(61)
    edges = [0.0, -0.0, 745.0, -745.0, 800.0, -800.0]
    yield pytest.param(np.array(1.5), id="0-d")
    yield pytest.param(np.array(-0.0), id="0-d-negative-zero")
    yield pytest.param(np.array(-800.0), id="0-d-minus-800")
    yield pytest.param(np.zeros(0), id="empty")
    yield pytest.param(np.zeros((0, 3)), id="empty-rows")
    yield pytest.param(rng.standard_normal((9, 1)) * 40, id="column")
    yield pytest.param(rng.standard_normal((1, 7)) * 40, id="row")
    yield pytest.param(np.array(edges).reshape(2, 3), id="edges")
    yield pytest.param(np.concatenate([edges, rng.standard_normal(40) * 30])[::3], id="strided")


def _same_values(got, want) -> bool:
    """Same shape and dtype, NaN where `want` has NaN, and the same bytes elsewhere."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.array_equal(np.isnan(got), nan) and got[~nan].tobytes() == want[~nan].tobytes())


class TestKernelBytes:
    """The kernels give the bytes of the expressions they replaced, and write
    none of their arguments."""

    @pytest.mark.parametrize("x", list(_kernel_inputs()))
    def test_normalise_gives_the_rows_layer_norm_scales_and_a_ones_column(self, x):
        rng = np.random.default_rng(x.size)
        p = LayerNormParams(rng.standard_normal(x.shape[-1]), rng.standard_normal(x.shape[-1]))
        before = x.copy()
        out = np.full(x.shape[:-1] + (x.shape[-1] + 1,), np.nan)
        assert normalise(x, out) is out
        assert (out[..., -1] == 1.0).all()
        rebuilt = out[..., :-1] * p.gain + p.shift
        assert rebuilt.tobytes() == former_layer_norm(x, p.gain, p.shift).tobytes()
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("x", list(_activation_inputs()))
    def test_activations_match_the_former_expressions(self, x):
        before = x.copy()
        assert _same_values(sigmoid(x), former_sigmoid(x))
        assert _same_values(swish(x), former_swish(x))
        rng = np.random.default_rng(x.size)
        # a cotangent of x's shape, one that broadcasts to it, and one it broadcasts to
        for g in (rng.standard_normal(x.shape), np.array(-2.5),
                  rng.standard_normal((2,) + x.shape)):
            g_before = g.copy()
            assert _same_values(swish_vjp(x, g), former_swish_vjp(x, g))
            assert g.tobytes() == g_before.tobytes()
        assert x.tobytes() == before.tobytes()

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=9),
                      elements=st.one_of(st.floats(), st.sampled_from(_SIGMOID_EDGES))))
    def test_swish_and_its_vjp_match_the_former_expressions(self, x):
        g = np.random.default_rng(x.size).standard_normal(x.shape)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 and overflow, as before
            assert _same_values(swish(x), former_swish(x))
            assert _same_values(swish_vjp(x, g), former_swish_vjp(x, g))

    @pytest.mark.parametrize("x", list(_kernel_inputs()))
    def test_affine_matches_the_former_expression(self, x):
        rng = np.random.default_rng(x.size)
        lin = LinearMap(rng.standard_normal((x.shape[-1], 3)), rng.standard_normal(3))
        before = [a.copy() for a in (x, lin.weight, lin.bias)]
        got = affine(x, lin)
        assert got.tobytes() == former_affine(x, lin.weight, lin.bias).tobytes()
        for arg, copy in zip((x, lin.weight, lin.bias), before):
            assert arg.tobytes() == copy.tobytes()


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

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=24),
                      elements=st.one_of(st.floats(), st.sampled_from(_SIGMOID_EDGES))))
    @example(np.array(_SIGMOID_EDGES))
    @example(np.random.default_rng(0).standard_normal(100_003) * 40)
    @example(np.linspace(-745.0, 745.0, 29_801))  # step 0.05, through 0 and both ends
    def test_sigmoid_is_bit_identical_to_two_branch_oracle(self, x):
        got, expected = sigmoid(x), two_branch_sigmoid(x)
        assert got.shape == x.shape and got.dtype == np.float64
        nan = np.isnan(x)
        npt.assert_array_equal(np.isnan(got), nan)  # NaN maps to NaN, nothing else does
        assert got[~nan].tobytes() == expected[~nan].tobytes()

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
        assert normalise(x, np.empty((n, m, a + 1))).shape == (n, m, a + 1)
        assert softmax_rows(rng.standard_normal((m, a))).shape == (m, a)


class TestVjps:
    def test_identity_map_passes_cotangent_through(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((3, 4))
        lin = LinearMap(np.eye(4), np.zeros(4))
        g = rng.standard_normal((3, 4))
        gx, _, _ = affine_vjp(x, lin, g)
        npt.assert_array_equal(gx, g)

    def test_matmul_vjp_vs_finite_differences(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((3, 4))
        lin = LinearMap(rng.standard_normal((4, 5)), rng.standard_normal(5))
        g = rng.standard_normal((3, 5))
        gx, gw, gb = affine_vjp(x, lin, g)

        def loss():
            return float(np.sum(g * affine(x, lin)))

        assert max_relative_error(gx, finite_difference_grad(loss, x)) < 1e-6
        assert max_relative_error(gw, finite_difference_grad(loss, lin.weight)) < 1e-6
        assert max_relative_error(gb, finite_difference_grad(loss, lin.bias)) < 1e-6

    def test_normalise_vjp_vs_finite_differences(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((3, 5))
        g = rng.standard_normal((3, 5))
        gx = normalise_vjp(x, g)

        def loss():
            return float(np.sum(g * normalised(x)))

        assert max_relative_error(gx, finite_difference_grad(loss, x)) < 1e-5

    @pytest.mark.parametrize("op,op_vjp", [(swish, swish_vjp)])
    def test_elementwise_vjps_vs_finite_differences(self, op, op_vjp):
        rng = np.random.default_rng(13)
        x = rng.standard_normal((2, 5))
        g = rng.standard_normal((2, 5))
        analytic = op_vjp(x, g)

        def loss():
            return float(np.sum(g * op(x)))

        assert max_relative_error(analytic, finite_difference_grad(loss, x)) < 1e-5

    def test_a_nan_error_is_the_worst_error(self):
        # Python's max skips a NaN that follows a finite value; inf it cannot skip
        assert max_relative_error([1.0, np.nan], [1.0, 1.0]) == np.inf
