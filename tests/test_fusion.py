import itertools
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from camfuse import fusion, gradcheck
from camfuse.fusion import (
    _attend_vjp,
    _fold_ln,
    _heads,
    _merge_heads,
    _tile_rows,
    _workspace,
    ConfigError,
    FusionConfig,
    FusionInputs,
    FusionToggles,
    REQUIRED_STREAMS,
    attend,
    fold_weights,
    fuse,
    fuse_backward,
    gate_and_fuse,
    geo_bias,
    init_weights,
    iter_params,
    param_count,
    param_shapes,
    project_qkvc,
    token_weights,
    VARIANTS,
)
from camfuse.gradcheck import _named, check_directional, check_fuse_gradients
from camfuse.pipeline import synth_tokens
from camfuse.tensor import (
    DimensionError,
    LayerNormParams,
    LinearMap,
    TokenTensor,
    affine,
    normalise,
    swish,
)

from helpers import (DEMO_CONFIG, attend_rows, corrupt_gradients, in_own_mapping, noisy_weights,
                     pass_arrays, traced_bytes, traced_peak, zero_tokens)
from oracles import (former_layer_norm, ref_attention, ref_fuse, whole_frame_attention,
                     whole_frame_attention_vjp)


TINY = FusionConfig(n_frames=2, m_visual=3, m_spatial=4,
                    d_visual=6, d_spatial=5, d_attn=4, n_heads=2)

# 60 queries over 5000 memory slots in 2 heads: query tiles of 26, 26 and 8 rows
MULTI_TILE = FusionConfig(n_frames=2, m_visual=60, m_spatial=4999,
                          d_visual=6, d_spatial=5, d_attn=4, n_heads=2)

# frames of one or two visual tokens over one spatial token or the camera slot
# alone, under every toggle set that config allows
ONE_TOKEN = [replace(TINY, n_frames=3, m_visual=mv, m_spatial=ms, toggles=FusionToggles(*bits))
             for mv in (1, 2) for ms in (1, 0)
             for bits in itertools.product([False, True], repeat=4)
             if ms or bits[2]]  # no spatial tokens needs the camera slot

# one demo frame's spatial side (1369 tokens of width 64) behind a single query
DEMO_FRAME = replace(DEMO_CONFIG, n_frames=1, m_visual=1)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def zeroed(lin: LinearMap) -> LinearMap:
    return LinearMap(np.zeros_like(lin.weight), np.zeros_like(lin.bias))


def bias_of(spatial, camera, weights):
    """The geo bias of every frame, stacked."""
    return np.stack([geo_bias(s, c, weights)[0] for s, c in zip(spatial, camera)])


def weights_of(spatial, weights):
    """The token weights of every frame, stacked."""
    return np.stack([token_weights(s, weights)[0] for s in spatial])


# per part of the frame body, toggles under which `overflowing` weights make it overflow
OVERFLOWS = {"geo_mlp": FusionToggles(), "tw_mlp": FusionToggles(),
             "attention": FusionToggles(False, False, False, True)}


def overflowing(weights, where):
    """Weights under which one GEMM of the frame body overflows its sums: the
    output layer of the geo or token-weight MLP, or attention's PV product."""
    if where == "attention":
        # zero keys give every score 0, so each row sums m_spatial values of 1e308
        values = LinearMap(np.zeros_like(weights.p_v.weight), np.full_like(weights.p_v.bias, 1e308))
        return replace(weights, p_k=zeroed(weights.p_k), p_v=values)
    first, second = getattr(weights, where)
    # a hidden layer of 10s, so the output layer's GEMM sums ~10 * 1e308
    return replace(weights, **{where: (
        LinearMap(np.zeros_like(first.weight), np.full_like(first.bias, 10.0)),
        LinearMap(np.full_like(second.weight, 1e308), second.bias))})


def attention_inputs(config, inputs, weights):
    """Per frame, the (q, k, v, c) that the frame body hands to `attend`,
    composed from the public stages; q is the query rows before the
    attention scale, formed unfolded, as `affine(former_layer_norm(...))`."""
    t = config.toggles
    ws, folded = _workspace(config), fold_weights(weights, config)
    for xv, xs, xc in zip(inputs.visual.data, inputs.spatial.data, inputs.camera.data):
        q = affine(former_layer_norm(xv, weights.ln_v.gain, weights.ln_v.shift), weights.p_q)
        k, v, c = project_qkvc(xv, xs, xc, folded, ws)
        k, v = k.copy(), v.copy()  # views of the workspace, which the next frame overwrites
        if t.geo_bias:
            bias = geo_bias(xs, xc, weights)[0]
            k += bias
            v += bias
        if t.token_weight:
            v = v * token_weights(xs, weights)[0]
        yield q, k, v, c


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="divisible"):
            FusionConfig(n_frames=1, m_visual=1, m_spatial=1,
                         d_visual=2, d_spatial=2, d_attn=6, n_heads=4)

    def test_positive_dims(self):
        with pytest.raises(ConfigError, match="d_visual"):
            FusionConfig(n_frames=1, m_visual=1, m_spatial=1,
                         d_visual=0, d_spatial=2, d_attn=4, n_heads=2)

    def test_no_spatial_tokens_requires_camera_memory(self):
        FusionConfig(n_frames=1, m_visual=1, m_spatial=0,
                     d_visual=2, d_spatial=2, d_attn=4, n_heads=2)  # fine
        with pytest.raises(ConfigError, match="camera memory"):
            FusionConfig(n_frames=1, m_visual=1, m_spatial=0,
                         d_visual=2, d_spatial=2, d_attn=4, n_heads=2,
                         toggles=FusionToggles(camera_memory=False))

    def test_bool_is_not_an_int_field(self):
        with pytest.raises(ConfigError, match="n_frames"):
            FusionConfig(n_frames=True, m_visual=1, m_spatial=1,
                         d_visual=2, d_spatial=2, d_attn=4, n_heads=2)

    @pytest.mark.parametrize("value", ["off", 0, 1, None])
    def test_toggles_must_be_bools(self, value):
        with pytest.raises(ConfigError, match="gate"):
            FusionToggles(gate=value)


class TestInputs:
    """`fuse` and `fuse_backward` check every stream present against `stream_shapes`."""

    @staticmethod
    def check_refused(inputs, stream):
        weights = init_weights(TINY, 0)
        with pytest.raises(DimensionError, match=f"{stream} stream has shape"):
            fuse(inputs, weights, TINY)
        with pytest.raises(DimensionError, match=f"{stream} stream has shape"):
            fuse_backward(inputs, weights, TINY, zero_tokens(2, 3, 6))

    def test_frame_disagreement(self):
        self.check_refused(FusionInputs(visual=zero_tokens(2, 3, 6),
                                        spatial=zero_tokens(3, 4, 5),
                                        camera=zero_tokens(2, 1, 5)), "spatial")

    def test_camera_must_be_single_token(self):
        self.check_refused(FusionInputs(visual=zero_tokens(2, 3, 6),
                                        spatial=zero_tokens(2, 4, 5),
                                        camera=zero_tokens(2, 2, 5)), "camera")

    def test_register_shape(self):
        self.check_refused(FusionInputs(visual=zero_tokens(2, 3, 6),
                                        spatial=zero_tokens(2, 4, 5),
                                        camera=zero_tokens(2, 1, 5),
                                        register=zero_tokens(2, 3, 5)), "register")


class TestInitWeights:
    def test_deterministic(self):
        a = init_weights(TINY, 42)
        b = init_weights(TINY, 42)
        for (name, arr_a), (_, arr_b) in zip(iter_params(a), iter_params(b)):
            assert arr_a.tobytes() == arr_b.tobytes(), name

    def test_seed_changes_weights(self):
        a = dict(iter_params(init_weights(TINY, 0)))
        b = dict(iter_params(init_weights(TINY, 1)))
        assert any((a[k] != b[k]).any() for k in a)

    def test_param_count_closed_form(self):
        config = FusionConfig(n_frames=1, m_visual=2, m_spatial=2,
                              d_visual=8, d_spatial=6, d_attn=4, n_heads=2)
        dv, ds, da = 8, 6, 4
        # independently enumerate every map listed in the weight schema
        def lin(nin, nout):
            return nin * nout + nout
        expected = (
            2 * dv + 2 * ds                  # ln_v, ln_s
            + lin(dv, da) + 3 * lin(ds, da)  # p_q, p_k, p_v, p_c
            + lin(2 * ds, da) + lin(da, da)  # geo_mlp
            + lin(ds, da) + lin(da, 1)       # tw_mlp
            + lin(da, da) + 2 * da           # p_o, ln_o
            + 3 * lin(da, dv)                # p_l, p_g1, p_g2
        )
        assert expected == 401
        assert param_count(config) == expected
        total = sum(arr.size for _, arr in iter_params(init_weights(config, 0)))
        assert total == expected

    def test_param_shapes_match_arrays(self):
        weights = init_weights(TINY, 3)
        shapes = param_shapes(TINY)
        arrays = dict(iter_params(weights))
        assert set(shapes) == set(arrays)
        for name, shape in shapes.items():
            assert arrays[name].shape == shape, name


class TestFold:
    @given(st.data())
    def test_normalised_rows_through_the_fold_match_layer_norm_then_affine(self, data):
        # the folded weight sums the same terms in another order: the gap is
        # bounded by 4 eps of each output's sum of absolute terms (2.95 eps was
        # the worst of 40,000 draws), with and without a gate on the columns
        rows, width, out = (data.draw(st.integers(1, hi), label=name)
                            for name, hi in (("rows", 40), ("width", 80), ("out", 80)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        magnitudes = 10.0 ** rng.integers(-3, 4, size=2)
        x = (rng.standard_normal((rows, width)) * magnitudes[0]
             + rng.standard_normal() * magnitudes[1])
        ln = LayerNormParams(rng.standard_normal(width) * 10.0 ** rng.integers(-1, 2),
                             rng.standard_normal(width) * 10.0 ** rng.integers(-1, 2))
        lin = LinearMap(rng.standard_normal((width, out)) * 10.0 ** rng.integers(-1, 2),
                        rng.standard_normal(out) * 10.0 ** rng.integers(-1, 2))
        lnx = former_layer_norm(x, ln.gain, ln.shift)
        xa = normalise(x, np.empty((rows, width + 1)))
        for gate in (np.ones((1, out)), rng.standard_normal((1, out))):
            got = xa @ (_fold_ln(ln, lin) * gate)
            want = affine(lnx, lin) * gate
            terms = (np.abs(lnx) @ np.abs(lin.weight) + np.abs(lin.bias)) * np.abs(gate)
            assert np.abs(got - want).max() <= 4 * np.finfo(float).eps * terms.max()

    def test_zero_weight_folds_to_exact_zeros(self):
        # a zero map stays exactly zero through the fold, so a zero p_l leaves the residual
        rng = np.random.default_rng(62)
        ln = LayerNormParams(rng.standard_normal(5), rng.standard_normal(5))
        assert (_fold_ln(ln, LinearMap(np.zeros((5, 3)), np.zeros(3))) == 0).all()


class TestProject:
    def test_zero_camera_reaches_attention_as_the_bias_row(self):
        # no spatial tokens: the camera slot is the whole memory, so with a zero
        # camera row every attention output row is p_c's bias
        config = replace(TINY, m_spatial=0, toggles=FusionToggles(gate=False))
        rng = np.random.default_rng(0)
        weights = init_weights(config, 0)
        bias = rng.standard_normal(config.d_attn)
        weights = replace(weights, p_c=LinearMap(weights.p_c.weight, bias))
        inputs = synth_tokens(config, 1)
        inputs = replace(inputs, camera=zero_tokens(config.n_frames, 1, config.d_spatial))
        rows = np.broadcast_to(bias, (config.m_visual, config.d_attn))
        mapped = affine(former_layer_norm(affine(rows, weights.p_o), weights.ln_o.gain,
                                          weights.ln_o.shift), weights.p_l)
        npt.assert_allclose(fuse(inputs, weights, config).data, inputs.visual.data + mapped,
                            rtol=0, atol=1e-12)

    def test_output_shapes(self):
        weights = init_weights(TINY, 1)
        inputs = synth_tokens(TINY, 2)
        ws = _workspace(TINY)
        k, v, c = project_qkvc(inputs.visual.data[0], inputs.spatial.data[0],
                               inputs.camera.data[0], fold_weights(weights, TINY), ws)
        assert k.shape == v.shape == (4, 4)
        assert c.shape == (1, 4)
        assert ws["xa"].shape == (3, 7) and ws["qa"].shape == (2, 3, 3)
        assert ws["sa"].shape == (4, 6) and ws["kv"].shape == (4, 8)

    def test_composes_kernel_ops_bit_exactly(self):
        # the normalised rows, the query heads and the camera slot bit for bit; the
        # keys and values, whose folded weight carries ln_s and both biases, match
        # the unfolded projection up to rounding, within the query heads' bound
        weights = init_weights(TINY, 4)
        rng = np.random.default_rng(10)
        ds, da = TINY.d_spatial, TINY.d_attn
        weights = replace(weights, ln_s=LayerNormParams(rng.standard_normal(ds),
                                                        rng.standard_normal(ds)),
                          p_k=LinearMap(weights.p_k.weight, rng.standard_normal(da)),
                          p_v=LinearMap(weights.p_v.weight, rng.standard_normal(da)))
        inputs = synth_tokens(TINY, 5)
        ws = _workspace(TINY)
        folded = fold_weights(weights, TINY)
        for xv, xs, xc in zip(inputs.visual.data, inputs.spatial.data, inputs.camera.data):
            k, v, c = project_qkvc(xv, xs, xc, folded, ws)
            xa = normalise(xv, np.empty((TINY.m_visual, TINY.d_visual + 1)))
            assert ws["xa"].tobytes() == xa.tobytes()
            assert ws["qa"][..., :-1].tobytes() == np.matmul(xa, folded.wq).tobytes()
            assert ws["sa"].tobytes() == normalise(xs, np.empty((TINY.m_spatial, ds + 1))).tobytes()
            lns = former_layer_norm(xs, weights.ln_s.gain, weights.ln_s.shift)
            for got, lin in ((k, weights.p_k), (v, weights.p_v)):
                want = affine(lns, lin)
                assert np.abs(got - want).max() <= 4e-16 * np.abs(want).max()
            assert c.tobytes() == affine(xc, weights.p_c).tobytes()

    @pytest.mark.parametrize("config", [TINY, replace(TINY, d_visual=2, d_attn=8, n_heads=4)])
    def test_scaled_query_heads_match_the_unfolded_projection(self, config):
        # the folded weight gives the scaled heads of the unfolded projection up to rounding
        weights = init_weights(config, 6)
        rng = np.random.default_rng(7)
        weights = replace(weights, ln_v=LayerNormParams(rng.standard_normal(config.d_visual),
                                                        rng.standard_normal(config.d_visual)),
                          p_q=LinearMap(weights.p_q.weight, rng.standard_normal(config.d_attn)))
        inputs = synth_tokens(config, 8)
        ws = _workspace(config)
        xv = inputs.visual.data[0]
        project_qkvc(xv, inputs.spatial.data[0], inputs.camera.data[0],
                     fold_weights(weights, config), ws)
        q = affine(former_layer_norm(xv, weights.ln_v.gain, weights.ln_v.shift), weights.p_q)
        want = _heads(q, config.n_heads) / np.sqrt(config.d_attn // config.n_heads)
        assert np.abs(ws["qa"][..., :-1] - want).max() <= 4e-16 * np.abs(want).max()


class TestGeoBias:
    def test_zero_mlp_is_zero_bias(self):
        weights = init_weights(TINY, 0)
        weights = replace(weights, geo_mlp=(zeroed(weights.geo_mlp[0]),
                                            zeroed(weights.geo_mlp[1])))
        inputs = synth_tokens(TINY, 1)
        bias = bias_of(inputs.spatial.data, inputs.camera.data, weights)
        npt.assert_array_equal(bias, np.zeros(bias.shape))
        # with a zero bias the geo toggle cannot change the result
        on = fuse(inputs, weights, TINY)
        off = fuse(inputs, weights, replace(TINY, toggles=replace(TINY.toggles, geo_bias=False)))
        npt.assert_array_equal(on.data, off.data)

    def test_depends_on_camera(self):
        weights = init_weights(TINY, 2)
        rng = np.random.default_rng(3)
        spatial_frame = rng.standard_normal((1, TINY.m_spatial, TINY.d_spatial))
        spatial = np.repeat(spatial_frame, TINY.n_frames, axis=0)
        camera = rng.standard_normal((TINY.n_frames, 1, TINY.d_spatial))
        bias = bias_of(spatial, camera, weights)
        assert (bias[0] != bias[1]).any()

    @pytest.mark.parametrize("config", [TINY, DEMO_FRAME], ids=["tiny", "demo-frame"])
    def test_shape_and_residuals(self, config):
        weights = init_weights(config, 4)
        inputs = synth_tokens(config, 5)
        xs, xc = inputs.spatial.data[0], inputs.camera.data[0]
        result = geo_bias(xs, xc, weights)
        assert len(result) == 3
        assert all(r.shape == (config.m_spatial, config.d_attn) for r in result)
        # the MLP over each spatial token concatenated with the camera row, as one GEMM;
        # the split first layer sums in another order, so agreement is to rounding
        gin = np.concatenate([xs, np.broadcast_to(xc, xs.shape)], axis=-1)
        gh = affine(gin, weights.geo_mlp[0])
        ga = swish(gh)
        for got, want in zip(result, (affine(ga, weights.geo_mlp[1]), gh, ga)):
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()

    def test_camera_rows_of_the_weight_gradient_are_one_outer_product(self):
        # with one camera row in every frame, the camera half of geo_mlp.0's weight
        # gradient is that row's outer product with the bias gradient
        weights = init_weights(TINY, 4)
        inputs = synth_tokens(TINY, 5)
        xc = np.broadcast_to(inputs.camera.data[:1], inputs.camera.shape)
        inputs = replace(inputs, camera=TokenTensor(xc))
        cot = TokenTensor(np.random.default_rng(6).standard_normal(inputs.visual.shape))
        first = fuse_backward(inputs, weights, TINY, cot)[1].geo_mlp[0]
        want = np.outer(xc[0, 0], first.bias)
        got = first.weight[TINY.d_spatial:]
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestTokenWeights:
    def test_zero_mlp_gives_half(self):
        weights = init_weights(TINY, 0)
        weights = replace(weights, tw_mlp=(zeroed(weights.tw_mlp[0]),
                                           zeroed(weights.tw_mlp[1])))
        inputs = synth_tokens(TINY, 1)
        tw = weights_of(inputs.spatial.data, weights)
        npt.assert_array_equal(tw, np.full(tw.shape, 0.5))

    def test_ignores_visual_and_camera(self):
        weights = init_weights(TINY, 2)
        a = synth_tokens(TINY, 3)
        b = replace(a,
                    visual=TokenTensor(a.visual.data + 1.0),
                    camera=TokenTensor(a.camera.data - 2.0))
        ta = weights_of(a.spatial.data, weights)
        tb = weights_of(b.spatial.data, weights)
        assert ta.tobytes() == tb.tobytes()

    def test_open_unit_interval(self):
        weights = init_weights(TINY, 4)
        tw = weights_of(synth_tokens(TINY, 5).spatial.data, weights)
        assert tw.shape == (2, 4, 1)
        assert (tw > 0).all() and (tw < 1).all()


class TestAttend:
    def test_single_camera_slot_attention(self):
        # no spatial tokens: softmax over the lone camera slot is 1, so every
        # output row is that frame's camera value row
        config = FusionConfig(n_frames=1, m_visual=3, m_spatial=0,
                              d_visual=6, d_spatial=5, d_attn=4, n_heads=2)
        rng = np.random.default_rng(0)
        q = rng.standard_normal((3, 4))
        k = np.zeros((0, 4))
        c = rng.standard_normal((1, 4))
        out = attend_rows(q, k, k, c, config)
        npt.assert_allclose(out, np.broadcast_to(c, out.shape), atol=1e-15)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(1)
        config = replace(TINY, toggles=replace(TINY.toggles, camera_memory=False))
        key_row = rng.standard_normal(4)
        k = np.broadcast_to(key_row, (4, 4)).copy()
        v = rng.standard_normal((4, 4))
        q = rng.standard_normal((3, 4))
        c = rng.standard_normal((1, 4))
        out = attend_rows(q, k, v, c, config)
        expected = np.broadcast_to(v.mean(axis=0), out.shape)
        npt.assert_allclose(out, expected, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_against_loop_oracle(self, heads):
        rng = np.random.default_rng(2 + heads)
        config = FusionConfig(n_frames=1, m_visual=2, m_spatial=3,
                              d_visual=4, d_spatial=4, d_attn=4, n_heads=heads)
        q = rng.standard_normal((1, 2, 4))
        k = rng.standard_normal((1, 3, 4))
        v = rng.standard_normal((1, 3, 4))
        c = rng.standard_normal((1, 1, 4))
        out = attend_rows(q[0], k[0], v[0], c[0], config)
        kmem = np.concatenate([c, k], axis=1)
        vmem = np.concatenate([c, v], axis=1)
        expected = ref_attention(q, kmem, vmem, heads)
        npt.assert_allclose(out, expected[0], rtol=0, atol=1e-12)

    def test_empty_memory_raises(self):
        # a valid config, but the op itself is handed empty memory tensors
        config = FusionConfig(n_frames=1, m_visual=2, m_spatial=1,
                              d_visual=4, d_spatial=4, d_attn=4, n_heads=2,
                              toggles=FusionToggles(camera_memory=False))
        q = np.zeros((2, 4))
        empty = np.zeros((0, 4))
        c = np.zeros((1, 4))
        with pytest.raises(DimensionError, match="empty"):
            attend_rows(q, empty, empty, c, config)


def relative_error(actual, expected):
    return float(np.abs(actual - expected).max() / np.abs(expected).max())


class TestTiledAttention:
    """The query-tiled kernel against the whole-frame kernel it replaced."""

    @staticmethod
    def check_against_whole_frame(q, k, v, n_heads, seed=0, slot=None):
        """Run `attend` and `_attend_vjp` frame by frame over [n, ...] arrays;
        `slot` ([n, 1, d_attn]) is the camera slot, or None for no slot."""
        (n, mq, da), ms = q.shape, k.shape[1]
        config = FusionConfig(n_frames=n, m_visual=mq, m_spatial=ms, d_visual=1, d_spatial=1,
                              d_attn=da, n_heads=n_heads,
                              toggles=FusionToggles(camera_memory=slot is not None))
        c = np.zeros((n, 1, da)) if slot is None else slot
        mk = ms + (slot is not None)
        g_out = np.random.default_rng(seed).standard_normal(q.shape)
        out, lse = np.empty_like(q), np.empty((n, n_heads, mq))
        grads = (np.empty_like(q), np.empty((n, mk, da)), np.empty((n, mk, da)))
        for i in range(n):
            ws = _workspace(config, backward=True)
            out[i] = attend_rows(q[i], k[i], v[i], c[i], config, ws)
            for grad, frame_grad in zip(grads, _attend_vjp(g_out[i], n_heads, ws)):
                grad[i] = frame_grad
            lse[i] = -ws["qa"][..., -1]  # the VJP's -lse column
        kmem, vmem = (x if slot is None else np.concatenate([slot, x], axis=1) for x in (k, v))
        expected, probs = whole_frame_attention(q, kmem, vmem, n_heads)
        assert relative_error(out, expected) <= 1e-12
        expected_grads = whole_frame_attention_vjp(q, kmem, vmem, probs, n_heads, g_out)
        # over a one-slot memory the q and k cotangents vanish in exact
        # arithmetic; a zero reference is judged against the largest of all three
        scale = max(np.abs(want).max() for want in expected_grads)
        for name, got, want in zip("qkv", grads, expected_grads):
            assert np.abs(got - want).max() <= 1e-10 * (np.abs(want).max() or scale), name
        return out, lse

    @pytest.mark.parametrize("n,mq,mk,da,heads,tiles", [
        (2, 60, 5000, 4, 2, 3),   # ragged last tile of 8 rows
        (1, 3, 20000, 8, 8, 3),   # memory so wide that each tile is one row
        (3, 5, 1, 4, 2, 1),       # one memory slot
    ])
    def test_kernel_matches_whole_frame(self, n, mq, mk, da, heads, tiles):
        assert -(-mq // _tile_rows(heads, mk)) == tiles
        rng = np.random.default_rng(mq + mk)
        q, k, v = (rng.standard_normal((n, m, da)) for m in (mq, mk, mk))
        self.check_against_whole_frame(q, k, v, heads)

    def test_one_row_tiles_over_one_slot_write_each_heads_shift(self, monkeypatch):
        # a Hypothesis counterexample: with one-row tiles the per-tile -shift
        # and -lse columns have a size-1 row axis, which np.negative(..., out=)
        # reads at the wrong stride in numpy 2.4.6
        n, mq, mk, heads, dh = 1, 8, 1, 2, 1
        monkeypatch.setattr(fusion, "_TILE_BYTES", 8 * heads * mk)
        assert _tile_rows(heads, mk) == 1
        rng = np.random.default_rng(36)
        q, k, v = (rng.standard_normal((n, m, heads * dh)) for m in (mq, mk, mk))
        self.check_against_whole_frame(q, k, v, heads)

    @pytest.mark.parametrize("config", [
        *(replace(TINY, toggles=FusionToggles(*bits))
          for bits in itertools.product([False, True], repeat=4)),
        replace(TINY, m_spatial=0),  # the camera slot is the whole memory
        MULTI_TILE,
    ])
    def test_fusion_attention_matches_whole_frame(self, config):
        frames = attention_inputs(config, synth_tokens(config, 21), init_weights(config, 22))
        q, k, v, c = (np.stack(x) for x in zip(*frames))
        self.check_against_whole_frame(q, k, v, config.n_heads,
                                       slot=c if config.toggles.camera_memory else None)

    def test_merge_heads_inverts_heads(self):
        x = np.random.default_rng(42).standard_normal((5, 6))
        merged = _merge_heads(_heads(x, 3))
        assert merged.flags.c_contiguous
        assert merged.tobytes() == x.tobytes()

    @pytest.mark.parametrize("camera_memory", [True, False])
    def test_vjp_returns_contiguous_token_major_cotangents(self, camera_memory):
        config = replace(MULTI_TILE, toggles=FusionToggles(camera_memory=camera_memory))
        q, k, v, c = next(attention_inputs(config, synth_tokens(config, 44),
                                           init_weights(config, 45)))
        mk, da = config.m_spatial + camera_memory, config.d_attn
        ws = _workspace(config, backward=True)
        attend_rows(q, k, v, c, config, ws)
        g_att = np.random.default_rng(46).standard_normal(q.shape)
        gq, gk, gv = _attend_vjp(g_att, config.n_heads, ws)
        assert gq.shape == (config.m_visual, da)
        assert gk.shape == gv.shape == (mk, da)
        assert all(g.flags.c_contiguous for g in (gq, gk, gv))

    @given(st.data())
    def test_kernel_matches_whole_frame_at_random_shapes(self, data):
        n, mq, mk, heads, dh = (data.draw(st.integers(1, hi), label=name) for name, hi in
                                (("n", 3), ("mq", 9), ("mk", 9), ("heads", 3), ("dh", 4)))
        with_slot = data.draw(st.booleans(), label="slot")
        # a score block of a few rows at most, so ragged and one-row tiles are the norm
        tile_bytes = data.draw(st.integers(1, 8 * heads * (mk + with_slot) * 4), label="tile")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        q, k, v = (rng.standard_normal((n, m, heads * dh)) for m in (mq, mk, mk))
        slot = rng.standard_normal((n, 1, heads * dh)) if with_slot else None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fusion, "_TILE_BYTES", tile_bytes)
            self.check_against_whole_frame(q, k, v, heads, slot=slot)

    @staticmethod
    def count_exact_shift_rows(monkeypatch) -> list:
        """Patch the fallback with a wrapper that records how many rows each call redoes."""
        counts: list = []
        exact = fusion._exact_shift_rows

        def counted(qa, kt, vt, o, bad):
            counts.append(int(bad.sum()))
            return exact(qa, kt, vt, o, bad)

        monkeypatch.setattr(fusion, "_exact_shift_rows", counted)
        return counts

    def test_far_bound_rows_take_the_exact_shift_fallback(self, monkeypatch):
        counts = self.count_exact_shift_rows(monkeypatch)
        monkeypatch.setattr(fusion, "_TILE_BYTES", 8 * 2 * 7 * 3)  # tiles of 3 rows
        n, heads, dh, mq, mk = 2, 2, 4, 8, 6
        basis = np.eye(dh)
        rng = np.random.default_rng(31)
        # per head: a large slot key along e0, one small key along e1 and the
        # rest in the span of e2, e3. Even rows are 30 e1, orthogonal to every
        # key but the small one: their bound |q| |slot| / sqrt(dh) = 1500 sits
        # ~1500 above their largest score (0.75). Odd rows are short, and
        # their bound is close.
        slot_h = 100.0 * basis[0]
        keys_h = np.vstack([0.05 * basis[1], rng.standard_normal((mk - 1, 2)) @ basis[2:]])
        rows_h = np.tile(30.0 * basis[1], (mq, 1))
        rows_h[1::2] = 0.01 * rng.standard_normal((mq // 2, dh))
        q = np.tile(rows_h, (n, 1, heads))
        k = np.tile(keys_h, (n, 1, heads))
        slot = np.tile(slot_h, (n, 1, heads))
        v = rng.standard_normal(k.shape) * 10.0
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            out, lse = self.check_against_whole_frame(q, k, v, heads, slot=slot)
        assert np.isfinite(out).all() and np.isfinite(lse).all()
        assert sum(counts) == n * heads * mq // 2  # every even row, and only those
        assert len(counts) == n  # one fallback call per frame, after its tiles

    def test_fallback_stays_idle_on_ordinary_inputs(self, monkeypatch):
        counts = self.count_exact_shift_rows(monkeypatch)
        config = MULTI_TILE
        fuse(synth_tokens(config, 32), init_weights(config, 33), config)
        assert counts == []

    def test_workspace_holds_no_probability_tensor(self):
        # a worker's buffers are all that outlives a tile: none holds one
        # frame's [heads, queries, memory] probabilities
        config = MULTI_TILE
        mk = config.m_spatial + 1
        ws = _workspace(config, backward=True)
        assert max(array.size for array in ws.values()) < config.n_heads * config.m_visual * mk

    @pytest.mark.parametrize("workers", [1, 2])
    def test_backward_peak_allocation_is_bounded_by_a_tile(self, workers, monkeypatch):
        monkeypatch.setattr(fusion, "_usable_cores", lambda: workers)
        # the whole-frame kernel's probability cache here: 4*8*512*800 f64 = 105 MB
        config = FusionConfig(n_frames=4, m_visual=512, m_spatial=799,
                              d_visual=16, d_spatial=16, d_attn=16, n_heads=8)
        cache_bytes = 8 * config.n_frames * config.n_heads * config.m_visual * 800
        assert cache_bytes >= 100e6
        inputs = synth_tokens(config, 25)
        weights = init_weights(config, 26)
        cot = TokenTensor(np.random.default_rng(27).standard_normal(inputs.visual.shape))
        peak = traced_peak(lambda: fuse_backward(inputs, weights, config, cot))
        assert peak < cache_bytes / 4


class TestFramePool:
    """Frames spread over worker threads change no bit of any result."""

    @staticmethod
    def count_pools(monkeypatch, workers) -> list:
        """Fix the usable cores at `workers`; returns, for each pool started,
        the threads its frames run on: the pool's and the calling thread."""
        monkeypatch.setattr(fusion, "_usable_cores", lambda: workers)
        pools: list = []

        class Counted(ThreadPoolExecutor):
            def __init__(self, max_workers):
                pools.append(max_workers + 1)
                super().__init__(max_workers)

        monkeypatch.setattr(fusion, "ThreadPoolExecutor", Counted)
        return pools

    @pytest.mark.parametrize("config", [
        *(replace(TINY, toggles=FusionToggles(*bits))
          for bits in itertools.product([False, True], repeat=4)),
        replace(TINY, n_frames=5),  # two workers take three frames and two
        replace(TINY, n_frames=5, m_visual=2),  # each frame fits one tile, the pass does not
        MULTI_TILE,
        # the per-frame weight-gradient GEMMs sum 1369 rows: with OpenBLAS free
        # to start a second thread on the serial path, p_k, p_v, geo_mlp and
        # tw_mlp.0 gradients there differ in their last bits from pooled runs
        FusionConfig(n_frames=2, m_visual=64, m_spatial=1369,
                     d_visual=64, d_spatial=64, d_attn=64, n_heads=8),
    ])
    def test_every_array_is_byte_identical_at_every_worker_count(self, config, monkeypatch):
        if config.m_spatial < 5:  # tiles of 2 rows, or the whole pass fits one tile
            monkeypatch.setattr(fusion, "_TILE_BYTES", 8 * config.n_heads * 5 * 2)
        inputs = synth_tokens(config, 37)
        weights = init_weights(config, 38)
        cot = TokenTensor(np.random.default_rng(39).standard_normal(inputs.visual.shape))
        results = {}
        for workers in (1, 2, 3):
            pools = self.count_pools(monkeypatch, workers)
            results[workers] = {name: array.tobytes() for name, array
                                in pass_arrays(inputs, weights, config, cot).items()}
            # one pool per pass, on min(workers, frames) threads
            assert pools == ([] if workers == 1 else [min(workers, config.n_frames)] * 2)
        assert results[2] == results[1]
        assert results[3] == results[1]

    @pytest.mark.parametrize("where", list(OVERFLOWS))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_the_callers_error_state_holds_on_worker_threads(self, where, workers, monkeypatch):
        pools = self.count_pools(monkeypatch, workers)
        monkeypatch.setattr(fusion, "_TILE_BYTES", 8 * TINY.n_heads * 5 * 2)  # tiles of 2 rows
        config = replace(TINY, toggles=OVERFLOWS[where])
        weights = overflowing(init_weights(config, 50), where)
        inputs = synth_tokens(config, 51)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError, match="overflow"):
            fuse(inputs, weights, config)
        assert pools == ([] if workers == 1 else [2])

    def test_passes_that_fit_one_tile_run_serially(self, monkeypatch):
        pools = self.count_pools(monkeypatch, 2)
        config = replace(TINY, n_frames=4)
        fuse(synth_tokens(config, 40), init_weights(config, 41), config)
        assert pools == []

    def test_usable_cores_without_affinity_counts_every_core(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert fusion._usable_cores() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert fusion._usable_cores() == 1

    def test_no_traced_name_runs_on_a_worker_thread(self, monkeypatch):
        # bench/spans.py keeps one global span stack: wrap every name it traces
        # in fusion or tensor, at every module attribute that holds it, as it does
        monkeypatch.syspath_prepend(str(BENCH))
        import spans

        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "camfuse" or name.startswith("camfuse."))]
        calls: list = []
        for name, (module, path, _, _) in spans.TARGETS.items():
            if module not in ("fusion", "tensor"):
                continue
            owner = sys.modules[f"camfuse.{module}"]
            *holders, attr = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            original = getattr(owner, attr)

            def recording(*args, _name=name, _original=original, **kwargs):
                calls.append((_name, threading.current_thread()))
                return _original(*args, **kwargs)

            if holders:  # a method: patched on its class
                monkeypatch.setattr(owner, attr, recording)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, recording)
        pools = self.count_pools(monkeypatch, 2)
        config = MULTI_TILE
        inputs = synth_tokens(config, 47)
        cot = TokenTensor(np.random.default_rng(48).standard_normal(inputs.visual.shape))
        weights = init_weights(config, 49)
        fuse(inputs, weights, config)
        fuse_backward(inputs, weights, config, cot)
        assert pools == [2, 2]  # one per pass
        # the boundary's TokenTensors are built on the calling thread; the frame
        # bodies reach the stages and kernels through untraced names
        assert "tensor.TokenTensor.validate" in {name for name, _ in calls}
        here = threading.current_thread()
        assert [name for name, thread in calls if thread is not here] == []

    @pytest.mark.parametrize("config", ONE_TOKEN)
    def test_one_token_frames_match_the_oracle_at_every_worker_count(self, config, monkeypatch):
        mk = config.m_spatial + config.toggles.camera_memory
        monkeypatch.setattr(fusion, "_TILE_BYTES", 8 * config.n_heads * mk)  # one-row tiles
        rows = _tile_rows(config.n_heads, mk)
        inputs = synth_tokens(config, 52)
        weights = init_weights(config, 53)
        cot = TokenTensor(np.random.default_rng(54).standard_normal(inputs.visual.shape))
        results = []
        for workers in (1, 2):
            pools = self.count_pools(monkeypatch, workers)
            arrays = pass_arrays(inputs, weights, config, cot)
            # only a pass whose n * m_visual queries fit one tile runs serially
            assert bool(pools) == (workers == 2 and config.n_frames * config.m_visual > rows)
            npt.assert_allclose(arrays["fused"], ref_fuse(inputs, weights, config),
                                rtol=0, atol=1e-12)
            results.append({name: array.tobytes() for name, array in arrays.items()})
        assert results[1] == results[0]


class TestBlasScope:
    """A pool holds OpenBLAS to one thread and puts back the count it found."""

    @pytest.fixture
    def two_threads(self):
        """OpenBLAS's thread-count getter, with the count set to 2 for the test,
        so a count left at 1 cannot pass for a restored one."""
        calls = fusion._openblas_threads()
        if calls is None:
            pytest.skip("numpy's BLAS here is not OpenBLAS")
        get, set_ = calls
        found = get()
        set_(2)
        yield get
        set_(found)

    def test_workers_run_blas_on_one_thread_and_the_count_comes_back(self, two_threads,
                                                                     monkeypatch):
        get = two_threads
        seen: list = []
        unrecorded = fusion.affine

        def recording(x, lin):
            seen.append((threading.current_thread(), get(), x.ndim))
            return unrecorded(x, lin)

        monkeypatch.setattr(fusion, "affine", recording)
        pools = TestFramePool.count_pools(monkeypatch, 2)
        config = MULTI_TILE
        fuse(synth_tokens(config, 55), init_weights(config, 56), config)
        assert pools == [2]
        assert get() == 2
        here = threading.current_thread()
        assert {count for thread, count, _ in seen if thread is not here} == {1}
        # this thread runs its share of the frames, camera rows included, and nothing else
        assert {count for thread, count, _ in seen if thread is here} == {1}
        assert {ndim for _, _, ndim in seen} == {2}  # one frame's rows at a time

    def test_the_count_comes_back_when_a_pass_raises(self, two_threads, monkeypatch):
        get = two_threads
        TestFramePool.count_pools(monkeypatch, 2)
        monkeypatch.setattr(fusion, "_TILE_BYTES", 8 * TINY.n_heads * 5 * 2)  # tiles of 2 rows
        config = replace(TINY, toggles=OVERFLOWS["attention"])
        weights = overflowing(init_weights(config, 50), "attention")
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            fuse(synth_tokens(config, 51), weights, config)
        assert get() == 2

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sets_only_one_and_the_count_it_found(self, workers, monkeypatch):
        # the serial path is held to one thread too, so a GEMM sums as it does pooled
        values: list = []
        monkeypatch.setattr(fusion, "_openblas_threads", lambda: (lambda: 3, values.append))
        pools = TestFramePool.count_pools(monkeypatch, workers)
        config = MULTI_TILE
        cot = TokenTensor(np.random.default_rng(57).standard_normal(
            (config.n_frames, config.m_visual, config.d_visual)))
        fuse_backward(synth_tokens(config, 58), init_weights(config, 59), config, cot)
        assert pools == ([] if workers == 1 else [2])
        assert values == [1, 3]

    def test_without_openblas_the_pool_runs_and_gives_the_same_bytes(self, monkeypatch):
        TestFramePool.count_pools(monkeypatch, 2)
        config = MULTI_TILE
        inputs, weights = synth_tokens(config, 60), init_weights(config, 61)
        scoped = fuse(inputs, weights, config).data
        monkeypatch.setattr(fusion, "_openblas_threads", lambda: None)
        assert fuse(inputs, weights, config).data.tobytes() == scoped.tobytes()


class TestGateAndFuse:
    def test_zero_gate_branch_collapses_to_residual(self):
        weights = init_weights(TINY, 0)
        weights = replace(weights, p_g1=zeroed(weights.p_g1))
        inputs = synth_tokens(TINY, 1)
        out = fuse(inputs, weights, TINY)
        npt.assert_array_equal(out.data, inputs.visual.data)

    def test_zero_projection_collapses_to_residual_with_the_gate_on(self):
        weights = init_weights(TINY, 0)
        weights = replace(weights, p_l=zeroed(weights.p_l))
        inputs = synth_tokens(TINY, 0)
        npt.assert_array_equal(fuse(inputs, weights, TINY).data, inputs.visual.data)

    def test_gate_off_zero_projection_collapses_to_residual(self):
        weights = init_weights(TINY, 2)
        weights = replace(weights, p_l=zeroed(weights.p_l))
        config = replace(TINY, toggles=replace(TINY.toggles, gate=False))
        inputs = synth_tokens(TINY, 3)
        out = fuse(inputs, weights, config)
        npt.assert_array_equal(out.data, inputs.visual.data)

    @pytest.mark.parametrize("config", [TINY, MULTI_TILE])
    def test_composes_kernel_ops(self, config):
        weights = init_weights(config, 4)
        inputs = synth_tokens(config, 5)
        ws, folded = _workspace(config), fold_weights(weights, config)
        staged = np.empty_like(inputs.visual.data)
        for i, (xv, xs, xc) in enumerate(zip(inputs.visual.data, inputs.spatial.data,
                                              inputs.camera.data)):
            k, v, c = project_qkvc(xv, xs, xc, folded, ws)
            bias = geo_bias(xs, xc, weights)[0]
            k += bias
            v += bias
            attended = attend(k, v * token_weights(xs, weights)[0], c, config, ws)
            gate = swish(affine(c, weights.p_g1)) * affine(c, weights.p_g2)
            gate_and_fuse(attended, gate, xv, folded, ws, staged[i])
        assert staged.tobytes() == fuse(inputs, weights, config).data.tobytes()

    @pytest.mark.parametrize("gate", [False, True])
    def test_matches_the_unfolded_projection(self, gate):
        # p_o, ln_o, p_l and the gate, folded, give the unfolded chain up to rounding
        config = replace(TINY, d_visual=7)
        weights = init_weights(config, 6)
        rng = np.random.default_rng(9)
        weights = replace(weights, p_o=LinearMap(weights.p_o.weight, rng.standard_normal(4)),
                          ln_o=LayerNormParams(rng.standard_normal(4), rng.standard_normal(4)),
                          p_l=LinearMap(weights.p_l.weight, rng.standard_normal(7)))
        ws, folded = _workspace(config), fold_weights(weights, config)
        rows = rng.standard_normal((config.m_visual, 4))
        attended = np.hstack([rows, np.ones((config.m_visual, 1))])
        row = rng.standard_normal((1, 7)) if gate else None
        visual = rng.standard_normal((config.m_visual, 7))
        out = gate_and_fuse(attended, row, visual, folded, ws, np.empty_like(visual))
        mapped = affine(former_layer_norm(affine(rows, weights.p_o), weights.ln_o.gain,
                                          weights.ln_o.shift), weights.p_l)
        want = (mapped if row is None else mapped * row) + visual
        assert np.abs(out - want).max() <= 1e-15 * np.abs(want).max()


class TestFuse:
    def test_straight_line_oracle(self):
        config = FusionConfig(n_frames=2, m_visual=4, m_spatial=6,
                              d_visual=8, d_spatial=6, d_attn=4, n_heads=2)
        weights = init_weights(config, 0)
        inputs = synth_tokens(config, 0)
        expected = ref_fuse(inputs, weights, config)
        npt.assert_allclose(fuse(inputs, weights, config).data, expected,
                            rtol=0, atol=1e-12)

    @pytest.mark.parametrize("bits", list(itertools.product([False, True], repeat=4)))
    def test_straight_line_oracle_all_toggles(self, bits):
        config = replace(TINY, toggles=FusionToggles(*bits))
        weights = init_weights(config, 7)
        inputs = synth_tokens(config, 8)
        expected = ref_fuse(inputs, weights, config)
        npt.assert_allclose(fuse(inputs, weights, config).data, expected,
                            rtol=0, atol=1e-12)

    def test_mapped_output_buffer_changes_no_bit(self, monkeypatch):
        # a 1 MiB visual stream: the fused rows, and in the reverse pass the
        # visual gradient, sit in empty_buffer's own mapping
        config = FusionConfig(n_frames=2, m_visual=1024, m_spatial=3,
                              d_visual=64, d_spatial=4, d_attn=4, n_heads=2)
        inputs = synth_tokens(config, 3)
        weights = init_weights(config, 4)
        cot = TokenTensor(np.random.default_rng(5).standard_normal(inputs.visual.shape))
        mapped = pass_arrays(inputs, weights, config, cot)
        for name in ("fused", "input.visual"):
            array = mapped[name]
            assert array.dtype == np.float64, name
            assert array.flags.writeable and array.flags.c_contiguous, name
            assert in_own_mapping(array), name
        monkeypatch.setattr(fusion, "empty_buffer", lambda shape: np.empty(shape))
        assert {name: array.tobytes() for name, array in mapped.items()} == {
            name: array.tobytes()
            for name, array in pass_arrays(inputs, weights, config, cot).items()}

    def test_shape_matches_visual_stream(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            n, mv, ms = rng.integers(1, 5, size=3)
            dv, ds = rng.integers(1, 7, size=2)
            heads = int(rng.integers(1, 4))
            config = FusionConfig(n_frames=int(n), m_visual=int(mv), m_spatial=int(ms),
                                  d_visual=int(dv), d_spatial=int(ds),
                                  d_attn=2 * heads, n_heads=heads)
            inputs = synth_tokens(config, 0)
            out = fuse(inputs, init_weights(config, 0), config)
            assert out.shape == inputs.visual.shape

    def test_all_toggles_off_with_zero_projection_is_identity(self):
        config = replace(TINY, toggles=FusionToggles(False, False, False, False))
        weights = init_weights(config, 0)
        weights = replace(weights, p_l=zeroed(weights.p_l))
        inputs = synth_tokens(config, 1)
        npt.assert_array_equal(fuse(inputs, weights, config).data, inputs.visual.data)

    def test_register_stream_is_ignored(self):
        weights = init_weights(TINY, 0)
        inputs = synth_tokens(TINY, 1)
        rng = np.random.default_rng(2)
        other = replace(inputs, register=TokenTensor(
            rng.standard_normal((TINY.n_frames, 4, TINY.d_spatial))))
        a = fuse(inputs, weights, TINY)
        b = fuse(other, weights, TINY)
        assert a.data.tobytes() == b.data.tobytes()

    def test_variant_rows_are_pairwise_distinct(self):
        weights = init_weights(TINY, 9)
        inputs = synth_tokens(TINY, 10)
        outs = {n: fuse(inputs, weights, replace(TINY, toggles=t)).data
                for n, t in VARIANTS.items()}
        for a, b in itertools.combinations(VARIANTS, 2):
            assert np.max(np.abs(outs[a] - outs[b])) > 0, (a, b)

    def test_identical_toggles_identical_outputs(self):
        weights = init_weights(TINY, 11)
        inputs = synth_tokens(TINY, 12)
        a = fuse(inputs, weights, TINY)
        b = fuse(inputs, weights, TINY)
        assert a.data.tobytes() == b.data.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_allocation_is_the_output_and_a_frame_per_worker(self, workers, monkeypatch):
        # a frame's working set: its workspace, plus a dozen arrays of its
        # tokens at attention width (the stage outputs and residuals it holds)
        monkeypatch.setattr(fusion, "_usable_cores", lambda: workers)
        config = DEMO_CONFIG
        workspace = traced_bytes(*fusion._workspace(config).values())
        frame = workspace + 12 * 8 * (config.m_visual + config.m_spatial) * config.d_attn
        inputs = synth_tokens(config, 64)
        weights = init_weights(config, 65)
        fused = []
        peak = traced_peak(lambda: fused.append(fuse(inputs, weights, config).data))
        assert peak < traced_bytes(*fused) + workers * frame

    def test_shape_mismatch_raises(self):
        weights = init_weights(TINY, 0)
        inputs = synth_tokens(TINY, 0)
        bad = replace(TINY, m_visual=TINY.m_visual + 1)
        with pytest.raises(DimensionError, match="visual"):
            fuse(inputs, weights, bad)


class TestFuseInvariants:
    def test_frame_locality(self):
        weights = init_weights(TINY, 0)
        inputs = synth_tokens(TINY, 1)
        base = fuse(inputs, weights, TINY).data
        rng = np.random.default_rng(2)
        for trial in range(5):
            j = trial % TINY.n_frames
            visual = inputs.visual.data.copy()
            spatial = inputs.spatial.data.copy()
            camera = inputs.camera.data.copy()
            visual[j] += rng.standard_normal(visual[j].shape)
            spatial[j] += rng.standard_normal(spatial[j].shape)
            camera[j] += rng.standard_normal(camera[j].shape)
            poked = FusionInputs(TokenTensor(visual), TokenTensor(spatial), TokenTensor(camera))
            out = fuse(poked, weights, TINY).data
            others = [f for f in range(TINY.n_frames) if f != j]
            npt.assert_array_equal(out[others], base[others])
            assert (out[j] != base[j]).any()

    def test_spatial_permutation_invariance(self):
        weights = init_weights(TINY, 3)
        inputs = synth_tokens(TINY, 4)
        base = fuse(inputs, weights, TINY).data
        rng = np.random.default_rng(5)
        for _ in range(10):
            spatial = inputs.spatial.data.copy()
            for f in range(TINY.n_frames):
                spatial[f] = spatial[f][rng.permutation(TINY.m_spatial)]
            permuted = replace(inputs, spatial=TokenTensor(spatial))
            out = fuse(permuted, weights, TINY).data
            assert np.max(np.abs(out - base)) < 1e-9

    def test_independent_of_camera_when_all_camera_paths_off(self):
        toggles = FusionToggles(geo_bias=False, token_weight=True,
                                camera_memory=False, gate=False)
        config = replace(TINY, toggles=toggles)
        weights = init_weights(config, 6)
        inputs = synth_tokens(config, 7)
        rng = np.random.default_rng(8)
        other = replace(inputs, camera=TokenTensor(
            rng.standard_normal(inputs.camera.shape)))
        a = fuse(inputs, weights, config)
        b = fuse(other, weights, config)
        assert a.data.tobytes() == b.data.tobytes()

    def test_geo_bias_off_camera_reaches_output_only_via_projection(self):
        # with geo bias off, a camera change that p_c maps to zero changes nothing
        config = replace(TINY, toggles=replace(TINY.toggles, geo_bias=False))
        weights = init_weights(config, 9)
        inputs = synth_tokens(config, 10)
        null = np.linalg.svd(weights.p_c.weight.T)[2][-1]  # null @ p_c.weight ~ 0
        other = replace(inputs, camera=TokenTensor(inputs.camera.data + 3.0 * null))
        npt.assert_allclose(fuse(other, weights, config).data, fuse(inputs, weights, config).data,
                            rtol=0, atol=1e-12)
        # with it on, the camera row also enters the geo bias MLP
        assert (fuse(other, weights, TINY).data != fuse(inputs, weights, TINY).data).any()


class TestFuseBackward:
    def test_zero_cotangent_gives_zero_gradients(self):
        weights = init_weights(TINY, 0)
        inputs = synth_tokens(TINY, 1)
        zero = zero_tokens(*inputs.visual.shape)
        input_grads, weight_grads = fuse_backward(inputs, weights, TINY, zero)
        assert not input_grads.visual.data.any()
        assert not input_grads.spatial.data.any()
        assert not input_grads.camera.data.any()
        for name, arr in iter_params(weight_grads):
            assert not arr.any(), name

    def test_residual_path_passes_cotangent_to_visual(self):
        config = replace(TINY, toggles=replace(TINY.toggles, gate=False))
        weights = init_weights(config, 2)
        weights = replace(weights, p_l=zeroed(weights.p_l))
        inputs = synth_tokens(config, 3)
        rng = np.random.default_rng(4)
        cot = TokenTensor(rng.standard_normal(inputs.visual.shape))
        input_grads, _ = fuse_backward(inputs, weights, config, cot)
        npt.assert_array_equal(input_grads.visual.data, cot.data)

    def test_full_module_matches_finite_differences(self):
        weights = init_weights(TINY, 5)
        inputs = synth_tokens(TINY, 6)
        results = check_fuse_gradients(inputs, weights, TINY, seed=7)
        worst = max(results.values())
        assert worst < 1e-5, results

    @pytest.mark.parametrize("bits", list(itertools.product([False, True], repeat=4)))
    def test_toggle_variants_match_finite_differences(self, bits):
        config = replace(TINY, toggles=FusionToggles(*bits))
        weights = init_weights(config, 8)
        inputs = synth_tokens(config, 9)
        results = check_fuse_gradients(inputs, weights, config, seed=10)
        assert max(results.values()) < 1e-5, results

    def test_entrywise_passes_correct_gradients_where_a_layer_norm_row_is_near_constant(self):
        # a plain central difference at step 1e-5 read 6.0e-5 here, over the
        # 1e-5 tolerance, since a layer norm of a near-constant row bends on
        # the scale of sqrt(LN_EPSILON); the extrapolated one reads ~2e-8
        config = FusionConfig(n_frames=1, m_visual=3, m_spatial=5, d_visual=2, d_spatial=1,
                              d_attn=2, n_heads=1, toggles=FusionToggles(geo_bias=False))
        results = check_fuse_gradients(synth_tokens(config, 62), init_weights(config, 62),
                                       config, seed=0)
        assert max(results.values()) < 1e-5, results

    @pytest.mark.parametrize("config", [TINY, MULTI_TILE, replace(DEMO_CONFIG, n_frames=1)])
    def test_directional_derivative(self, config, monkeypatch):
        inputs = synth_tokens(config, 11)
        # non-zero shifts and biases, so that no folded weight's last row is zero
        weights = noisy_weights(init_weights(config, 12), 13)
        assert check_directional(inputs, weights, config, seed=3)["error"] < 1e-8
        corrupt_gradients(monkeypatch, 1e-2)
        assert check_directional(inputs, weights, config, seed=3)["error"] > 1e-6

    def test_directional_passes_correct_gradients_at_narrow_widths(self):
        # at d_spatial 2 the O(step^2) truncation of a plain central difference
        # at step 1e-6 is 1.3e-8, over the tolerance; the extrapolated one reads ~5e-13
        config = FusionConfig(n_frames=2, m_visual=3, m_spatial=4,
                              d_visual=4, d_spatial=2, d_attn=4, n_heads=2)
        error = check_directional(synth_tokens(config, 1), init_weights(config, 1), config,
                                  seed=1)["error"]
        assert 0 < error <= 1e-8  # a tolerance of 0 still fails it

    @pytest.mark.parametrize("corruption", [0.0, 1e-2])
    @pytest.mark.parametrize("config", [TINY, MULTI_TILE])
    def test_directional_sums_match_a_list_of_every_term(self, config, corruption,
                                                         monkeypatch):
        # check_directional sums name by name; a list holding every gradient
        # times its direction, summed after, gives the same floats bit for bit
        inputs = synth_tokens(config, 11)
        weights = init_weights(config, 12)
        if corruption:
            corrupt_gradients(monkeypatch, corruption)
        got = check_directional(inputs, weights, config, seed=3)
        rng = np.random.default_rng(3)  # the cotangent, then the direction, as drawn there
        cot = TokenTensor(rng.standard_normal(inputs.visual.shape))
        grads = _named(*fuse_backward(inputs, weights, config, cot))
        terms = [(g + corruption) * rng.standard_normal(g.shape) for g in grads.values()]
        analytic = sum(float(term.sum()) for term in terms)
        scale = sum(float(np.abs(term).sum()) for term in terms)
        want = {"analytic": analytic, "numeric": got["numeric"], "scale": scale,
                "error": abs(analytic - got["numeric"]) / scale}
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}

    @staticmethod
    def traced_backward(n_frames: int):
        """(traced peak bytes, traced input-gradient plus weight-partial bytes)
        of one fuse_backward at the demo widths over n_frames frames."""
        config = replace(DEMO_CONFIG, n_frames=n_frames)
        inputs = synth_tokens(config, 28)
        weights = init_weights(config, 29)
        cot = TokenTensor(np.random.default_rng(30).standard_normal(inputs.visual.shape))
        grads = []
        peak = traced_peak(lambda: grads.append(fuse_backward(inputs, weights, config, cot)))
        (input_grads, _), = grads
        gradient_bytes = 8 * param_count(config) * n_frames + traced_bytes(
            *(getattr(input_grads, name).data for name in REQUIRED_STREAMS))
        return peak, gradient_bytes

    def test_backward_peak_allocation_grows_only_by_the_gradients(self, monkeypatch):
        # no residual outlives its frame: two frames more add their input-gradient
        # rows and weight-gradient partials, and nothing else. One worker, since
        # two workers' peaks depend on how their frames happen to interleave
        monkeypatch.setattr(fusion, "_usable_cores", lambda: 1)
        (peak2, grads2), (peak4, grads4) = self.traced_backward(2), self.traced_backward(4)
        assert peak4 - peak2 <= 1.1 * (grads4 - grads2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_backward_frame_holds_its_workspace_and_a_dozen_token_arrays(self, workers,
                                                                          monkeypatch):
        # the forward's bound per worker (see TestFuse), with the backward
        # workspace: each residual and cotangent is dropped at its last read
        monkeypatch.setattr(fusion, "_usable_cores", lambda: workers)
        config = DEMO_CONFIG
        workspace = traced_bytes(*fusion._workspace(config, backward=True).values())
        frame = workspace + 12 * 8 * (config.m_visual + config.m_spatial) * config.d_attn
        peak, gradient_bytes = self.traced_backward(2)
        assert peak - gradient_bytes <= workers * frame

    def test_timings_cover_every_stage_and_change_no_bit(self, monkeypatch):
        monkeypatch.setattr(fusion, "_usable_cores", lambda: 2)
        config = MULTI_TILE
        inputs = synth_tokens(config, 47)
        weights = init_weights(config, 48)
        cot = TokenTensor(np.random.default_rng(49).standard_normal(inputs.visual.shape))
        forward: dict = {}
        start = time.perf_counter()
        fused = fuse(inputs, weights, config, timings=forward).data
        forward_wall = time.perf_counter() - start
        backward: dict = {}
        start = time.perf_counter()
        grads = fuse_backward(inputs, weights, config, cot, timings=backward)
        wall = time.perf_counter() - start
        assert list(forward) == ["project", "geo_bias", "token_weight", "attend", "gate_fuse"]
        assert list(backward) == ["forward", "gate_fuse_vjp", "attend_vjp", "token_weight_vjp",
                                  "geo_bias_vjp", "project_vjp"]
        assert all(value >= 0 for value in [*forward.values(), *backward.values()])
        # busy seconds, summed over two workers, each pass against its own wall time
        assert sum(forward.values()) <= 2 * forward_wall
        assert sum(backward.values()) <= 2 * wall
        timed = {"fused": fused, **_named(*grads)}
        plain = pass_arrays(inputs, weights, config, cot)
        assert {name: array.tobytes() for name, array in timed.items()} == {
            name: array.tobytes() for name, array in plain.items()}

    def test_cotangent_shape_checked(self):
        weights = init_weights(TINY, 0)
        inputs = synth_tokens(TINY, 0)
        with pytest.raises(DimensionError, match="cotangent"):
            fuse_backward(inputs, weights, TINY, zero_tokens(1, 1, 1))


def scaled_projections(weights, scale):
    """`weights` with the p_q, p_k and p_c weight matrices times `scale`: the
    scores grow as scale^2, so at 100 some rows' shift bounds sit e^600 and
    more above their largest score. Scaling the token streams instead does
    not: ln_v and ln_s normalise it away."""
    return replace(weights, **{name: LinearMap(getattr(weights, name).weight * scale,
                                               getattr(weights, name).bias)
                               for name in ("p_q", "p_k", "p_c")})


# the weight gradients that a toggle turned off leaves at exactly zero
DISABLED = {"geo_bias": ("geo_mlp.0", "geo_mlp.1"), "token_weight": ("tw_mlp.0", "tw_mlp.1"),
            "gate": ("p_g1", "p_g2")}


class TestWholePass:
    """`fuse` and `fuse_backward` over drawn shapes, toggles, tile budgets and
    worker counts."""

    @staticmethod
    def directional_error(inputs, weights, config, step):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gradcheck, "STEP", step)
            return check_directional(inputs, weights, config, seed=5)["error"]

    @given(st.data())
    def test_matches_the_oracle_and_its_gradients_at_random_shapes(self, data):
        bits = data.draw(st.tuples(*[st.booleans()] * 4), label="toggles")
        heads = data.draw(st.integers(1, 3), label="heads")
        dh = data.draw(st.integers(1, 4), label="head width")
        config = FusionConfig(
            n_frames=data.draw(st.integers(1, 3), label="frames"),
            m_visual=data.draw(st.integers(1, 9), label="visual tokens"),
            m_spatial=data.draw(st.integers(0 if bits[2] else 1, 9), label="spatial tokens"),
            d_visual=data.draw(st.integers(1, 6), label="d_visual"),
            d_spatial=data.draw(st.integers(1, 6), label="d_spatial"),
            d_attn=heads * dh, n_heads=heads, toggles=FusionToggles(*bits))
        mk = config.m_spatial + bits[2]
        # a score block of a few rows at most, down to one-row tiles
        tile_bytes = data.draw(st.integers(1, 8 * heads * mk * 4), label="tile")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        scale = data.draw(st.sampled_from([1.0, 10.0, 100.0]), label="scale")
        inputs = synth_tokens(config, seed)
        weights = scaled_projections(init_weights(config, seed), scale)
        cot = TokenTensor(np.random.default_rng(seed).standard_normal(inputs.visual.shape))
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(fusion, "_TILE_BYTES", tile_bytes)
            for workers in (1, 2, 3):
                patch.setattr(fusion, "_usable_cores", lambda w=workers: w)
                runs.append(pass_arrays(inputs, weights, config, cot))
            # The extrapolated central difference is off by O(step^4)
            # truncation plus O(1/step) rounding. The truncation is large
            # where a layer norm's input is near constant, since the norm
            # then bends on the scale of sqrt(LN_EPSILON): 67 of 21,000
            # uniform draws of this distribution read over 1e-8 at the
            # default step, up to 0.16, so shorter steps are tried until one
            # is within 1e-8. A step rule inside the check does not replace
            # this loop: the shorter step of whichever adjacent pair of
            # 1e-5, 1e-6 and 1e-7 agrees best passed those draws, but its
            # worst read 9.4e-9, next to the tolerance, and it triples the
            # forward passes of every check for the 0.3% that need it. On
            # 400 narrow configs of the entrywise check it took 3.7 times as
            # long, and its median error was 10 times larger (1.2e-7).
            # Projections scaled by 100 make scores so large that the
            # rounding alone is ~1e-8 at every step; the fallback rows' VJP
            # is checked against the whole-frame oracle in TestTiledAttention.
            if scale <= 10.0:
                errors = []
                for shorter in range(6):
                    errors.append(self.directional_error(
                        inputs, weights, config, gradcheck.STEP / 10**shorter))
                    if errors[-1] <= 1e-8:
                        break
                assert errors[-1] <= 1e-8, errors
        arrays = runs[0]
        for run in runs[1:]:
            assert {name: array.tobytes() for name, array in run.items()} == {
                name: array.tobytes() for name, array in arrays.items()}
        expected = ref_fuse(inputs, weights, config)
        # both sides round each score to ~1e-16 of its size, and scores grow as scale^2
        tolerance = 1e-13 * scale**2 * max(1.0, np.abs(expected).max())
        assert np.abs(arrays["fused"] - expected).max() <= tolerance
        off = [group for toggle, groups in DISABLED.items()
               if not getattr(config.toggles, toggle) for group in groups]
        if not (config.toggles.camera_memory or config.toggles.gate):
            off.append("p_c")  # the camera slot feeds only the memory and the gate
            if not config.toggles.geo_bias:
                off.append("input.camera")
        for name, array in arrays.items():
            if name in off or name.rpartition(".")[0] in off:
                assert not array.any(), name

    def test_scaled_projections_reach_the_exact_shift_fallback(self, monkeypatch):
        counts = TestTiledAttention.count_exact_shift_rows(monkeypatch)
        inputs = synth_tokens(TINY, 55)
        fuse(inputs, init_weights(TINY, 56), TINY)
        assert counts == []
        fuse(inputs, scaled_projections(init_weights(TINY, 56), 100.0), TINY)
        assert sum(counts) > 0


class TestBoundary:
    """Streams are validated where they enter and leave, never in between."""

    @pytest.mark.parametrize("bits", list(itertools.product([False, True], repeat=4)))
    def test_token_tensors_built_per_pass(self, bits, monkeypatch):
        config = replace(TINY, toggles=FusionToggles(*bits))
        weights = init_weights(config, 13)
        inputs = synth_tokens(config, 14)
        cot = TokenTensor(np.random.default_rng(15).standard_normal(inputs.visual.shape))
        built = []
        original = TokenTensor.__post_init__

        def counting(self):
            built.append(self.data.shape)
            original(self)

        monkeypatch.setattr(TokenTensor, "__post_init__", counting)
        fuse(inputs, weights, config)
        assert built == [inputs.visual.shape]  # the fused output only
        built.clear()
        fuse_backward(inputs, weights, config, cot)
        assert built == [inputs.visual.shape, inputs.spatial.shape, inputs.camera.shape]

    def test_float32_streams_match_widened_float64(self):
        weights = init_weights(TINY, 16)
        inputs = synth_tokens(TINY, 17)
        narrow = [getattr(inputs, n).data.astype(np.float32)
                  for n in ("visual", "spatial", "camera")]
        a = fuse(FusionInputs(*(TokenTensor(x) for x in narrow)), weights, TINY)
        b = fuse(FusionInputs(*(TokenTensor(x.astype(np.float64)) for x in narrow)),
                 weights, TINY)
        assert a.data.dtype == np.float64
        assert a.data.tobytes() == b.data.tobytes()
