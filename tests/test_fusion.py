import itertools
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from camfuse.fusion import (
    ConfigError,
    FusionConfig,
    FusionInputs,
    FusionToggles,
    attend,
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
    variant_toggles,
    with_toggles,
)
from camfuse.gradcheck import check_fuse_gradients
from camfuse.pipeline import synth_tokens
from camfuse.tensor import (
    DimensionError,
    LayerNormParams,
    LinearMap,
    TokenTensor,
    affine,
    layer_norm,
)

from oracles import ref_attention, ref_fuse


TINY = FusionConfig(n_frames=2, m_visual=3, m_spatial=4,
                    d_visual=6, d_spatial=5, d_attn=4, n_heads=2)


def zeroed(lin: LinearMap) -> LinearMap:
    return LinearMap(np.zeros_like(lin.weight),
                     None if lin.bias is None else np.zeros_like(lin.bias))


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


class TestInputs:
    def test_frame_disagreement(self):
        with pytest.raises(DimensionError, match="frame counts"):
            FusionInputs(visual=TokenTensor.zeros(2, 3, 6),
                         spatial=TokenTensor.zeros(3, 4, 5),
                         camera=TokenTensor.zeros(2, 1, 5))

    def test_camera_must_be_single_token(self):
        with pytest.raises(DimensionError, match="1 token"):
            FusionInputs(visual=TokenTensor.zeros(2, 3, 6),
                         spatial=TokenTensor.zeros(2, 4, 5),
                         camera=TokenTensor.zeros(2, 2, 5))

    def test_register_shape(self):
        with pytest.raises(DimensionError, match="register"):
            FusionInputs(visual=TokenTensor.zeros(2, 3, 6),
                         spatial=TokenTensor.zeros(2, 4, 5),
                         camera=TokenTensor.zeros(2, 1, 5),
                         register=TokenTensor.zeros(2, 3, 5))


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

    def test_identity_init_zeroes_output_projection(self):
        weights = init_weights(TINY, 0, identity_init=True)
        assert not weights.p_l.weight.any()
        inputs = synth_tokens(TINY, 0)
        npt.assert_array_equal(fuse(inputs, weights, TINY).data, inputs.visual.data)


class TestProject:
    def test_zero_camera_yields_bias_rows(self):
        rng = np.random.default_rng(0)
        weights = init_weights(TINY, 0)
        bias = rng.standard_normal(TINY.d_attn)
        weights = replace(weights, p_c=LinearMap(weights.p_c.weight, bias))
        inputs = synth_tokens(TINY, 1)
        inputs = replace(inputs, camera=TokenTensor.zeros(TINY.n_frames, 1, TINY.d_spatial))
        _, _, _, c = project_qkvc(inputs, weights)
        npt.assert_array_equal(c.data, np.broadcast_to(bias, c.shape))

    def test_output_shapes(self):
        weights = init_weights(TINY, 1)
        inputs = synth_tokens(TINY, 2)
        q, k, v, c = project_qkvc(inputs, weights)
        assert q.shape == (2, 3, 4)
        assert k.shape == v.shape == (2, 4, 4)
        assert c.shape == (2, 1, 4)

    def test_composes_kernel_ops_bit_exactly(self):
        weights = init_weights(TINY, 4)
        inputs = synth_tokens(TINY, 5)
        q, k, v, c = project_qkvc(inputs, weights)
        assert q.data.tobytes() == affine(
            layer_norm(inputs.visual.data, weights.ln_v), weights.p_q).tobytes()
        lns = layer_norm(inputs.spatial.data, weights.ln_s)
        assert k.data.tobytes() == affine(lns, weights.p_k).tobytes()
        assert v.data.tobytes() == affine(lns, weights.p_v).tobytes()
        assert c.data.tobytes() == affine(inputs.camera.data, weights.p_c).tobytes()


class TestGeoBias:
    def test_zero_mlp_is_zero_bias(self):
        weights = init_weights(TINY, 0)
        weights = replace(weights, geo_mlp=(zeroed(weights.geo_mlp[0]),
                                            zeroed(weights.geo_mlp[1])))
        inputs = synth_tokens(TINY, 1)
        bias = geo_bias(inputs.spatial, inputs.camera, weights)
        npt.assert_array_equal(bias.data, np.zeros(bias.shape))
        # with a zero bias the geo toggle cannot change the result
        on = fuse(inputs, weights, TINY)
        off = fuse(inputs, weights, with_toggles(TINY, replace(TINY.toggles, geo_bias=False)))
        npt.assert_array_equal(on.data, off.data)

    def test_depends_on_camera(self):
        weights = init_weights(TINY, 2)
        rng = np.random.default_rng(3)
        spatial_frame = rng.standard_normal((1, TINY.m_spatial, TINY.d_spatial))
        spatial = TokenTensor(np.repeat(spatial_frame, TINY.n_frames, axis=0))
        camera = TokenTensor(rng.standard_normal((TINY.n_frames, 1, TINY.d_spatial)))
        bias = geo_bias(spatial, camera, weights)
        assert (bias.data[0] != bias.data[1]).any()

    def test_shape(self):
        weights = init_weights(TINY, 4)
        inputs = synth_tokens(TINY, 5)
        assert geo_bias(inputs.spatial, inputs.camera, weights).shape == (2, 4, 4)


class TestTokenWeights:
    def test_zero_mlp_gives_half(self):
        weights = init_weights(TINY, 0)
        weights = replace(weights, tw_mlp=(zeroed(weights.tw_mlp[0]),
                                           zeroed(weights.tw_mlp[1])))
        inputs = synth_tokens(TINY, 1)
        tw = token_weights(inputs.spatial, weights)
        npt.assert_array_equal(tw.data, np.full(tw.shape, 0.5))

    def test_ignores_visual_and_camera(self):
        weights = init_weights(TINY, 2)
        a = synth_tokens(TINY, 3)
        b = replace(a,
                    visual=TokenTensor(a.visual.data + 1.0),
                    camera=TokenTensor(a.camera.data - 2.0))
        ta = token_weights(a.spatial, weights)
        tb = token_weights(b.spatial, weights)
        assert ta.data.tobytes() == tb.data.tobytes()

    def test_open_unit_interval(self):
        weights = init_weights(TINY, 4)
        tw = token_weights(synth_tokens(TINY, 5).spatial, weights)
        assert (tw.data > 0).all() and (tw.data < 1).all()


class TestAttend:
    def test_single_camera_slot_attention(self):
        # no spatial tokens: softmax over the lone camera slot is 1, so every
        # output row is that frame's camera value row
        config = FusionConfig(n_frames=2, m_visual=3, m_spatial=0,
                              d_visual=6, d_spatial=5, d_attn=4, n_heads=2)
        rng = np.random.default_rng(0)
        q = TokenTensor(rng.standard_normal((2, 3, 4)))
        k = TokenTensor.zeros(2, 0, 4)
        v = TokenTensor.zeros(2, 0, 4)
        c = TokenTensor(rng.standard_normal((2, 1, 4)))
        out = attend(q, k, v, c, config)
        npt.assert_allclose(out.data, np.broadcast_to(c.data, out.shape), atol=1e-15)

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(1)
        config = with_toggles(TINY, replace(TINY.toggles, camera_memory=False))
        key_row = rng.standard_normal(4)
        k = TokenTensor(np.broadcast_to(key_row, (2, 4, 4)).copy())
        v = TokenTensor(rng.standard_normal((2, 4, 4)))
        q = TokenTensor(rng.standard_normal((2, 3, 4)))
        c = TokenTensor(rng.standard_normal((2, 1, 4)))
        out = attend(q, k, v, c, config)
        expected = np.broadcast_to(v.data.mean(axis=1, keepdims=True), out.shape)
        npt.assert_allclose(out.data, expected, atol=1e-12)

    @pytest.mark.parametrize("heads", [1, 2])
    def test_against_loop_oracle(self, heads):
        rng = np.random.default_rng(2 + heads)
        config = FusionConfig(n_frames=1, m_visual=2, m_spatial=3,
                              d_visual=4, d_spatial=4, d_attn=4, n_heads=heads)
        q = TokenTensor(rng.standard_normal((1, 2, 4)))
        k = TokenTensor(rng.standard_normal((1, 3, 4)))
        v = TokenTensor(rng.standard_normal((1, 3, 4)))
        c = TokenTensor(rng.standard_normal((1, 1, 4)))
        out = attend(q, k, v, c, config)
        kmem = np.concatenate([c.data, k.data], axis=1)
        vmem = np.concatenate([c.data, v.data], axis=1)
        expected = ref_attention(q.data, kmem, vmem, heads)
        npt.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_empty_memory_raises(self):
        # a valid config, but the op itself is handed empty memory tensors
        config = FusionConfig(n_frames=1, m_visual=2, m_spatial=1,
                              d_visual=4, d_spatial=4, d_attn=4, n_heads=2,
                              toggles=FusionToggles(camera_memory=False))
        q = TokenTensor.zeros(1, 2, 4)
        empty = TokenTensor.zeros(1, 0, 4)
        c = TokenTensor.zeros(1, 1, 4)
        with pytest.raises(DimensionError, match="empty"):
            attend(q, empty, empty, c, config)


class TestGateAndFuse:
    def test_zero_gate_branch_collapses_to_residual(self):
        weights = init_weights(TINY, 0)
        weights = replace(weights, p_g1=zeroed(weights.p_g1))
        inputs = synth_tokens(TINY, 1)
        out = fuse(inputs, weights, TINY)
        npt.assert_array_equal(out.data, inputs.visual.data)

    def test_gate_off_zero_projection_collapses_to_residual(self):
        weights = init_weights(TINY, 2)
        weights = replace(weights, p_l=zeroed(weights.p_l))
        config = with_toggles(TINY, replace(TINY.toggles, gate=False))
        inputs = synth_tokens(TINY, 3)
        out = fuse(inputs, weights, config)
        npt.assert_array_equal(out.data, inputs.visual.data)

    def test_composes_kernel_ops(self):
        weights = init_weights(TINY, 4)
        inputs = synth_tokens(TINY, 5)
        q, k, v, c = project_qkvc(inputs, weights)
        bias = geo_bias(inputs.spatial, inputs.camera, weights)
        k = TokenTensor(k.data + bias.data)
        v = TokenTensor((v.data + bias.data) * token_weights(inputs.spatial, weights).data)
        attended = attend(q, k, v, c, TINY)
        staged = gate_and_fuse(attended, c, inputs.visual, weights, TINY)
        assert staged.data.tobytes() == fuse(inputs, weights, TINY).data.tobytes()


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
        config = with_toggles(TINY, FusionToggles(*bits))
        weights = init_weights(config, 7)
        inputs = synth_tokens(config, 8)
        expected = ref_fuse(inputs, weights, config)
        npt.assert_allclose(fuse(inputs, weights, config).data, expected,
                            rtol=0, atol=1e-12)

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
        config = with_toggles(TINY, FusionToggles(False, False, False, False))
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
        names = ("shallow", "token-weight", "geo-bias", "full")
        outs = {n: fuse(inputs, weights, with_toggles(TINY, variant_toggles(n))).data
                for n in names}
        for a, b in itertools.combinations(names, 2):
            assert np.max(np.abs(outs[a] - outs[b])) > 0, (a, b)

    def test_identical_toggles_identical_outputs(self):
        weights = init_weights(TINY, 11)
        inputs = synth_tokens(TINY, 12)
        a = fuse(inputs, weights, TINY)
        b = fuse(inputs, weights, TINY)
        assert a.data.tobytes() == b.data.tobytes()

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
        config = with_toggles(TINY, toggles)
        weights = init_weights(config, 6)
        inputs = synth_tokens(config, 7)
        rng = np.random.default_rng(8)
        other = replace(inputs, camera=TokenTensor(
            rng.standard_normal(inputs.camera.shape)))
        a = fuse(inputs, weights, config)
        b = fuse(other, weights, config)
        assert a.data.tobytes() == b.data.tobytes()

    def test_geo_bias_off_camera_reaches_output_only_via_projection(self):
        # with geo bias off, scaling the camera stream must leave K untouched
        config = with_toggles(TINY, replace(TINY.toggles, geo_bias=False))
        weights = init_weights(config, 9)
        inputs = synth_tokens(config, 10)
        q1, k1, _, _ = project_qkvc(inputs, weights)
        other = replace(inputs, camera=TokenTensor(inputs.camera.data * 3.0))
        q2, k2, _, _ = project_qkvc(other, weights)
        assert k1.data.tobytes() == k2.data.tobytes()
        assert q1.data.tobytes() == q2.data.tobytes()


class TestFuseBackward:
    def test_zero_cotangent_gives_zero_gradients(self):
        weights = init_weights(TINY, 0)
        inputs = synth_tokens(TINY, 1)
        zero = TokenTensor.zeros(*inputs.visual.shape)
        input_grads, weight_grads = fuse_backward(inputs, weights, TINY, zero)
        assert not input_grads.visual.data.any()
        assert not input_grads.spatial.data.any()
        assert not input_grads.camera.data.any()
        for name, arr in iter_params(weight_grads):
            assert not arr.any(), name

    def test_residual_path_passes_cotangent_to_visual(self):
        config = with_toggles(TINY, replace(TINY.toggles, gate=False))
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
        results = check_fuse_gradients(inputs, weights, TINY, cotangent_seed=7)
        worst = max(results.values())
        assert worst < 1e-5, results

    @pytest.mark.parametrize("bits", list(itertools.product([False, True], repeat=4)))
    def test_toggle_variants_match_finite_differences(self, bits):
        config = with_toggles(TINY, FusionToggles(*bits))
        weights = init_weights(config, 8)
        inputs = synth_tokens(config, 9)
        results = check_fuse_gradients(inputs, weights, config, cotangent_seed=10)
        assert max(results.values()) < 1e-5, results

    def test_cotangent_shape_checked(self):
        weights = init_weights(TINY, 0)
        inputs = synth_tokens(TINY, 0)
        with pytest.raises(DimensionError, match="cotangent"):
            fuse_backward(inputs, weights, TINY, TokenTensor.zeros(1, 1, 1))
