import json
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from camfuse.fusion import (
    ConfigError,
    FusionConfig,
    FusionToggles,
    init_weights,
    iter_params,
)
from camfuse.pipeline import synth_tokens
from camfuse.serde import (
    ContainerError,
    load_config,
    load_container,
    load_token_streams,
    load_weights,
    save_config,
    save_container,
    save_token_streams,
    save_weights,
)


CONFIG = FusionConfig(n_frames=2, m_visual=3, m_spatial=4,
                      d_visual=6, d_spatial=5, d_attn=4, n_heads=2)

CANONICAL_NAMES = [
    "ln_v.gain", "ln_v.shift", "ln_s.gain", "ln_s.shift",
    "p_q.weight", "p_q.bias", "p_k.weight", "p_k.bias",
    "p_v.weight", "p_v.bias", "p_c.weight", "p_c.bias",
    "geo_mlp.0.weight", "geo_mlp.0.bias", "geo_mlp.1.weight", "geo_mlp.1.bias",
    "tw_mlp.0.weight", "tw_mlp.0.bias", "tw_mlp.1.weight", "tw_mlp.1.bias",
    "p_o.weight", "p_o.bias", "ln_o.gain", "ln_o.shift",
    "p_l.weight", "p_l.bias", "p_g1.weight", "p_g1.bias",
    "p_g2.weight", "p_g2.bias",
]


class TestWeightsRoundTrip:
    def test_round_trip_is_bit_identical(self, tmp_path):
        path = tmp_path / "weights.cft"
        weights = init_weights(CONFIG, 0)
        save_weights(weights, path)
        loaded = load_weights(path, CONFIG)
        for (name, orig), (_, back) in zip(iter_params(weights), iter_params(loaded)):
            assert orig.tobytes() == back.tobytes(), name
        assert loaded.ln_v.epsilon == weights.ln_v.epsilon

    def test_tensor_names_are_the_canonical_schema(self, tmp_path):
        path = tmp_path / "weights.cft"
        save_weights(init_weights(CONFIG, 1), path)
        tensors, meta = load_container(path)
        assert list(tensors) == CANONICAL_NAMES
        assert meta["kind"] == "fusion-weights"

    def test_truncated_file_fails_cleanly(self, tmp_path):
        path = tmp_path / "weights.cft"
        save_weights(init_weights(CONFIG, 2), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 17])
        with pytest.raises(ContainerError, match="truncated|accounts"):
            load_weights(path, CONFIG)

    def test_shape_mismatch_names_the_tensor(self, tmp_path):
        path = tmp_path / "weights.cft"
        save_weights(init_weights(CONFIG, 3), path)
        bigger = FusionConfig(n_frames=2, m_visual=3, m_spatial=4,
                              d_visual=6, d_spatial=5, d_attn=8, n_heads=2)
        with pytest.raises(ContainerError, match="p_q.weight"):
            load_weights(path, bigger)

    def test_unknown_tensor_rejected_in_strict_mode(self, tmp_path):
        path = tmp_path / "weights.cft"
        weights = init_weights(CONFIG, 4)
        tensors = dict(iter_params(weights))
        tensors["mystery"] = np.zeros(3)
        save_container(path, tensors, {"epsilons": {}})
        with pytest.raises(ContainerError, match="mystery"):
            load_weights(path, CONFIG)
        loaded = load_weights(path, CONFIG, strict=False)
        assert loaded.p_q.weight.shape == (6, 4)

    def test_missing_tensor_rejected(self, tmp_path):
        path = tmp_path / "weights.cft"
        tensors = dict(iter_params(init_weights(CONFIG, 5)))
        tensors.pop("p_l.bias")
        save_container(path, tensors, {})
        with pytest.raises(ContainerError, match="p_l.bias"):
            load_weights(path, CONFIG)

    def test_f32_payload_widens_exactly(self, tmp_path):
        path = tmp_path / "weights.cft"
        arrays = {name: arr.astype(np.float32)
                  for name, arr in iter_params(init_weights(CONFIG, 6))}
        save_container(path, arrays, {})
        loaded = load_weights(path, CONFIG)
        for name, arr in iter_params(loaded):
            assert arr.dtype == np.float64
            npt.assert_array_equal(arr, arrays[name].astype(np.float64), err_msg=name)

    @pytest.mark.parametrize("epsilons,key", [
        ({"ln_v": "x"}, "epsilons.ln_v"),
        ([1, 2], "epsilons"),
        (None, "epsilons"),
        ({"ln_v": True}, "epsilons.ln_v"),
        ({"ln_s": 0}, "epsilons.ln_s"),
        ({"ln_s": -1e-6}, "epsilons.ln_s"),
        ({"ln_o": float("nan")}, "epsilons.ln_o"),
        ({"ln_o": float("inf")}, "epsilons.ln_o"),
        ({"ln_o": 10 ** 400}, "epsilons.ln_o"),
        ({"ln_o": {"value": 1e-6}}, "epsilons.ln_o"),
        ({"p_q": 1e-6}, "epsilons.p_q"),
    ])
    def test_malformed_epsilons_rejected(self, tmp_path, epsilons, key):
        path = tmp_path / "weights.cft"
        save_container(path, dict(iter_params(init_weights(CONFIG, 7))),
                       {"kind": "fusion-weights", "epsilons": epsilons})
        with pytest.raises(ContainerError) as err:
            load_weights(path, CONFIG)
        assert str(path) in str(err.value)
        assert f"'{key}'" in str(err.value)

    def test_partial_epsilons_default_the_rest(self, tmp_path):
        path = tmp_path / "weights.cft"
        save_container(path, dict(iter_params(init_weights(CONFIG, 8))),
                       {"epsilons": {"ln_s": 1e-3, "ln_o": 2}})
        loaded = load_weights(path, CONFIG)
        assert (loaded.ln_v.epsilon, loaded.ln_s.epsilon, loaded.ln_o.epsilon) == (1e-6, 1e-3, 2)

    def test_loaded_weights_resave_byte_for_byte(self, tmp_path):
        first, second = tmp_path / "a.cft", tmp_path / "b.cft"
        weights = init_weights(CONFIG, 9)
        weights = replace(weights, ln_s=replace(weights.ln_s, epsilon=1e-5))
        save_weights(weights, first)
        save_weights(load_weights(first, CONFIG), second)
        assert first.read_bytes() == second.read_bytes()


class TestContainerFormat:
    def test_reserialization_is_byte_identical(self, tmp_path):
        first = tmp_path / "a.cft"
        second = tmp_path / "b.cft"
        rng = np.random.default_rng(0)
        tensors = {
            "alpha": rng.standard_normal((2, 3)),
            "beta": rng.standard_normal(5).astype(np.float32),
            "gamma": rng.standard_normal((1, 1, 4)),
        }
        save_container(first, tensors, {"note": "round trip", "epsilon": 1e-6})
        loaded, meta = load_container(first)
        save_container(second, loaded, meta)
        assert first.read_bytes() == second.read_bytes()

    def test_header_is_a_diffable_json_line(self, tmp_path):
        path = tmp_path / "a.cft"
        save_container(path, {"x": np.zeros(2)}, {})
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        assert header["format_version"] == 1
        assert header["tensors"]["x"] == {
            "dtype": "f64", "shape": [2], "byte_offset": 0, "byte_length": 16,
        }

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "a.cft"
        save_container(path, {"x": np.zeros(2)}, {})
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b'"format_version":1', b'"format_version":9', 1))
        with pytest.raises(ContainerError, match="version"):
            load_container(path)

    def test_garbage_header_rejected(self, tmp_path):
        path = tmp_path / "a.cft"
        path.write_bytes(b"not json\n\x00\x01")
        with pytest.raises(ContainerError, match="JSON"):
            load_container(path)

    def test_missing_header_line_rejected(self, tmp_path):
        path = tmp_path / "a.cft"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(ContainerError, match="header"):
            load_container(path)

    def test_sparse_offsets_rejected(self, tmp_path):
        path = tmp_path / "a.cft"
        save_container(path, {"x": np.zeros(2), "y": np.ones(2)}, {})
        raw = path.read_bytes()
        patched = raw.replace(b'"byte_offset":16', b'"byte_offset":24', 1)
        path.write_bytes(patched)
        with pytest.raises(ContainerError, match="densely"):
            load_container(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "a.cft"
        save_container(path, {"x": np.zeros(2)}, {})
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(ContainerError, match="accounts"):
            load_container(path)

    def test_unsupported_dtype_rejected_on_save(self, tmp_path):
        with pytest.raises(ContainerError, match="dtype"):
            save_container(tmp_path / "a.cft", {"x": np.zeros(2, dtype=np.int32)}, {})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ContainerError, match="cannot read"):
            load_container(tmp_path / "nope.cft")


class TestTokenStreams:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "stream.cft"
        inputs = synth_tokens(CONFIG, 42)
        save_token_streams(inputs, path, meta={"seed": 42})
        loaded, meta = load_token_streams(path)
        for name in ("visual", "spatial", "camera", "register"):
            assert getattr(loaded, name).data.tobytes() == \
                getattr(inputs, name).data.tobytes()
        assert meta["seed"] == 42
        assert meta["kind"] == "token-streams"

    def test_missing_stream_rejected(self, tmp_path):
        path = tmp_path / "stream.cft"
        inputs = synth_tokens(CONFIG, 0)
        save_container(path, {"visual": inputs.visual.data}, {})
        with pytest.raises(ContainerError, match="spatial"):
            load_token_streams(path)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "config.json"
        config = FusionConfig(n_frames=2, m_visual=3, m_spatial=4,
                              d_visual=6, d_spatial=5, d_attn=4, n_heads=2,
                              toggles=FusionToggles(gate=False))
        save_config(config, 17, path)
        loaded, seed = load_config(path)
        assert loaded == config
        assert seed == 17

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"n_frames": 2}', encoding="utf-8")
        with pytest.raises(ConfigError, match="m_visual"):
            load_config(path)

    def test_wrong_type_named(self, tmp_path):
        path = tmp_path / "config.json"
        payload = dict(n_frames=2, m_visual=3, m_spatial=4, d_visual=6,
                       d_spatial="five", d_attn=4, n_heads=2)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match="d_spatial"):
            load_config(path)

    def test_unknown_field_named(self, tmp_path):
        path = tmp_path / "config.json"
        payload = dict(n_frames=2, m_visual=3, m_spatial=4, d_visual=6,
                       d_spatial=5, d_attn=4, n_heads=2, dropout=0.1)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match="dropout"):
            load_config(path)

    def test_bad_toggle_named(self, tmp_path):
        path = tmp_path / "config.json"
        payload = dict(n_frames=2, m_visual=3, m_spatial=4, d_visual=6,
                       d_spatial=5, d_attn=4, n_heads=2,
                       toggles={"gate": "off"})
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match="gate"):
            load_config(path)

    def test_invalid_dimension_combination_surfaces(self, tmp_path):
        path = tmp_path / "config.json"
        payload = dict(n_frames=2, m_visual=3, m_spatial=4, d_visual=6,
                       d_spatial=5, d_attn=5, n_heads=2)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match="divisible"):
            load_config(path)
