import json
import os
import re
import stat
import threading
from dataclasses import fields, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from camfuse.fusion import (
    ConfigError,
    FusionConfig,
    FusionToggles,
    init_weights,
    iter_params,
)
from camfuse.metrics import AnswerType, EvalRecord, RecordError, read_records
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
    write_atomic,
)

from helpers import DEEP_JSON, LONG_INT_JSON, in_own_mapping, traced_peak, write_records

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

    def test_unknown_tensor_rejected(self, tmp_path):
        path = tmp_path / "weights.cft"
        weights = init_weights(CONFIG, 4)
        tensors = dict(iter_params(weights))
        tensors["mystery"] = np.zeros(3)
        save_container(path, tensors, {"epsilons": {}})
        with pytest.raises(ContainerError, match="mystery"):
            load_weights(path, CONFIG)

    @pytest.mark.parametrize("name", ["tw_mlp.1.weight", "p_q.weight", "ln_o.gain",
                                      "p_g2.bias"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_non_finite_tensor_rejected(self, tmp_path, name, value, dtype):
        path = tmp_path / "weights.cft"
        tensors = {k: v.astype(dtype) for k, v in iter_params(init_weights(CONFIG, 10))}
        tensors[name].flat[-1] = value
        save_container(path, tensors, {"kind": "fusion-weights"})
        with pytest.raises(ContainerError, match="non-finite") as err:
            load_weights(path, CONFIG)
        assert str(path) in str(err.value)
        assert f"'{name}'" in str(err.value)

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

    # every layer norm runs at LN_EPSILON, so a file that names any other
    # epsilon (or names it for something that is not a layer norm) is refused
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
        ({"ln_s": 1e-3}, "epsilons.ln_s"),
        ({"ln_o": 2}, "epsilons.ln_o"),
    ])
    def test_malformed_epsilons_rejected(self, tmp_path, epsilons, key):
        path = tmp_path / "weights.cft"
        save_container(path, dict(iter_params(init_weights(CONFIG, 7))),
                       {"kind": "fusion-weights", "epsilons": epsilons})
        with pytest.raises(ContainerError) as err:
            load_weights(path, CONFIG)
        assert str(path) in str(err.value)
        assert f"'{key}'" in str(err.value)

    def test_file_with_the_one_epsilon_loads_bit_identically(self, tmp_path):
        # the meta that weight files carried when each layer norm had its own epsilon
        path = tmp_path / "weights.cft"
        weights = init_weights(CONFIG, 8)
        save_container(path, dict(iter_params(weights)),
                       {"kind": "fusion-weights",
                        "epsilons": {"ln_v": 1e-06, "ln_s": 1e-06, "ln_o": 1e-06}})
        loaded = load_weights(path, CONFIG)
        for (name, orig), (_, back) in zip(iter_params(weights), iter_params(loaded)):
            assert orig.tobytes() == back.tobytes(), name

    def test_loaded_weights_resave_byte_for_byte(self, tmp_path):
        first, second = tmp_path / "a.cft", tmp_path / "b.cft"
        weights = init_weights(CONFIG, 9)
        save_weights(weights, first)
        save_weights(load_weights(first, CONFIG), second)
        assert first.read_bytes() == second.read_bytes()


def _header_and_payload(path):
    header_line, payload = path.read_bytes().split(b"\n", 1)
    return json.loads(header_line), payload


def _write_container(path, header, payload=b""):
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + payload)


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

    @pytest.mark.parametrize("shape", [(0, 4), (2, 1024, 64)], ids=["0-byte", "1-MiB"])
    def test_payload_loads_writable_and_round_trips(self, tmp_path, shape):
        # a 1 MiB payload is read into empty_buffer's own mapping
        first = tmp_path / "a.cft"
        second = tmp_path / "b.cft"
        array = np.random.default_rng(1).standard_normal(shape)
        save_container(first, {"x": array}, {})
        loaded, meta = load_container(first)
        x = loaded["x"]
        assert x.dtype == np.float64 and x.flags.writeable and x.flags.c_contiguous
        assert in_own_mapping(x) == (x.nbytes > 0)
        assert x.tobytes() == array.tobytes()
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

    @pytest.mark.parametrize("change,message", [
        ({"dtype": ["f64"]}, "unknown dtype"),
        ({"shape": [-1, -2]}, "integers >= 0"),
        ({"shape": [10**30]}, "does not match"),
        ({"shape": [1.5]}, "integers >= 0"),
        ({"shape": [True, 2]}, "integers >= 0"),
        ({"shape": "12"}, "integers >= 0"),
        ({"shape": [0, 10**30], "byte_length": 0}, "unsupported shape"),
        ({"byte_offset": -16}, "integers >= 0"),
        ({"byte_offset": 16.0}, "integers >= 0"),
        ({"byte_length": 16.0}, "integers >= 0"),
        ({"byte_length": None}, "integers >= 0"),
    ])
    def test_malformed_entry_names_file_and_tensor(self, tmp_path, change, message):
        path = tmp_path / "a.cft"
        save_container(path, {"x": np.zeros(2), "y": np.ones(2)}, {})
        header, payload = _header_and_payload(path)
        header["tensors"]["y"].update(change)
        _write_container(path, header, payload)
        with pytest.raises(ContainerError, match=message) as err:
            load_container(path)
        assert str(path) in str(err.value) and "'y'" in str(err.value)

    @pytest.mark.parametrize("key,value,message", [
        ("tensors", [], "'tensors' must be a JSON object"),
        ("tensors", {"x": "f64"}, "malformed entry for tensor 'x'"),
        ("tensors", {"x": {"dtype": "f64"}}, "malformed entry for tensor 'x'"),
        ("format_version", True, "version"),
        ("meta", [], "meta"),
    ])
    def test_malformed_header_names_the_file(self, tmp_path, key, value, message):
        path = tmp_path / "a.cft"
        _write_container(path, {"format_version": 1, "tensors": {}, "meta": {}, key: value})
        with pytest.raises(ContainerError, match=message) as err:
            load_container(path)
        assert str(path) in str(err.value)

    def test_load_holds_one_copy_of_the_payload(self, tmp_path):
        path = tmp_path / "stream.cft"
        config = FusionConfig(n_frames=4, m_visual=256, m_spatial=64, d_visual=64,
                              d_spatial=64, d_attn=64, n_heads=8)
        inputs = synth_tokens(config, 0)
        save_token_streams(inputs, path)
        size = os.path.getsize(path)
        streams = []
        peak = traced_peak(lambda: streams.append(load_token_streams(path, config)[0]))
        loaded, = streams
        assert peak <= 1.3 * size, (peak, size)
        for name in ("visual", "spatial", "camera", "register"):
            data = getattr(loaded, name).data
            assert data.flags.writeable and data.flags.aligned, name
            assert data.tobytes() == getattr(inputs, name).data.tobytes(), name

    def test_save_writes_each_array_from_its_own_buffer(self, tmp_path):
        path = tmp_path / "stream.cft"
        inputs = synth_tokens(FusionConfig(n_frames=4, m_visual=256, m_spatial=64, d_visual=64,
                                           d_spatial=64, d_attn=64, n_heads=8), 0)
        peak = traced_peak(lambda: save_token_streams(inputs, path))
        size = os.path.getsize(path)
        assert size > 500_000 and peak <= 0.05 * size, (peak, size)

    @pytest.mark.parametrize("array", [np.arange(12.0).reshape(3, 4).T,
                                       np.arange(6, dtype=np.float32)[::2]])
    def test_save_writes_a_strided_array_in_row_major_order(self, tmp_path, array):
        path = tmp_path / "a.cft"
        save_container(path, {"x": array})
        loaded, _ = load_container(path)
        assert loaded["x"].shape == array.shape
        assert loaded["x"].tobytes() == array.tobytes()


# every reader of an input file, with the error type it raises
READERS = [
    pytest.param(load_container, ContainerError, id="load_container"),
    pytest.param(load_config, ConfigError, id="load_config"),
    pytest.param(read_records, RecordError, id="read_records"),
]


# a writer of a small valid file for each reader
VALID_WRITERS = {
    load_container: lambda path: save_container(path, {"x": np.arange(3.0)}, {"k": 1}),
    load_config: lambda path: save_config(CONFIG, 5, path),
    read_records: lambda path: write_records(path, [
        EvalRecord("a", "count", AnswerType.NUMERICAL, 3.0, 4.0)]),
}


@pytest.mark.parametrize("reader, error", READERS)
class TestReaderOpens:
    def test_symlink_to_a_regular_file_is_read(self, tmp_path, reader, error):
        target = tmp_path / "target"
        VALID_WRITERS[reader](target)
        link = tmp_path / "link"
        link.symlink_to(target)
        assert repr(reader(link)) == repr(reader(target))

    def test_directory_is_refused_naming_it(self, tmp_path, reader, error):
        with pytest.raises(error) as err:
            reader(tmp_path)
        assert str(tmp_path) in str(err.value)

    def test_missing_file_raises_the_readers_error(self, tmp_path, reader, error):
        path = tmp_path / "absent"
        with pytest.raises(error, match="cannot read") as err:
            reader(path)
        assert str(path) in str(err.value)

    def test_fifo_is_refused_as_not_a_regular_file(self, tmp_path, reader, error):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        waited = []

        def unblock():  # should the open wait for a writer, one that comes and goes ends it
            waited.append(True)
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))

        timer = threading.Timer(10.0, unblock)
        timer.start()
        try:
            with pytest.raises(error, match="not a regular file") as err:
                reader(fifo)
        finally:
            timer.cancel()
        assert str(fifo) in str(err.value)
        assert not waited

    def test_device_is_refused_as_not_a_regular_file(self, reader, error):
        with pytest.raises(error, match="not a regular file") as err:
            reader(os.devnull)
        assert os.devnull in str(err.value)


class TestAtomicWrites:
    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous contents")

        def chunks():
            yield b"half of the new"
            raise RuntimeError("writer failed midway")

        with pytest.raises(RuntimeError, match="midway"):
            write_atomic(path, chunks())
        assert path.read_bytes() == b"previous contents"
        assert os.listdir(tmp_path) == ["out.bin"]

    def test_writes_whole_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"previous contents")
        write_atomic(path, [b"new ", b"contents"])
        assert path.read_bytes() == b"new contents"
        assert os.listdir(tmp_path) == ["out.bin"]

    @pytest.mark.parametrize("writer", ["container", "config"])
    def test_failed_rename_keeps_the_old_file(self, tmp_path, monkeypatch, writer):
        path = tmp_path / "target"
        if writer == "container":
            save_container(path, {"x": np.zeros(2)}, {})
        else:
            save_config(CONFIG, 1, path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises((ContainerError, OSError), match="no space"):
            if writer == "container":
                save_container(path, {"x": np.ones(3)}, {})
            else:
                save_config(replace(CONFIG, n_frames=3), 2, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["target"]

    def test_fifo_target_is_refused(self, tmp_path):
        path = tmp_path / "pipe"
        os.mkfifo(path)
        with pytest.raises(OSError, match=re.escape(f"{path}: not a regular file")):
            write_atomic(path, [b"x"])
        assert stat.S_ISFIFO(os.lstat(path).st_mode)
        assert os.listdir(tmp_path) == ["pipe"]

    def test_symlink_target_is_refused_and_neither_end_changes(self, tmp_path):
        target, link = tmp_path / "target", tmp_path / "link"
        target.write_bytes(b"target")
        link.symlink_to(target)
        with pytest.raises(OSError, match=re.escape(f"{link}: not a regular file")):
            write_atomic(link, [b"new"])
        assert os.readlink(link) == str(target)
        assert target.read_bytes() == b"target"
        assert sorted(os.listdir(tmp_path)) == ["link", "target"]

    def test_directory_target_is_refused(self, tmp_path):
        path = tmp_path / "dir"
        path.mkdir()
        with pytest.raises(OSError, match=re.escape(f"{path}: not a regular file")):
            write_atomic(path, [b"x"])
        assert path.is_dir() and os.listdir(path) == []
        assert os.listdir(tmp_path) == ["dir"]

    def test_container_onto_a_fifo_is_a_container_error(self, tmp_path):
        path = tmp_path / "pipe"
        os.mkfifo(path)
        with pytest.raises(ContainerError, match="not a regular file"):
            save_container(path, {"x": np.zeros(2)}, {})
        assert stat.S_ISFIFO(os.lstat(path).st_mode)


class TestTokenStreams:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "stream.cft"
        inputs = synth_tokens(CONFIG, 42)
        save_token_streams(inputs, path, meta={"seed": 42})
        loaded, meta = load_token_streams(path, CONFIG)
        for name in ("visual", "spatial", "camera", "register"):
            assert getattr(loaded, name).data.tobytes() == \
                getattr(inputs, name).data.tobytes()
        assert meta["seed"] == 42
        assert meta["kind"] == "token-streams"

    def test_f32_payload_widens_exactly(self, tmp_path):
        path = tmp_path / "stream.cft"
        inputs = synth_tokens(CONFIG, 3)
        narrow = {n: getattr(inputs, n).data.astype(np.float32)
                  for n in ("visual", "spatial", "camera")}
        save_container(path, narrow, {})
        loaded, _ = load_token_streams(path, CONFIG)
        for name, arr in narrow.items():
            got = getattr(loaded, name).data
            assert got.dtype == np.float64
            assert got.tobytes() == arr.astype(np.float64).tobytes()

    @pytest.mark.parametrize("name", ["visual", "spatial", "camera", "register"])
    @pytest.mark.parametrize("fault,message", [
        ("nan", "non-finite"), ("inf", "non-finite"), ("rank", "rank 3"),
    ])
    def test_invalid_stream_names_file_and_stream(self, tmp_path, name, fault, message):
        path = tmp_path / "stream.cft"
        inputs = synth_tokens(CONFIG, 4)
        tensors = {n: getattr(inputs, n).data.copy()
                   for n in ("visual", "spatial", "camera", "register")}
        if fault == "rank":
            tensors[name] = tensors[name][0]
        else:
            tensors[name][-1, -1, -1] = float(fault)
        save_container(path, tensors, {})
        with pytest.raises(ContainerError, match=message) as err:
            load_token_streams(path, CONFIG)
        assert str(path) in str(err.value)
        assert f"stream '{name}'" in str(err.value)

    @pytest.mark.parametrize("name", ["visual", "spatial", "camera", "register"])
    def test_misshapen_stream_names_file_and_stream(self, tmp_path, name):
        path = tmp_path / "stream.cft"
        inputs = synth_tokens(CONFIG, 4)
        tensors = {n: getattr(inputs, n).data for n in ("visual", "spatial", "camera", "register")}
        tensors[name] = np.concatenate([tensors[name], tensors[name][:, :1]], axis=1)
        save_container(path, tensors, {})
        with pytest.raises(ContainerError, match="config expects") as err:
            load_token_streams(path, CONFIG)
        assert str(path) in str(err.value)
        assert f"stream '{name}'" in str(err.value)

    def test_missing_stream_rejected(self, tmp_path):
        path = tmp_path / "stream.cft"
        inputs = synth_tokens(CONFIG, 0)
        save_container(path, {"visual": inputs.visual.data}, {})
        with pytest.raises(ContainerError, match="spatial"):
            load_token_streams(path, CONFIG)


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

    @pytest.mark.parametrize("name", [f.name for f in fields(FusionToggles)])
    def test_round_trip_with_each_toggle_off(self, tmp_path, name):
        path = tmp_path / "config.json"
        config = replace(CONFIG, toggles=FusionToggles(**{name: False}))
        save_config(config, 3, path)
        assert load_config(path) == (config, 3)

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

    @pytest.mark.parametrize("change,field", [
        ({"d_attn": 5}, "divisible"),
        ({"n_frames": 0}, "n_frames"),
        ({"n_frames": True}, "n_frames"),
        ({"m_spatial": -1}, "m_spatial"),
        ({"d_attn": 4.0}, "d_attn"),
        ({"m_spatial": 0, "toggles": {"camera_memory": False}}, "m_spatial"),
        ({"toggles": {"gate": "off"}}, "gate"),
        ({"toggles": {"geo_bias": 1}}, "geo_bias"),
        ({"seed": -1}, "seed"),
    ])
    def test_invalid_values_name_the_path(self, tmp_path, change, field):
        path = tmp_path / "config.json"
        payload = dict(n_frames=2, m_visual=3, m_spatial=4, d_visual=6,
                       d_spatial=5, d_attn=4, n_heads=2)
        payload.update(change)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ConfigError, match=field) as err:
            load_config(path)
        assert str(err.value).startswith(f"{path}: ")


# any JSON value, NaN and the infinities included (Python's json reads and writes them)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=3),
    max_leaves=8,
)
_ENTRY_KEYS = ("dtype", "shape", "byte_offset", "byte_length")
_per_example_file = settings(suppress_health_check=[HealthCheck.function_scoped_fixture])

_tensor_dicts = st.dictionaries(
    st.text(min_size=1, max_size=8),
    hnp.arrays(st.sampled_from([np.float32, np.float64]),
               hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
               elements=st.floats(width=32)),
    max_size=4,
)


class TestContainerProperties:
    @_per_example_file
    @given(_tensor_dicts, st.dictionaries(st.text(max_size=6), _JSON, max_size=3))
    def test_valid_container_round_trips_byte_for_byte(self, tmp_path, tensors, meta):
        first, second = tmp_path / "a.cft", tmp_path / "b.cft"
        save_container(first, tensors, meta)
        loaded, loaded_meta = load_container(first)
        assert list(loaded) == list(tensors)
        for name, array in tensors.items():
            assert loaded[name].dtype == array.dtype and loaded[name].shape == array.shape
            assert loaded[name].tobytes() == array.tobytes(), name
        save_container(second, loaded, loaded_meta)
        assert first.read_bytes() == second.read_bytes()

    @_per_example_file
    @given(_tensor_dicts, st.data())
    def test_damaged_container_loads_or_raises_container_error(self, tmp_path, tensors, data):
        path = tmp_path / "a.cft"
        save_container(path, tensors, {"kind": "test"})
        raw = path.read_bytes()
        header = json.loads(raw.split(b"\n", 1)[0])
        damage = data.draw(st.sampled_from(["truncate", "byte", "header", "entry"]))
        if damage == "truncate":
            raw = raw[:data.draw(st.integers(0, len(raw)))]
        elif damage == "byte":
            at = data.draw(st.integers(0, len(raw) - 1))
            raw = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
        else:
            if damage == "header" or not tensors:
                header[data.draw(st.sampled_from(["format_version", "tensors", "meta"]))] = \
                    data.draw(_JSON)
            else:  # one field of one entry: a bad dtype, shape or offset
                entry = header["tensors"][data.draw(st.sampled_from(sorted(tensors)))]
                entry[data.draw(st.sampled_from(_ENTRY_KEYS))] = data.draw(
                    _JSON | st.integers(-2**70, 2**70) | st.lists(st.integers(-3, 2**70)))
            raw = json.dumps(header).encode("utf-8") + b"\n" + raw.split(b"\n", 1)[1]
        path.write_bytes(raw)
        try:
            load_container(path)
        except ContainerError:
            pass

    @_per_example_file
    @given(st.binary(max_size=40) | _JSON.map(lambda value: json.dumps(value).encode("utf-8")))
    @example(DEEP_JSON)
    @example(b'{"format_version": ' + LONG_INT_JSON + b"}")
    def test_header_line_loads_or_raises_container_error(self, tmp_path, header):
        path = tmp_path / "a.cft"
        path.write_bytes(header.replace(b"\n", b" ") + b"\n")
        try:
            load_container(path)
        except ContainerError as exc:
            assert str(exc).startswith(f"{path}: ")

    @_per_example_file
    @given(st.one_of(
        st.binary(max_size=40),
        _JSON.map(lambda value: json.dumps(value).encode("utf-8")),
        st.dictionaries(st.sampled_from(["n_frames", "m_visual", "m_spatial", "d_visual",
                                         "d_spatial", "d_attn", "n_heads", "seed", "toggles",
                                         "geo_bias", "gate"]),
                        _JSON | st.integers(-2, 9), min_size=6)
        .map(lambda doc: json.dumps(doc).encode("utf-8")),
    ))
    @example(DEEP_JSON)
    @example(b'{"n_frames": ' + LONG_INT_JSON + b"}")
    def test_config_document_parses_or_raises_config_error(self, tmp_path, document):
        path = tmp_path / "config.json"
        path.write_bytes(document)
        try:
            config, seed = load_config(path)
        except ConfigError as exc:
            assert str(exc).startswith(f"{path}: ")
            return
        assert isinstance(config, FusionConfig) and seed >= 0
