import json
import os
import warnings
from dataclasses import replace

import numpy as np
import pytest

from camfuse import gradcheck
from camfuse.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    main,
)
from camfuse.fusion import FusionConfig, FusionToggles, fuse, init_weights, iter_params
from camfuse.metrics import AnswerType, EvalRecord
from camfuse.pipeline import synth_tokens
from camfuse.serde import load_container, save_config, save_container, save_weights
from camfuse.tensor import LinearMap

from helpers import DEEP_JSON, LONG_INT_JSON, corrupt_gradients, write_records

TINY = FusionConfig(n_frames=2, m_visual=3, m_spatial=4,
                    d_visual=6, d_spatial=5, d_attn=4, n_heads=2)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    save_config(TINY, 5, path)
    return str(path)


class TestGen:
    def test_deterministic_bytes(self, tmp_path, config_path):
        a, b = tmp_path / "a.cft", tmp_path / "b.cft"
        assert main(["gen", "--config", config_path, "--out", str(a)]) == EXIT_OK
        assert main(["gen", "--config", config_path, "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_header_shapes_match_config(self, tmp_path, config_path):
        out = tmp_path / "stream.cft"
        assert main(["gen", "--config", config_path, "--out", str(out)]) == EXIT_OK
        tensors, meta = load_container(out)
        assert tensors["visual"].shape == (2, 3, 6)
        assert tensors["spatial"].shape == (2, 4, 5)
        assert tensors["camera"].shape == (2, 1, 5)
        assert tensors["register"].shape == (2, 4, 5)
        assert meta["seed"] == 5

    def test_seed_override_changes_file(self, tmp_path, config_path):
        a, b = tmp_path / "a.cft", tmp_path / "b.cft"
        main(["gen", "--config", config_path, "--out", str(a)])
        main(["gen", "--config", config_path, "--seed", "6", "--out", str(b)])
        assert a.read_bytes() != b.read_bytes()

    def test_bad_config_is_invalid_exit(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code = main(["gen", "--config", str(bad), "--out", str(tmp_path / "x.cft")])
        assert code == EXIT_INVALID
        assert "error:" in capsys.readouterr().err


class TestFuse:
    def test_synthetic_run(self, tmp_path, config_path, capsys):
        stream = tmp_path / "stream.cft"
        out = tmp_path / "fused.cft"
        main(["gen", "--config", config_path, "--out", str(stream)])
        capsys.readouterr()
        code = main(["fuse", "--config", config_path, "--in", str(stream), "--out", str(out)])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [l.split()[0] for l in lines if l.split()[2:3] == ["ms"]] == [
            "project", "geo_bias", "token_weight", "attend", "gate_fuse", "total"]
        assert "tokens/s" in lines[-2]
        tensors, _ = load_container(out)
        assert tensors["fused"].shape == (2, 3, 6)

    def test_stream_file_input(self, tmp_path, config_path):
        # gen --seed then fuse --in is the one route to a synthetic batch: it
        # writes what fuse gives in process, with weights from the config's seed 5
        stream = tmp_path / "stream.cft"
        out = tmp_path / "fused.cft"
        main(["gen", "--config", config_path, "--seed", "9", "--out", str(stream)])
        code = main(["fuse", "--config", config_path, "--in", str(stream),
                     "--out", str(out)])
        assert code == EXIT_OK
        expected = fuse(synth_tokens(TINY, 9), init_weights(TINY, 5), TINY).data
        assert load_container(out)[0]["fused"].tobytes() == expected.tobytes()

    def test_zero_gate_weights_reproduce_visual_stream(self, tmp_path, config_path):
        stream = tmp_path / "stream.cft"
        weights_path = tmp_path / "weights.cft"
        out = tmp_path / "fused.cft"
        main(["gen", "--config", config_path, "--out", str(stream)])
        weights = init_weights(TINY, 5)
        weights = replace(weights, p_g1=LinearMap(np.zeros_like(weights.p_g1.weight),
                                                  np.zeros_like(weights.p_g1.bias)))
        save_weights(weights, weights_path)
        code = main(["fuse", "--config", config_path, "--in", str(stream),
                     "--weights", str(weights_path), "--out", str(out)])
        assert code == EXIT_OK
        fused, _ = load_container(out)
        visual, _ = load_container(stream)
        assert fused["fused"].tobytes() == visual["visual"].tobytes()

    def test_malformed_weight_epsilon_is_invalid_exit(self, tmp_path, config_path, capsys):
        stream = tmp_path / "stream.cft"
        weights_path = tmp_path / "weights.cft"
        main(["gen", "--config", config_path, "--out", str(stream)])
        save_container(weights_path, dict(iter_params(init_weights(TINY, 5))),
                       {"kind": "fusion-weights", "epsilons": {"ln_v": "x"}})
        code = main(["fuse", "--config", config_path, "--in", str(stream),
                     "--weights", str(weights_path), "--out", str(tmp_path / "o.cft")])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert str(weights_path) in err
        assert "epsilons.ln_v" in err

    def test_source_flag_is_required(self, config_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["fuse", "--config", config_path, "--out", str(tmp_path / "o.cft")])
        assert err.value.code == 2

    def test_non_finite_weight_is_invalid_exit(self, tmp_path, config_path, capsys):
        stream = tmp_path / "stream.cft"
        weights_path = tmp_path / "weights.cft"
        main(["gen", "--config", config_path, "--out", str(stream)])
        tensors = dict(iter_params(init_weights(TINY, 5)))
        tensors["tw_mlp.1.weight"][0, 0] = np.inf  # saturates the sigmoid: finite, wrong output
        save_container(weights_path, tensors, {"kind": "fusion-weights"})
        out = tmp_path / "o.cft"
        code = main(["fuse", "--config", config_path, "--in", str(stream),
                     "--weights", str(weights_path), "--out", str(out)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert str(weights_path) in err and "tw_mlp.1.weight" in err
        assert not out.exists()

    def test_overflowing_output_names_the_fused_output(self, tmp_path, config_path, capsys):
        stream = tmp_path / "stream.cft"
        main(["gen", "--config", config_path, "--out", str(stream)])
        tensors, meta = load_container(stream)
        tensors["camera"][0, 0, 0] = 1e160  # finite, but the gate overflows
        save_container(stream, tensors, meta)
        out = tmp_path / "o.cft"
        with np.errstate(all="ignore"):
            code = main(["fuse", "--config", config_path, "--in", str(stream),
                         "--out", str(out)])
        assert code == EXIT_INVALID
        assert "fused output" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_output_prints_only_its_error_line(self, tmp_path, config_path, capsys):
        stream = tmp_path / "stream.cft"
        main(["gen", "--config", config_path, "--out", str(stream)])
        tensors, meta = load_container(stream)
        tensors["camera"][0, 0, 0] = 1e160  # finite, but the gate overflows
        save_container(stream, tensors, meta)
        out = tmp_path / "o.cft"
        with np.errstate(all="warn"), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["fuse", "--config", config_path, "--in", str(stream),
                         "--out", str(out)])
        assert code == EXIT_INVALID
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == (
            "error: fused output: token tensor contains non-finite entries\n")
        assert not out.exists()

    def test_shape_mismatch_is_invalid_exit(self, tmp_path, config_path, capsys):
        stream = tmp_path / "stream.cft"
        main(["gen", "--config", config_path, "--out", str(stream)])
        other = tmp_path / "other.json"
        save_config(replace(TINY, m_visual=7), 0, other)
        code = main(["fuse", "--config", str(other), "--in", str(stream),
                     "--out", str(tmp_path / "o.cft")])
        assert code == EXIT_INVALID
        assert "visual" in capsys.readouterr().err

    def test_misshapen_stream_is_invalid_exit(self, tmp_path, config_path, capsys):
        bad = tmp_path / "bad.cft"
        main(["gen", "--config", config_path, "--out", str(bad)])
        tensors, meta = load_container(bad)
        tensors["camera"] = np.concatenate([tensors["camera"]] * 2, axis=1)  # two tokens
        save_container(bad, tensors, meta)
        out = tmp_path / "o.cft"
        code = main(["fuse", "--config", config_path, "--in", str(bad), "--out", str(out)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert str(bad) in err and "stream 'camera'" in err
        assert not out.exists()

    @pytest.mark.parametrize("document", [DEEP_JSON, b'{"n_frames": ' + LONG_INT_JSON + b"}"],
                             ids=["deep", "long-int"])
    def test_undecodable_config_is_invalid_exit(self, tmp_path, capsys, document):
        config = tmp_path / "config.json"
        config.write_bytes(document)
        code = main(["fuse", "--config", str(config), "--in", str(tmp_path / "stream.cft"),
                     "--out", str(tmp_path / "o.cft")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: {config}: invalid JSON")

    @pytest.mark.parametrize("document", [DEEP_JSON, b'{"format_version": ' + LONG_INT_JSON + b"}"],
                             ids=["deep", "long-int"])
    def test_undecodable_stream_header_is_invalid_exit(self, tmp_path, config_path, capsys,
                                                       document):
        stream = tmp_path / "stream.cft"
        stream.write_bytes(document + b"\n")
        code = main(["fuse", "--config", config_path, "--in", str(stream),
                     "--out", str(tmp_path / "o.cft")])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: {stream}: header: invalid JSON")

    def test_malformed_stream_header_is_invalid_exit(self, tmp_path, config_path, capsys):
        stream = tmp_path / "stream.cft"
        stream.write_bytes(b'{"format_version": 1, "tensors": [], "meta": {}}\n')
        out = tmp_path / "o.cft"
        code = main(["fuse", "--config", config_path, "--in", str(stream), "--out", str(out)])
        assert code == EXIT_INVALID
        assert str(stream) in capsys.readouterr().err
        assert not out.exists()


class TestGradcheck:
    def test_default_config_passes(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "worst" in out
        assert "FAIL" not in out

    def test_corrupted_gradients_fail(self, monkeypatch, capsys):
        corrupt_gradients(monkeypatch, 1e-2)
        assert main(["gradcheck"]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_passes_where_a_layer_norm_normalises_a_zero_row(self, tmp_path, capsys):
        # every value row is 0, so ln_o bends on the scale of sqrt(LN_EPSILON):
        # a plain central difference at step 1e-5 read 5.2e-5 (ln_s.shift) and
        # exited 4; the extrapolated one reads ~1e-9
        path = tmp_path / "zero_rows.json"
        save_config(FusionConfig(n_frames=1, m_visual=1, m_spatial=6, d_visual=1, d_spatial=1,
                                 d_attn=2, n_heads=1, toggles=FusionToggles(*[False] * 4)),
                    128, path)
        assert main(["gradcheck", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "entrywise check" in out and "FAIL" not in out

    def test_zero_tolerance_fails(self):
        assert main(["gradcheck", "--tolerance", "0"]) == EXIT_CHECK_FAILED

    def test_a_nan_gradient_fails(self, monkeypatch, capsys):
        # a NaN entry's error must count as the worst, not be skipped by max
        real = gradcheck.fuse_backward

        def nan_in_p_c(*args, **kwargs):
            input_grads, weight_grads = real(*args, **kwargs)
            weight_grads.p_c.weight[0, 0] = np.nan
            return input_grads, weight_grads

        monkeypatch.setattr(gradcheck, "fuse_backward", nan_in_p_c)
        assert main(["gradcheck"]) == EXIT_CHECK_FAILED
        worst = [line for line in capsys.readouterr().out.splitlines() if "worst" in line]
        assert worst and "inf" in worst[0]

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_bad_tolerance_is_invalid_exit(self, value, capsys):
        assert main(["gradcheck", "--tolerance", value]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "--tolerance" in err and value in err

    @pytest.fixture
    def multi_tile_config(self, tmp_path):
        # over the entry budget, and each frame spans three query tiles
        path = tmp_path / "multi_tile.json"
        save_config(FusionConfig(n_frames=2, m_visual=60, m_spatial=4999,
                                 d_visual=6, d_spatial=5, d_attn=4, n_heads=2), 0, path)
        return str(path)

    def test_directional_passes_over_the_entry_budget(self, multi_tile_config, capsys):
        assert main(["gradcheck", "--config", multi_tile_config]) == EXIT_OK
        out = capsys.readouterr().out
        assert "directional check" in out
        assert "analytic" in out and "numeric" in out
        assert "tolerance 1e-08  ok" in out

    def test_directional_zero_tolerance_fails(self, multi_tile_config, capsys):
        # --tolerance reaches the directional check, whose error is never exactly 0
        code = main(["gradcheck", "--config", multi_tile_config, "--tolerance", "0"])
        assert code == EXIT_CHECK_FAILED
        assert "directional check" in capsys.readouterr().out

    def test_directional_corrupted_gradients_fail(self, multi_tile_config, monkeypatch, capsys):
        corrupt_gradients(monkeypatch, 1e-2)
        assert main(["gradcheck", "--config", multi_tile_config]) == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out


class TestSeedFlag:
    @pytest.mark.parametrize("argv", [
        ["gen", "--out", "o.cft"],
        ["gradcheck"],
        ["ablate"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed_is_invalid_exit(self, argv, config_path, tmp_path, capsys):
        argv = [argv[0], "--config", config_path, "--seed", "-1", *argv[1:]]
        argv = [str(tmp_path / a) if a == "o.cft" else a for a in argv]
        assert main(argv) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "--seed" in err and "-1" in err
        assert not (tmp_path / "o.cft").exists()


class TestAblate:
    def test_four_variants_and_nonzero_diffs(self, config_path, capsys):
        assert main(["ablate", "--config", config_path]) == EXIT_OK
        out = capsys.readouterr().out
        for name in ("shallow", "token-weight", "geo-bias", "full"):
            assert name in out
        diff_lines = [l for l in out.splitlines() if " vs " in l]
        assert len(diff_lines) == 6
        assert all(float(l.split()[-1]) > 0 for l in diff_lines)


class TestScore:
    def _write(self, path, records):
        write_records(path, records)
        return str(path)

    def test_perfect_predictions(self, tmp_path, capsys):
        records = [
            EvalRecord("1", "count", AnswerType.NUMERICAL, 4.0, 4.0),
            EvalRecord("2", "dir", AnswerType.MULTIPLE_CHOICE, "B", "B"),
        ]
        path = self._write(tmp_path / "r.jsonl", records)
        assert main(["score", "--records", path, "--protocol", "vsi"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "average" in out and "1.0000" in out

    def test_relative_error_example_survives_pipeline(self, tmp_path, capsys):
        records = [EvalRecord("1", "count", AnswerType.NUMERICAL, 7.0, 10.0)]
        path = self._write(tmp_path / "r.jsonl", records)
        report_path = tmp_path / "report.json"
        assert main(["score", "--records", path, "--protocol", "vsi",
                     "--out", str(report_path)]) == EXIT_OK
        assert "0.4000" in capsys.readouterr().out
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        assert payload["subtasks"][0]["score"] == 0.4

    def test_spbench_triple(self, tmp_path, capsys):
        records = [
            EvalRecord("1", "si_d", AnswerType.NUMERICAL, 1.0, 1.0),
            EvalRecord("2", "si_m", AnswerType.MULTIPLE_CHOICE, "A", "A"),
            EvalRecord("3", "mv_d", AnswerType.NUMERICAL, 7.0, 10.0),
            EvalRecord("4", "mv_m", AnswerType.MULTIPLE_CHOICE, "A", "B"),
        ]
        path = self._write(tmp_path / "r.jsonl", records)
        assert main(["score", "--records", path, "--protocol", "spbench"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "si:" in out and "mv:" in out and "overall:" in out

    def test_failed_report_write_keeps_the_old_report(self, tmp_path, monkeypatch, capsys):
        path = self._write(tmp_path / "r.jsonl",
                           [EvalRecord("1", "count", AnswerType.NUMERICAL, 4.0, 4.0)])
        report = tmp_path / "report.json"
        report.write_text("previous report\n", encoding="utf-8")

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        code = main(["score", "--records", path, "--protocol", "vsi", "--out", str(report)])
        assert code == EXIT_INVALID
        assert "no space" in capsys.readouterr().err
        assert report.read_text(encoding="utf-8") == "previous report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl", "report.json"]

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        path.write_text("{bad\n", encoding="utf-8")
        code = main(["score", "--records", str(path), "--protocol", "vsi"])
        assert code == EXIT_INVALID
        assert ":1:" in capsys.readouterr().err

    @pytest.mark.parametrize("line", [
        b"\xff\xfe{}\n",
        DEEP_JSON + b"\n",
        b'{"id": "2", "prediction": ' + LONG_INT_JSON + b"}\n",
        b'{"id": "2", "subtask": "count", "answer_type": "numerical", '
        b'"prediction": 1' + b"0" * 400 + b', "ground_truth": 4}\n',
        b'{"id": "2", "subtask": "count", "answer_type": "numerical", '
        b'"prediction": true, "ground_truth": 1}\n',
        b'{"id": null, "subtask": "count", "answer_type": "numerical", '
        b'"prediction": 4, "ground_truth": 4}\n',
        b'{"id": "1", "subtask": "count", "answer_type": "numerical", '
        b'"prediction": 4, "ground_truth": 4}\n',
    ], ids=["not-utf8", "deep", "long-int", "overflow", "bool", "null-id", "duplicate-id"])
    def test_malformed_record_file_is_invalid_exit(self, tmp_path, capsys, line):
        path = tmp_path / "r.jsonl"
        write_records(path, [EvalRecord("1", "count", AnswerType.NUMERICAL, 4.0, 4.0)])
        path.write_bytes(path.read_bytes() + line)
        code = main(["score", "--records", str(path), "--protocol", "vsi"])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"error: {path}:2: ")
        assert not (tmp_path / "r.jsonl.report.json").exists()

    def test_report_file_written_next_to_records(self, tmp_path):
        records = [EvalRecord("1", "what", AnswerType.FREE_TEXT, "a table", "table")]
        path = self._write(tmp_path / "r.jsonl", records)
        assert main(["score", "--records", path, "--protocol", "sqa3d"]) == EXIT_OK
        payload = json.loads((tmp_path / "r.jsonl.report.json").read_text(encoding="utf-8"))
        assert payload["em_at_1"] == 0.0
        assert payload["em_at_r1"] == 1.0


class TestNonRegularInputs:
    @pytest.mark.parametrize("argv", [
        ["gen", "--config", os.devnull, "--out", "OUT"],
        ["fuse", "--config", "CONFIG", "--in", os.devnull, "--out", "OUT"],
        ["gradcheck", "--config", os.devnull],
        ["score", "--records", os.devnull, "--protocol", "vsi", "--out", "OUT"],
    ], ids=["gen-config", "fuse-in", "gradcheck-config", "score-records"])
    def test_device_input_is_invalid_exit(self, argv, config_path, tmp_path, capsys):
        argv = [{"CONFIG": config_path, "OUT": str(tmp_path / "out.cft")}.get(a, a)
                for a in argv]
        assert main(argv) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {os.devnull}: not a regular file\n"
        assert not (tmp_path / "out.cft").exists()

    def test_fifo_output_is_invalid_exit(self, config_path, tmp_path, capsys):
        stream = tmp_path / "stream.cft"
        main(["gen", "--config", config_path, "--out", str(stream)])
        out = tmp_path / "out.cft"
        os.mkfifo(out)
        assert main(["fuse", "--config", config_path, "--in", str(stream),
                     "--out", str(out)]) == EXIT_INVALID
        assert f"{out}: not a regular file" in capsys.readouterr().err
        assert os.path.exists(out) and not os.path.isfile(out)
        assert sorted(os.listdir(tmp_path)) == ["config.json", "out.cft", "stream.cft"]


class TestHelp:
    @pytest.mark.parametrize("command, second_route", [("fuse", "--seed"),
                                                        ("gradcheck", "--directional")])
    def test_help_lists_one_route_per_input(self, command, second_route, capsys):
        # tokens come only from --in, toggles only from the config,
        # gradcheck's method only from the config's size, and its negative
        # control only from the tests
        with pytest.raises(SystemExit) as err:
            main([command, "-h"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: camfuse {command}")
        assert [option for option in (second_route, "--no-geo-bias", "--no-token-weight",
                                      "--no-camera-memory", "--no-gate",
                                      "--self-test-corruption") if option in out] == []
