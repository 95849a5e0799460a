import json
from dataclasses import replace

import numpy as np
import pytest

from camfuse.cli import (
    EXIT_CHECK_FAILED,
    EXIT_INVALID,
    EXIT_OK,
    RunManifest,
    main,
)
from camfuse.fusion import FusionConfig, init_weights, iter_params
from camfuse.metrics import AnswerType, EvalRecord, write_records
from camfuse.serde import load_container, save_config, save_container, save_weights
from camfuse.tensor import LinearMap


TINY = FusionConfig(n_frames=2, m_visual=3, m_spatial=4,
                    d_visual=6, d_spatial=5, d_attn=4, n_heads=2)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    save_config(TINY, 5, path)
    return str(path)


class TestManifest:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            RunManifest("c.json", None, "in.cft", 3, "out.cft")
        with pytest.raises(ValueError, match="exactly one"):
            RunManifest("c.json", None, None, None, "out.cft")
        RunManifest("c.json", None, "in.cft", None, "out.cft")
        RunManifest("c.json", None, None, 3, "out.cft")


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
        out = tmp_path / "fused.cft"
        code = main(["fuse", "--config", config_path, "--seed", "5", "--out", str(out)])
        assert code == EXIT_OK
        printed = capsys.readouterr().out
        assert "tokens/s" in printed
        tensors, _ = load_container(out)
        assert tensors["fused"].shape == (2, 3, 6)

    def test_stream_file_input(self, tmp_path, config_path):
        stream = tmp_path / "stream.cft"
        out = tmp_path / "fused.cft"
        main(["gen", "--config", config_path, "--out", str(stream)])
        code = main(["fuse", "--config", config_path, "--in", str(stream),
                     "--out", str(out)])
        assert code == EXIT_OK

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
        assert "epsilons.ln_v" in capsys.readouterr().err

    def test_source_flags_are_exclusive(self, config_path, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["fuse", "--config", config_path, "--seed", "1",
                  "--in", "x.cft", "--out", str(tmp_path / "o.cft")])
        assert err.value.code == 2

    def test_shape_mismatch_is_invalid_exit(self, tmp_path, config_path, capsys):
        stream = tmp_path / "stream.cft"
        main(["gen", "--config", config_path, "--out", str(stream)])
        other = tmp_path / "other.json"
        save_config(replace(TINY, m_visual=7), 0, other)
        code = main(["fuse", "--config", str(other), "--in", str(stream),
                     "--out", str(tmp_path / "o.cft")])
        assert code == EXIT_INVALID
        assert "visual" in capsys.readouterr().err


class TestGradcheck:
    def test_default_config_passes(self, capsys):
        assert main(["gradcheck"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "worst" in out
        assert "FAIL" not in out

    def test_corrupted_gradients_fail(self, capsys):
        code = main(["gradcheck", "--self-test-corruption", "1e-2"])
        assert code == EXIT_CHECK_FAILED
        assert "FAIL" in capsys.readouterr().out

    def test_zero_tolerance_fails(self):
        assert main(["gradcheck", "--tolerance", "0"]) == EXIT_CHECK_FAILED

    def test_oversize_config_refused(self, tmp_path, capsys):
        big = tmp_path / "big.json"
        save_config(FusionConfig(n_frames=32, m_visual=1024, m_spatial=1369,
                                 d_visual=64, d_spatial=64, d_attn=64), 0, big)
        assert main(["gradcheck", "--config", str(big)]) == EXIT_INVALID
        assert "budget" in capsys.readouterr().err


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

    def test_malformed_line_reports_number(self, tmp_path, capsys):
        path = tmp_path / "r.jsonl"
        path.write_text("{bad\n", encoding="utf-8")
        code = main(["score", "--records", str(path), "--protocol", "vsi"])
        assert code == EXIT_INVALID
        assert ":1:" in capsys.readouterr().err

    def test_report_file_written_next_to_records(self, tmp_path):
        records = [EvalRecord("1", "what", AnswerType.FREE_TEXT, "a table", "table")]
        path = self._write(tmp_path / "r.jsonl", records)
        assert main(["score", "--records", path, "--protocol", "sqa3d"]) == EXIT_OK
        payload = json.loads((tmp_path / "r.jsonl.report.json").read_text(encoding="utf-8"))
        assert payload["em_at_1"] == 0.0
        assert payload["em_at_r1"] == 1.0


class TestBench:
    def test_single_repetition(self, config_path, capsys):
        assert main(["bench", "--config", config_path, "--reps", "1"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "median" in out
        tokens_per_s = float(out.rsplit("median", 1)[1].split()[-3].replace(",", ""))
        assert tokens_per_s > 0

    def test_invalid_reps(self, config_path):
        assert main(["bench", "--config", config_path, "--reps", "0"]) == EXIT_INVALID


class TestToggleFlags:
    def test_no_gate_changes_output(self, tmp_path, config_path):
        a, b = tmp_path / "a.cft", tmp_path / "b.cft"
        main(["fuse", "--config", config_path, "--seed", "1", "--out", str(a)])
        main(["fuse", "--config", config_path, "--seed", "1", "--out", str(b), "--no-gate"])
        ta, _ = load_container(a)
        tb, _ = load_container(b)
        assert ta["fused"].tobytes() != tb["fused"].tobytes()
