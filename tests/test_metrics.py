import json
import math
import os

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from camfuse.metrics import (
    DEFAULT_MRA_THRESHOLDS,
    AnswerType,
    EvalRecord,
    RecordError,
    ScoringError,
    choice_accuracy,
    exact_match,
    mean_relative_accuracy,
    parse_choice,
    read_records,
    report,
    score_protocol,
    spbench_aggregate,
)

from helpers import DEEP_JSON, LONG_INT_JSON, write_records


def rec(id, subtask, kind, pred, truth):
    return EvalRecord(id, subtask, AnswerType(kind), pred, truth)


class TestMeanRelativeAccuracy:
    def test_default_threshold_sweep(self):
        assert DEFAULT_MRA_THRESHOLDS == (0.50, 0.55, 0.60, 0.65, 0.70,
                                          0.75, 0.80, 0.85, 0.90, 0.95)

    def test_exact_prediction(self):
        assert mean_relative_accuracy(3.5, 3.5) == 1.0

    def test_relative_error_of_point_three(self):
        # error 0.3 passes complements 0.50, 0.45, 0.40, 0.35 -> 4 of 10
        assert mean_relative_accuracy(7.0, 10.0) == 0.4
        assert mean_relative_accuracy(13.0, 10.0) == 0.4

    def test_half_off_scores_zero(self):
        assert mean_relative_accuracy(5.0, 10.0) == 0.0
        assert mean_relative_accuracy(100.0, 10.0) == 0.0

    def test_scale_invariance(self):
        for c in (2.0, -5.0, 0.003, 1e6):
            assert mean_relative_accuracy(7.0 * c, 10.0 * c) == \
                mean_relative_accuracy(7.0, 10.0)

    def test_monotone_in_absolute_error(self):
        scores = [mean_relative_accuracy(10.0 + d, 10.0)
                  for d in (0.0, 0.5, 1.0, 2.0, 3.0, 4.5, 6.0)]
        assert scores == sorted(scores, reverse=True)

    def test_zero_truth_is_an_error(self):
        with pytest.raises(ScoringError):
            mean_relative_accuracy(1.0, 0.0)


class TestChoiceAccuracy:
    def test_all_correct(self):
        records = [rec(str(i), "s", "multiple_choice", "A", "A") for i in range(4)]
        assert choice_accuracy(records) == 1.0

    def test_half_correct(self):
        records = [rec("1", "s", "multiple_choice", "A", "A"),
                   rec("2", "s", "multiple_choice", "B", "C")]
        assert choice_accuracy(records) == 0.5

    def test_empty_set_is_an_error(self):
        with pytest.raises(ScoringError):
            choice_accuracy([])

    @pytest.mark.parametrize("text,letter", [
        ("A", "A"), ("a", "A"), ("  B  ", "B"), ("C)", "C"),
        ("C) the red chair", "C"), ("d. something", "D"), ("B: option", "B"),
    ])
    def test_parse_accepted_forms(self, text, letter):
        assert parse_choice(text) == letter

    @pytest.mark.parametrize("text", ["", "AB", "the chair", "12", "(A)"])
    def test_parse_rejected_forms(self, text):
        assert parse_choice(text) is None

    def test_unparseable_prediction_counts_wrong(self, caplog):
        records = [rec("1", "s", "multiple_choice", "the chair", "A"),
                   rec("2", "s", "multiple_choice", "A", "A")]
        with caplog.at_level("WARNING"):
            assert choice_accuracy(records) == 0.5
        assert "unparseable" in caplog.text

    def test_unparseable_truth_is_an_error(self):
        with pytest.raises(ScoringError):
            choice_accuracy([rec("1", "s", "multiple_choice", "A", "???")])


class TestExactMatch:
    def test_verbatim_counts_for_both(self):
        records = [rec("1", "s", "free_text", "table", "table")]
        assert exact_match(records) == 1.0
        assert exact_match(records, refined=True) == 1.0

    def test_containment_only_counts_when_refined(self):
        records = [rec("1", "s", "free_text", "the brown table", "table")]
        assert exact_match(records, refined=False) == 0.0
        assert exact_match(records, refined=True) == 1.0

    def test_containment_works_both_directions(self):
        records = [rec("1", "s", "free_text", "table", "the brown table")]
        assert exact_match(records, refined=True) == 1.0

    def test_normalization_absorbs_case_space_punctuation(self):
        records = [rec("1", "s", "free_text", "  The   TABLE. ", "the table")]
        assert exact_match(records) == 1.0
        assert exact_match(records, refined=True) == 1.0

    def test_unrelated_answers_do_not_match(self):
        records = [rec("1", "s", "free_text", "chair", "table")]
        assert exact_match(records, refined=True) == 0.0


class TestSpbenchAggregate:
    def test_published_row(self):
        si, mv, overall = spbench_aggregate(66.3, 53.2, 76.2, 70.5)
        assert abs(si - 59.75) < 1e-12
        assert abs(mv - 73.35) < 1e-12
        assert abs(overall - 66.55) < 1e-12

    def test_equal_inputs_pass_through(self):
        assert spbench_aggregate(0.7, 0.7, 0.7, 0.7) == (0.7, 0.7, 0.7)

    def test_symmetry(self):
        assert spbench_aggregate(1.0, 0.0, 0.0, 1.0) == (0.5, 0.5, 0.5)

    def test_matches_brute_force_mean_of_means(self):
        import random
        rng = random.Random(0)
        for _ in range(50):
            vals = [rng.uniform(0, 100) for _ in range(4)]
            si, mv, overall = spbench_aggregate(*vals)
            assert si == (vals[0] + vals[1]) / 2
            assert mv == (vals[2] + vals[3]) / 2
            assert overall == (si + mv) / 2

    def test_out_of_scale_rejected(self):
        with pytest.raises(ValueError):
            spbench_aggregate(150.0, 1.0, 1.0, 1.0)


class TestReport:
    def test_perfect_eight_subtasks(self):
        records = [rec(f"{s}-{i}", f"task{s}", "multiple_choice", "A", "A")
                   for s in range(8) for i in range(3)]
        summary = report(records)
        assert len(summary["subtasks"]) == 8
        assert all(r["score"] == 1.0 for r in summary["subtasks"])
        assert summary["average"] == 1.0

    def test_single_record_subtask_equals_metric(self):
        records = [rec("1", "count", "numerical", 7.0, 10.0)]
        summary = report(records)
        assert summary["subtasks"][0]["score"] == mean_relative_accuracy(7.0, 10.0)

    def test_average_is_unweighted_over_subtasks(self):
        records = [rec("1", "a", "multiple_choice", "A", "A")]
        records += [rec(f"b{i}", "b", "multiple_choice", "B", "C") for i in range(9)]
        summary = report(records)
        # subtask mean, not record mean: (1.0 + 0.0) / 2
        assert summary["average"] == 0.5

    def test_zero_truth_records_are_excluded_and_reported(self):
        records = [rec("ok", "size", "numerical", 5.0, 5.0),
                   rec("bad", "size", "numerical", 5.0, 0.0)]
        summary = report(records)
        assert summary["excluded"] == ["bad"]
        assert summary["subtasks"][0]["count"] == 1
        assert summary["subtasks"][0]["score"] == 1.0

    def test_subtask_with_nothing_scoreable_is_an_error(self):
        with pytest.raises(ScoringError, match="no scoreable"):
            report([rec("bad", "size", "numerical", 5.0, 0.0)])

    def test_mixed_answer_types_within_subtask(self):
        records = [rec("1", "s", "multiple_choice", "A", "A"),
                   rec("2", "s", "numerical", 1.0, 1.0)]
        with pytest.raises(ScoringError, match="mixes"):
            report(records)

    def test_empty_record_list(self):
        with pytest.raises(ScoringError):
            report([])


class TestScoreProtocol:
    def test_vsi(self):
        records = [rec("1", "obj_count", "numerical", 7.0, 10.0),
                   rec("2", "rel_dir", "multiple_choice", "A", "A")]
        result = score_protocol(records, "vsi")
        scores = {e["subtask"]: e["score"] for e in result["subtasks"]}
        assert scores == {"obj_count": 0.4, "rel_dir": 1.0}
        assert result["average"] == 0.7

    def test_sqa3d(self):
        records = [rec("1", "what", "free_text", "the brown table", "table"),
                   rec("2", "is", "free_text", "yes", "yes")]
        result = score_protocol(records, "sqa3d")
        assert result["em_at_1"] == 0.5
        assert result["em_at_r1"] == 1.0

    def test_spbench(self):
        records = [rec("1", "si_dist", "numerical", 10.0, 10.0),
                   rec("2", "si_dir", "multiple_choice", "A", "B"),
                   rec("3", "mv_count", "numerical", 7.0, 10.0),
                   rec("4", "mv_size", "multiple_choice", "C", "C")]
        result = score_protocol(records, "spbench")
        assert result["si_nq"] == 1.0 and result["si_mcq"] == 0.0
        assert result["mv_nq"] == 0.4 and result["mv_mcq"] == 1.0
        assert result["si"] == 0.5 and result["mv"] == 0.7
        assert result["overall"] == 0.6

    def test_spbench_rejects_other_subtask_prefixes(self):
        with pytest.raises(ScoringError, match="si.*mv|'si' or 'mv'"):
            score_protocol([rec("1", "xx_dist", "numerical", 1.0, 1.0)], "spbench")

    def test_unknown_protocol(self):
        with pytest.raises(ValueError):
            score_protocol([], "imagenet")


def _record_line(**change) -> bytes:
    payload = {"id": "1", "subtask": "s", "answer_type": "numerical",
               "prediction": 1.0, "ground_truth": 2.0}
    payload.update(change)
    return json.dumps(payload).encode("utf-8") + b"\n"


_RECORD_KEYS = ("id", "subtask", "answer_type", "prediction", "ground_truth", "extra")
_RECORD_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**400, 10**400) | st.floats()
    | st.text(max_size=6) | st.sampled_from([kind.value for kind in AnswerType]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=2),
    max_leaves=4,
)


class TestRecordIO:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [rec("1", "count", "numerical", 7.0, 10.0),
                   rec("2", "dir", "multiple_choice", "A", "B"),
                   rec("3", "what", "free_text", "a table", "table")]
        write_records(path, records)
        assert read_records(path) == records

    def test_failed_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_records(path, [rec("1", "count", "numerical", 7.0, 10.0)])
        before = path.read_bytes()

        def records():
            yield rec("2", "dir", "multiple_choice", "A", "B")
            raise RuntimeError("record source failed midway")

        with pytest.raises(RuntimeError, match="midway"):
            write_records(path, records())
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["records.jsonl"]

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "subtask": "s", "answer_type": "numerical", '
                        '"prediction": 1.0, "ground_truth": 2.0}\n'
                        "{broken\n", encoding="utf-8")
        with pytest.raises(RecordError, match=":2:"):
            read_records(path)

    def test_missing_field_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "subtask": "s"}\n', encoding="utf-8")
        with pytest.raises(RecordError, match="missing field"):
            read_records(path)

    def test_bad_answer_type_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        payload = {"id": "1", "subtask": "s", "answer_type": "essay",
                   "prediction": "x", "ground_truth": "y"}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match="answer_type"):
            read_records(path)

    def test_non_numeric_numerical_record_reported(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        payload = {"id": "1", "subtask": "s", "answer_type": "numerical",
                   "prediction": "lots", "ground_truth": 2.0}
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        with pytest.raises(RecordError, match="not a number"):
            read_records(path)

    @pytest.mark.parametrize("line,message", [
        (b"\xff\xfe{}\n", "utf-8"),
        (DEEP_JSON + b"\n", "recursion"),
        (b'{"id": "2", "prediction": ' + LONG_INT_JSON + b"}\n", "digits"),
        (_record_line(prediction=10**400), "not finite"),
        (_record_line(ground_truth=-10**400), "not finite"),
        (_record_line(prediction=True), "not a number"),
        (_record_line(ground_truth=False), "not a number"),
        (_record_line(id=None), "id must be a JSON string, got None"),
        (_record_line(id=2), "id must be a JSON string, got 2"),
        (_record_line(subtask=["s"]), r"subtask must be a JSON string, got \['s'\]"),
        (_record_line(), "duplicate id '1', first on line 1"),
    ], ids=["not-utf8", "deep", "long-int", "overflow-prediction", "overflow-truth",
            "bool-prediction", "bool-truth", "null-id", "integer-id", "list-subtask",
            "duplicate-id"])
    def test_malformed_line_raises_record_error_naming_path_and_line(self, tmp_path, line,
                                                                       message):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(_record_line() + line)
        with pytest.raises(RecordError, match=message) as err:
            read_records(path)
        assert str(err.value).startswith(f"{path}:2: ")

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(
        st.binary(max_size=60),
        st.lists(st.dictionaries(st.sampled_from(_RECORD_KEYS), _RECORD_VALUES, min_size=4),
                 max_size=3)
        .map(lambda lines: b"".join(json.dumps(line).encode("utf-8") + b"\n"
                                    for line in lines)),
    ))
    @example(DEEP_JSON)
    def test_record_file_parses_or_raises_record_error(self, tmp_path, document):
        path = tmp_path / "records.jsonl"
        path.write_bytes(document)
        try:
            records = read_records(path)
        except RecordError as exc:
            assert str(exc).startswith(f"{path}:")
            return
        for record in records:
            if record.answer_type is AnswerType.NUMERICAL:
                assert math.isfinite(record.prediction) and math.isfinite(record.ground_truth)

    def test_non_finite_rejected(self):
        with pytest.raises(RecordError):
            EvalRecord("1", "s", AnswerType.NUMERICAL, math.inf, 1.0)
