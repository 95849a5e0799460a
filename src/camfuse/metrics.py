"""Scoring math for spatial-reasoning QA benchmarks.

Three answer formats are supported:

* numerical -- mean relative accuracy: the fraction of the confidence
  thresholds 0.50..0.95 (DEFAULT_MRA_THRESHOLDS) under which
  |pred - truth| / |truth| is acceptable;
* multiple_choice -- letter accuracy with lenient "A" / "A)" / "A." parsing;
* free_text -- exact match after normalization, plus a relaxed variant that
  also accepts containment in either direction.

`report` groups records by subtask and averages subtask scores uniformly;
its dict is the "vsi" protocol report. `spbench_aggregate` implements the
two-level single-image / multi-view averaging. Record files are JSON lines;
see read_records.
"""

from __future__ import annotations

import logging
import math
import re
import string
from dataclasses import dataclass
from enum import Enum
from statistics import fmean

from .serde import decode_json, open_regular

__all__ = [
    "ScoringError",
    "RecordError",
    "AnswerType",
    "EvalRecord",
    "DEFAULT_MRA_THRESHOLDS",
    "mean_relative_accuracy",
    "choice_accuracy",
    "exact_match",
    "spbench_aggregate",
    "report",
    "score_protocol",
    "read_records",
]

logger = logging.getLogger(__name__)


class ScoringError(ValueError):
    """A metric cannot be computed for the given records."""


class RecordError(ValueError):
    """A record file or record payload is malformed."""


class AnswerType(str, Enum):
    NUMERICAL = "numerical"
    MULTIPLE_CHOICE = "multiple_choice"
    FREE_TEXT = "free_text"


@dataclass(frozen=True)
class EvalRecord:
    id: str
    subtask: str
    answer_type: AnswerType
    prediction: str | float
    ground_truth: str | float

    def __post_init__(self):
        if self.answer_type is AnswerType.NUMERICAL:
            for field in ("prediction", "ground_truth"):
                raw = getattr(self, field)
                try:
                    if isinstance(raw, bool):  # JSON true/false decode to bools
                        raise TypeError
                    value = float(raw)
                except (TypeError, ValueError):
                    raise RecordError(
                        f"record {self.id!r}: numerical {field} is not a number: {raw!r}"
                    ) from None
                except OverflowError:  # an integer beyond the float range
                    value = math.inf
                if not math.isfinite(value):
                    raise RecordError(f"record {self.id!r}: numerical {field} is not finite")
                object.__setattr__(self, field, value)


# confidence sweep 0.50 .. 0.95 in steps of 0.05
DEFAULT_MRA_THRESHOLDS = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))

# guard so decimal boundary cases (relative error exactly at a threshold's
# complement) land on the excluded side regardless of binary rounding
_TIE_GUARD = 1e-12


def mean_relative_accuracy(pred: float, truth: float) -> float:
    """Fraction of DEFAULT_MRA_THRESHOLDS t for which |pred - truth| / |truth| < 1 - t."""
    if truth == 0:
        raise ScoringError("relative accuracy is undefined for zero ground truth")
    rel = abs(pred - truth) / abs(truth)
    passed = sum(1 for t in DEFAULT_MRA_THRESHOLDS if rel < (1.0 - t) - _TIE_GUARD)
    return passed / len(DEFAULT_MRA_THRESHOLDS)


_CHOICE_RE = re.compile(r"^\s*([A-Za-z])\s*(?:[).:]\s*.*)?$", re.DOTALL)


def parse_choice(text) -> str | None:
    """Extract the answer letter from "A", "a", "A)", "A. ..." forms."""
    match = _CHOICE_RE.match(str(text))
    return match.group(1).upper() if match else None


def choice_accuracy(records) -> float:
    """Fraction of multiple-choice records whose predicted letter matches."""
    records = list(records)
    if not records:
        raise ScoringError("cannot average an empty record set")
    correct = 0
    for rec in records:
        if rec.answer_type is not AnswerType.MULTIPLE_CHOICE:
            raise ScoringError(f"record {rec.id!r} is not multiple choice")
        truth = parse_choice(rec.ground_truth)
        if truth is None:
            raise ScoringError(f"record {rec.id!r}: unparseable ground-truth choice")
        pred = parse_choice(rec.prediction)
        if pred is None:
            logger.warning("record %r: unparseable choice %r counted wrong",
                           rec.id, rec.prediction)
            continue
        correct += pred == truth
    return correct / len(records)


_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def normalize_answer(text) -> str:
    """Lowercase, replace punctuation with spaces, collapse whitespace."""
    return " ".join(str(text).lower().translate(_PUNCT_TABLE).split())


def exact_match(records, refined: bool = False) -> float:
    """Exact-match rate over free-text records after normalization.

    With refined=True, containment in either direction also counts (both
    sides must be non-empty).
    """
    records = list(records)
    if not records:
        raise ScoringError("cannot average an empty record set")
    hits = 0
    for rec in records:
        if rec.answer_type is not AnswerType.FREE_TEXT:
            raise ScoringError(f"record {rec.id!r} is not free text")
        pred = normalize_answer(rec.prediction)
        truth = normalize_answer(rec.ground_truth)
        ok = pred == truth
        if not ok and refined and pred and truth:
            ok = pred in truth or truth in pred
        hits += ok
    return hits / len(records)


def spbench_aggregate(si_nq: float, si_mcq: float,
                      mv_nq: float, mv_mcq: float) -> tuple[float, float, float]:
    """Two-level aggregation: per-subset mean of NQ and MCQ, then the mean of
    the two subset scores. Inputs must share one scale ([0,1] or [0,100]).

    Keeping to one scale is the caller's duty, and it cannot be checked
    here: a 100-scale score below 1 looks like a 1-scale score, so only a
    value outside [0, 100] is refused."""
    values = (si_nq, si_mcq, mv_nq, mv_mcq)
    for v in values:
        if not 0.0 <= v <= 100.0:
            raise ValueError(f"score {v} outside any supported scale")
    si = (si_nq + si_mcq) / 2.0
    mv = (mv_nq + mv_mcq) / 2.0
    return si, mv, (si + mv) / 2.0


def _score_group(subtask: str, records: list) -> tuple[float, int, list[str]]:
    """Score one subtask's records with the metric its answer type implies."""
    kinds = {rec.answer_type for rec in records}
    if len(kinds) != 1:
        raise ScoringError(f"subtask {subtask!r} mixes answer types: {sorted(k.value for k in kinds)}")
    kind = kinds.pop()
    if kind is AnswerType.NUMERICAL:
        excluded = [rec.id for rec in records if rec.ground_truth == 0]
        scored = [rec for rec in records if rec.ground_truth != 0]
        if excluded:
            logger.warning("subtask %r: %d record(s) excluded for zero ground truth",
                           subtask, len(excluded))
        if not scored:
            raise ScoringError(f"subtask {subtask!r} has no scoreable records")
        score = fmean(mean_relative_accuracy(rec.prediction, rec.ground_truth)
                      for rec in scored)
        return score, len(scored), excluded
    if kind is AnswerType.MULTIPLE_CHOICE:
        return choice_accuracy(records), len(records), []
    return exact_match(records), len(records), []


def report(records) -> dict:
    """Per-subtask scores plus their unweighted mean:
    {"subtasks": [{subtask, score, count}], "average", "excluded"}.

    Numerical subtasks average per-record relative accuracy; records with a
    zero ground truth are excluded and listed by id, never silently scored.
    """
    records = list(records)
    if not records:
        raise ScoringError("no records to score")
    groups: dict[str, list] = {}
    for rec in records:
        groups.setdefault(rec.subtask, []).append(rec)
    subtasks = []
    excluded: list[str] = []
    for subtask, group in groups.items():
        score, count, skipped = _score_group(subtask, group)
        subtasks.append({"subtask": subtask, "score": score, "count": count})
        excluded.extend(skipped)
    average = fmean(entry["score"] for entry in subtasks)
    return {"subtasks": subtasks, "average": average, "excluded": excluded}


def score_protocol(records, protocol: str) -> dict:
    """Benchmark-specific scoring entry point.

    vsi:     per-subtask numerical/multiple-choice scores + unweighted average
    sqa3d:   free-text exact match, strict and refined, plus per-subtask strict
    spbench: subtask labels must start with "si" or "mv"; numerical and
             multiple-choice scores per subset feed the two-level aggregate
    """
    records = list(records)
    if protocol == "vsi":
        return {"protocol": "vsi", **report(records)}
    if protocol == "sqa3d":
        return {
            "protocol": "sqa3d",
            "subtasks": report(records)["subtasks"],
            "em_at_1": exact_match(records),
            "em_at_r1": exact_match(records, refined=True),
            "count": len(records),
        }
    if protocol == "spbench":
        buckets: dict[tuple[str, AnswerType], list] = {}
        for rec in records:
            subset = rec.subtask.split("_", 1)[0].lower()
            if subset not in ("si", "mv"):
                raise ScoringError(
                    f"record {rec.id!r}: spbench subtask must start with 'si' or 'mv', "
                    f"got {rec.subtask!r}"
                )
            buckets.setdefault((subset, rec.answer_type), []).append(rec)

        def bucket_score(subset, kind):
            group = buckets.get((subset, kind))
            if not group:
                raise ScoringError(f"spbench is missing {subset} {kind.value} records")
            score, _, excluded = _score_group(f"{subset}/{kind.value}", group)
            return score, excluded

        si_nq, ex1 = bucket_score("si", AnswerType.NUMERICAL)
        si_mcq, _ = bucket_score("si", AnswerType.MULTIPLE_CHOICE)
        mv_nq, ex2 = bucket_score("mv", AnswerType.NUMERICAL)
        mv_mcq, _ = bucket_score("mv", AnswerType.MULTIPLE_CHOICE)
        si, mv, overall = spbench_aggregate(si_nq, si_mcq, mv_nq, mv_mcq)
        return {
            "protocol": "spbench",
            "si_nq": si_nq, "si_mcq": si_mcq, "si": si,
            "mv_nq": mv_nq, "mv_mcq": mv_mcq, "mv": mv,
            "overall": overall,
            "excluded": ex1 + ex2,
        }
    raise ValueError(f"unknown protocol {protocol!r}; expected vsi, sqa3d, or spbench")


_RECORD_FIELDS = ("id", "subtask", "answer_type", "prediction", "ground_truth")


def read_records(path) -> list[EvalRecord]:
    """Read JSON-lines records with the fields id, subtask, answer_type,
    prediction, ground_truth. Blank lines are skipped. A malformed line (not
    UTF-8, not JSON, a wrong field, an id or subtask that is not a JSON
    string, a numerical answer that is not a finite number, or an id already
    used on an earlier line) raises RecordError naming path:line. A path that
    cannot be read, or is not a regular file, raises RecordError naming it."""
    records = []
    first_line: dict[str, int] = {}
    with open_regular(path, RecordError, "records") as handle:
        for lineno, line in enumerate(handle, 1):
            if not line.strip():
                continue
            payload = decode_json(line, RecordError, f"{path}:{lineno}")
            if not isinstance(payload, dict):
                raise RecordError(f"{path}:{lineno}: expected a JSON object")
            missing = [f for f in _RECORD_FIELDS if f not in payload]
            if missing:
                raise RecordError(f"{path}:{lineno}: missing field(s) {missing}")
            extra = [f for f in payload if f not in _RECORD_FIELDS]
            if extra:
                raise RecordError(f"{path}:{lineno}: unknown field(s) {extra}")
            for field in ("id", "subtask"):
                if not isinstance(payload[field], str):
                    raise RecordError(
                        f"{path}:{lineno}: {field} must be a JSON string, got {payload[field]!r}")
            try:
                kind = AnswerType(payload["answer_type"])
            except ValueError:
                raise RecordError(
                    f"{path}:{lineno}: answer_type must be one of "
                    f"{[t.value for t in AnswerType]}, got {payload['answer_type']!r}"
                ) from None
            try:
                records.append(EvalRecord(
                    id=payload["id"],
                    subtask=payload["subtask"],
                    answer_type=kind,
                    prediction=payload["prediction"],
                    ground_truth=payload["ground_truth"],
                ))
            except RecordError as exc:
                raise RecordError(f"{path}:{lineno}: {exc}") from None
            first = first_line.setdefault(payload["id"], lineno)
            if first != lineno:
                raise RecordError(
                    f"{path}:{lineno}: duplicate id {payload['id']!r}, first on line {first}")
    return records

