"""Tests of the benchmark itself: tiny-shape smoke runs, negative controls,
tracing of absent names, and refusal to run without sources.

    python3 -m pytest bench/test_bench.py -q

Negative controls perturb a copy of the sources in a temporary checkout;
the sources under src/ are never modified.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

PERTURB_FORWARD = '''
_unperturbed_fuse = fuse


def fuse(*args, **kwargs):
    out = _unperturbed_fuse(*args, **kwargs)
    data = out.data.copy()
    data[..., 0] += 1e-6 * np.abs(data).max()
    return TokenTensor(data)
'''

PERTURB_BACKWARD = '''
_unperturbed_fuse_backward = fuse_backward


def fuse_backward(*args, **kwargs):
    input_grads, weight_grads = _unperturbed_fuse_backward(*args, **kwargs)
    weight_grads.p_q.weight[0, 0] += 1e-3 * np.abs(weight_grads.p_q.weight).max()
    return input_grads, weight_grads
'''


def run_bench(root, workload, trace=0):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0.3", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith('{"correct"') else None
    return proc, result


def make_checkout(tmp_path, patch=None, with_sources=True):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    ignore = shutil.ignore_patterns("__pycache__", ".pytest_cache")
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=ignore)
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    if patch:
        with open(tmp_path / "src" / "camfuse" / "fusion.py", "a") as handle:
            handle.write(patch)
    return tmp_path


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_shape_runs_and_reports_every_metric(workload, trace):
    proc, result = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 2
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float)
    if trace:
        line = next(l for l in proc.stdout.splitlines() if l.startswith('{"trace"'))
        trace_info = json.loads(line)["trace"]
        assert trace_info["absent"] == []
        assert trace_info["self_plus_children_minus_busy_max_s"] < 1e-9
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in listed)


@pytest.mark.parametrize("workload,patch", [
    ("fuse-demo", PERTURB_FORWARD),
    ("stream-io", PERTURB_FORWARD),
    ("train-step", PERTURB_FORWARD),
    ("train-step", PERTURB_BACKWARD),
])
def test_perturbed_output_counts_as_failed_and_exits_nonzero(tmp_path, workload, patch):
    proc, result = run_bench(make_checkout(tmp_path, patch), workload)
    assert proc.returncode == 1, proc.stderr
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_share"]["value"] == 0.0


def test_refuses_to_run_without_sources(tmp_path):
    proc, result = run_bench(make_checkout(tmp_path, with_sources=False), "fuse-demo")
    assert proc.returncode != 0
    assert result is None


def test_tracer_reports_absent_names_and_restores_originals(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import camfuse.cli  # every traced module must be imported
    import camfuse.fusion
    import spans

    monkeypatch.setitem(spans.TARGETS, "tensor.retired_kernel",
                        ("tensor", "retired_kernel", None, False))
    original = camfuse.fusion.softmax_rows
    tracer = spans.Tracer()
    with tracer.session("pass0"):
        assert camfuse.fusion.softmax_rows is not original
        camfuse.fusion.softmax_rows(np.zeros((2, 3)))
    assert camfuse.fusion.softmax_rows is original
    assert tracer.absent == ["tensor.retired_kernel"]
    table, worst = spans.summarize(tracer.spans, "pass0")
    assert table["tensor.softmax_rows"]["calls"] == 1
    assert table["tensor.softmax_rows"]["work"] == 6
    assert worst < 1e-9
