"""camfuse benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload fuse-demo --seed 1 --seconds 14 --trace 0

Run from the root of a source checkout; nothing needs installing. Each
workload runs in fresh worker processes with the BLAS thread count pinned.
With --trace 0, PROCESSES processes run one after another; each measures
set-up, verifies its cold pass and runs the timed closed loop for an equal
share of --seconds, so set-up is sampled several times and pass times are
pooled over processes. With --trace 1 a single process alternates untraced
and traced passes for --seconds and reports per-layer metrics. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics; the exit code is nonzero when any
pass failed its check or no result could be produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fuse-demo", "train-step", "stream-io")
# pass times vary more between processes than within one, so the loop is split
PROCESSES = 3
DEADLINE_S = 170.0


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    return 2


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def blas_info():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}, np.__version__
    except (KeyError, TypeError):
        return {"name": None, "version": None}, np.__version__


def huge_pages():
    """Transparent huge page mode, and whether numpy asks for huge pages."""
    import numpy as np

    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as handle:
            mode = handle.read().strip()
    except OSError:
        mode = None
    ask = getattr(np._core.multiarray, "_get_madvise_hugepage", None)
    return {"thp_enabled": mode, "numpy_madvise_hugepage": ask() if ask else None}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_revision():
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None, "note": "not a git checkout"}
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return {"revision": None, "dirty": None, "note": f"git failed: {exc}"}
    return {"revision": rev, "dirty": bool(status.strip())}


def spawn(args, seconds, env, deadline):
    """Run one worker process to completion; returns its result dict."""
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
           "--spawned-at", repr(spawned_at)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="run the workload at a tiny shape (smoke test)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "camfuse" / "__init__.py").is_file():
        return fail(f"no camfuse sources under {ROOT / 'src'}; run from a source checkout")
    try:
        with open(ROOT / "BENCHMARK.json") as handle:
            spec = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    threads = len(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)

    shares = [args.seconds] if args.trace else [args.seconds / PROCESSES] * PROCESSES
    try:
        results = [spawn(args, seconds, env, deadline) for seconds in shares]
    except subprocess.TimeoutExpired:
        return fail(f"workload {args.workload} did not finish within {DEADLINE_S:.0f} s")
    except (RuntimeError, ValueError, IndexError) as exc:
        return fail(f"workload {args.workload}: {exc}")
    first = results[0]

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    errors = [e for r in results for e in r["errors"]]
    correct = failed == 0 and all(r["verified"] for r in results)

    blas, numpy_version = blas_info()
    print(json.dumps({"env": {
        "python": platform.python_version(), "numpy": numpy_version, "blas": blas,
        "blas_threads_pinned": threads, "blas_threads_reported": first["blas_threads"],
        "nproc": os.cpu_count(), "cpu_model": cpu_model(), "huge_pages": huge_pages(),
        "git": git_revision(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "processes": len(results), "config": first["config"],
        "loop": "closed, one caller",
    }}))

    passes = [t for r in results for t in r["pass_s"]]
    p1, p2, p3 = quartiles(passes)
    tokens = first["config"]["n_frames"] * first["config"]["m_visual"]
    print(json.dumps({"context": {
        "pass_s": {"n": len(passes), "median": p2, "q1": p1, "q3": p3, "samples": passes},
        "first_pass_s": [r["first_pass_s"] for r in results],
        "setup_s_samples": [r["setup_s"] for r in results],
        "peak_rss_mb_samples": [r["peak_rss_mb"] for r in results],
        "attempted": attempted, "failed": failed, "failed_share": failed / attempted,
        "directional_check": [r["directional_check"] for r in results], "errors": errors,
    }}))

    if args.trace:
        print(json.dumps({"trace": first["trace"]}))
        values = first["layers"]
        listed = spec["per_layer"]
    else:
        values = {
            "tokens_per_s": tokens / p2,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
            "setup_s": statistics.median(r["setup_s"] for r in results),
            "ok_share": 1.0 - failed / attempted,
        }
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, entry in metrics.items():
        print(f"{args.workload:>10s}  {name:<45s} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{args.workload:>10s}  {'failed_share':<45s} {failed / attempted:>16.6g} "
          f"share ({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
