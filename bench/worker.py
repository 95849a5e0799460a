"""One workload in one fresh process: set up, verify, then a closed loop.

run.py starts this script with the BLAS thread count pinned and passes the
CLOCK_MONOTONIC time at which it spawned the process, so set-up time covers
interpreter start, `import camfuse`, input generation, weight init, writing
the stream-io files and the first (cold) pass. The last line of stdout is
one JSON object with this process's results.

After the verified cold pass the process runs back-to-back passes for
--seconds, one caller, each pass starting when the previous one returned.
With --trace 1 the loop alternates untraced and traced passes, and the
traced ones yield per-layer spans.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from reference import fuse_frame, read_container, relative_error
from spans import Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent

# every workload runs f64 with all four controls on
_WIDTHS = {"d_visual": 64, "d_spatial": 64, "d_attn": 64, "n_heads": 8}
_TINY_WIDTHS = {"d_visual": 8, "d_spatial": 8, "d_attn": 8, "n_heads": 2}

SHAPES = {
    # the paper's reference shape: 32 kept frames, 448/14 and 518/14 patch grids
    "fuse-demo": dict(n_frames=32, m_visual=1024, m_spatial=1369, **_WIDTHS),
    # 8 frames keeps the backward's probability cache near 0.7 GB
    "train-step": dict(n_frames=8, m_visual=1024, m_spatial=1369, **_WIDTHS),
    # 17 memory slots: the score block fits in L2, so attention is not the bulk
    "stream-io": dict(n_frames=32, m_visual=1024, m_spatial=16, **_WIDTHS),
}

TINY_SHAPES = {
    "fuse-demo": dict(n_frames=2, m_visual=16, m_spatial=12, **_TINY_WIDTHS),
    "train-step": dict(n_frames=2, m_visual=16, m_spatial=12, **_TINY_WIDTHS),
    "stream-io": dict(n_frames=2, m_visual=16, m_spatial=3, **_TINY_WIDTHS),
}

FORWARD_TOL = 1e-10      # reference frame vs program output, relative
REPRO_TOL = 1e-12        # every pass vs the verified first pass, relative
DIRECTIONAL_TOL = 1e-9   # |<grads, d> - central difference| over sum |grads * d|
FD_STEP = 1e-6           # central-difference step; the N(0, 1) direction is not normalised


class PassFailed(Exception):
    """A pass returned, but not a usable result."""


class FuseDemo:
    """Back-to-back fuse calls on in-memory inputs."""

    def __init__(self, cf, config, seed, workdir):
        self.cf, self.config, self.seed, self.workdir = cf, config, seed, workdir

    def prepare(self):
        self.inputs = self.cf.pipeline.synth_tokens(self.config, self.seed)
        self.weights = self.cf.fusion.init_weights(self.config, self.seed)

    def run(self):
        return self.cf.fusion.fuse(self.inputs, self.weights, self.config)

    def collect(self, result):
        return {"out": result.data}

    def verify(self, outcome):
        frame = self.seed % self.config.n_frames
        params = dict(self.cf.fusion.iter_params(self.weights))
        expected = fuse_frame(params, self.inputs.visual.data[frame],
                              self.inputs.spatial.data[frame],
                              self.inputs.camera.data[frame], self.config.n_heads)
        err = relative_error(outcome["out"][frame], expected)
        if not err <= FORWARD_TOL:
            return f"frame {frame} differs from the reference: relative error {err:.3e}"
        return None


class TrainStep(FuseDemo):
    """fuse followed by fuse_backward with a fixed seeded cotangent."""

    def prepare(self):
        super().prepare()
        rng = np.random.default_rng([self.seed, 1])
        self.cotangent = self.cf.tensor.TokenTensor(rng.standard_normal(self.inputs.visual.shape))
        rng = np.random.default_rng([self.seed, 2])
        self.direction = {name: rng.standard_normal(arr.shape)
                          for name, arr in self._point(self.inputs, self.weights)}

    def _point(self, inputs, weights):
        """(name, array) over every input stream and parameter, in a fixed order."""
        yield "visual", inputs.visual.data
        yield "spatial", inputs.spatial.data
        yield "camera", inputs.camera.data
        yield from self.cf.fusion.iter_params(weights)

    def run(self):
        fusion = self.cf.fusion
        out = fusion.fuse(self.inputs, self.weights, self.config)
        grads = fusion.fuse_backward(self.inputs, self.weights, self.config, self.cotangent)
        return out, grads

    def collect(self, result):
        out, (input_grads, weight_grads) = result
        parts = [g for _, g in self._point(input_grads, weight_grads)]
        return {"out": out.data, "grads": np.concatenate([g.ravel() for g in parts])}

    def _along_direction(self, vector):
        flat = np.concatenate([d.ravel() for d in self.direction.values()])
        return float(vector @ flat), float(np.abs(vector * flat).sum())

    def _loss_at(self, t):
        """<cotangent, fuse> with every input and parameter moved by t * direction."""
        fusion, TokenTensor = self.cf.fusion, self.cf.tensor.TokenTensor
        moved = {name: arr + t * self.direction[name]
                 for name, arr in self._point(self.inputs, self.weights)}
        inputs = fusion.FusionInputs(visual=TokenTensor(moved.pop("visual")),
                                     spatial=TokenTensor(moved.pop("spatial")),
                                     camera=TokenTensor(moved.pop("camera")),
                                     register=self.inputs.register)
        weights = fusion.weights_from_arrays(moved)
        out = fusion.fuse(inputs, weights, self.config).data
        return float(np.sum(self.cotangent.data * out))

    def verify(self, outcome):
        err = super().verify(outcome)
        if err is not None:
            return err
        # the sum of |grads * d| sets the scale: a random d can make <grads, d>
        # itself small by cancellation
        analytic, scale = self._along_direction(outcome["grads"])
        numeric = (self._loss_at(FD_STEP) - self._loss_at(-FD_STEP)) / (2 * FD_STEP)
        err = abs(analytic - numeric) / max(scale, 1e-300)
        self.directional = {"analytic": analytic, "central_difference": numeric,
                            "sum_abs_terms": scale, "error": err, "step": FD_STEP}
        if not err <= DIRECTIONAL_TOL:
            return (f"<grads, d> = {analytic!r} but the central difference gives "
                    f"{numeric!r} (error {err:.3e} of sum |grads * d|)")
        return None


class StreamIO(FuseDemo):
    """`camfuse fuse` from files to a file, called in-process."""

    def prepare(self):
        super().prepare()
        serde = self.cf.serde
        self.paths = {k: str(self.workdir / f"{k}.{ext}") for k, ext in
                      (("config", "json"), ("weights", "cft"), ("in", "cft"), ("out", "cft"))}
        serde.save_config(self.config, self.seed, self.paths["config"])
        serde.save_weights(self.weights, self.paths["weights"])
        serde.save_token_streams(self.inputs, self.paths["in"])
        self.argv = ["fuse"] + [f"--{k}={v}" for k, v in self.paths.items()]

    def run(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return self.cf.cli.main(self.argv)

    def collect(self, result):
        if result != 0:
            raise PassFailed(f"camfuse fuse exited with code {result}")
        out = read_container(self.paths["out"])["fused"]
        os.remove(self.paths["out"])
        return {"out": out}


WORKLOADS = {"fuse-demo": FuseDemo, "train-step": TrainStep, "stream-io": StreamIO}


def reproduces(outcome, verified):
    for key, expected in verified.items():
        err = relative_error(outcome[key], expected)
        if not err <= REPRO_TOL:
            return f"{key} differs from the verified first pass: relative error {err:.3e}"
    return None


def blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


class Session:
    """Pass bookkeeping for one process."""

    def __init__(self, work, tracer):
        self.work, self.tracer = work, tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.verified = None
        self.returned_at = None

    def attempt(self, label, traced=False, first=False):
        """Run, time and check one pass; returns its wall time in seconds."""
        scope = self.tracer.session(label) if traced else contextlib.nullcontext()
        error = None
        with scope:
            start = time.perf_counter()
            try:
                result = self.work.run()
            except Exception:  # a raising pass is a failed pass; keep measuring
                error = traceback.format_exc(limit=3)
            elapsed = time.perf_counter() - start
        self.returned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        if error is None:
            try:
                outcome = self.work.collect(result)
                if first:
                    error = self.work.verify(outcome)
                    if error is None:
                        self.verified = outcome
                elif self.verified is None:
                    error = "no verified first pass to compare with"
                else:
                    error = reproduces(outcome, self.verified)
            except (PassFailed, OSError, KeyError, ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{label}: {error}")
        return elapsed


def loop(session, seconds, traced_every_other):
    """Closed loop for `seconds`: a pass starts only when the last returned,
    and only if a pass of median length still fits in the window."""
    times = {False: [], True: []}
    kinds = (False, True) if traced_every_other else (False,)
    start = time.perf_counter()
    i = 0
    while True:
        seen = [statistics.median(v) for v in times.values() if v]
        if all(times[k] for k in kinds) and \
                time.perf_counter() - start + max(seen) > seconds:
            break
        traced = traced_every_other and i % 2 == 1
        times[traced].append(session.attempt(f"pass{i}", traced=traced))
        i += 1
    return times[False], times[True]


def layer_metrics(tracer, config, first_pass_s, untraced, traced):
    """Per-layer metrics: medians over traced passes of per-pass totals."""
    tables = []
    worst = 0.0
    labels = sorted({s.label for s in tracer.spans if s.label.startswith("pass")})
    for label in labels:
        table, err = summarize(tracer.spans, label)
        tables.append(table)
        worst = max(worst, err)
    setup_table, err = summarize(tracer.spans, "setup")
    worst = max(worst, err)

    def per_pass(name, field):
        return float(statistics.median(t.get(name, {}).get(field, 0) for t in tables))

    mib = float(2 ** 20)
    attend_busy = per_pass("fusion.attend", "busy_s")
    memory = config.m_spatial + (1 if config.toggles.camera_memory else 0)
    attend_flops = 4.0 * config.n_frames * config.m_visual * memory * config.d_attn
    stream_bytes = per_pass("serde.load_token_streams", "work")
    stream_peak = per_pass("serde.load_token_streams", "peak_alloc_bytes")
    metrics = {
        "fusion.attend.self_s": per_pass("fusion.attend", "self_s"),
        "fusion.attend.busy_s": attend_busy,
        "fusion.attend.gflops_per_s": attend_flops / attend_busy / 1e9 if attend_busy else 0.0,
        "tensor.softmax_rows.busy_s": per_pass("tensor.softmax_rows", "busy_s"),
        "tensor.softmax_rows.calls": per_pass("tensor.softmax_rows", "calls"),
        "tensor.softmax_rows.elements": per_pass("tensor.softmax_rows", "work"),
        "fusion.fuse.peak_alloc_mb": per_pass("fusion.fuse", "peak_alloc_bytes") / mib,
        "fusion.fuse_backward.busy_s": per_pass("fusion.fuse_backward", "busy_s"),
        "fusion.fuse_backward.self_s": per_pass("fusion.fuse_backward", "self_s"),
        "fusion.fuse_backward.peak_alloc_mb":
            per_pass("fusion.fuse_backward", "peak_alloc_bytes") / mib,
        "fusion.project_qkvc.self_s": per_pass("fusion.project_qkvc", "self_s"),
        "fusion.geo_bias.self_s": per_pass("fusion.geo_bias", "self_s"),
        "fusion.token_weights.self_s": per_pass("fusion.token_weights", "self_s"),
        "fusion.gate_and_fuse.self_s": per_pass("fusion.gate_and_fuse", "self_s"),
        "tensor.sigmoid.busy_s": per_pass("tensor.sigmoid", "busy_s"),
        "tensor.swish.self_s": per_pass("tensor.swish", "self_s"),
        "tensor.swish_vjp.busy_s": per_pass("tensor.swish_vjp", "busy_s"),
        "tensor.TokenTensor.validate_s": per_pass("tensor.TokenTensor.validate", "busy_s"),
        "tensor.TokenTensor.validated_elements": per_pass("tensor.TokenTensor.validate", "work"),
        "cli.main.self_s": per_pass("cli.main", "self_s"),
        "serde.load_config.busy_s": per_pass("serde.load_config", "busy_s"),
        "serde.load_weights.busy_s": per_pass("serde.load_weights", "busy_s"),
        "serde.load_token_streams.busy_s": per_pass("serde.load_token_streams", "busy_s"),
        "serde.save_container.busy_s": per_pass("serde.save_container", "busy_s"),
        "serde.load_token_streams.peak_alloc_mb": stream_peak / mib,
        "serde.load_token_streams.bytes_read": stream_bytes,
        "serde.load_token_streams.peak_per_byte_read":
            stream_peak / stream_bytes if stream_bytes else 0.0,
        "serde.bytes_read": per_pass("serde.load_config", "work")
            + per_pass("serde.load_container", "work"),
        "serde.bytes_written": per_pass("serde.save_container", "work"),
        "pipeline.synth_tokens.busy_s":
            setup_table.get("pipeline.synth_tokens", {}).get("busy_s", 0.0),
        "fusion.init_weights.busy_s":
            setup_table.get("fusion.init_weights", {}).get("busy_s", 0.0),
        "setup.first_pass_s": first_pass_s,
        # traced minus untraced throughput over untraced: negative when tracing slows a pass
        "trace.overhead_share": statistics.median(untraced) / statistics.median(traced) - 1.0,
    }
    spans = {name: {k: statistics.median(t.get(name, {}).get(k, 0) for t in tables)
                    for k in ("calls", "busy_s", "self_s", "children_s", "peak_alloc_bytes", "work")}
             for name in sorted({n for t in tables for n in t})}
    context = {"traced_passes": len(tables), "untraced_passes": len(untraced),
               "computed": {"fusion.attend.gflops_per_s":
                            "4 * n_frames * m_visual * memory_slots * d_attn / attend busy time"},
               "absent": tracer.absent, "self_plus_children_minus_busy_max_s": worst,
               "spans_per_pass_median": spans}
    return metrics, context


def run(args, cf, workdir):
    config = cf.fusion.FusionConfig(**(TINY_SHAPES if args.tiny else SHAPES)[args.workload])
    tracer = Tracer() if args.trace else None
    work = WORKLOADS[args.workload](cf, config, args.seed, workdir)
    with tracer.session("setup") if tracer else contextlib.nullcontext():
        work.prepare()
    session = Session(work, tracer)
    first_pass_s = session.attempt("cold", first=True)
    setup_s = session.returned_at - args.spawned_at

    untraced, traced = loop(session, args.seconds, traced_every_other=bool(args.trace))
    result = {
        "setup_s": setup_s,
        "first_pass_s": first_pass_s,
        "pass_s": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": session.attempted,
        "failed": session.failed,
        "errors": session.errors,
        "verified": session.verified is not None,
        "directional_check": getattr(work, "directional", None),
        "blas_threads": blas_threads(),
        "config": {"n_frames": config.n_frames, "m_visual": config.m_visual,
                   "m_spatial": config.m_spatial, "d_visual": config.d_visual,
                   "d_spatial": config.d_spatial, "d_attn": config.d_attn,
                   "n_heads": config.n_heads, "dtype": "f64",
                   "toggles": vars(config.toggles)},
    }
    if tracer:
        result["layers"], result["trace"] = layer_metrics(
            tracer, config, first_pass_s, untraced, traced)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import camfuse.cli
    import camfuse.fusion
    import camfuse.pipeline
    import camfuse.serde
    import camfuse.tensor

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        result = run(args, camfuse, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
