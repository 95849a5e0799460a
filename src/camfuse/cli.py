"""Command-line front end.

Subcommands: gen (synthetic token streams), fuse (run the module on a
token-stream file), gradcheck (analytic vs finite-difference gradients, entry
by entry within the entry budget, along one random direction above it),
ablate (structural variants on identical inputs), score (record files against
a benchmark protocol). The structural toggles come only from the config file.

Exit codes: 0 success, 2 usage, 3 invalid input/config/file, 4 failed check.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from dataclasses import replace

import numpy as np

from .fusion import (
    REQUIRED_STREAMS,
    VARIANTS,
    ConfigError,
    FusionConfig,
    fuse,
    init_weights,
    param_count,
    stream_shapes,
)
from .gradcheck import check_directional, check_fuse_gradients
from .metrics import read_records, score_protocol
from .pipeline import synth_tokens
from .serde import (
    load_config,
    load_token_streams,
    load_weights,
    save_container,
    save_token_streams,
    write_atomic,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_CHECK_FAILED = 4

TINY_CONFIG = FusionConfig(n_frames=2, m_visual=3, m_spatial=4,
                           d_visual=6, d_spatial=5, d_attn=4, n_heads=2)

GRADCHECK_ENTRY_BUDGET = 50_000

# default --tolerance per gradcheck method, against the extrapolated central
# difference: correct gradients read ~1e-6 entrywise at TINY_CONFIG; a
# directional error sums over every entry, so gradients off by 1e-2 read ~4e-6
# at the demo shape, while correct ones read ~1e-12 there and ~5e-13 at width 2
ENTRYWISE_TOLERANCE = 1e-5
DIRECTIONAL_TOLERANCE = 1e-8


def _config_and_seed(args, default: FusionConfig | None = None) -> tuple[FusionConfig, int]:
    """The --config file's config and seed, or `default` and seed 0 when
    --config is optional and absent; --seed overrides the seed."""
    if args.config is not None:
        config, seed = load_config(args.config)
    else:
        config, seed = default, 0
    return config, seed if args.seed is None else args.seed


def _cmd_gen(args) -> int:
    config, seed = _config_and_seed(args)
    inputs = synth_tokens(config, seed)
    save_token_streams(inputs, args.out, meta={"seed": seed})
    print(f"wrote {args.out}: visual {inputs.visual.shape}, spatial {inputs.spatial.shape}, "
          f"camera {inputs.camera.shape}, register {inputs.register.shape}")
    return EXIT_OK


def _cmd_fuse(args) -> int:
    config, seed = load_config(args.config)
    if args.weights is not None:
        weights = load_weights(args.weights, config)
    else:
        weights = init_weights(config, seed)
    inputs, _ = load_token_streams(args.input_path, config)

    timings: dict[str, float] = {}
    start = time.perf_counter()
    # a non-finite result is refused by the output's own check, as one error line
    with np.errstate(all="ignore"):
        fused = fuse(inputs, weights, config, timings=timings)
    elapsed = time.perf_counter() - start

    save_container(args.out, {"fused": fused.data}, meta={"kind": "fused-tokens"})
    print("busy time per stage, summed over worker threads:")
    for stage, seconds in timings.items():
        print(f"{stage:>14s}  {seconds * 1e3:9.2f} ms")
    visual_tokens = config.n_frames * config.m_visual
    print(f"{'total':>14s}  {elapsed * 1e3:9.2f} ms   "
          f"({visual_tokens / elapsed:,.0f} visual tokens/s)")
    print(f"wrote {args.out}: fused {fused.shape}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    config, seed = _config_and_seed(args, TINY_CONFIG)
    shapes = stream_shapes(config)
    entries = param_count(config) + sum(math.prod(shapes[n]) for n in REQUIRED_STREAMS)
    directional = entries > GRADCHECK_ENTRY_BUDGET

    tolerance = args.tolerance
    if tolerance is None:
        tolerance = DIRECTIONAL_TOLERANCE if directional else ENTRYWISE_TOLERANCE
    elif not (np.isfinite(tolerance) and tolerance >= 0):
        raise ValueError(f"--tolerance must be a finite number >= 0, got {tolerance}")

    print(f"{entries} checkable entries, budget {GRADCHECK_ENTRY_BUDGET}: "
          f"{'directional' if directional else 'entrywise'} check")
    inputs = synth_tokens(config, seed)
    weights = init_weights(config, seed)
    if directional:
        result = check_directional(inputs, weights, config, seed=seed)
        ok = result["error"] <= tolerance
        print(f"{'analytic':>20s}  {result['analytic']: .15e}")
        print(f"{'numeric':>20s}  {result['numeric']: .15e}")
        print(f"{'scale':>20s}  {result['scale']: .15e}")
        print(f"{'error':>20s}  {result['error']:12.3e}  tolerance {tolerance:g}  "
              f"{'ok' if ok else 'FAIL'}")
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    results = check_fuse_gradients(inputs, weights, config, seed=seed)
    worst = max(results.values())
    for name, err in results.items():
        marker = "ok" if err <= tolerance else "FAIL"
        print(f"{name:>20s}  {err:12.3e}  {marker}")
    print(f"{'worst':>20s}  {worst:12.3e}  tolerance {tolerance:g}")
    return EXIT_OK if worst <= tolerance else EXIT_CHECK_FAILED


def _cmd_ablate(args) -> int:
    config, seed = _config_and_seed(args)
    inputs = synth_tokens(config, seed)
    weights = init_weights(config, seed)

    outputs = {}
    for name, toggles in VARIANTS.items():
        outputs[name] = fuse(inputs, weights, replace(config, toggles=toggles)).data
        print(f"{name:>14s}  |out| = {np.linalg.norm(outputs[name]):.6f}")
    print()
    print("max pairwise |difference|:")
    for a, b in itertools.combinations(VARIANTS, 2):
        diff = float(np.max(np.abs(outputs[a] - outputs[b])))
        print(f"{a:>14s} vs {b:<14s} {diff:.6e}")
    return EXIT_OK


def _cmd_score(args) -> int:
    records = read_records(args.records)
    result = score_protocol(records, args.protocol)

    if args.protocol == "spbench":
        print(f"si:      nq {result['si_nq']:.4f}  mcq {result['si_mcq']:.4f}  "
              f"avg {result['si']:.4f}")
        print(f"mv:      nq {result['mv_nq']:.4f}  mcq {result['mv_mcq']:.4f}  "
              f"avg {result['mv']:.4f}")
        print(f"overall: {result['overall']:.4f}")
    else:
        for entry in result["subtasks"]:
            print(f"{entry['subtask']:>20s}  {entry['score']:.4f}  (n={entry['count']})")
        if args.protocol == "sqa3d":
            print(f"{'em@1':>20s}  {result['em_at_1']:.4f}")
            print(f"{'em@r1':>20s}  {result['em_at_r1']:.4f}")
        else:
            print(f"{'average':>20s}  {result['average']:.4f}")
    if result.get("excluded"):
        print(f"excluded for zero ground truth: {result['excluded']}")

    out = args.out if args.out else args.records + ".report.json"
    write_atomic(out, [json.dumps(result, indent=2).encode("utf-8"), b"\n"])
    print(f"wrote {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="camfuse", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a seeded synthetic token-stream file")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("fuse", help="fuse a token stream and write the result")
    p.add_argument("--config", required=True)
    p.add_argument("--weights", default=None, help="weights container; default: init from config seed")
    p.add_argument("--in", dest="input_path", required=True,
                   help="token-stream container, e.g. from camfuse gen")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference gradients",
                       description=f"Entry by entry up to {GRADCHECK_ENTRY_BUDGET} inputs and "
                                   "parameters, along one random direction above that.")
    p.add_argument("--config", default=None, help="default: a built-in tiny config")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--tolerance", type=float, default=None,
                   help=f"largest passing relative error; default {ENTRYWISE_TOLERANCE:g} "
                        f"entrywise, {DIRECTIONAL_TOLERANCE:g} directional")
    p.set_defaults(func=_cmd_gradcheck)

    p = sub.add_parser("ablate", help="run the structural variants on identical inputs")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("score", help="score a JSON-lines record file")
    p.add_argument("--records", required=True)
    p.add_argument("--protocol", choices=("vsi", "sqa3d", "spbench"), required=True)
    p.add_argument("--out", default=None, help="report path; default <records>.report.json")
    p.set_defaults(func=_cmd_score)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "seed", None) is not None and args.seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
