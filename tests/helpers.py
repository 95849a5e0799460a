"""Constructors, documents and writers that only the tests need."""

import json
import tracemalloc

import numpy as np

from camfuse.fusion import FusionConfig, fuse, fuse_backward
from camfuse.gradcheck import _named
from camfuse.serde import write_atomic
from camfuse.tensor import LayerNormParams, TokenTensor

# laptop-scale demo shape: 32 kept frames, 448/14 and 518/14 patch grids,
# widths cut to 64 so a fuse pass stays cheap
DEMO_CONFIG = FusionConfig(n_frames=32, m_visual=1024, m_spatial=1369,
                           d_visual=64, d_spatial=64, d_attn=64, n_heads=8)

# JSON that Python's decoder refuses with something other than a JSONDecodeError:
# nesting past the recursion limit, and an integer past the int-string digit limit
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
LONG_INT_JSON = b"1" * 5000


def zero_tokens(frames: int, tokens: int, width: int) -> TokenTensor:
    return TokenTensor(np.zeros((frames, tokens, width)))


def identity_layer_norm(width: int) -> LayerNormParams:
    """Gain one, shift zero: the layer norm alone, at `LN_EPSILON`."""
    return LayerNormParams(np.ones(width), np.zeros(width))


def pass_arrays(inputs, weights, config, cot) -> dict:
    """Name -> array of every result of a pass, in canonical order: "fused"
    (the `fuse` output), "input.<stream>" (its gradients under `cot`) and each
    weight gradient."""
    return {"fused": fuse(inputs, weights, config).data,
            **_named(*fuse_backward(inputs, weights, config, cot))}


def traced_peak(fn) -> int:
    """Peak bytes tracemalloc saw while `fn()` ran, above what was traced when
    it started; tracing stops also when `fn` raises."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def write_records(path, records) -> None:
    """Write records as JSON lines (inverse of `metrics.read_records`).

    The file is written atomically: if a record cannot be written (or the
    records iterable raises), a previous file at `path` is left as it was.
    """
    write_atomic(path, (json.dumps({
        "id": rec.id,
        "subtask": rec.subtask,
        "answer_type": rec.answer_type.value,
        "prediction": rec.prediction,
        "ground_truth": rec.ground_truth,
    }).encode("utf-8") + b"\n" for rec in records))
