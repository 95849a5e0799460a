"""Constructors, documents and writers that only the tests need."""

import json
import mmap
import tracemalloc
from dataclasses import replace

import numpy as np

from camfuse import gradcheck
from camfuse.fusion import (REQUIRED_STREAMS, FusionConfig, fuse, fuse_backward, iter_params,
                            weights_from_arrays)
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


def in_own_mapping(array: np.ndarray) -> bool:
    """Whether `array` views an mmap, as `empty_buffer` gives from 1 MiB up."""
    base = array
    while isinstance(base, (np.ndarray, memoryview)):
        base = base.base if isinstance(base, np.ndarray) else base.obj
    return isinstance(base, mmap.mmap)


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


def corrupt_gradients(monkeypatch, constant: float) -> None:
    """Make `gradcheck`'s `fuse_backward` add `constant` to every gradient it
    returns: a negative control that the checks must fail."""
    real = gradcheck.fuse_backward

    def corrupted(*args, **kwargs):
        input_grads, weight_grads = real(*args, **kwargs)
        return (replace(input_grads, **{name: TokenTensor(getattr(input_grads, name).data
                                                          + constant)
                                        for name in REQUIRED_STREAMS}),
                weights_from_arrays({name: array + constant
                                     for name, array in iter_params(weight_grads)}))

    monkeypatch.setattr(gradcheck, "fuse_backward", corrupted)


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


def traced_bytes(*arrays: np.ndarray) -> int:
    """The bytes of `arrays` that tracemalloc sees: all but `empty_buffer`'s
    own mappings, which are not allocated through it."""
    return sum(array.nbytes for array in arrays if not in_own_mapping(array))


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
