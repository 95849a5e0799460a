"""Correctness references that share no code path with camfuse.

`fuse_frame` is a straight-line numpy version of the module's equations for
one frame. Frame locality makes one frame a valid check of a whole batch: no
frame's output depends on another frame's tokens. `read_container` parses the
tensor container format from its documented layout, so a written output is
checked without the package's reader.
"""

from __future__ import annotations

import json

import numpy as np

# layer-norm epsilon of every seeded weight set (init_weights leaves the default)
LN_EPS = 1e-6

_DTYPES = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}


def _layer_norm(x, gain, shift):
    centred = x - x.mean(axis=-1, keepdims=True)
    var = (centred * centred).mean(axis=-1, keepdims=True)
    return centred / np.sqrt(var + LN_EPS) * gain + shift


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def _swish(z):
    return z * _sigmoid(z)


def fuse_frame(params: dict, visual, spatial, camera, n_heads: int) -> np.ndarray:
    """Fused visual tokens of one frame with all four controls enabled.

    `params` maps canonical parameter names to arrays (as `iter_params`
    yields them); visual is [mq, dv], spatial [ms, ds], camera [1, ds].
    """
    def lin(x, name):
        return x @ params[f"{name}.weight"] + params[f"{name}.bias"]

    def ln(x, name):
        return _layer_norm(x, params[f"{name}.gain"], params[f"{name}.shift"])

    q = lin(ln(visual, "ln_v"), "p_q")
    spatial_n = ln(spatial, "ln_s")
    k = lin(spatial_n, "p_k")
    v = lin(spatial_n, "p_v")
    c = lin(camera, "p_c")

    # geo bias: MLP over [spatial token ; camera], added to keys and values
    geo_in = np.hstack([spatial, np.repeat(camera, spatial.shape[0], axis=0)])
    bias = lin(_swish(lin(geo_in, "geo_mlp.0")), "geo_mlp.1")
    k = k + bias
    v = v + bias
    # token weights: query-independent importance in (0, 1) rescales values
    v = v * _sigmoid(lin(_swish(lin(spatial, "tw_mlp.0")), "tw_mlp.1"))
    # camera memory slot leads the key/value memory
    k = np.vstack([c, k])
    v = np.vstack([c, v])

    d_attn = q.shape[1]
    dh = d_attn // n_heads
    heads = []
    for h in range(n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(dh)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        heads.append(weights @ v[:, cols])
    attended = np.hstack(heads)

    mapped = lin(ln(lin(attended, "p_o"), "ln_o"), "p_l")
    # SwiGLU-style gate from the projected camera token
    gate = _swish(lin(c, "p_g1")) * lin(c, "p_g2")
    return mapped * gate + visual


def relative_error(actual, expected) -> float:
    """max |actual - expected| over max |expected|."""
    actual = np.asarray(actual)
    expected = np.asarray(expected)
    if actual.shape != expected.shape:
        return float("inf")
    scale = float(np.max(np.abs(expected))) or 1.0
    return float(np.max(np.abs(actual - expected))) / scale


def read_container(path) -> dict:
    """name -> array from a tensor container file (JSON header line + blob)."""
    with open(path, "rb") as handle:
        raw = handle.read()
    newline = raw.index(b"\n")
    header = json.loads(raw[:newline])
    blob = memoryview(raw)[newline + 1:]
    out = {}
    for name, entry in header["tensors"].items():
        dtype = _DTYPES[entry["dtype"]]
        start = entry["byte_offset"]
        data = np.frombuffer(blob[start:start + entry["byte_length"]], dtype=dtype)
        out[name] = data.reshape(entry["shape"]).astype(np.float64)
    return out
