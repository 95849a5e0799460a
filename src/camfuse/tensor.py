"""Token-tensor boundary types and raw-array kernels with analytic VJPs.

`TokenTensor` is the validated boundary type: a finite rank-3 array laid out
[frames, tokens, width]. The kernels act on plain numpy arrays along the last
(width) axis, and `affine`, `layer_norm` and `swish` have companion ``*_vjp``
functions returning the cotangents of ``<cotangent, op(inputs)>``, so larger
modules compose an analytic backward pass without a tape; `affine_vjp` and
`layer_norm_vjp` take rows, [m, width]. Attention's softmax and its VJP run
inside `fusion`'s query-tiled kernel, folded into its GEMMs: the shift and
row sum come out of the QK^T and PV products, not out of `softmax_rows`,
which no package code calls.

`_sigmoid`, `_swish` and `_swish_vjp` are the private kernels behind the
public `sigmoid`, `swish` and `swish_vjp`, and give the same bytes.
`fusion`'s per-frame bodies run on worker threads and call, of this
module, only `affine`, `layer_norm`, `affine_vjp`, `layer_norm_vjp` and the
three private kernels: bench/spans.py wraps the public names, including
`sigmoid`, `swish` and `swish_vjp`, with spans on one global stack, which a
worker thread must never touch.

float64 is the only working precision, so finite-difference gradient checks
are meaningful. Every layer norm adds the one constant `LN_EPSILON` to its
row variance. `TokenTensor`, `LinearMap` and `LayerNormParams` widen what
they are given to contiguous float64 at construction (float32 exactly, without
a copy when the input already is contiguous float64); the kernels assume it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LN_EPSILON",
    "DimensionError",
    "TokenTensor",
    "LinearMap",
    "LayerNormParams",
    "affine",
    "layer_norm",
    "softmax_rows",
    "sigmoid",
    "swish",
    "affine_vjp",
    "layer_norm_vjp",
    "swish_vjp",
]


LN_EPSILON = 1e-6  # added to every layer norm's row variance


class DimensionError(ValueError):
    """Shapes incompatible with the requested operation."""


def _as_float_array(value, what: str, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64, order="C")  # unlike ascontiguousarray, keeps 0-d
    if arr.ndim != ndim:
        raise DimensionError(f"{what} must be rank {ndim}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class TokenTensor:
    """Dense rank-3 token array laid out [frames, tokens, width].

    Construction widens the data to contiguous float64, checks the rank and
    rejects non-finite entries, so any TokenTensor holds a finite result.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.data, "token tensor", ndim=3)
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("token tensor contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class LinearMap:
    """Affine map on the width axis: ``y = x @ weight + bias``.

    weight is [in_width, out_width]; bias is [out_width].
    """

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        w = _as_float_array(self.weight, "linear weight", ndim=2)
        b = _as_float_array(self.bias, "linear bias", ndim=1)
        if b.shape[0] != w.shape[1]:
            raise DimensionError(
                f"bias length {b.shape[0]} does not match out_width {w.shape[1]}"
            )
        object.__setattr__(self, "weight", w)
        object.__setattr__(self, "bias", b)


@dataclass(frozen=True)
class LayerNormParams:
    """Per-row normalization over the width axis (variance plus `LN_EPSILON`),
    followed by gain/shift."""

    gain: np.ndarray
    shift: np.ndarray

    def __post_init__(self):
        g = _as_float_array(self.gain, "layer-norm gain", ndim=1)
        s = _as_float_array(self.shift, "layer-norm shift", ndim=1)
        if g.shape != s.shape:
            raise DimensionError(f"gain shape {g.shape} != shift shape {s.shape}")
        object.__setattr__(self, "gain", g)
        object.__setattr__(self, "shift", s)


# ---------------------------------------------------------------------------
# forward kernels
# ---------------------------------------------------------------------------

def affine(x: np.ndarray, lin: LinearMap) -> np.ndarray:
    """Apply an affine map to every row: out[..., :] = x[..., :] @ W + b.

    The bias is added in place into the GEMM's result.
    """
    out = x @ lin.weight
    out += lin.bias
    return out


def layer_norm(x: np.ndarray, p: LayerNormParams) -> np.ndarray:
    """Normalize each row to zero mean / unit variance, then gain and shift.

    The variance is the biased one (the standard layer-norm convention),
    formed as `np.var` forms it: the mean of the squared deviations from the
    row mean. One full-size temporary, the centred rows, is made and then
    updated in place, so the result has the bytes of
    ``gain * ((x - mean) / sqrt(var + LN_EPSILON)) + shift``; `x` is never
    written.
    """
    d = x - x.mean(axis=-1, keepdims=True)
    s = np.multiply(d, d).sum(axis=-1, keepdims=True)
    s /= x.shape[-1]
    s += LN_EPSILON
    np.sqrt(s, out=s)
    d /= s
    d *= p.gain
    d += p.shift
    return d


def softmax_rows(x) -> np.ndarray:
    """Row-wise softmax along the last axis, stabilized by max subtraction."""
    x = np.asarray(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, elementwise.

    With e = exp(-|x|) this is 1 / (1 + e) for x >= 0 and e / (1 + e) below
    zero: the exponent is never positive, so nothing overflows. The
    denominator and the quotient are formed in place, in e and in the
    numerator, to hold one full-size temporary fewer.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))
    num = np.where(x >= 0, 1.0, e)
    e += 1.0
    num /= e
    return num


def _swish(x) -> np.ndarray:
    """swish(x) = x * sigmoid(x), elementwise."""
    x = np.asarray(x)
    return x * _sigmoid(x)


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, elementwise (see `_sigmoid`)."""
    return _sigmoid(x)


def swish(x) -> np.ndarray:
    """swish(x) = x * sigmoid(x)."""
    return _swish(x)


# ---------------------------------------------------------------------------
# vector-Jacobian products
# ---------------------------------------------------------------------------

def affine_vjp(x: np.ndarray, lin: LinearMap, g: np.ndarray):
    """Cotangents of y = x @ W + b w.r.t. (x, W, b), for rows x [m, in_width]."""
    return g @ lin.weight.T, x.T @ g, g.sum(axis=0)


def layer_norm_vjp(x: np.ndarray, p: LayerNormParams, gy: np.ndarray):
    """Returns (grad_x, grad_gain, grad_shift), for rows x [m, width]."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LN_EPSILON)
    xhat = (x - mu) * inv
    ggain = (gy * xhat).sum(axis=0)
    gshift = gy.sum(axis=0)
    gxhat = gy * p.gain
    gx = inv * (
        gxhat
        - gxhat.mean(axis=-1, keepdims=True)
        - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return gx, ggain, gshift


def _swish_vjp(x, cotangent) -> np.ndarray:
    """Cotangent of y = x * sigmoid(x) w.r.t. x."""
    x = np.asarray(x)
    s = _sigmoid(x)
    return np.asarray(cotangent) * (s + x * s * (1.0 - s))


def swish_vjp(x, cotangent) -> np.ndarray:
    """Cotangent of y = x * sigmoid(x) w.r.t. x (see `_swish_vjp`)."""
    return _swish_vjp(x, cotangent)
