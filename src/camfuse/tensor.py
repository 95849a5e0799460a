"""Token-tensor boundary types and raw-array kernels with analytic VJPs.

`TokenTensor` is the validated boundary type: a finite rank-3 array laid out
[frames, tokens, width]. The kernels act on plain numpy arrays along the last
(width) axis, and `affine`, `layer_norm` and `swish` have companion ``*_vjp``
functions returning the cotangents of ``<cotangent, op(inputs)>``, so larger
modules compose an analytic backward pass without a tape; `softmax_vjp` works
from the saved softmax output.

float64 is the working precision so finite-difference gradient checks are
meaningful. A TokenTensor keeps float32 data as float32, but every parameter
array is float64, so a fuse pass over float32 streams computes in and returns
float64; there is no separate float32 compute path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
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
    "softmax_vjp",
    "swish_vjp",
]

_FLOAT_DTYPES = (np.float64, np.float32)


class DimensionError(ValueError):
    """Shapes incompatible with the requested operation."""


def _as_float_array(value, what: str, ndim: int | None = None) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype not in _FLOAT_DTYPES:
        arr = arr.astype(np.float64)
    if ndim is not None and arr.ndim != ndim:
        raise DimensionError(f"{what} must be rank {ndim}, got shape {arr.shape}")
    return np.ascontiguousarray(arr)


@dataclass(frozen=True)
class TokenTensor:
    """Dense rank-3 token array laid out [frames, tokens, width].

    Construction validates the layout and rejects non-finite entries, so any
    operation returning a TokenTensor guarantees a finite result.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _as_float_array(self.data, "token tensor", ndim=3)
        if arr.size and not np.isfinite(arr).all():
            raise ValueError("token tensor contains non-finite entries")
        object.__setattr__(self, "data", arr)

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def tokens(self) -> int:
        return self.data.shape[1]

    @property
    def width(self) -> int:
        return self.data.shape[2]

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape

    @classmethod
    def zeros(cls, frames: int, tokens: int, width: int, dtype=np.float64) -> "TokenTensor":
        return cls(np.zeros((frames, tokens, width), dtype=dtype))


@dataclass(frozen=True)
class LinearMap:
    """Affine map on the width axis: ``y = x @ weight + bias``.

    weight is [in_width, out_width]; bias is [out_width] or None.
    """

    weight: np.ndarray
    bias: np.ndarray | None = None

    def __post_init__(self):
        w = _as_float_array(self.weight, "linear weight", ndim=2)
        object.__setattr__(self, "weight", w)
        if self.bias is not None:
            b = _as_float_array(self.bias, "linear bias", ndim=1)
            if b.shape[0] != w.shape[1]:
                raise DimensionError(
                    f"bias length {b.shape[0]} does not match out_width {w.shape[1]}"
                )
            object.__setattr__(self, "bias", b)

    @property
    def in_width(self) -> int:
        return self.weight.shape[0]

    @property
    def out_width(self) -> int:
        return self.weight.shape[1]


@dataclass(frozen=True)
class LayerNormParams:
    """Per-row normalization over the width axis, followed by gain/shift."""

    gain: np.ndarray
    shift: np.ndarray
    epsilon: float = 1e-6

    def __post_init__(self):
        g = _as_float_array(self.gain, "layer-norm gain", ndim=1)
        s = _as_float_array(self.shift, "layer-norm shift", ndim=1)
        if g.shape != s.shape:
            raise DimensionError(f"gain shape {g.shape} != shift shape {s.shape}")
        if not self.epsilon > 0:
            raise ValueError(f"layer-norm epsilon must be positive, got {self.epsilon}")
        object.__setattr__(self, "gain", g)
        object.__setattr__(self, "shift", s)

    @property
    def width(self) -> int:
        return self.gain.shape[0]

    @classmethod
    def identity(cls, width: int, epsilon: float = 1e-6) -> "LayerNormParams":
        return cls(np.ones(width), np.zeros(width), epsilon)


# ---------------------------------------------------------------------------
# forward kernels
# ---------------------------------------------------------------------------

def affine(x: np.ndarray, lin: LinearMap) -> np.ndarray:
    """Apply an affine map to every row: out[..., :] = x[..., :] @ W + b."""
    out = x @ lin.weight
    if lin.bias is not None:
        out = out + lin.bias
    return out


def layer_norm(x: np.ndarray, p: LayerNormParams) -> np.ndarray:
    """Normalize each row to zero mean / unit variance, then gain and shift."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)  # biased, standard LN convention
    xhat = (x - mu) / np.sqrt(var + p.epsilon)
    return p.gain * xhat + p.shift


def softmax_rows(x) -> np.ndarray:
    """Row-wise softmax along the last axis, stabilized by max subtraction."""
    x = np.asarray(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def sigmoid(x) -> np.ndarray:
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64) if np.asarray(x).dtype not in _FLOAT_DTYPES else np.asarray(x)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def swish(x) -> np.ndarray:
    """swish(x) = x * sigmoid(x)."""
    x = np.asarray(x)
    return x * sigmoid(x)


# ---------------------------------------------------------------------------
# vector-Jacobian products
# ---------------------------------------------------------------------------

def affine_vjp(x: np.ndarray, lin: LinearMap, g: np.ndarray):
    """Cotangents of y = x @ W + b w.r.t. (x, W, b); grad_b is None if b is.

    Works for 2-D or 3-D x.
    """
    gx = g @ lin.weight.T
    batch_axes = tuple(range(x.ndim - 1))
    gw = np.tensordot(x, g, axes=(batch_axes, batch_axes))
    gb = g.sum(axis=batch_axes) if lin.bias is not None else None
    return gx, gw, gb


def layer_norm_vjp(x: np.ndarray, p: LayerNormParams, gy: np.ndarray):
    """Returns (grad_x, grad_gain, grad_shift)."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + p.epsilon)
    xhat = (x - mu) * inv
    batch_axes = tuple(range(x.ndim - 1))
    ggain = (gy * xhat).sum(axis=batch_axes)
    gshift = gy.sum(axis=batch_axes)
    gxhat = gy * p.gain
    gx = inv * (
        gxhat
        - gxhat.mean(axis=-1, keepdims=True)
        - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return gx, ggain, gshift


def softmax_vjp(probs: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Grad w.r.t. the pre-softmax scores, given the softmax output `probs`."""
    return probs * (g - (g * probs).sum(axis=-1, keepdims=True))


def swish_vjp(x, cotangent) -> np.ndarray:
    x = np.asarray(x)
    s = sigmoid(x)
    return np.asarray(cotangent) * (s + x * s * (1.0 - s))
