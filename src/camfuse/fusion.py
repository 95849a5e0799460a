"""Camera-guided fusion of visual and spatial token streams.

Per frame, visual tokens cross-attend over spatial tokens plus one camera
memory slot, with three camera-conditioned controls layered on top:

* geo bias -- an MLP over each spatial token concatenated with its frame's
  camera embedding, added to both attention keys and values;
* token weights -- a sigmoid MLP over spatial tokens giving each a
  query-independent importance in (0, 1) that rescales the values;
* gate -- a SwiGLU-style gate computed from the camera embedding that
  scales the projected attention output before the residual with the
  visual stream.

Each control has a config toggle so structural variants can be compared on
identical inputs. `fuse_backward` returns analytic gradients for every
parameter and input stream; `camfuse.gradcheck` holds the independent
finite-difference harness that validates them.

Attention walks each frame's queries in row tiles sized so that one tile's
[heads, rows, memory] score block stays about 2 MiB, and memory is bounded by
one tile in both passes. Per frame the keys and values (with the camera slot
written in as slot 0) are laid out once as augmented buffers with a row of
ones, so a tile makes three passes over its score block: the QK^T GEMM, an
in-place `exp` and the PV GEMM. The softmax shift rides in the first GEMM:
each query row carries -c, where c = |q| max|k| bounds the row's scores by
Cauchy-Schwarz. The row sum rides in the second, as its last column. Rows
whose shifted sum falls below e^-600 are redone with their exact row max.
The reverse pass keeps no probability tensor: the forward saves each query
row's log-sum-exp ([frames, heads, queries]), which the backward folds into
its QK^T GEMM the same way to recompute the probabilities tile by tile.

The output always has the visual stream's shape, so the module can sit in
front of a downstream consumer without changing its interface.

Streams enter as `TokenTensor`s (finite, rank 3, float64) inside a
`FusionInputs`, shaped as `stream_shapes(config)` states, and `fuse` /
`fuse_backward` check them and return `TokenTensor`s. Between those
boundaries the five stages (`project_qkvc`, `geo_bias`, `token_weights`,
`attend`, `gate_and_fuse`) take and return plain float64 arrays and validate
nothing.
"""

from __future__ import annotations

import time
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .tensor import (
    DimensionError,
    LayerNormParams,
    LinearMap,
    TokenTensor,
    affine,
    affine_vjp,
    layer_norm,
    layer_norm_vjp,
    sigmoid,
    softmax_rows,  # noqa: F401 -- unused here; bench/test_bench.py patches it as a fusion attribute
    swish,
    swish_vjp,
)

__all__ = [
    "ConfigError",
    "FusionToggles",
    "VARIANTS",
    "FusionConfig",
    "FusionWeights",
    "FusionInputs",
    "REQUIRED_STREAMS",
    "init_weights",
    "param_shapes",
    "stream_shapes",
    "param_count",
    "iter_params",
    "weights_from_arrays",
    "project_qkvc",
    "geo_bias",
    "token_weights",
    "attend",
    "gate_and_fuse",
    "fuse",
    "fuse_backward",
]


class ConfigError(ValueError):
    """Invalid fusion configuration."""


@dataclass(frozen=True)
class FusionToggles:
    """Structural variant switches; all enabled is the full module."""

    geo_bias: bool = True
    token_weight: bool = True
    camera_memory: bool = True
    gate: bool = True

    def __post_init__(self):
        for name, value in vars(self).items():
            if not isinstance(value, bool):
                raise ConfigError(f"toggle '{name}': expected boolean, got {value!r}")


# the structural ablation, in the order `camfuse ablate` runs and prints it
VARIANTS = {
    "shallow": FusionToggles(geo_bias=False, token_weight=False, gate=False),
    "token-weight": FusionToggles(geo_bias=False, gate=False),
    "geo-bias": FusionToggles(gate=False),
    "full": FusionToggles(),
}


@dataclass(frozen=True)
class FusionConfig:
    n_frames: int
    m_visual: int
    m_spatial: int
    d_visual: int
    d_spatial: int
    d_attn: int
    n_heads: int = 8
    toggles: FusionToggles = FusionToggles()

    def __post_init__(self):
        for name, least in (("n_frames", 1), ("m_visual", 1), ("m_spatial", 0), ("d_visual", 1),
                            ("d_spatial", 1), ("d_attn", 1), ("n_heads", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ConfigError(f"config field '{name}': expected an int >= {least}, "
                                  f"got {value!r}")
        if self.m_spatial == 0 and not self.toggles.camera_memory:
            raise ConfigError(
                "m_spatial == 0 requires the camera memory slot; attention over "
                "empty memory is undefined"
            )
        if self.d_attn % self.n_heads != 0:
            raise ConfigError(
                f"d_attn ({self.d_attn}) must be divisible by n_heads ({self.n_heads})"
            )


@dataclass(frozen=True)
class FusionWeights:
    """All learnable parameters of the fusion module.

    Also doubles as the container for parameter gradients, which mirror the
    parameter structure exactly.
    """

    ln_v: LayerNormParams
    ln_s: LayerNormParams
    p_q: LinearMap
    p_k: LinearMap
    p_v: LinearMap
    p_c: LinearMap
    geo_mlp: tuple[LinearMap, LinearMap]
    tw_mlp: tuple[LinearMap, LinearMap]
    p_o: LinearMap
    ln_o: LayerNormParams
    p_l: LinearMap
    p_g1: LinearMap
    p_g2: LinearMap


@dataclass(frozen=True)
class FusionInputs:
    """One batch of per-frame token streams.

    Their shapes depend on a config, so `fuse` and `fuse_backward` check them.
    `register` carries the spatial encoder's four auxiliary tokens per frame;
    fusion drops them, but they are kept here so the discard path is real.
    """

    visual: TokenTensor
    spatial: TokenTensor
    camera: TokenTensor
    register: TokenTensor | None = None


# the streams every FusionInputs carries: its fields without a default
REQUIRED_STREAMS = tuple(f.name for f in fields(FusionInputs) if f.default is MISSING)


# ---------------------------------------------------------------------------
# parameter table
# ---------------------------------------------------------------------------

# a group's kind is the names of its two arrays, in canonical order
_LINEAR, _LAYER_NORM = ("weight", "bias"), ("gain", "shift")

# One row per parameter group in canonical (file) order: name, kind and the
# group's (in, out) widths for a config. A dotted name "field.i" is entry i of
# a tuple field of FusionWeights; a layer norm's in and out widths are equal.
_PARAM_GROUPS = (
    ("ln_v", _LAYER_NORM, lambda c: (c.d_visual, c.d_visual)),
    ("ln_s", _LAYER_NORM, lambda c: (c.d_spatial, c.d_spatial)),
    ("p_q", _LINEAR, lambda c: (c.d_visual, c.d_attn)),
    ("p_k", _LINEAR, lambda c: (c.d_spatial, c.d_attn)),
    ("p_v", _LINEAR, lambda c: (c.d_spatial, c.d_attn)),
    ("p_c", _LINEAR, lambda c: (c.d_spatial, c.d_attn)),
    ("geo_mlp.0", _LINEAR, lambda c: (2 * c.d_spatial, c.d_attn)),
    ("geo_mlp.1", _LINEAR, lambda c: (c.d_attn, c.d_attn)),
    ("tw_mlp.0", _LINEAR, lambda c: (c.d_spatial, c.d_attn)),
    ("tw_mlp.1", _LINEAR, lambda c: (c.d_attn, 1)),
    ("p_o", _LINEAR, lambda c: (c.d_attn, c.d_attn)),
    ("ln_o", _LAYER_NORM, lambda c: (c.d_attn, c.d_attn)),
    ("p_l", _LINEAR, lambda c: (c.d_attn, c.d_visual)),
    ("p_g1", _LINEAR, lambda c: (c.d_attn, c.d_visual)),
    ("p_g2", _LINEAR, lambda c: (c.d_attn, c.d_visual)),
)


def _group(weights: FusionWeights, name: str):
    field, _, index = name.partition(".")
    node = getattr(weights, field)
    return node[int(index)] if index else node


def _param_layout(config: FusionConfig):
    for name, kind, widths in _PARAM_GROUPS:
        nin, nout = widths(config)
        yield f"{name}.{kind[0]}", (nin, nout) if kind == _LINEAR else (nout,)
        yield f"{name}.{kind[1]}", (nout,)


def param_shapes(config: FusionConfig) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape map of every learnable array."""
    return dict(_param_layout(config))


def stream_shapes(config: FusionConfig) -> dict[str, tuple[int, int, int]]:
    """Name -> (frames, tokens, width) of every input stream, in file order;
    `register` is optional."""
    n, ds = config.n_frames, config.d_spatial
    return {"visual": (n, config.m_visual, config.d_visual),
            "spatial": (n, config.m_spatial, ds),
            "camera": (n, 1, ds),
            "register": (n, 4, ds)}


def param_count(config: FusionConfig) -> int:
    """Total number of scalar parameters for a config."""
    return sum(int(np.prod(shape)) for _, shape in _param_layout(config))


def iter_params(weights: FusionWeights):
    """Yield (name, array) for every learnable array, in canonical order."""
    for name, kind, _ in _PARAM_GROUPS:
        node = _group(weights, name)
        for suffix in kind:
            yield f"{name}.{suffix}", getattr(node, suffix)


def weights_from_arrays(arrays) -> FusionWeights:
    """Assemble FusionWeights from a name -> array mapping (see iter_params)."""
    groups: dict[str, object] = {}
    for name, kind, _ in _PARAM_GROUPS:
        node = (LinearMap if kind == _LINEAR else LayerNormParams)(
            *(arrays[f"{name}.{suffix}"] for suffix in kind))
        field, _, index = name.partition(".")
        groups[field] = groups.get(field, ()) + (node,) if index else node
    return FusionWeights(**groups)


def init_weights(config: FusionConfig, seed: int) -> FusionWeights:
    """Seeded initialization: weights ~ N(0, 1/in_width), biases zero, LN identity."""
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _param_layout(config):
        if name.endswith(".weight"):
            arrays[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        elif name.endswith(".bias") or name.endswith(".shift"):
            arrays[name] = np.zeros(shape)
        else:  # .gain
            arrays[name] = np.ones(shape)
    return weights_from_arrays(arrays)


# ---------------------------------------------------------------------------
# forward stages
# ---------------------------------------------------------------------------

def _check_inputs(inputs: FusionInputs, config: FusionConfig) -> None:
    for name, shape in stream_shapes(config).items():
        stream = getattr(inputs, name)
        if stream is not None and stream.shape != shape:
            raise DimensionError(f"{name} stream has shape {stream.shape}, config expects {shape}")


def _keep(saved: dict | None, name: str, value: np.ndarray) -> np.ndarray:
    """Record `value` for the reverse pass when a `saved` dict is given.

    Used inside expressions, so that without `saved` every intermediate is
    freed as early as if it had not been recorded.
    """
    if saved is not None:
        saved[name] = value
    return value


def project_qkvc(inputs: FusionInputs, weights: FusionWeights, *, saved: dict | None = None):
    """Project the three streams into the shared attention space; returns
    the arrays (q, k, v, c).

    Visual and spatial tokens are layer-normalized first; the camera token is
    projected raw.
    """
    q = affine(_keep(saved, "lnv", layer_norm(inputs.visual.data, weights.ln_v)), weights.p_q)
    lns = _keep(saved, "lns", layer_norm(inputs.spatial.data, weights.ln_s))
    k = affine(lns, weights.p_k)
    v = affine(lns, weights.p_v)
    c = affine(inputs.camera.data, weights.p_c)
    return q, k, v, c


def _geo_input(xs: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """Concatenate each spatial token with its frame's camera row along width."""
    cam = np.broadcast_to(xc, (xs.shape[0], xs.shape[1], xc.shape[2]))
    return np.concatenate([xs, cam], axis=-1)


def geo_bias(spatial: np.ndarray, camera: np.ndarray, weights: FusionWeights, *,
             saved: dict | None = None) -> np.ndarray:
    """Camera-conditioned bias over spatial tokens, added to keys and values."""
    gin = _keep(saved, "gin", _geo_input(spatial, camera))
    hidden = _keep(saved, "ga", swish(_keep(saved, "gh", affine(gin, weights.geo_mlp[0]))))
    return affine(hidden, weights.geo_mlp[1])


def token_weights(spatial: np.ndarray, weights: FusionWeights, *,
                  saved: dict | None = None) -> np.ndarray:
    """Query-independent importance in (0,1) for each spatial token."""
    hidden = _keep(saved, "ta", swish(_keep(saved, "th", affine(spatial, weights.tw_mlp[0]))))
    return _keep(saved, "tw", sigmoid(affine(hidden, weights.tw_mlp[1])))


# byte budget of one tile's [h, rows, mk] float64 score block, about an L2 cache
_TILE_BYTES = 2 << 20

# A row whose bound-shifted exp sum z is at least e^-600 has a largest term of
# at least e^-600 / mk, far above the subnormal range; below that (or for a
# non-finite z) the row is recomputed shifted by its exact max.
_Z_MIN = float(np.exp(-600.0))


def _tile_rows(n_heads: int, mk: int) -> int:
    """Query rows per tile: as many as fit the score-block budget, at least one."""
    return max(1, _TILE_BYTES // (8 * n_heads * mk))


def _heads(x: np.ndarray, n_heads: int) -> np.ndarray:
    """[tokens, d_attn] -> [h, tokens, head_dim] view; heads are contiguous width slices."""
    return x.reshape(x.shape[0], n_heads, x.shape[1] // n_heads).transpose(1, 0, 2)


def _merge_heads(xh: np.ndarray) -> np.ndarray:
    """[h, tokens, head_dim] -> [tokens, d_attn]."""
    return xh.transpose(1, 0, 2).reshape(xh.shape[1], -1)


def _memory_t(x: np.ndarray, slot: np.ndarray, n_heads: int) -> np.ndarray:
    """One frame's memory [mk, d_attn] as [h, head_dim + 1, slots], with a last
    row of ones; the rows of `slot` ([0 or 1, d_attn]) lead the memory."""
    lead = slot.shape[0]
    dh = x.shape[1] // n_heads
    mt = np.empty((n_heads, dh + 1, lead + x.shape[0]))
    mt[:, :dh, :lead] = _heads(slot, n_heads).transpose(0, 2, 1)
    mt[:, :dh, lead:] = _heads(x, n_heads).transpose(0, 2, 1)
    mt[:, dh] = 1.0
    return mt


def _exact_shift_rows(qa, kt, vt, o, shift, bad):
    """Recompute a tile's flagged (head, row) pairs shifted by their exact row max.

    `qa` holds the tile's augmented queries, `o` their [h, rows, dh + 1]
    product with the augmented V (row sums last) and `shift` the per-row
    shifts; `o` and `shift` are overwritten for every pair flagged in `bad`.
    """
    dh = kt.shape[1] - 1
    for h, r in zip(*np.nonzero(bad)):
        s = qa[h, r, :dh] @ kt[h, :dh]
        shift[h, r] = s.max()
        o[h, r] = np.exp(s - shift[h, r]) @ vt[h].T


def _attention_raw(q: np.ndarray, k: np.ndarray, v: np.ndarray, slot: np.ndarray,
                   n_heads: int, lse: np.ndarray | None = None) -> np.ndarray:
    """Frame-local multi-head scaled dot-product attention, in query tiles.

    Scale is 1/sqrt(head_dim). `slot` ([n, 0 or 1, d_attn]) holds the memory
    slots placed before k and v, each serving as both key and value.
    Per frame the keys and values are laid out once as [h, dh + 1, mk] with a
    last row of ones, and each scaled query row gets a last entry -c, where
    c = |q_i| max_j |k_j| bounds every score of the row (Cauchy-Schwarz). A
    tile is then three passes over its [h, rows, mk] block: the QK^T GEMM
    returns scores already shifted by c, `exp` runs in place, and the PV GEMM
    returns the row sums z as its last column, so the log-sum-exp is
    c + log z. Rows with z < e^-600 or a non-finite z are recomputed with
    their exact row max. Every tile sees the frame's whole memory, so one
    pass gives the exact softmax. When given, `lse` ([n, h, mq]) receives
    each row's log-sum-exp of the scaled scores, from which the backward pass
    recomputes the probabilities.
    """
    n, mq, da = q.shape
    dh = da // n_heads
    scale = 1.0 / np.sqrt(dh)
    out = np.empty_like(q)
    qa = np.empty((n_heads, mq, dh + 1))
    qh = qa[..., :dh]
    for i in range(n):
        kt = _memory_t(k[i], slot[i], n_heads)
        vt = _memory_t(v[i], slot[i], n_heads)
        np.multiply(_heads(q[i], n_heads), scale, out=qh)
        k_norm = np.sqrt(np.einsum("hdk,hdk->hk", kt[:, :dh], kt[:, :dh]).max(axis=1))
        shift = np.sqrt(np.einsum("hqd,hqd->hq", qh, qh)) * k_norm[:, None]
        np.negative(shift, out=qa[..., dh])
        rows = _tile_rows(n_heads, kt.shape[2])
        for lo in range(0, mq, rows):
            hi = min(lo + rows, mq)
            e = qa[:, lo:hi] @ kt
            np.exp(e, out=e)
            o = e @ vt.transpose(0, 2, 1)  # [h, rows, dh + 1]; the last column is z
            z = o[..., dh]
            bad = ~((z >= _Z_MIN) & (z < np.inf))
            if bad.any():
                _exact_shift_rows(qa[:, lo:hi], kt, vt, o, shift[:, lo:hi], bad)
            out[i, lo:hi] = _merge_heads(o[..., :dh] / o[..., dh:])
            if lse is not None:
                lse[i, :, lo:hi] = shift[:, lo:hi] + np.log(z)
    return out


def _attention_vjp_raw(q, k, v, slot, out, lse, n_heads, g_out):
    """Cotangents (gq, gk, gv) of ``<g_out, attention(q, k, v)>``.

    `out` and `lse` are the forward's output and row log-sum-exps. gk and gv
    cover the whole memory: `slot`'s rows first, then k's and v's rows. The
    memory is laid out as in the forward, with a ones row under
    K^T and V^T. Per query tile the scaled queries carry a last entry -lse,
    so one GEMM and an in-place `exp` recompute the probabilities p; with
    D = rowsum(g_out * out) the cotangent rows carry -D, so one more GEMM
    gives g_out v^T - D, and the score cotangent is p times that.
    """
    n, mq, da = q.shape
    dh = da // n_heads
    scale = 1.0 / np.sqrt(dh)
    mk = k.shape[1] + slot.shape[1]
    gq = np.empty_like(q)
    gk = np.empty((n, mk, da))
    gv = np.empty((n, mk, da))
    qa = np.empty((n_heads, mq, dh + 1))
    ga = np.empty((n_heads, mq, dh + 1))
    qh, goh = qa[..., :dh], ga[..., :dh]
    for i in range(n):
        kt = _memory_t(k[i], slot[i], n_heads)
        vt = _memory_t(v[i], slot[i], n_heads)
        kh = kt[:, :dh].transpose(0, 2, 1)
        np.multiply(_heads(q[i], n_heads), scale, out=qh)
        np.negative(lse[i], out=qa[..., dh])
        goh[...] = _heads(g_out[i], n_heads)
        ga[..., dh] = -(goh * _heads(out[i], n_heads)).sum(axis=-1)
        g_kh = np.zeros((n_heads, mk, dh))
        g_vh = np.zeros((n_heads, mk, dh))
        rows = _tile_rows(n_heads, mk)
        for lo in range(0, mq, rows):
            hi = min(lo + rows, mq)
            p = qa[:, lo:hi] @ kt
            np.exp(p, out=p)
            g_vh += p.transpose(0, 2, 1) @ goh[:, lo:hi]
            g_s = ga[:, lo:hi] @ vt
            g_s *= p
            gq[i, lo:hi] = _merge_heads(g_s @ kh) * scale
            g_kh += g_s.transpose(0, 2, 1) @ qh[:, lo:hi]
        gk[i] = _merge_heads(g_kh)
        gv[i] = _merge_heads(g_vh)
    return gq, gk, gv


def attend(q: np.ndarray, k: np.ndarray, v: np.ndarray, c: np.ndarray,
           config: FusionConfig, *, saved: dict | None = None) -> np.ndarray:
    """Visual queries attend over spatial memory, prepended with the camera
    slot when camera_memory is enabled.

    The camera slot goes straight into the kernel's per-frame key and value
    buffers, so no [frames, 1 + m_spatial, d_attn] memory is built. With
    `saved`, the reverse pass keeps q, k, v, the camera slot (with no rows
    when camera_memory is off) and each query row's log-sum-exp ([frames,
    heads, mq]); no probability tensor is stored.
    """
    slot = c if config.toggles.camera_memory else c[:, :0]
    if k.shape[1] + slot.shape[1] == 0:
        raise DimensionError(
            "attention memory is empty: no spatial tokens and camera memory disabled"
        )
    lse = None
    if saved is not None:
        lse = np.empty((q.shape[0], config.n_heads, q.shape[1]))
        saved.update(q=q, k=k, v=v, c=slot, lse=lse)
    return _attention_raw(q, k, v, slot, config.n_heads, lse)


def gate_and_fuse(attended: np.ndarray, c: np.ndarray, visual: np.ndarray,
                  weights: FusionWeights, config: FusionConfig, *,
                  saved: dict | None = None) -> np.ndarray:
    """Project the attention output back to visual width, gate it with the
    camera embedding, and add the visual residual."""
    proj = _keep(saved, "fproj", layer_norm(
        _keep(saved, "p", affine(_keep(saved, "fhat", attended), weights.p_o)), weights.ln_o))
    mapped = _keep(saved, "mapped", affine(proj, weights.p_l))
    if not config.toggles.gate:
        return mapped + visual
    cbar = _keep(saved, "cbar", c[:, 0, :])
    u = _keep(saved, "u", affine(cbar, weights.p_g1))
    v = _keep(saved, "vg", affine(cbar, weights.p_g2))
    gate = _keep(saved, "gate", _keep(saved, "su", swish(u)) * v)
    return mapped * gate[:, None, :] + visual


def _forward(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig,
             timings: dict | None = None, saved: dict | None = None) -> np.ndarray:
    """The fusion pipeline behind both `fuse` and `fuse_backward`; returns
    the fused array.

    `timings` and `saved` are out-parameters that change no result: they
    receive per-stage wall times (seconds) and the reverse pass's residuals.
    """
    _check_inputs(inputs, config)
    t = config.toggles
    xs = inputs.spatial.data

    def tick():
        return time.perf_counter() if timings is not None else 0.0

    t0 = tick()
    q, k, v, c = project_qkvc(inputs, weights, saved=saved)
    t1 = tick()
    if t.geo_bias:
        bias = geo_bias(xs, inputs.camera.data, weights, saved=saved)
        k = k + bias
        v = v + bias
    t2 = tick()
    if t.token_weight:
        _keep(saved, "v_unweighted", v)
        v = v * token_weights(xs, weights, saved=saved)
    t3 = tick()
    attended = attend(q, k, v, c, config, saved=saved)
    t4 = tick()
    out = gate_and_fuse(attended, c, inputs.visual.data, weights, config, saved=saved)
    if timings is not None:
        timings["project"] = t1 - t0
        timings["geo_bias"] = t2 - t1
        timings["token_weight"] = t3 - t2
        timings["attend"] = t4 - t3
        timings["gate_fuse"] = tick() - t4
    return out


def fuse(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig,
         timings: dict | None = None) -> TokenTensor:
    """Full fusion pipeline; output shape equals the visual stream's shape.

    When a `timings` dict is passed, per-stage wall times (seconds) are
    recorded into it.
    """
    out = _forward(inputs, weights, config, timings)
    try:
        return TokenTensor(out)
    except ValueError as exc:
        raise ValueError(f"fused output: {exc}") from None


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def fuse_backward(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig,
                  cotangent: TokenTensor):
    """Analytic gradients of ``<cotangent, fuse(inputs)>``.

    Returns (input_grads, weight_grads): a FusionInputs holding gradients for
    the visual/spatial/camera streams and a FusionWeights holding a gradient
    array per parameter. Disabled branches contribute zero gradients of the
    right shape.
    """
    if cotangent.shape != inputs.visual.shape:
        raise DimensionError(
            f"cotangent shape {cotangent.shape} != visual shape {inputs.visual.shape}"
        )
    s: dict = {}
    _forward(inputs, weights, config, saved=s)
    t = config.toggles
    w = weights
    xv, xs, xc = inputs.visual.data, inputs.spatial.data, inputs.camera.data
    grads = {name: np.zeros_like(array) for name, array in iter_params(w)}

    g_out = cotangent.data
    g_xv = g_out.copy()  # residual path
    g_c = np.zeros_like(s["q"][:, :1, :])  # the camera token in attention space
    if t.gate:
        g_mapped = g_out * s.pop("gate")[:, None, :]
        g_gate = np.einsum("nmd,nmd->nd", g_out, s.pop("mapped"))
        g_u = swish_vjp(s.pop("u"), g_gate * s.pop("vg"))
        g_cbar1, grads["p_g1.weight"], grads["p_g1.bias"] = affine_vjp(s["cbar"], w.p_g1, g_u)
        g_cbar2, grads["p_g2.weight"], grads["p_g2.bias"] = affine_vjp(
            s.pop("cbar"), w.p_g2, g_gate * s.pop("su"))
        g_c[:, 0, :] += g_cbar1 + g_cbar2
    else:
        g_mapped = g_out

    g_fproj, grads["p_l.weight"], grads["p_l.bias"] = affine_vjp(s.pop("fproj"), w.p_l, g_mapped)
    g_p, grads["ln_o.gain"], grads["ln_o.shift"] = layer_norm_vjp(s.pop("p"), w.ln_o, g_fproj)
    g_fhat, grads["p_o.weight"], grads["p_o.bias"] = affine_vjp(s["fhat"], w.p_o, g_p)

    # the attention residuals are not read again: popped, they are freed on return
    lead = s["c"].shape[1]  # the camera slot's rows: 1, or 0 without camera_memory
    g_q, g_kmem, g_vmem = _attention_vjp_raw(s.pop("q"), s.pop("k"), s.pop("v"), s.pop("c"),
                                             s.pop("fhat"), s.pop("lse"), config.n_heads, g_fhat)
    g_c[:, :lead] += g_kmem[:, :lead] + g_vmem[:, :lead]
    g_k, g_v = g_kmem[:, lead:], g_vmem[:, lead:]

    g_xs = np.zeros_like(xs)
    g_xc = np.zeros_like(xc)
    if t.token_weight:
        tw = s.pop("tw")
        g_tz = (g_v * s.pop("v_unweighted")).sum(axis=-1, keepdims=True) * tw * (1.0 - tw)
        g_v = g_v * tw
        g_ta, grads["tw_mlp.1.weight"], grads["tw_mlp.1.bias"] = affine_vjp(
            s.pop("ta"), w.tw_mlp[1], g_tz)
        g_xs_tw, grads["tw_mlp.0.weight"], grads["tw_mlp.0.bias"] = affine_vjp(
            xs, w.tw_mlp[0], swish_vjp(s.pop("th"), g_ta))
        g_xs += g_xs_tw

    if t.geo_bias:  # the bias enters both keys and values
        g_ga, grads["geo_mlp.1.weight"], grads["geo_mlp.1.bias"] = affine_vjp(
            s.pop("ga"), w.geo_mlp[1], g_k + g_v)
        g_gin, grads["geo_mlp.0.weight"], grads["geo_mlp.0.bias"] = affine_vjp(
            s.pop("gin"), w.geo_mlp[0], swish_vjp(s.pop("gh"), g_ga))
        ds = xs.shape[2]
        g_xs += g_gin[..., :ds]
        g_xc += g_gin[..., ds:].sum(axis=1, keepdims=True)

    g_lns_k, grads["p_k.weight"], grads["p_k.bias"] = affine_vjp(s["lns"], w.p_k, g_k)
    g_lns_v, grads["p_v.weight"], grads["p_v.bias"] = affine_vjp(s.pop("lns"), w.p_v, g_v)
    g_xs_ln, grads["ln_s.gain"], grads["ln_s.shift"] = layer_norm_vjp(xs, w.ln_s, g_lns_k + g_lns_v)
    g_xs += g_xs_ln

    g_xc_c, grads["p_c.weight"], grads["p_c.bias"] = affine_vjp(xc, w.p_c, g_c)
    g_xc += g_xc_c

    g_lnv, grads["p_q.weight"], grads["p_q.bias"] = affine_vjp(s.pop("lnv"), w.p_q, g_q)
    g_xv_ln, grads["ln_v.gain"], grads["ln_v.shift"] = layer_norm_vjp(xv, w.ln_v, g_lnv)
    g_xv += g_xv_ln

    input_grads = FusionInputs(
        visual=TokenTensor(g_xv),
        spatial=TokenTensor(g_xs),
        camera=TokenTensor(g_xc),
    )
    return input_grads, weights_from_arrays(grads)
