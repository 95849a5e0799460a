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

The output always has the visual stream's shape, so the module can sit in
front of a downstream consumer without changing its interface.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

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
    softmax_rows,
    softmax_vjp,
    swish,
    swish_vjp,
)

__all__ = [
    "ConfigError",
    "FusionToggles",
    "FusionConfig",
    "FusionWeights",
    "FusionInputs",
    "LAYER_NORM_GROUPS",
    "init_weights",
    "layer_norm_epsilons",
    "param_shapes",
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
        for name in ("n_frames", "m_visual", "d_visual", "d_spatial", "d_attn", "n_heads"):
            value = getattr(self, name)
            if not isinstance(value, int) or value < 1:
                raise ConfigError(f"config field '{name}': expected positive int, got {value!r}")
        if not isinstance(self.m_spatial, int) or self.m_spatial < 0:
            raise ConfigError(
                f"config field 'm_spatial': expected non-negative int, got {self.m_spatial!r}"
            )
        if self.m_spatial == 0 and not self.toggles.camera_memory:
            raise ConfigError(
                "m_spatial == 0 requires the camera memory slot; attention over "
                "empty memory is undefined"
            )
        if self.d_attn % self.n_heads != 0:
            raise ConfigError(
                f"d_attn ({self.d_attn}) must be divisible by n_heads ({self.n_heads})"
            )

    @property
    def head_dim(self) -> int:
        return self.d_attn // self.n_heads


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

    `register` carries the spatial encoder's four auxiliary tokens per frame;
    fusion drops them, but they are kept here so the discard path is real.
    """

    visual: TokenTensor
    spatial: TokenTensor
    camera: TokenTensor
    register: TokenTensor | None = None

    def __post_init__(self):
        if not (self.visual.frames == self.spatial.frames == self.camera.frames):
            raise DimensionError(
                "frame counts disagree: visual "
                f"{self.visual.frames}, spatial {self.spatial.frames}, "
                f"camera {self.camera.frames}"
            )
        if self.camera.tokens != 1:
            raise DimensionError(f"camera stream must have 1 token, got {self.camera.tokens}")
        if self.camera.width != self.spatial.width:
            raise DimensionError(
                f"camera width {self.camera.width} != spatial width {self.spatial.width}"
            )
        if self.register is not None:
            if self.register.frames != self.visual.frames:
                raise DimensionError("register frame count disagrees with the other streams")
            if self.register.tokens != 4 or self.register.width != self.spatial.width:
                raise DimensionError(
                    f"register stream must be [frames, 4, {self.spatial.width}], "
                    f"got {self.register.shape}"
                )

    @property
    def frames(self) -> int:
        return self.visual.frames


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

LAYER_NORM_GROUPS = tuple(name for name, kind, _ in _PARAM_GROUPS if kind == _LAYER_NORM)


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


def param_count(config: FusionConfig) -> int:
    """Total number of scalar parameters for a config."""
    return sum(int(np.prod(shape)) for _, shape in _param_layout(config))


def iter_params(weights: FusionWeights):
    """Yield (name, array) for every learnable array, in canonical order."""
    for name, kind, _ in _PARAM_GROUPS:
        node = _group(weights, name)
        for suffix in kind:
            array = getattr(node, suffix)
            if array is not None:
                yield f"{name}.{suffix}", array


def layer_norm_epsilons(weights: FusionWeights) -> dict[str, float]:
    """Group name -> epsilon of every layer norm, in canonical order."""
    return {name: _group(weights, name).epsilon for name in LAYER_NORM_GROUPS}


def weights_from_arrays(arrays, epsilons=None) -> FusionWeights:
    """Assemble FusionWeights from a name -> array mapping (see iter_params)."""
    eps = dict(epsilons or {})
    fields: dict[str, object] = {}
    for name, kind, _ in _PARAM_GROUPS:
        if kind == _LINEAR:
            node = LinearMap(arrays[f"{name}.weight"], arrays.get(f"{name}.bias"))
        else:
            node = LayerNormParams(arrays[f"{name}.gain"], arrays[f"{name}.shift"],
                                   eps.get(name, 1e-6))
        field, _, index = name.partition(".")
        fields[field] = fields.get(field, ()) + (node,) if index else node
    return FusionWeights(**fields)


def init_weights(config: FusionConfig, seed: int, *, identity_init: bool = False) -> FusionWeights:
    """Seeded initialization: weights ~ N(0, 1/in_width), biases zero, LN identity.

    With identity_init the final visual projection (p_l) is zeroed, so the
    module starts out as an exact no-op on the visual stream.
    """
    rng = np.random.default_rng(seed)
    arrays: dict[str, np.ndarray] = {}
    for name, shape in _param_layout(config):
        if name.endswith(".weight"):
            arrays[name] = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
        elif name.endswith(".bias") or name.endswith(".shift"):
            arrays[name] = np.zeros(shape)
        else:  # .gain
            arrays[name] = np.ones(shape)
    weights = weights_from_arrays(arrays)
    if identity_init:
        zero = LinearMap(np.zeros_like(weights.p_l.weight), np.zeros_like(weights.p_l.bias))
        weights = replace(weights, p_l=zero)
    return weights


# ---------------------------------------------------------------------------
# forward stages
# ---------------------------------------------------------------------------

def _check_inputs(inputs: FusionInputs, config: FusionConfig) -> None:
    expected = {
        "visual": (config.n_frames, config.m_visual, config.d_visual),
        "spatial": (config.n_frames, config.m_spatial, config.d_spatial),
        "camera": (config.n_frames, 1, config.d_spatial),
    }
    for name, shape in expected.items():
        actual = getattr(inputs, name).shape
        if actual != shape:
            raise DimensionError(f"{name} stream has shape {actual}, config expects {shape}")


def _keep(saved: dict | None, name: str, value: np.ndarray) -> np.ndarray:
    """Record `value` for the reverse pass when a `saved` dict is given.

    Used inside expressions, so that without `saved` every intermediate is
    freed as early as if it had not been recorded.
    """
    if saved is not None:
        saved[name] = value
    return value


def project_qkvc(inputs: FusionInputs, weights: FusionWeights, *, saved: dict | None = None):
    """Project the three streams into the shared attention space.

    Visual and spatial tokens are layer-normalized first; the camera token is
    projected raw.
    """
    q = affine(_keep(saved, "lnv", layer_norm(inputs.visual.data, weights.ln_v)), weights.p_q)
    lns = _keep(saved, "lns", layer_norm(inputs.spatial.data, weights.ln_s))
    k = affine(lns, weights.p_k)
    v = affine(lns, weights.p_v)
    c = affine(inputs.camera.data, weights.p_c)
    return TokenTensor(q), TokenTensor(k), TokenTensor(v), TokenTensor(c)


def _geo_input(xs: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """Concatenate each spatial token with its frame's camera row along width."""
    cam = np.broadcast_to(xc, (xs.shape[0], xs.shape[1], xc.shape[2]))
    return np.concatenate([xs, cam], axis=-1)


def geo_bias(spatial: TokenTensor, camera: TokenTensor, weights: FusionWeights, *,
             saved: dict | None = None) -> TokenTensor:
    """Camera-conditioned bias over spatial tokens, added to keys and values."""
    gin = _keep(saved, "gin", _geo_input(spatial.data, camera.data))
    hidden = _keep(saved, "ga", swish(_keep(saved, "gh", affine(gin, weights.geo_mlp[0]))))
    return TokenTensor(affine(hidden, weights.geo_mlp[1]))


def token_weights(spatial: TokenTensor, weights: FusionWeights, *,
                  saved: dict | None = None) -> TokenTensor:
    """Query-independent importance in (0,1) for each spatial token."""
    hidden = _keep(saved, "ta", swish(_keep(saved, "th", affine(spatial.data, weights.tw_mlp[0]))))
    return TokenTensor(_keep(saved, "tw", sigmoid(affine(hidden, weights.tw_mlp[1]))))


def _attention_raw(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
                   keep_cache: bool = False):
    """Frame-local multi-head scaled dot-product attention.

    Heads are contiguous width slices; scale is 1/sqrt(head_dim). Frames are
    processed in a fixed order so results are deterministic and memory stays
    bounded by one frame's score matrix.
    """
    n, mq, da = q.shape
    mk = k.shape[1]
    dh = da // n_heads
    scale = 1.0 / np.sqrt(dh)
    out = np.empty_like(q)
    probs_cache = np.empty((n, n_heads, mq, mk), dtype=q.dtype) if keep_cache else None
    for i in range(n):
        qh = q[i].reshape(mq, n_heads, dh).transpose(1, 0, 2)  # [h, mq, dh]
        kh = k[i].reshape(mk, n_heads, dh).transpose(1, 0, 2)
        vh = v[i].reshape(mk, n_heads, dh).transpose(1, 0, 2)
        scores = (qh @ kh.transpose(0, 2, 1)) * scale          # [h, mq, mk]
        probs = softmax_rows(scores)
        outh = probs @ vh                                      # [h, mq, dh]
        out[i] = outh.transpose(1, 0, 2).reshape(mq, da)
        if keep_cache:
            probs_cache[i] = probs
    return out, probs_cache


def _attention_vjp_raw(q, k, v, probs, n_heads, g_out):
    n, mq, da = q.shape
    mk = k.shape[1]
    dh = da // n_heads
    scale = 1.0 / np.sqrt(dh)
    gq = np.empty_like(q)
    gk = np.empty_like(k)
    gv = np.empty_like(v)
    for i in range(n):
        qh = q[i].reshape(mq, n_heads, dh).transpose(1, 0, 2)
        kh = k[i].reshape(mk, n_heads, dh).transpose(1, 0, 2)
        vh = v[i].reshape(mk, n_heads, dh).transpose(1, 0, 2)
        goh = g_out[i].reshape(mq, n_heads, dh).transpose(1, 0, 2)
        p = probs[i]
        g_probs = goh @ vh.transpose(0, 2, 1)                  # [h, mq, mk]
        g_vh = p.transpose(0, 2, 1) @ goh                      # [h, mk, dh]
        g_scores = softmax_vjp(p, g_probs)
        g_qh = (g_scores @ kh) * scale
        g_kh = (g_scores.transpose(0, 2, 1) @ qh) * scale
        gq[i] = g_qh.transpose(1, 0, 2).reshape(mq, da)
        gk[i] = g_kh.transpose(1, 0, 2).reshape(mk, da)
        gv[i] = g_vh.transpose(1, 0, 2).reshape(mk, da)
    return gq, gk, gv


def attend(q: TokenTensor, k: TokenTensor, v: TokenTensor, c: TokenTensor,
           config: FusionConfig, *, saved: dict | None = None) -> TokenTensor:
    """Visual queries attend over spatial memory, prepended with the camera
    slot when camera_memory is enabled.

    Only with `saved` is the full [frames, heads, mq, mk] probability tensor kept.
    """
    if config.toggles.camera_memory:
        kmem = np.concatenate([c.data, k.data], axis=1)
        vmem = np.concatenate([c.data, v.data], axis=1)
    else:
        kmem, vmem = k.data, v.data
    if kmem.shape[1] == 0:
        raise DimensionError(
            "attention memory is empty: no spatial tokens and camera memory disabled"
        )
    out, probs = _attention_raw(q.data, kmem, vmem, config.n_heads, keep_cache=saved is not None)
    if saved is not None:
        saved.update(q=q.data, kmem=kmem, vmem=vmem, probs=probs)
    return TokenTensor(out)


def gate_and_fuse(attended: TokenTensor, c: TokenTensor, visual: TokenTensor,
                  weights: FusionWeights, config: FusionConfig, *,
                  saved: dict | None = None) -> TokenTensor:
    """Project the attention output back to visual width, gate it with the
    camera embedding, and add the visual residual."""
    fhat = _keep(saved, "fhat", attended.data)
    proj = _keep(saved, "fproj", layer_norm(_keep(saved, "p", affine(fhat, weights.p_o)),
                                            weights.ln_o))
    mapped = _keep(saved, "mapped", affine(proj, weights.p_l))
    if not config.toggles.gate:
        return TokenTensor(mapped + visual.data)
    cbar = _keep(saved, "cbar", c.data[:, 0, :])
    u = _keep(saved, "u", affine(cbar, weights.p_g1))
    v = _keep(saved, "vg", affine(cbar, weights.p_g2))
    gate = _keep(saved, "gate", _keep(saved, "su", swish(u)) * v)
    return TokenTensor(mapped * gate[:, None, :] + visual.data)


def _forward(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig,
             timings: dict | None = None, saved: dict | None = None) -> TokenTensor:
    """The fusion pipeline behind both `fuse` and `fuse_backward`.

    `timings` and `saved` are out-parameters that change no result: they
    receive per-stage wall times (seconds) and the reverse pass's residuals.
    """
    _check_inputs(inputs, config)
    t = config.toggles

    def tick():
        return time.perf_counter() if timings is not None else 0.0

    t0 = tick()
    q, k, v, c = project_qkvc(inputs, weights, saved=saved)
    t1 = tick()
    if t.geo_bias:
        bias = geo_bias(inputs.spatial, inputs.camera, weights, saved=saved)
        k = TokenTensor(k.data + bias.data)
        v = TokenTensor(v.data + bias.data)
    t2 = tick()
    if t.token_weight:
        _keep(saved, "v_unweighted", v.data)
        v = TokenTensor(v.data * token_weights(inputs.spatial, weights, saved=saved).data)
    t3 = tick()
    attended = attend(q, k, v, c, config, saved=saved)
    t4 = tick()
    out = gate_and_fuse(attended, c, inputs.visual, weights, config, saved=saved)
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
    return _forward(inputs, weights, config, timings)


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
        g_mapped = g_out * s["gate"][:, None, :]
        g_gate = np.einsum("nmd,nmd->nd", g_out, s["mapped"])
        g_u = swish_vjp(s["u"], g_gate * s["vg"])
        g_cbar1, grads["p_g1.weight"], grads["p_g1.bias"] = affine_vjp(s["cbar"], w.p_g1, g_u)
        g_cbar2, grads["p_g2.weight"], grads["p_g2.bias"] = affine_vjp(
            s["cbar"], w.p_g2, g_gate * s["su"])
        g_c[:, 0, :] += g_cbar1 + g_cbar2
    else:
        g_mapped = g_out

    g_fproj, grads["p_l.weight"], grads["p_l.bias"] = affine_vjp(s["fproj"], w.p_l, g_mapped)
    g_p, grads["ln_o.gain"], grads["ln_o.shift"] = layer_norm_vjp(s["p"], w.ln_o, g_fproj)
    g_fhat, grads["p_o.weight"], grads["p_o.bias"] = affine_vjp(s["fhat"], w.p_o, g_p)

    g_q, g_kmem, g_vmem = _attention_vjp_raw(s["q"], s["kmem"], s["vmem"], s["probs"],
                                             config.n_heads, g_fhat)
    if t.camera_memory:
        g_c += g_kmem[:, :1, :] + g_vmem[:, :1, :]
        g_k, g_v = g_kmem[:, 1:, :], g_vmem[:, 1:, :]
    else:
        g_k, g_v = g_kmem, g_vmem

    g_xs = np.zeros_like(xs)
    g_xc = np.zeros_like(xc)
    if t.token_weight:
        tw = s["tw"]
        g_tz = (g_v * s["v_unweighted"]).sum(axis=-1, keepdims=True) * tw * (1.0 - tw)
        g_v = g_v * tw
        g_ta, grads["tw_mlp.1.weight"], grads["tw_mlp.1.bias"] = affine_vjp(
            s["ta"], w.tw_mlp[1], g_tz)
        g_xs_tw, grads["tw_mlp.0.weight"], grads["tw_mlp.0.bias"] = affine_vjp(
            xs, w.tw_mlp[0], swish_vjp(s["th"], g_ta))
        g_xs += g_xs_tw

    if t.geo_bias:  # the bias enters both keys and values
        g_ga, grads["geo_mlp.1.weight"], grads["geo_mlp.1.bias"] = affine_vjp(
            s["ga"], w.geo_mlp[1], g_k + g_v)
        g_gin, grads["geo_mlp.0.weight"], grads["geo_mlp.0.bias"] = affine_vjp(
            s["gin"], w.geo_mlp[0], swish_vjp(s["gh"], g_ga))
        ds = xs.shape[2]
        g_xs += g_gin[..., :ds]
        g_xc += g_gin[..., ds:].sum(axis=1, keepdims=True)

    g_lns_k, grads["p_k.weight"], grads["p_k.bias"] = affine_vjp(s["lns"], w.p_k, g_k)
    g_lns_v, grads["p_v.weight"], grads["p_v.bias"] = affine_vjp(s["lns"], w.p_v, g_v)
    g_xs_ln, grads["ln_s.gain"], grads["ln_s.shift"] = layer_norm_vjp(xs, w.ln_s, g_lns_k + g_lns_v)
    g_xs += g_xs_ln

    g_xc_c, grads["p_c.weight"], grads["p_c.bias"] = affine_vjp(xc, w.p_c, g_c)
    g_xc += g_xc_c

    g_lnv, grads["p_q.weight"], grads["p_q.bias"] = affine_vjp(s["lnv"], w.p_q, g_q)
    g_xv_ln, grads["ln_v.gain"], grads["ln_v.shift"] = layer_norm_vjp(xv, w.ln_v, g_lnv)
    g_xv += g_xv_ln

    input_grads = FusionInputs(
        visual=TokenTensor(g_xv),
        spatial=TokenTensor(g_xs),
        camera=TokenTensor(g_xc),
    )
    return input_grads, weights_from_arrays(grads, layer_norm_epsilons(w))


def variant_toggles(name: str) -> FusionToggles:
    """Named structural variants used by the ablation runner."""
    table = {
        "shallow": FusionToggles(geo_bias=False, token_weight=False,
                                 camera_memory=True, gate=False),
        "token-weight": FusionToggles(geo_bias=False, token_weight=True,
                                      camera_memory=True, gate=False),
        "geo-bias": FusionToggles(geo_bias=True, token_weight=True,
                                  camera_memory=True, gate=False),
        "full": FusionToggles(),
    }
    try:
        return table[name]
    except KeyError:
        raise ConfigError(f"unknown variant {name!r}; expected one of {sorted(table)}") from None


def with_toggles(config: FusionConfig, toggles: FusionToggles) -> FusionConfig:
    """Copy of `config` with a different toggle set."""
    return replace(config, toggles=toggles)
