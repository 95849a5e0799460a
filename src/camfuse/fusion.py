"""Camera-guided fusion of visual and spatial token streams.

Per frame, visual tokens cross-attend over spatial tokens plus one camera
memory slot, with three camera-conditioned controls layered on top:

* geo bias -- an MLP over each spatial token and its frame's camera
  embedding, added to both attention keys and values; the camera's share of
  its first layer, with the bias, is one row per frame;
* token weights -- a sigmoid MLP over spatial tokens giving each a
  query-independent importance in (0, 1) that rescales the values;
* gate -- a SwiGLU-style gate computed from the camera embedding that
  scales the projected attention output before the residual with the
  visual stream.

Each control has a config toggle so structural variants can be compared on
identical inputs. `fuse_backward` returns analytic gradients for every
parameter and input stream; `camfuse.gradcheck` holds the independent
finite-difference harness that validates them.

`fuse` and `fuse_backward` run one pass (`_pass`) with one frame body, and
nothing around it but the input check and, in the reverse pass, the sum of
the weight-gradient partials. One frame pool (`_over_frames`) runs each
frame's body: project (the frame's camera row included), geo bias, token
weights, that frame's attention tiles, the frame's gate from its camera
slot, and gate-and-fuse, into the frame's output rows. Given a cotangent,
the body goes straight on to the frame's VJPs (gate-and-fuse, attention,
the queries' projection, token weights, geo bias, the keys' and values'
projection, then the gate's and the camera row's), and drops each residual
and each cotangent at its last read, so a worker holds its backward
workspace and about 8 arrays of one frame's tokens at attention width. It
writes its input-gradient rows and its partial of every weight gradient
into rows the calling thread allocated; after the pool the partials are
summed over frames in frame order. A frame's arithmetic does not depend on
the thread that runs it, so every result is the same bit for bit at every
worker count. The pool has one thread per usable core, the calling thread
among them; only when the whole pass, every frame's queries together, fits
in one attention tile does it run serially on the calling thread. OpenBLAS
is held to one thread for the whole dispatch, pooled or serial, so that
workers do not start BLAS threads of their own on cores that are already
busy, and so that a GEMM's bytes do not depend on the worker count. No
function that bench/spans.py traces runs in a frame body, since its span
stack is global: the body calls the five public stages (`project_qkvc`,
`geo_bias`, `token_weights`, `attend`, `gate_and_fuse`) through private
aliases the tracer does not wrap, and otherwise only `affine`,
`normalise`, the VJPs `affine_vjp` and `layer_norm_vjp`, and the private
`tensor._sigmoid`, `_swish` and `_swish_vjp`.

Every layer norm is `normalise` plus one GEMM. Once per pass, on the calling
thread, `fold_weights` folds each layer norm's gain and shift, and the bias
of the map that follows it, into that map's weight: ln_v's with p_q's bias
and the attention scale 1/sqrt(head_dim) into the query weight, split by
head; ln_s's with p_k's and p_v's biases into one weight that gives the
keys and values side by side; ln_o's with p_l's bias into p_l's weight.
p_o's bias goes into its weight. Each bias rides as the weight's last row,
against a last column of ones that `normalise` writes next to the
normalised rows (and `attend` next to its output). So a frame normalises
its visual rows, and one GEMM writes their scaled query heads straight into
attention's head layout; it normalises its spatial rows, and one GEMM
writes their keys and values; after the tiles one GEMM gives p_o's
product, which is normalised, and one GEMM against p_l's folded weight, its
columns scaled by the frame's gate, writes the mapped rows into the frame's
output rows, to which the visual rows are then added. The reverse pass
keeps the unfolded VJPs: it rebuilds the layer norms' outputs from the
normalised rows left in the workspace (gain times row plus shift), and
takes the gate's cotangent from p_l's VJP against the gated map, without
the mapped rows.

Attention walks each frame's queries in row tiles sized so that one tile's
[heads, rows, memory] score block stays about 2 MiB, in a workspace per
worker that holds one tile's score blocks and one frame's query-width rows,
so memory is bounded by the outputs plus one frame's working set per worker
in both passes. Per frame the keys and values (with the camera slot
written in as slot 0) are laid out once as augmented buffers with a row of
ones, so a tile is only three passes over its score block: the QK^T GEMM,
an in-place `exp` and the PV GEMM. The softmax shift rides in the first
GEMM: each query row carries -c, where c = |q| max|k| bounds the row's
scores by Cauchy-Schwarz. The row sum rides in the second, which writes
its product transposed, as its last row. The per-row work runs once per
frame, outside the tiles: the shifts before them, and after them the redo
of rows whose shifted sum falls below e^-600 (with their exact row max),
and the division by the row sums, along whole rows of the transposed
product. The reverse pass keeps no probability tensor: the forward leaves
the scaled queries with their shifts, and the row sums, in the worker's
workspace, and the frame's attention VJP forms each row's log-sum-exp from
them and folds it into its QK^T GEMM the same way to recompute the
probabilities tile by tile. Its
tiles are only seven passes (QK^T, `exp`, the value cotangent, the score
cotangent, its product with the probabilities, and the query and key
cotangents), summing the key and value cotangents head-major into
contiguous [heads, memory, head_dim] rows.

The output always has the visual stream's shape, so the module can sit in
front of a downstream consumer without changing its interface.

Streams enter as `TokenTensor`s (finite, rank 3, float64) inside a
`FusionInputs`, shaped as `stream_shapes(config)` states, and `fuse` /
`fuse_backward` check them and return `TokenTensor`s. Between those
boundaries the five stages take one frame's plain float64 arrays, return
their result followed by the intermediates the reverse pass reads (the
visual rows' stages, `project_qkvc`, `attend` and `gate_and_fuse`, leave
theirs in the worker's workspace), and validate nothing.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .tensor import (
    DimensionError,
    LayerNormParams,
    LinearMap,
    TokenTensor,
    _sigmoid,
    _swish,
    _swish_vjp,
    affine,
    affine_vjp,
    empty_buffer,
    layer_norm_vjp,
    normalise,
    softmax_rows,  # noqa: F401 -- unused here; bench/test_bench.py patches it as a fusion attribute
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
    "FoldedWeights",
    "fold_weights",
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
# per-frame stages
# ---------------------------------------------------------------------------

def _check_inputs(inputs: FusionInputs, config: FusionConfig) -> None:
    for name, shape in stream_shapes(config).items():
        stream = getattr(inputs, name)
        if stream is not None and stream.shape != shape:
            raise DimensionError(f"{name} stream has shape {stream.shape}, config expects {shape}")


def _attention_scale(head_dim: int) -> float:
    """The attention scale 1/sqrt(head_dim), which the folded query weight
    carries and the query cotangent takes back."""
    return 1.0 / np.sqrt(head_dim)


def _fold_ln(p: LayerNormParams, lin: LinearMap) -> np.ndarray:
    """The weight [width + 1, out_width] that maps `normalise`'s rows of x to
    ``affine(gain * xhat + shift, lin)``, xhat being x's normalised rows:
    diag(gain) @ weight, over shift @ weight + bias as its last row."""
    return np.vstack([p.gain[:, None] * lin.weight, p.shift @ lin.weight + lin.bias])


@dataclass(frozen=True)
class FoldedWeights:
    """`weights` and the weights that `fold_weights` folds from them, which
    `project_qkvc` and `gate_and_fuse` take together.

    wq [h, d_visual + 1, head_dim] maps normalised visual rows to their
    scaled query heads: ln_v's gain and shift, p_q's bias and the attention
    scale ride in it, split by head. wkv [d_spatial + 1, 2 * d_attn] maps
    normalised spatial rows to their keys and values side by side: ln_s's
    gain and shift with p_k's bias, then with p_v's. wo [d_attn + 1, d_attn]
    is p_o's weight over its bias, and wl [d_attn + 1, d_visual] carries
    ln_o's gain and shift and p_l's bias. Each maps rows with a last column
    of ones, as `normalise` writes them.
    """

    weights: FusionWeights
    wq: np.ndarray
    wkv: np.ndarray
    wo: np.ndarray
    wl: np.ndarray


def fold_weights(weights: FusionWeights, config: FusionConfig) -> FoldedWeights:
    """Fold every layer norm's gain and shift, and every bias of a map that
    takes normalised rows or attention's output, into the weight of the GEMM
    that takes those rows (see `FoldedWeights`); a pass does this once, on
    the calling thread."""
    h = config.n_heads
    dh = config.d_attn // h
    wq = _fold_ln(weights.ln_v, weights.p_q) * _attention_scale(dh)
    wq = np.ascontiguousarray(wq.reshape(-1, h, dh).transpose(1, 0, 2))
    return FoldedWeights(
        weights, wq=wq,
        wkv=np.hstack([_fold_ln(weights.ln_s, weights.p_k), _fold_ln(weights.ln_s, weights.p_v)]),
        wo=np.vstack([weights.p_o.weight, weights.p_o.bias]),
        wl=_fold_ln(weights.ln_o, weights.p_l))


def project_qkvc(visual: np.ndarray, spatial: np.ndarray, camera: np.ndarray,
                 folded: FoldedWeights, ws: dict):
    """Project one frame's visual [mq, d_visual], spatial [ms, d_spatial] and
    camera [1, d_spatial] rows into the shared attention space, the visual
    and spatial tokens layer-normalized first; returns (k, v, c), the keys
    and values [ms, d_attn] and the camera slot [1, d_attn].

    The token rows go to the worker's workspace `ws`, each stream through
    `normalise` and one GEMM. The visual rows, with a last column of ones,
    go to ws["xa"], and the folded query weight (`folded.wq`), which carries
    ln_v's gain and shift, p_q's bias and the attention scale, writes their
    scaled query heads into the leading columns of ws["qa"], where `attend`
    reads them. The spatial rows go to ws["sa"], and `folded.wkv`, which
    carries ln_s's gain and shift and p_k's and p_v's biases, writes the
    keys and values side by side into ws["kv"]: k and v are views of it,
    which the next frame's projection in this workspace overwrites. The
    reverse pass reads xa and sa.
    """
    np.matmul(normalise(visual, ws["xa"]), folded.wq, out=ws["qa"][..., :-1])
    kv = np.matmul(normalise(spatial, ws["sa"]), folded.wkv, out=ws["kv"])
    da = kv.shape[1] // 2
    return kv[:, :da], kv[:, da:], affine(camera, folded.weights.p_c)


def geo_bias(spatial: np.ndarray, camera: np.ndarray, weights: FusionWeights):
    """The camera-conditioned bias [ms, d_attn] that one frame adds to its
    keys and values; returns (bias, gh, ga), the last two being the MLP's
    hidden pre-activation and activation.

    The bias is an MLP over each spatial token and the frame's camera row
    `camera` ([1, d_spatial]), as if the two were concatenated along width.
    The first layer's weight is split by rows at d_spatial: its spatial half
    maps every token, and its camera half, with the bias, gives one
    [1, d_attn] row per frame that is added to every token's hidden row.
    """
    first = weights.geo_mlp[0]
    ds = spatial.shape[1]
    gh = spatial @ first.weight[:ds]
    gh += camera @ first.weight[ds:] + first.bias
    ga = _swish(gh)
    return affine(ga, weights.geo_mlp[1]), gh, ga


def token_weights(spatial: np.ndarray, weights: FusionWeights):
    """Query-independent importance in (0, 1) of each of one frame's spatial
    tokens, which scales its value row; returns (tw [ms, 1], th, ta), the
    last two being the MLP's hidden pre-activation and activation."""
    th = affine(spatial, weights.tw_mlp[0])
    ta = _swish(th)
    return _sigmoid(affine(ta, weights.tw_mlp[1])), th, ta


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
    """[h, tokens, head_dim] -> a new [tokens, d_attn] array."""
    return xh.swapaxes(0, 1).reshape(xh.shape[1], -1)


def _memory_t(x: np.ndarray, slot: np.ndarray, n_heads: int, mt: np.ndarray) -> None:
    """Write one frame's memory [mk, d_attn] into `mt` as [h, head_dim + 1,
    slots], with a last row of ones; the rows of `slot` ([0 or 1, d_attn])
    lead the memory."""
    lead = slot.shape[0]
    dh = x.shape[1] // n_heads
    mt[:, :dh, :lead] = _heads(slot, n_heads).transpose(0, 2, 1)
    mt[:, :dh, lead:] = _heads(x, n_heads).transpose(0, 2, 1)
    mt[:, dh] = 1.0


def _workspace(config: FusionConfig, backward: bool = False) -> dict:
    """One worker's buffers for one frame of `config`.

    xa holds the frame's normalized visual rows, sa its spatial rows and pa
    those of p_o's product p, each with a last column of ones; kv holds the
    keys and values side by side, kt and vt the frame's memory as
    `_memory_t` lays it out, att the attention output transposed,
    [d_attn + 1, mq] with a last row of ones; qa is the frame's augmented
    queries, ow their PV product transposed, [h, head_dim + 1, mq], and e
    is one query tile's score block. For the reverse pass, ow's memory holds
    the frame's augmented cotangent rows instead, [h, mq, head_dim + 1]; g_s
    is a tile's score cotangent, gk and gv sum the key and value cotangents
    head-major, prod takes each tile's share of them and gq is the query
    cotangent.

    The buffers are views of one `empty_buffer` block, so a worker's
    workspace of 1 MiB or more is a mapping of its own, unmapped when the
    pass drops it: it faults in a few huge pages where the kernel has them,
    not one page per 4 KiB of each buffer, and never sits in malloc's heap.
    """
    h, mq, ms, da = config.n_heads, config.m_visual, config.m_spatial, config.d_attn
    mk = ms + config.toggles.camera_memory
    dh = da // h
    tile = min(_tile_rows(h, mk), mq)
    shapes = {"xa": (mq, config.d_visual + 1), "sa": (ms, config.d_spatial + 1),
              "kv": (ms, 2 * da), "kt": (h, dh + 1, mk), "vt": (h, dh + 1, mk),
              "att": (da + 1, mq), "qa": (h, mq, dh + 1), "e": (h, tile, mk),
              "ow": (h, dh + 1, mq), "p": (mq, da), "pa": (mq, da + 1)}
    if backward:
        shapes.update(g_s=(h, tile, mk), gk=(h, mk, dh), gv=(h, mk, dh), prod=(h, mk, dh),
                      gq=(mq, da))
    # each buffer starts on a 64-byte boundary of the block
    padded = {name: -(-math.prod(shape) // 8) * 8 for name, shape in shapes.items()}
    block = empty_buffer((sum(padded.values()),))
    views, start = {}, 0
    for name, shape in shapes.items():
        views[name] = block[start:start + math.prod(shape)].reshape(shape)
        start += padded[name]
    return views


def _exact_shift_rows(qa, kt, vt, o, bad):
    """Recompute a frame's flagged (head, row) pairs shifted by their exact row max.

    `qa` holds the frame's augmented queries, each row's shift negated as its
    last entry, and `o` their product with the augmented V, transposed
    ([h, dh + 1, rows], row sums last); for every pair flagged in `bad`, the
    row's exact shift, negated, overwrites its last entry in `qa`, and its
    product overwrites its column of `o`.
    """
    dh = kt.shape[1] - 1
    for h, r in zip(*np.nonzero(bad)):
        s = qa[h, r, :dh] @ kt[h, :dh]
        qa[h, r, dh] = -s.max()
        o[h, :, r] = np.exp(s + qa[h, r, dh]) @ vt[h].T


def attend(k: np.ndarray, v: np.ndarray, c: np.ndarray, config: FusionConfig,
           ws: dict) -> np.ndarray:
    """One frame's visual queries, whose scaled heads `project_qkvc` left in
    the worker's workspace `ws`, attend over its spatial keys and values
    [ms, d_attn], led by the camera slot c ([1, d_attn]) as both key and
    value when camera_memory is on; returns the output [mq, d_attn + 1],
    whose last column is ones, as a transposed view.

    Multi-head dot-product attention in query tiles. The queries arrive
    already scaled by 1/sqrt(head_dim) (the folded query weight carries the
    scale), so the scores are their plain products with the keys. The keys
    and values, camera slot included, are laid out once as [h, dh + 1, mk]
    with a last row of ones, and each scaled query row gets a last entry -c,
    where c = |q_i| max_j |k_j| bounds every score of the row
    (Cauchy-Schwarz). A tile is then three passes over its [h, rows, mk]
    block: the QK^T GEMM returns scores already shifted by c, `exp` runs in
    place, and the PV GEMM, which writes the product transposed
    ([h, dh + 1, rows], as V^T P^T), returns the row sums z as its last row.
    Everything else runs once per frame: the shifts before the tiles, and
    after them the recompute of a frame's flagged pairs (z < e^-600 or a
    non-finite z) with their exact row max, and the division by z, which
    runs along whole rows of the transposed product. Every tile sees the
    frame's whole memory, so one pass gives the exact softmax.

    `ws` is a worker's `_workspace` for this frame's config, with the scaled
    query heads in the leading columns of its `qa`. The output is its `att`
    buffer, transposed. Its `qa` is left holding the scaled queries, each
    with its row's shift negated as the last entry, `kt` and `vt` the memory
    layout and `ow` the PV product, whose last row is each row's z: from
    these `_attend_vjp` forms the log-sum-exp and recomputes the
    probabilities. No probability tensor is stored.
    """
    slot = c if config.toggles.camera_memory else c[:0]
    if k.shape[0] + slot.shape[0] == 0:
        raise DimensionError(
            "attention memory is empty: no spatial tokens and camera memory disabled"
        )
    n_heads = config.n_heads
    kt, vt, att, qa, ow = (ws[name] for name in ("kt", "vt", "att", "qa", "ow"))
    mq, dh = qa.shape[1], qa.shape[2] - 1
    rows = _tile_rows(n_heads, kt.shape[2])
    _memory_t(k, slot, n_heads, kt)
    _memory_t(v, slot, n_heads, vt)
    k_norm = np.sqrt(np.einsum("hdk,hdk->hk", kt[:, :dh], kt[:, :dh]).max(axis=1))
    qh = qa[..., :dh]
    shift = np.sqrt(np.einsum("hqd,hqd->hq", qh, qh)) * k_norm[:, None]
    # assigned, not np.negative(..., out=): numpy 2.4 misreads a size-1 row axis
    qa[..., dh] = -shift
    for lo in range(0, mq, rows):
        hi = min(lo + rows, mq)
        et = ws["e"][:, :hi - lo]
        np.matmul(qa[:, lo:hi], kt, out=et)
        np.exp(et, out=et)
        # [h, dh + 1, rows]; the last row is z
        np.matmul(vt, et.transpose(0, 2, 1), out=ow[:, :, lo:hi])
    z = ow[:, dh]
    bad = ~((z >= _Z_MIN) & (z < np.inf))
    if bad.any():
        _exact_shift_rows(qa, kt, vt, ow, bad)
    np.divide(ow[:, :dh], ow[:, dh:], out=att[:-1].reshape(n_heads, dh, mq))
    att[-1] = 1.0
    return att.T


def _attend_vjp(g_att: np.ndarray, n_heads: int, ws: dict):
    """Cotangents (gq, gk, gv) of ``<g_att, attend(q, ...)>`` for the frame
    whose `attend` last ran in the backward workspace `ws`, which still
    holds that frame's scaled queries with their negated shifts, memory
    layout, PV product and output.

    gk and gv ([mk, d_attn]) cover the whole memory, the camera slot's row
    first when there is one. Each scaled query's last entry, its row's
    negated shift, less log z is -lse, the negated log-sum-exp, so per query
    tile one GEMM against the memory layout and an in-place `exp` recompute
    the probabilities p; with D = rowsum(g_att * att) the
    cotangent rows carry -D, so one more GEMM gives g_att v^T - D, and the
    score cotangent is p times that. gk and gv are summed head-major, in
    [h, mk, dh] zeros: each tile's GEMM writes into `prod`, which is added
    to them, so tiles add in order onto zeros. The -lse and -D columns are
    written once per frame before the tiles, and gq, written token-major in
    place, is scaled once after them; the heads are merged once, at the end.
    """
    mq, da = g_att.shape
    dh = da // n_heads
    kt, vt, qa = (ws[name] for name in ("kt", "vt", "qa"))
    att = ws["att"][:-1].T
    qa[..., dh] -= np.log(ws["ow"][:, dh])  # z, read before its memory takes the cotangents
    ow = ws["ow"].reshape(n_heads, mq, dh + 1)  # the forward's PV buffer: free now
    gq, gk, gv, prod = ws["gq"], ws["gk"], ws["gv"], ws["prod"]
    rows = _tile_rows(n_heads, kt.shape[2])
    gk.fill(0.0)
    gv.fill(0.0)
    kh = kt[:, :dh].transpose(0, 2, 1)
    goh = ow[..., :dh]
    goh[...] = _heads(g_att, n_heads)
    ow[..., dh] = -(goh * _heads(att, n_heads)).sum(axis=-1)
    gqh = _heads(gq, n_heads)
    for lo in range(0, mq, rows):
        hi = min(lo + rows, mq)
        pt, st = ws["e"][:, :hi - lo], ws["g_s"][:, :hi - lo]
        np.matmul(qa[:, lo:hi], kt, out=pt)
        np.exp(pt, out=pt)
        gv += np.matmul(pt.transpose(0, 2, 1), goh[:, lo:hi], out=prod)
        np.matmul(ow[:, lo:hi], vt, out=st)
        st *= pt
        np.matmul(st, kh, out=gqh[:, lo:hi])
        gk += np.matmul(st.transpose(0, 2, 1), qa[:, lo:hi, :dh], out=prod)
    gq *= _attention_scale(dh)
    return gq, _merge_heads(gk), _merge_heads(gv)


def gate_and_fuse(attended: np.ndarray, gate: np.ndarray | None, visual: np.ndarray,
                  folded: FoldedWeights, ws: dict, out: np.ndarray) -> np.ndarray:
    """Project one frame's attention output `attended` ([mq, d_attn + 1],
    whose last column is ones) back to visual width, scale it by the
    frame's camera gate ([1, d_visual], or None when the gate is off) and
    add the visual residual, writing the result into `out` ([mq, d_visual]);
    returns `out`.

    `folded.wo` is p_o's weight over its bias, so one GEMM gives p_o's
    product p, which goes to the workspace `ws` as ws["p"]; `normalise`
    writes its rows, with a last column of ones, into ws["pa"], and one GEMM
    against `folded.wl` (ln_o's gain and shift and p_l's bias ride in it),
    its columns scaled by the gate, writes the mapped rows into `out`. The
    reverse pass reads p and pa.
    """
    p = np.matmul(attended, folded.wo, out=ws["p"])
    wl = folded.wl
    np.matmul(normalise(p, ws["pa"]), wl if gate is None else wl * gate, out=out)
    out += visual
    return out


# Distinct objects that call the public stages: bench/spans.py wraps every
# module attribute that *is* a traced function, and a frame body, which may
# run on a worker thread, must never enter a wrapper (its span stack is
# global). Calls from the calling thread may use the public names.
_project_qkvc, _geo_bias, _token_weights, _attend, _gate_and_fuse = (
    functools.partial(stage) for stage in
    (project_qkvc, geo_bias, token_weights, attend, gate_and_fuse))


# ---------------------------------------------------------------------------
# the frame pool
# ---------------------------------------------------------------------------

def _usable_cores() -> int:
    """Cores this process may run on; where affinity is unknown, every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _openblas_threads():
    """OpenBLAS's (get, set) thread-count functions, looked up once among the
    libraries this process has loaded; None where there is none (another
    BLAS, or no /proc/self/maps to list the libraries)."""
    try:
        with open("/proc/self/maps") as handle:
            paths = sorted({line.split()[-1] for line in handle
                            if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in itertools.product(("scipy_openblas_", "openblas_"), ("64_", "")):
            get = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _one_blas_thread():
    """Hold OpenBLAS to one thread inside the block; restore the count it had
    on exit, also when the block raises.

    Each pool worker already has a core: a GEMM that started BLAS threads of
    its own would oversubscribe them. One thread also fixes how a GEMM splits
    its sums, so a frame's bytes do not depend on whether it ran pooled or
    serially. The setting is process-global, so for the length of the block
    every BLAS call, from any thread, runs on one thread. Does nothing where
    `_openblas_threads` finds no OpenBLAS.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _pool_size(n: int, mq: int, rows: int) -> int:
    """Worker threads for a pass over n frames of mq queries, in attention
    tiles of `rows` query rows: one per usable core, capped at the frame
    count, and 1 when the whole pass (n * mq queries) fits in one tile."""
    return 1 if n * mq <= rows else min(_usable_cores(), n)


def _over_frames(count: int, n: int, frame, workspace) -> None:
    """Call ``frame(i, ws)`` for every i < n, on `count` threads: this one
    and a pool of count - 1 workers.

    Worker w takes w, w + count, ... and owns the workspace ``workspace()``
    returned for it; the calling thread is worker 0. It builds every
    workspace before dispatch, and takes a share of the frames itself, since
    a pool thread's frees stay in its own malloc arena and count towards
    peak RSS. With a count of 1 everything runs here, in order, with no
    pool. Each pool worker runs in a copy of the caller's context, so the
    caller's `np.errstate` holds there too. OpenBLAS is held to one thread
    for the whole call, pooled or not. An error from any worker propagates
    once all have ended.
    """
    workspaces = [workspace() for _ in range(count)]

    def stride(w):
        for i in range(w, n, count):
            frame(i, workspaces[w])

    with _one_blas_thread():
        if count == 1:
            stride(0)
            return
        with ThreadPoolExecutor(count - 1) as pool:
            futures = [pool.submit(contextvars.copy_context().run, stride, w)
                       for w in range(1, count)]
            stride(0)
            for future in futures:
                future.result()


# ---------------------------------------------------------------------------
# the pass
# ---------------------------------------------------------------------------

# `timings` keys: the forward's stages, then the reverse pass's VJPs in the order they run
_STAGES = ("project", "geo_bias", "token_weight", "attend", "gate_fuse")
_VJPS = ("gate_fuse_vjp", "attend_vjp", "token_weight_vjp", "geo_bias_vjp", "project_vjp")


def _laps(busy: dict | None):
    """A function ``lap(name)`` that adds to `busy[name]` the wall time
    (seconds) since the previous lap, or since this call; it does nothing
    when `busy` is None."""
    if busy is None:
        return lambda name: None
    last = time.perf_counter()

    def lap(name):
        nonlocal last
        now = time.perf_counter()
        busy[name] = busy.get(name, 0.0) + now - last
        last = now

    return lap


def _param_views(flat: np.ndarray, config: FusionConfig) -> dict[str, np.ndarray]:
    """Name -> view of `flat` ([param_count(config)]) shaped as that parameter,
    the parameters laid out in canonical order."""
    views, start = {}, 0
    for name, shape in _param_layout(config):
        size = int(np.prod(shape))
        views[name] = flat[start:start + size].reshape(shape)
        start += size
    return views


def _pass(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig,
          g_out: np.ndarray | None = None, timings: dict | None = None):
    """The fusion pass behind both `fuse` and `fuse_backward`: returns the
    fused array, and with a cotangent `g_out` the tuple (g_visual, g_spatial,
    g_camera, weight gradients by name) in its place.

    One `_over_frames` dispatch runs each frame's body, which projects the
    frame's camera row with its tokens and forms its gate, and, given a
    cotangent, goes straight on to that frame's VJPs. A frame writes its
    input-gradient rows and its partial of every weight gradient into rows
    allocated here; after the pool the partials are summed over frames in
    frame order. `timings` receives busy seconds summed over workers (see
    `fuse` and `fuse_backward`) and changes no result.
    """
    _check_inputs(inputs, config)
    t, w = config.toggles, weights
    xv, xs, xc = inputs.visual.data, inputs.spatial.data, inputs.camera.data
    n, mq, ds = config.n_frames, config.m_visual, config.d_spatial
    mk = config.m_spatial + t.camera_memory
    backward = g_out is not None
    busy = None if timings is None else [{} for _ in range(n)]  # stage seconds, per frame
    # the fused rows; in the reverse pass each frame's visual-gradient rows overwrite its own
    out = empty_buffer(xv.shape)
    if backward:
        g_xs, g_xc = np.zeros_like(xs), np.zeros_like(xc)
        partials = np.zeros((n, param_count(config)))  # per frame, every weight gradient

    folded = fold_weights(w, config)

    def frame(i, ws):
        lap = _laps(None if busy is None else busy[i])
        k, v, c = _project_qkvc(xv[i], xs[i], xc[i], folded, ws)
        lap("project")
        if t.geo_bias:
            bias, gh, ga = _geo_bias(xs[i], xc[i], w)
            k += bias
            v += bias
            del bias
        lap("geo_bias")
        weighted = v
        if t.token_weight:
            tw, th, ta = _token_weights(xs[i], w)
            weighted = v * tw
        lap("token_weight")
        att = _attend(k, weighted, c, config, ws)
        del k, weighted  # now laid out in the workspace; no VJP reads them
        lap("attend")
        gate = None
        if t.gate:
            u, vg = affine(c, w.p_g1), affine(c, w.p_g2)
            su = _swish(u)
            gate = su * vg
        _gate_and_fuse(att, gate, xv[i], folded, ws, out[i])
        lap("gate_fuse")
        if not backward:
            return

        # each residual and each cotangent is dropped at its last read; the camera
        # slot's one-row residuals live on to the gate's and p_c's VJPs, which run last.
        # The layer norms' outputs are rebuilt from the normalized rows in the workspace.
        g = g_out[i]
        part = _param_views(partials[i], config)
        proj = ws["pa"][:, :-1] * w.ln_o.gain + w.ln_o.shift
        # out = (proj @ W + b) * gate + visual: p_l's VJP against the gated map gives
        # g_proj, proj^T g and the sum of g, from which the gate's cotangent and p_l's
        # gradients follow without the mapped rows
        lin = w.p_l if gate is None else LinearMap(w.p_l.weight * gate, w.p_l.bias * gate[0])
        g_proj, g_weight, g_bias = affine_vjp(proj, lin, g)
        del proj
        if t.gate:
            g_gate = (w.p_l.weight * g_weight).sum(axis=0) + w.p_l.bias * g_bias
            g_weight *= gate
            g_bias *= gate[0]
        part["p_l.weight"][...], part["p_l.bias"][...] = g_weight, g_bias
        g_p, part["ln_o.gain"][...], part["ln_o.shift"][...] = layer_norm_vjp(
            ws["p"], w.ln_o, g_proj)
        del g_proj
        g_att, part["p_o.weight"][...], part["p_o.bias"][...] = affine_vjp(
            att[:, :-1], w.p_o, g_p)
        del g_p
        lap("gate_fuse_vjp")

        g_q, g_kmem, g_vmem = _attend_vjp(g_att, config.n_heads, ws)
        del g_att
        lead = int(t.camera_memory)  # the camera slot's rows: 1, or 0 without camera_memory
        g_c = np.zeros_like(c)  # the camera slot's cotangent
        g_c[:lead] = g_kmem[:lead] + g_vmem[:lead]
        g_k, g_v = g_kmem[lead:], g_vmem[lead:]
        del g_kmem, g_vmem  # each lives on only through its view, g_k or g_v
        lap("attend_vjp")

        # the queries' VJPs come next: g_q is in the workspace, and out[i] is
        # read no more, so its rows take the visual gradient now
        lnv = ws["xa"][:, :-1] * w.ln_v.gain + w.ln_v.shift
        g_lnv, part["p_q.weight"][...], part["p_q.bias"][...] = affine_vjp(lnv, w.p_q, g_q)
        del lnv
        g_xv_ln, part["ln_v.gain"][...], part["ln_v.shift"][...] = layer_norm_vjp(
            xv[i], w.ln_v, g_lnv)
        del g_lnv
        np.add(g, g_xv_ln, out=out[i])
        del g_xv_ln
        lap("project_vjp")

        if t.token_weight:
            g_tz = (g_v * v).sum(axis=-1, keepdims=True) * tw * (1.0 - tw)
            del v
            g_v = g_v * tw
            g_ta, part["tw_mlp.1.weight"][...], part["tw_mlp.1.bias"][...] = affine_vjp(
                ta, w.tw_mlp[1], g_tz)
            del ta, g_tz
            g_xs_tw, part["tw_mlp.0.weight"][...], part["tw_mlp.0.bias"][...] = affine_vjp(
                xs[i], w.tw_mlp[0], _swish_vjp(th, g_ta))
            del th, g_ta
            g_xs[i] += g_xs_tw
            del g_xs_tw
        lap("token_weight_vjp")

        if t.geo_bias:  # the bias enters both keys and values
            g_ga, part["geo_mlp.1.weight"][...], part["geo_mlp.1.bias"][...] = affine_vjp(
                ga, w.geo_mlp[1], g_k + g_v)
            del ga
            g_gh = _swish_vjp(gh, g_ga)
            del gh, g_ga
            # the camera half maps one row, whose cotangent is also the bias gradient
            w_s, w_c = w.geo_mlp[0].weight[:ds], w.geo_mlp[0].weight[ds:]
            g_row = g_gh.sum(axis=0)
            part["geo_mlp.0.weight"][:ds] = xs[i].T @ g_gh
            part["geo_mlp.0.weight"][ds:] = xc[i].T * g_row
            part["geo_mlp.0.bias"][...] = g_row
            g_xs[i] += g_gh @ w_s.T
            del g_gh
            g_xc[i] += g_row @ w_c.T
        lap("geo_bias_vjp")

        lns = ws["sa"][:, :-1] * w.ln_s.gain + w.ln_s.shift
        g_lns_k, part["p_k.weight"][...], part["p_k.bias"][...] = affine_vjp(lns, w.p_k, g_k)
        del g_k
        g_lns_v, part["p_v.weight"][...], part["p_v.bias"][...] = affine_vjp(lns, w.p_v, g_v)
        del lns, g_v
        g_lns_k += g_lns_v
        del g_lns_v
        g_xs_ln, part["ln_s.gain"][...], part["ln_s.shift"][...] = layer_norm_vjp(
            xs[i], w.ln_s, g_lns_k)
        g_xs[i] += g_xs_ln
        lap("project_vjp")

        if t.gate:  # the gate's two branches both read the camera slot
            g_c1, part["p_g1.weight"][...], part["p_g1.bias"][...] = affine_vjp(
                c, w.p_g1, _swish_vjp(u, g_gate * vg))
            g_c2, part["p_g2.weight"][...], part["p_g2.bias"][...] = affine_vjp(
                c, w.p_g2, g_gate * su)
            g_c += g_c1 + g_c2
        lap("gate_fuse_vjp")
        g_xc_c, part["p_c.weight"][...], part["p_c.bias"][...] = affine_vjp(xc[i], w.p_c, g_c)
        g_xc[i] += g_xc_c
        lap("project_vjp")

    count = _pool_size(n, mq, _tile_rows(config.n_heads, mk))
    _over_frames(count, n, frame, functools.partial(_workspace, config, backward))
    if busy is not None:
        totals = {name: sum(b.get(name, 0.0) for b in busy) for name in _STAGES + _VJPS}
        if backward:
            timings["forward"] = sum(totals[name] for name in _STAGES)
        timings.update((name, totals[name]) for name in (_VJPS if backward else _STAGES))
    return (out, g_xs, g_xc, _param_views(partials.sum(axis=0), config)) if backward else out


def fuse(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig,
         timings: dict | None = None) -> TokenTensor:
    """Full fusion pipeline; output shape equals the visual stream's shape.

    When a `timings` dict is passed, each stage's busy time (seconds) is
    recorded into it under project, geo_bias, token_weight, attend and
    gate_fuse: the stage's time in every frame body, summed over worker
    threads (so with several workers the sum exceeds the wall time). The
    camera row's projection counts under project, the gate under gate_fuse.
    """
    out = _pass(inputs, weights, config, timings=timings)
    try:
        return TokenTensor(out)
    except ValueError as exc:
        raise ValueError(f"fused output: {exc}") from None


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def fuse_backward(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig,
                  cotangent: TokenTensor, timings: dict | None = None):
    """Analytic gradients of ``<cotangent, fuse(inputs)>``.

    Returns (input_grads, weight_grads): a FusionInputs holding gradients for
    the visual/spatial/camera streams and a FusionWeights holding a gradient
    array per parameter. Disabled branches contribute zero gradients of the
    right shape.

    Each frame runs its forward and at once its VJPs, dropping each residual
    and each cotangent at its last read: memory is the returned gradients, a
    per-frame partial of every weight gradient (summed over frames after the
    pool) and, per worker, the backward workspace plus about 8 arrays of one
    frame's tokens at attention width.

    When a `timings` dict is passed, busy times (seconds) are recorded into
    it under forward, gate_fuse_vjp, attend_vjp, token_weight_vjp,
    geo_bias_vjp and project_vjp: each part's time in every frame body,
    summed over worker threads (so with several workers the sum exceeds the
    wall time). The camera row's VJP counts under project_vjp, the gate's
    under gate_fuse_vjp.
    """
    if cotangent.shape != inputs.visual.shape:
        raise DimensionError(
            f"cotangent shape {cotangent.shape} != visual shape {inputs.visual.shape}"
        )
    g_xv, g_xs, g_xc, grads = _pass(inputs, weights, config, cotangent.data, timings)
    input_grads = FusionInputs(
        visual=TokenTensor(g_xv),
        spatial=TokenTensor(g_xs),
        camera=TokenTensor(g_xc),
    )
    return input_grads, weights_from_arrays(grads)
