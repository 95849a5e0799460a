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

Every forward stage is called on the calling thread and sends its per-frame
body through one frame pool (`_over_frames`): one thread per usable core,
the calling thread among them, each frame writing only its own slices of
outputs and residuals that the calling thread allocated before dispatch. A
frame's arithmetic does not depend on the thread that runs it, so results
are the same bit for bit at every worker count. The camera-row GEMMs (`p_c`,
`p_g1`, `p_g2`) stay batched on the calling thread: a one-row GEMM returns
different bytes. While a pool runs, OpenBLAS is held to one thread for the
whole process, so that workers do not start BLAS threads of their own on
cores that are already busy. One rule, a function of the config, decides for
the whole pass: when a frame fits in one attention tile, every stage runs
serially on the calling thread, the token-wise ones in blocks of frames of
about the tile budget. No function that bench/spans.py traces runs on a pool
thread, since its span stack is global: the bodies call only `affine`,
`layer_norm`, `tensor._sigmoid` and `tensor._swish`. The reverse pass pools
only its attention VJP: summing weight gradients frame by frame would change
their summation order, and so their bytes.

Attention walks each frame's queries in row tiles sized so that one tile's
[heads, rows, memory] score block stays about 2 MiB. Each worker has its own
tile-sized workspace, so memory is bounded by one tile per worker in both
passes. Per frame the keys and values (with the camera slot written in as
slot 0) are laid out once as augmented buffers with a row of ones, so a
tile makes three passes over its score block: the QK^T GEMM, an
in-place `exp` and the PV GEMM. The softmax shift rides in the first GEMM:
each query row carries -c, where c = |q| max|k| bounds the row's scores by
Cauchy-Schwarz. The row sum rides in the second, as its last column. Rows
whose shifted sum falls below e^-600 are redone with their exact row max.
The reverse pass keeps no probability tensor: the forward saves each query
row's log-sum-exp ([frames, heads, queries]), which the backward folds into
its QK^T GEMM the same way to recompute the probabilities tile by tile. The
backward sums the key and value cotangents head-major, as [frames, heads,
memory, head_dim]: each tile writes its share into a per-worker product
buffer and adds that to the frame's contiguous rows, and the heads are
merged into [frames, memory, d_attn] once, after the pool has returned.

The output always has the visual stream's shape, so the module can sit in
front of a downstream consumer without changing its interface.

Streams enter as `TokenTensor`s (finite, rank 3, float64) inside a
`FusionInputs`, shaped as `stream_shapes(config)` states, and `fuse` /
`fuse_backward` check them and return `TokenTensor`s. Between those
boundaries the five stages (`project_qkvc`, `geo_bias`, `token_weights`,
`attend`, `gate_and_fuse`) take plain float64 arrays, return them or (keys
and values, for the geo bias and token weights) update them in place, and
validate nothing.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import itertools
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
    affine,
    affine_vjp,
    layer_norm,
    layer_norm_vjp,
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


def _kept(saved: dict | None, **shapes) -> dict:
    """Allocate the full-size residuals whose frames a stage fills, and record
    them in `saved`; none without `saved`.

    They are allocated here, on the calling thread, before any frame runs.
    """
    if saved is None:
        return {}
    arrays = {name: np.empty(shape) for name, shape in shapes.items()}
    saved.update(arrays)
    return arrays


def _keep_frames(kept: dict, name: str, f: slice, value: np.ndarray) -> np.ndarray:
    """Write `value` as frames `f` of residual `name` when residuals are kept;
    returns `value`, so that it can be used inside expressions."""
    if kept:
        kept[name][f] = value
    return value


def project_qkvc(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig, *,
                 saved: dict | None = None):
    """Project the three streams into the shared attention space; returns
    the arrays (q, k, v, c).

    Visual and spatial tokens are layer-normalized first; the camera token is
    projected raw, in one GEMM over every frame's camera row.
    """
    xv, xs = inputs.visual.data, inputs.spatial.data
    q = np.empty(xv.shape[:2] + (config.d_attn,))
    k = np.empty(xs.shape[:2] + (config.d_attn,))
    v = np.empty_like(k)
    kept = _kept(saved, lnv=xv.shape, lns=xs.shape)

    def body(f):
        q[f] = affine(_keep_frames(kept, "lnv", f, layer_norm(xv[f], weights.ln_v)), weights.p_q)
        lns = _keep_frames(kept, "lns", f, layer_norm(xs[f], weights.ln_s))
        k[f] = affine(lns, weights.p_k)
        v[f] = affine(lns, weights.p_v)

    _stage_frames(config, body)
    return q, k, v, affine(inputs.camera.data, weights.p_c)


def geo_bias(k: np.ndarray, v: np.ndarray, spatial: np.ndarray, camera: np.ndarray,
             weights: FusionWeights, config: FusionConfig, *, saved: dict | None = None) -> None:
    """Add the camera-conditioned bias over spatial tokens to the keys `k`
    and values `v`, in place.

    The bias is an MLP over each spatial token concatenated, along width,
    with its frame's camera row.
    """
    n, ms, ds = spatial.shape
    kept = _kept(saved, gin=(n, ms, 2 * ds), gh=k.shape, ga=k.shape)

    def body(f):
        gin = np.concatenate([spatial[f], np.broadcast_to(camera[f], spatial[f].shape)], axis=-1)
        gh = _keep_frames(kept, "gh", f, affine(_keep_frames(kept, "gin", f, gin),
                                                weights.geo_mlp[0]))
        bias = affine(_keep_frames(kept, "ga", f, _swish(gh)), weights.geo_mlp[1])
        k[f] += bias
        v[f] += bias

    _stage_frames(config, body)


def token_weights(v: np.ndarray, spatial: np.ndarray, weights: FusionWeights,
                  config: FusionConfig, *, saved: dict | None = None) -> np.ndarray:
    """Query-independent importance in (0,1) for each spatial token; scales
    the values `v` by it in place and returns it ([frames, tokens, 1])."""
    tw = _keep(saved, "tw", np.empty(spatial.shape[:2] + (1,)))
    kept = _kept(saved, th=v.shape, ta=v.shape, v_unweighted=v.shape)

    def body(f):
        th = _keep_frames(kept, "th", f, affine(spatial[f], weights.tw_mlp[0]))
        tw[f] = _sigmoid(affine(_keep_frames(kept, "ta", f, _swish(th)), weights.tw_mlp[1]))
        _keep_frames(kept, "v_unweighted", f, v[f])
        v[f] *= tw[f]

    _stage_frames(config, body)
    return tw


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
    """[..., h, tokens, head_dim] -> [..., tokens, d_attn]; leading axes are kept."""
    return xh.swapaxes(-3, -2).reshape(xh.shape[:-3] + (xh.shape[-2], -1))


def _memory_t(x: np.ndarray, slot: np.ndarray, n_heads: int, mt: np.ndarray) -> None:
    """Write one frame's memory [mk, d_attn] into `mt` as [h, head_dim + 1,
    slots], with a last row of ones; the rows of `slot` ([0 or 1, d_attn])
    lead the memory."""
    lead = slot.shape[0]
    dh = x.shape[1] // n_heads
    mt[:, :dh, :lead] = _heads(slot, n_heads).transpose(0, 2, 1)
    mt[:, :dh, lead:] = _heads(x, n_heads).transpose(0, 2, 1)
    mt[:, dh] = 1.0


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
    its own would oversubscribe them. The setting is process-global, so for
    the length of the block every BLAS call, from any thread, runs on one
    thread. Does nothing where `_openblas_threads` finds no OpenBLAS.
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
    count, and 1 when a frame fits in one tile."""
    return 1 if mq <= rows else min(_usable_cores(), n)


def _over_frames(count: int, n: int, frame, shapes) -> None:
    """Call ``frame(i, *buffers)`` for every i < n, on `count` threads: this
    one and a pool of count - 1 workers.

    Worker w takes w, w + count, ... and owns one float64 buffer per entry
    of `shapes`; the calling thread is worker 0. It allocates every buffer
    before dispatch, and takes a share of the frames itself, since a pool
    thread's frees stay in its own malloc arena and count towards peak RSS.
    With a count of 1 everything runs here, in order, with no pool. Each pool
    worker runs in a copy of the caller's context, so the caller's
    `np.errstate` holds there too, and OpenBLAS is held to one thread while
    the pool runs. An error from any worker propagates once all have ended.
    """
    workspaces = [[np.empty(shape) for shape in shapes] for _ in range(count)]

    def stride(w):
        for i in range(w, n, count):
            frame(i, *workspaces[w])

    if count == 1:
        stride(0)
        return
    with _one_blas_thread(), ThreadPoolExecutor(count - 1) as pool:
        futures = [pool.submit(contextvars.copy_context().run, stride, w)
                   for w in range(1, count)]
        stride(0)
        for future in futures:
            future.result()


def _stage_frames(config: FusionConfig, body) -> None:
    """Call a token-wise stage's ``body(f)`` over slices `f` of frames that
    together cover every frame.

    `_pool_size` decides from the config alone, so every stage of a pass
    makes attention's choice. Pooled, each call takes one frame. Serially the
    frames go in blocks of about `_TILE_BYTES`, counted as tokens times the
    widest width any stage reaches: tiny frames then cost one call for all,
    and large ones keep their temporaries in cache.
    """
    n = config.n_frames
    memory = config.m_spatial + config.toggles.camera_memory
    count = _pool_size(n, config.m_visual, _tile_rows(config.n_heads, memory))
    frame_bytes = 8 * (config.m_visual + config.m_spatial) * max(
        config.d_visual, 2 * config.d_spatial, config.d_attn)
    block = 1 if count > 1 else max(1, _TILE_BYTES // frame_bytes)
    _over_frames(count, -(-n // block), lambda b: body(slice(b * block, (b + 1) * block)), [])


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

    Frames run on worker threads (`_over_frames`), each writing only its own
    slices of the output and `lse`. No traced function may be called from
    a frame: bench/spans.py keeps one global span stack. The result is the
    same, bit for bit, at every worker count.
    """
    n, mq, da = q.shape
    dh = da // n_heads
    mk = k.shape[1] + slot.shape[1]
    scale = 1.0 / np.sqrt(dh)
    rows = _tile_rows(n_heads, mk)
    out = np.empty_like(q)

    def frame(i, kt, vt, qa, e):
        _memory_t(k[i], slot[i], n_heads, kt)
        _memory_t(v[i], slot[i], n_heads, vt)
        k_norm = np.sqrt(np.einsum("hdk,hdk->hk", kt[:, :dh], kt[:, :dh]).max(axis=1))
        for lo in range(0, mq, rows):
            hi = min(lo + rows, mq)
            qt, et = qa[:, :hi - lo], e[:, :hi - lo]
            qh = qt[..., :dh]
            np.multiply(_heads(q[i, lo:hi], n_heads), scale, out=qh)
            shift = np.sqrt(np.einsum("hqd,hqd->hq", qh, qh)) * k_norm[:, None]
            # assigned, not np.negative(..., out=): numpy 2.4 misreads a size-1 row axis
            qt[..., dh] = -shift
            np.matmul(qt, kt, out=et)
            np.exp(et, out=et)
            o = et @ vt.transpose(0, 2, 1)  # [h, rows, dh + 1]; the last column is z
            z = o[..., dh]
            bad = ~((z >= _Z_MIN) & (z < np.inf))
            if bad.any():
                _exact_shift_rows(qt, kt, vt, o, shift, bad)
            out[i, lo:hi] = _merge_heads(o[..., :dh] / o[..., dh:])
            if lse is not None:
                lse[i, :, lo:hi] = shift + np.log(z)

    memory, tile = (n_heads, dh + 1, mk), min(rows, mq)
    _over_frames(_pool_size(n, mq, rows), n, frame,
                 [memory, memory, (n_heads, tile, dh + 1), (n_heads, tile, mk)])
    return out


def _attention_vjp_raw(q, k, v, slot, out, lse, n_heads, g_out):
    """Cotangents (gq, gk, gv) of ``<g_out, attention(q, k, v)>``.

    `out` and `lse` are the forward's output and row log-sum-exps. gk and gv
    cover the whole memory: `slot`'s rows first, then k's and v's rows. The
    memory is laid out as in the forward, with a ones row under
    K^T and V^T. Per query tile the scaled queries carry a last entry -lse,
    so one GEMM and an in-place `exp` recompute the probabilities p; with
    D = rowsum(g_out * out) the cotangent rows carry -D, so one more GEMM
    gives g_out v^T - D, and the score cotangent is p times that. gk and gv
    are summed head-major, in [n, h, mk, dh] zeros: each tile's GEMM writes
    into the worker's `prod` buffer, which is added to the frame's
    contiguous [h, mk, dh] block, so tiles still add in order onto zeros.
    The heads are merged once, after the pool has returned. Frames run on
    worker threads, as in the forward.
    """
    n, mq, da = q.shape
    dh = da // n_heads
    scale = 1.0 / np.sqrt(dh)
    mk = k.shape[1] + slot.shape[1]
    rows = _tile_rows(n_heads, mk)
    gq = np.empty_like(q)
    gk = np.zeros((n, n_heads, mk, dh))
    gv = np.zeros((n, n_heads, mk, dh))

    def frame(i, kt, vt, qa, ga, p, g_s, prod):
        _memory_t(k[i], slot[i], n_heads, kt)
        _memory_t(v[i], slot[i], n_heads, vt)
        kh = kt[:, :dh].transpose(0, 2, 1)
        for lo in range(0, mq, rows):
            hi = min(lo + rows, mq)
            qt, gt, pt, st = (buffer[:, :hi - lo] for buffer in (qa, ga, p, g_s))
            qh, goh = qt[..., :dh], gt[..., :dh]
            np.multiply(_heads(q[i, lo:hi], n_heads), scale, out=qh)
            qt[..., dh] = -lse[i, :, lo:hi]
            goh[...] = _heads(g_out[i, lo:hi], n_heads)
            gt[..., dh] = -(goh * _heads(out[i, lo:hi], n_heads)).sum(axis=-1)
            np.matmul(qt, kt, out=pt)
            np.exp(pt, out=pt)
            gv[i] += np.matmul(pt.transpose(0, 2, 1), goh, out=prod)
            np.matmul(gt, vt, out=st)
            st *= pt
            gq[i, lo:hi] = _merge_heads(st @ kh) * scale
            gk[i] += np.matmul(st.transpose(0, 2, 1), qh, out=prod)

    memory, tile = (n_heads, dh + 1, mk), min(rows, mq)
    _over_frames(_pool_size(n, mq, rows), n, frame,
                 [memory, memory, (n_heads, tile, dh + 1), (n_heads, tile, dh + 1),
                  (n_heads, tile, mk), (n_heads, tile, mk), (n_heads, mk, dh)])
    return gq, _merge_heads(gk), _merge_heads(gv)


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
    camera embedding, and add the visual residual.

    The gate comes from one GEMM per gate weight over every frame's camera
    row, on the calling thread.
    """
    gate = None
    if config.toggles.gate:
        cbar = _keep(saved, "cbar", c[:, 0, :])
        u = _keep(saved, "u", affine(cbar, weights.p_g1))
        vg = _keep(saved, "vg", affine(cbar, weights.p_g2))
        gate = _keep(saved, "gate", _keep(saved, "su", swish(u)) * vg)
    _keep(saved, "fhat", attended)
    out = np.empty_like(visual)
    kept = _kept(saved, p=attended.shape, fproj=attended.shape, mapped=visual.shape)

    def body(f):
        p = _keep_frames(kept, "p", f, affine(attended[f], weights.p_o))
        proj = _keep_frames(kept, "fproj", f, layer_norm(p, weights.ln_o))
        mapped = _keep_frames(kept, "mapped", f, affine(proj, weights.p_l))
        out[f] = mapped + visual[f] if gate is None else mapped * gate[f, None] + visual[f]

    _stage_frames(config, body)
    return out


def _laps(timings: dict | None):
    """A function ``lap(name)`` that records under `name` in `timings` the
    wall time (seconds) since the previous lap, or since this call; it does
    nothing when `timings` is None."""
    if timings is None:
        return lambda name: None
    last = time.perf_counter()

    def lap(name):
        nonlocal last
        now = time.perf_counter()
        timings[name] = now - last
        last = now

    return lap


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
    lap = _laps(timings)
    q, k, v, c = project_qkvc(inputs, weights, config, saved=saved)
    lap("project")
    if t.geo_bias:
        geo_bias(k, v, xs, inputs.camera.data, weights, config, saved=saved)
    lap("geo_bias")
    if t.token_weight:
        token_weights(v, xs, weights, config, saved=saved)
    lap("token_weight")
    attended = attend(q, k, v, c, config, saved=saved)
    lap("attend")
    out = gate_and_fuse(attended, c, inputs.visual.data, weights, config, saved=saved)
    lap("gate_fuse")
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
                  cotangent: TokenTensor, timings: dict | None = None):
    """Analytic gradients of ``<cotangent, fuse(inputs)>``.

    Returns (input_grads, weight_grads): a FusionInputs holding gradients for
    the visual/spatial/camera streams and a FusionWeights holding a gradient
    array per parameter. Disabled branches contribute zero gradients of the
    right shape.

    When a `timings` dict is passed, the wall times (seconds) of the forward
    pass and of each stage's VJP, in the order they run, are recorded into
    it: forward, gate_fuse_vjp, attend_vjp, token_weight_vjp, geo_bias_vjp
    and project_vjp.
    """
    if cotangent.shape != inputs.visual.shape:
        raise DimensionError(
            f"cotangent shape {cotangent.shape} != visual shape {inputs.visual.shape}"
        )
    lap = _laps(timings)
    s: dict = {}
    _forward(inputs, weights, config, saved=s)
    lap("forward")
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
    lap("gate_fuse_vjp")

    # the attention residuals are not read again: popped, they are freed on return
    lead = s["c"].shape[1]  # the camera slot's rows: 1, or 0 without camera_memory
    g_q, g_kmem, g_vmem = _attention_vjp_raw(s.pop("q"), s.pop("k"), s.pop("v"), s.pop("c"),
                                             s.pop("fhat"), s.pop("lse"), config.n_heads, g_fhat)
    g_c[:, :lead] += g_kmem[:, :lead] + g_vmem[:, :lead]
    g_k, g_v = g_kmem[:, lead:], g_vmem[:, lead:]
    lap("attend_vjp")

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
    lap("token_weight_vjp")

    if t.geo_bias:  # the bias enters both keys and values
        g_ga, grads["geo_mlp.1.weight"], grads["geo_mlp.1.bias"] = affine_vjp(
            s.pop("ga"), w.geo_mlp[1], g_k + g_v)
        g_gin, grads["geo_mlp.0.weight"], grads["geo_mlp.0.bias"] = affine_vjp(
            s.pop("gin"), w.geo_mlp[0], swish_vjp(s.pop("gh"), g_ga))
        ds = xs.shape[2]
        g_xs += g_gin[..., :ds]
        g_xc += g_gin[..., ds:].sum(axis=1, keepdims=True)
    lap("geo_bias_vjp")

    g_lns_k, grads["p_k.weight"], grads["p_k.bias"] = affine_vjp(s["lns"], w.p_k, g_k)
    g_lns_v, grads["p_v.weight"], grads["p_v.bias"] = affine_vjp(s.pop("lns"), w.p_v, g_v)
    g_xs_ln, grads["ln_s.gain"], grads["ln_s.shift"] = layer_norm_vjp(xs, w.ln_s, g_lns_k + g_lns_v)
    g_xs += g_xs_ln

    g_xc_c, grads["p_c.weight"], grads["p_c.bias"] = affine_vjp(xc, w.p_c, g_c)
    g_xc += g_xc_c

    g_lnv, grads["p_q.weight"], grads["p_q.bias"] = affine_vjp(s.pop("lnv"), w.p_q, g_q)
    g_xv_ln, grads["ln_v.gain"], grads["ln_v.shift"] = layer_norm_vjp(xv, w.ln_v, g_lnv)
    g_xv += g_xv_ln
    lap("project_vjp")

    input_grads = FusionInputs(
        visual=TokenTensor(g_xv),
        spatial=TokenTensor(g_xs),
        camera=TokenTensor(g_xc),
    )
    return input_grads, weights_from_arrays(grads)
