"""Deterministic single-file persistence for tensors and configs.

Container layout (one file):

    line 1   UTF-8 JSON object terminated by "\\n" with keys
               format_version  int, currently 1
               tensors         {name: {dtype, shape, byte_offset, byte_length}}
                               in blob order; dtype is "f32" or "f64"
               meta            free-form JSON (strings / numbers / maps)
    rest     little-endian tensor payloads, densely packed in header order;
             byte_offset is relative to the end of the header line

The header stays diffable with text tools; payloads round-trip bit-exactly,
and re-serializing a loaded container reproduces the file byte for byte.

Config files are plain JSON documents; see load_config for the field names.
"""

from __future__ import annotations

import json
import math
from collections import OrderedDict

import numpy as np

from .fusion import (
    ConfigError,
    FusionConfig,
    FusionInputs,
    FusionToggles,
    FusionWeights,
    LAYER_NORM_GROUPS,
    iter_params,
    layer_norm_epsilons,
    param_shapes,
    weights_from_arrays,
)
from .tensor import TokenTensor

__all__ = [
    "ContainerError",
    "FORMAT_VERSION",
    "save_container",
    "load_container",
    "save_weights",
    "load_weights",
    "save_token_streams",
    "load_token_streams",
    "load_config",
    "save_config",
]

FORMAT_VERSION = 1

_DTYPE_TAGS = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_TAGS_BY_KIND = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class ContainerError(ValueError):
    """Container file missing, malformed, or inconsistent."""


def save_container(path, tensors, meta=None) -> None:
    """Write named arrays plus metadata; insertion order fixes the blob order."""
    entries = OrderedDict()
    payloads = []
    offset = 0
    for name, array in tensors.items():
        arr = np.asarray(array)
        tag = _TAGS_BY_KIND.get(arr.dtype)
        if tag is None:
            raise ContainerError(f"tensor {name!r}: unsupported dtype {arr.dtype}")
        blob = np.ascontiguousarray(arr, dtype=_DTYPE_TAGS[tag]).tobytes()
        entries[name] = {
            "dtype": tag,
            "shape": list(arr.shape),
            "byte_offset": offset,
            "byte_length": len(blob),
        }
        payloads.append(blob)
        offset += len(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "tensors": entries,
        "meta": meta or {},
    }
    try:
        with open(path, "wb") as handle:
            handle.write(json.dumps(header, separators=(",", ":")).encode("utf-8"))
            handle.write(b"\n")
            for blob in payloads:
                handle.write(blob)
    except OSError as exc:
        raise ContainerError(f"cannot write container {path}: {exc}") from exc


def load_container(path):
    """Read a container; returns (name -> array in header order, meta dict).

    Any inconsistency (bad header, wrong version, non-dense offsets, or a
    payload whose size disagrees with the header) raises ContainerError and
    nothing is returned, so there is no partial result to misuse.
    """
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ContainerError(f"cannot read container {path}: {exc}") from exc
    newline = raw.find(b"\n")
    if newline < 0:
        raise ContainerError(f"{path}: no header line found")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ContainerError(f"{path}: header is not valid JSON ({exc})") from None
    if not isinstance(header, dict) or "format_version" not in header:
        raise ContainerError(f"{path}: header lacks a format_version")
    if header["format_version"] != FORMAT_VERSION:
        raise ContainerError(
            f"{path}: unsupported format version {header['format_version']!r} "
            f"(this reader handles {FORMAT_VERSION})"
        )
    blob = raw[newline + 1:]
    tensors = OrderedDict()
    expected_offset = 0
    for name, entry in header.get("tensors", {}).items():
        try:
            tag = entry["dtype"]
            shape = tuple(int(d) for d in entry["shape"])
            byte_offset = int(entry["byte_offset"])
            byte_length = int(entry["byte_length"])
        except (KeyError, TypeError, ValueError):
            raise ContainerError(f"{path}: malformed entry for tensor {name!r}") from None
        dtype = _DTYPE_TAGS.get(tag)
        if dtype is None:
            raise ContainerError(f"{path}: tensor {name!r} has unknown dtype {tag!r}")
        if byte_offset != expected_offset:
            raise ContainerError(
                f"{path}: tensor {name!r} offset {byte_offset} is not densely packed"
            )
        count = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if byte_length != count * dtype.itemsize:
            raise ContainerError(
                f"{path}: tensor {name!r} byte_length {byte_length} does not match "
                f"shape {shape}"
            )
        if byte_offset + byte_length > len(blob):
            raise ContainerError(f"{path}: truncated payload at tensor {name!r}")
        data = np.frombuffer(blob, dtype=dtype, count=count, offset=byte_offset)
        tensors[name] = data.reshape(shape).copy()
        expected_offset += byte_length
    if expected_offset != len(blob):
        raise ContainerError(
            f"{path}: payload has {len(blob)} bytes but header accounts for {expected_offset}"
        )
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ContainerError(f"{path}: meta must be a JSON object")
    return tensors, meta


# ---------------------------------------------------------------------------
# fusion weights
# ---------------------------------------------------------------------------

def save_weights(weights: FusionWeights, path) -> None:
    """Persist a canonical weight set (one tensor per parameter array)."""
    tensors = OrderedDict(iter_params(weights))
    meta = {"kind": "fusion-weights", "epsilons": layer_norm_epsilons(weights)}
    save_container(path, tensors, meta)


def _check_epsilons(path, epsilons) -> dict:
    """meta.epsilons: layer-norm group -> finite number > 0 (a bool is not one)."""
    if not isinstance(epsilons, dict):
        raise ContainerError(f"{path}: meta key 'epsilons' must be a JSON object")
    for name, value in epsilons.items():
        try:
            valid = (name in LAYER_NORM_GROUPS and not isinstance(value, bool)
                     and isinstance(value, (int, float)) and math.isfinite(value) and value > 0)
        except OverflowError:  # an integer beyond the float range
            valid = False
        if not valid:
            raise ContainerError(f"{path}: meta key 'epsilons.{name}' must be a finite number "
                                 f"> 0 for one of {list(LAYER_NORM_GROUPS)}, got {value!r}")
    return epsilons


def load_weights(path, expected: FusionConfig, strict: bool = True) -> FusionWeights:
    """Load weights and validate every tensor's shape against the config.

    Strict mode (the default) rejects unknown tensor names; permissive mode
    ignores them. float32 payloads are widened exactly to float64. An
    optional meta "epsilons" object maps layer-norm groups to their epsilon;
    a group it leaves out gets the default.
    """
    tensors, meta = load_container(path)
    shapes = param_shapes(expected)
    unknown = [name for name in tensors if name not in shapes]
    if unknown and strict:
        raise ContainerError(f"{path}: unknown tensor(s) {unknown}")
    missing = [name for name in shapes if name not in tensors]
    if missing:
        raise ContainerError(f"{path}: missing tensor(s) {missing}")
    arrays = {}
    for name, shape in shapes.items():
        arr = tensors[name]
        if arr.shape != shape:
            raise ContainerError(
                f"{path}: tensor {name!r} has shape {arr.shape}, expected {shape}"
            )
        arrays[name] = arr.astype(np.float64)
    return weights_from_arrays(arrays, epsilons=_check_epsilons(path, meta.get("epsilons", {})))


# ---------------------------------------------------------------------------
# token streams
# ---------------------------------------------------------------------------

_STREAM_NAMES = ("visual", "spatial", "camera", "register")


def save_token_streams(inputs: FusionInputs, path, meta=None) -> None:
    tensors = OrderedDict()
    for name in _STREAM_NAMES:
        stream = getattr(inputs, name)
        if stream is not None:
            tensors[name] = stream.data
    payload = {"kind": "token-streams"}
    payload.update(meta or {})
    save_container(path, tensors, payload)


def load_token_streams(path) -> tuple[FusionInputs, dict]:
    tensors, meta = load_container(path)
    missing = [n for n in ("visual", "spatial", "camera") if n not in tensors]
    if missing:
        raise ContainerError(f"{path}: missing stream(s) {missing}")
    unknown = [n for n in tensors if n not in _STREAM_NAMES]
    if unknown:
        raise ContainerError(f"{path}: unknown stream(s) {unknown}")
    register = tensors.get("register")
    inputs = FusionInputs(
        visual=TokenTensor(tensors["visual"].astype(np.float64)),
        spatial=TokenTensor(tensors["spatial"].astype(np.float64)),
        camera=TokenTensor(tensors["camera"].astype(np.float64)),
        register=TokenTensor(register.astype(np.float64)) if register is not None else None,
    )
    return inputs, meta


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_CONFIG_INT_FIELDS = ("n_frames", "m_visual", "m_spatial", "d_visual",
                      "d_spatial", "d_attn", "n_heads")
_TOGGLE_FIELDS = ("geo_bias", "token_weight", "camera_memory", "gate")


def load_config(path) -> tuple[FusionConfig, int]:
    """Parse a JSON config document into (FusionConfig, seed).

    Expected fields: the seven integer dimensions, an optional integer
    "seed" (default 0), and an optional "toggles" object with boolean
    members geo_bias / token_weight / camera_memory / gate (default true).
    Problems are reported per field.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object")

    known = set(_CONFIG_INT_FIELDS) | {"seed", "toggles"}
    unknown = [k for k in payload if k not in known]
    if unknown:
        raise ConfigError(f"{path}: unknown config field(s) {unknown}")

    values = {}
    for name in _CONFIG_INT_FIELDS:
        if name not in payload:
            raise ConfigError(f"{path}: missing config field '{name}'")
        value = payload[name]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{path}: config field '{name}': expected integer, got {value!r}")
        values[name] = value

    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError(f"{path}: config field 'seed': expected integer, got {seed!r}")

    toggle_payload = payload.get("toggles", {})
    if not isinstance(toggle_payload, dict):
        raise ConfigError(f"{path}: config field 'toggles': expected object")
    unknown = [k for k in toggle_payload if k not in _TOGGLE_FIELDS]
    if unknown:
        raise ConfigError(f"{path}: unknown toggle field(s) {unknown}")
    toggle_values = {}
    for name in _TOGGLE_FIELDS:
        value = toggle_payload.get(name, True)
        if not isinstance(value, bool):
            raise ConfigError(f"{path}: toggle '{name}': expected boolean, got {value!r}")
        toggle_values[name] = value

    config = FusionConfig(toggles=FusionToggles(**toggle_values), **values)
    return config, seed


def save_config(config: FusionConfig, seed: int, path) -> None:
    payload = {name: getattr(config, name) for name in _CONFIG_INT_FIELDS}
    payload["seed"] = seed
    payload["toggles"] = {name: getattr(config.toggles, name) for name in _TOGGLE_FIELDS}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
