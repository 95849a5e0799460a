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
Every file is written to a temporary file beside its target and renamed over
it, so a failed write leaves the previous file as it was.

Config files are plain JSON documents; see load_config for the field names.
"""

from __future__ import annotations

import json
import math
import os
import stat
import uuid
from collections import OrderedDict
from contextlib import contextmanager, suppress
from dataclasses import fields

import numpy as np

from .fusion import (
    ConfigError,
    FusionConfig,
    FusionInputs,
    FusionToggles,
    FusionWeights,
    REQUIRED_STREAMS,
    iter_params,
    param_shapes,
    stream_shapes,
    weights_from_arrays,
)
from .tensor import LN_EPSILON, TokenTensor, empty_buffer

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
    "write_atomic",
    "decode_json",
    "open_regular",
]

FORMAT_VERSION = 1

_DTYPE_TAGS = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
_TAGS_BY_KIND = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


class ContainerError(ValueError):
    """Container file missing, malformed, or inconsistent."""


def decode_json(data: bytes, error: type[Exception], where: str):
    """Decode one UTF-8 JSON document, raising `error` prefixed with `where`
    (the file, or file:line) on any failure: bytes that are not UTF-8, text
    that is not JSON, nesting past the recursion limit, or an integer past
    the int-string digit limit."""
    try:
        return json.loads(data.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # JSON and Unicode errors are ValueErrors
        raise error(f"{where}: invalid JSON ({exc})") from None


def write_atomic(path, chunks) -> None:
    """Write byte chunks to `path` through a temporary file in its directory.

    The file appears under `path` only once every chunk is written (by
    os.replace). On any error the temporary file is removed, the exception
    propagates and a previous file at `path` is left untouched. There is no
    fsync: this guards against failed or interrupted writes, not power loss.
    An existing target that is not a regular file (a symlink, pipe, device
    or directory) raises OSError naming `path` before anything is written,
    since the rename would replace the node itself.
    """
    with suppress(FileNotFoundError):
        if not stat.S_ISREG(os.lstat(path).st_mode):
            raise OSError(f"{path}: not a regular file")
    directory, name = os.path.split(os.fspath(path))
    temp = os.path.join(directory, f".{name}.{uuid.uuid4().hex}.tmp")
    fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies
    try:
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk)
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise


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
        # the array's own buffer, copied only when it is not C-contiguous
        blob = np.ascontiguousarray(arr, dtype=_DTYPE_TAGS[tag]).reshape(-1).view(np.uint8)
        entries[name] = {
            "dtype": tag,
            "shape": list(arr.shape),
            "byte_offset": offset,
            "byte_length": blob.nbytes,
        }
        payloads.append(blob)
        offset += blob.nbytes
    header = {
        "format_version": FORMAT_VERSION,
        "tensors": entries,
        "meta": meta or {},
    }
    try:
        write_atomic(path, [json.dumps(header, separators=(",", ":")).encode("utf-8"), b"\n",
                            *payloads])
    except OSError as exc:
        raise ContainerError(f"cannot write container {path}: {exc}") from exc


def _is_count(value) -> bool:
    """An int >= 0; JSON true/false decode to bools, which are not counts."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _open_nonblocking(path, flags):
    """`open` opener: a pipe without a writer opens at once instead of blocking."""
    return os.open(path, flags | os.O_NONBLOCK)


@contextmanager
def open_regular(path, error: type[Exception], what: str):
    """Open `path` for binary reading, refusing anything but a regular file.

    The open does not block, so a pipe without a writer is refused at once,
    as is a device, with `error` naming the path. An OSError from the open or
    from reads in the `with` body is raised as `error` ("cannot read <what>
    <path>: ...").
    """
    try:
        with open(path, "rb", opener=_open_nonblocking) as handle:
            if not stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                raise error(f"{path}: not a regular file")
            yield handle
    except OSError as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_container(path):
    """Read a container; returns (name -> array in header order, meta dict).

    Any inconsistency (bad header, wrong version, an entry whose dtype, shape
    or offsets are not as documented, non-dense offsets, or a payload whose
    size disagrees with the header) raises ContainerError naming the file, and
    the tensor where there is one; nothing is returned, so there is no partial
    result to misuse. The payload is read once into one `empty_buffer` and
    every array is a writable view of it, so a load holds about the file's
    size. A path that is not a regular file is refused before any read (see
    open_regular).
    """
    with open_regular(path, ContainerError, "container") as handle:
        line = handle.readline()
        blob = empty_buffer((max(0, os.fstat(handle.fileno()).st_size - len(line)),), np.uint8)
        complete = handle.readinto(blob) == blob.size and not handle.read(1)
    if not line.endswith(b"\n"):
        raise ContainerError(f"{path}: no header line found")
    if not complete:
        raise ContainerError(f"{path}: file changed size while it was read")
    header = decode_json(line[:-1], ContainerError, f"{path}: header")
    if not isinstance(header, dict) or "format_version" not in header:
        raise ContainerError(f"{path}: header lacks a format_version")
    version = header["format_version"]
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ContainerError(
            f"{path}: unsupported format version {version!r} "
            f"(this reader handles {FORMAT_VERSION})"
        )
    entries = header.get("tensors", {})
    if not isinstance(entries, dict):
        raise ContainerError(f"{path}: header key 'tensors' must be a JSON object")
    tensors = OrderedDict()
    expected_offset = 0
    for name, entry in entries.items():
        try:
            tag = entry["dtype"]
            shape = entry["shape"]
            byte_offset = entry["byte_offset"]
            byte_length = entry["byte_length"]
        except (KeyError, TypeError):
            raise ContainerError(f"{path}: malformed entry for tensor {name!r}") from None
        dtype = _DTYPE_TAGS.get(tag) if isinstance(tag, str) else None
        if dtype is None:
            raise ContainerError(f"{path}: tensor {name!r} has unknown dtype {tag!r}")
        if not (isinstance(shape, list) and all(_is_count(d) for d in shape)
                and _is_count(byte_offset) and _is_count(byte_length)):
            raise ContainerError(
                f"{path}: tensor {name!r}: shape entries, byte_offset and byte_length "
                f"must be integers >= 0, got shape {shape!r}, byte_offset {byte_offset!r}, "
                f"byte_length {byte_length!r}"
            )
        if byte_offset != expected_offset:
            raise ContainerError(
                f"{path}: tensor {name!r} offset {byte_offset} is not densely packed"
            )
        count = math.prod(shape)
        if byte_length != count * dtype.itemsize:
            raise ContainerError(
                f"{path}: tensor {name!r} byte_length {byte_length} does not match "
                f"shape {shape}"
            )
        if byte_offset + byte_length > blob.size:
            raise ContainerError(f"{path}: truncated payload at tensor {name!r}")
        try:
            data = np.frombuffer(blob, dtype=dtype, count=count, offset=byte_offset)
            tensors[name] = data.reshape(shape)
        except ValueError:  # an empty shape numpy cannot represent, e.g. [0, 10**30]
            raise ContainerError(
                f"{path}: tensor {name!r} has unsupported shape {shape}"
            ) from None
        expected_offset += byte_length
    if expected_offset != blob.size:
        raise ContainerError(
            f"{path}: payload has {blob.size} bytes but header accounts for {expected_offset}"
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
    save_container(path, OrderedDict(iter_params(weights)), {"kind": "fusion-weights"})


def load_weights(path, expected: FusionConfig) -> FusionWeights:
    """Load weights and validate every tensor's name, shape and values.

    Unknown, missing, misshapen and non-finite tensors are rejected. float32
    payloads are widened exactly to float64 by the parameter types. Every
    layer norm uses `LN_EPSILON`; an older file's meta "epsilons" object must
    map layer-norm names to floats equal to it, so a file that set another
    epsilon is refused, not run with this one.
    """
    tensors, meta = load_container(path)
    shapes = param_shapes(expected)
    unknown = [name for name in tensors if name not in shapes]
    if unknown:
        raise ContainerError(f"{path}: unknown tensor(s) {unknown}")
    missing = [name for name in shapes if name not in tensors]
    if missing:
        raise ContainerError(f"{path}: missing tensor(s) {missing}")
    for name, shape in shapes.items():
        arr = tensors[name]
        if arr.shape != shape:
            raise ContainerError(
                f"{path}: tensor {name!r} has shape {arr.shape}, expected {shape}"
            )
        if not np.isfinite(arr).all():
            raise ContainerError(f"{path}: tensor {name!r} contains non-finite entries")
    epsilons = meta.get("epsilons", {})
    if not isinstance(epsilons, dict):
        raise ContainerError(f"{path}: meta key 'epsilons' must be a JSON object")
    for name, value in epsilons.items():
        if not (f"{name}.gain" in shapes and type(value) is float and value == LN_EPSILON):
            raise ContainerError(f"{path}: meta key 'epsilons.{name}' must name a layer norm "
                                 f"and be {LN_EPSILON!r}, the one epsilon, got {value!r}")
    return weights_from_arrays(tensors)


# ---------------------------------------------------------------------------
# token streams
# ---------------------------------------------------------------------------

def save_token_streams(inputs: FusionInputs, path, meta=None) -> None:
    tensors = OrderedDict((name, stream.data) for name, stream in vars(inputs).items()
                          if stream is not None)
    payload = {"kind": "token-streams"}
    payload.update(meta or {})
    save_container(path, tensors, payload)


def load_token_streams(path, config: FusionConfig) -> tuple[FusionInputs, dict]:
    """Load a token-stream file; a missing, unknown, non-finite or misshapen
    stream (against `stream_shapes(config)`) raises ContainerError naming it."""
    tensors, meta = load_container(path)
    shapes = stream_shapes(config)
    missing = [n for n in REQUIRED_STREAMS if n not in tensors]
    if missing:
        raise ContainerError(f"{path}: missing stream(s) {missing}")
    unknown = [n for n in tensors if n not in shapes]
    if unknown:
        raise ContainerError(f"{path}: unknown stream(s) {unknown}")
    streams = {}
    for name, array in tensors.items():
        try:
            streams[name] = TokenTensor(array)
        except ValueError as exc:  # wrong rank or non-finite entries
            raise ContainerError(f"{path}: stream {name!r}: {exc}") from None
        if streams[name].shape != shapes[name]:
            raise ContainerError(f"{path}: stream {name!r} has shape {streams[name].shape}, "
                                 f"config expects {shapes[name]}")
    return FusionInputs(**streams), meta


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

_CONFIG_INT_FIELDS = tuple(f.name for f in fields(FusionConfig) if f.name != "toggles")
_TOGGLE_FIELDS = tuple(f.name for f in fields(FusionToggles))


def load_config(path) -> tuple[FusionConfig, int]:
    """Parse a JSON config document into (FusionConfig, seed).

    Expected fields: the seven integer dimensions, an optional non-negative
    integer "seed" (default 0), and an optional "toggles" object with boolean
    members geo_bias / token_weight / camera_memory / gate (default true).
    Problems are reported per field, prefixed with the path; a path that is
    not a regular file is refused (see open_regular).
    """
    with open_regular(path, ConfigError, "config") as handle:
        data = handle.read()
    payload = decode_json(data, ConfigError, path)
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: expected a JSON object")

    known = set(_CONFIG_INT_FIELDS) | {"seed", "toggles"}
    unknown = [k for k in payload if k not in known]
    if unknown:
        raise ConfigError(f"{path}: unknown config field(s) {unknown}")

    for name in _CONFIG_INT_FIELDS:
        if name not in payload:
            raise ConfigError(f"{path}: missing config field '{name}'")

    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"{path}: config field 'seed': expected non-negative integer, "
                          f"got {seed!r}")

    toggle_payload = payload.get("toggles", {})
    if not isinstance(toggle_payload, dict):
        raise ConfigError(f"{path}: config field 'toggles': expected object")
    unknown = [k for k in toggle_payload if k not in _TOGGLE_FIELDS]
    if unknown:
        raise ConfigError(f"{path}: unknown toggle field(s) {unknown}")
    try:
        config = FusionConfig(toggles=FusionToggles(**toggle_payload),
                              **{name: payload[name] for name in _CONFIG_INT_FIELDS})
    except ConfigError as exc:  # the types and values are checked by the config itself
        raise ConfigError(f"{path}: {exc}") from None
    return config, seed


def save_config(config: FusionConfig, seed: int, path) -> None:
    payload = {name: getattr(config, name) for name in _CONFIG_INT_FIELDS}
    payload["seed"] = seed
    payload["toggles"] = {name: getattr(config.toggles, name) for name in _TOGGLE_FIELDS}
    write_atomic(path, [json.dumps(payload, indent=2).encode("utf-8"), b"\n"])
