"""Spans, counts and allocation peaks for camfuse's layers, taken from outside.

While a session is open, each traced public function is replaced, at every
camfuse module attribute that holds it, by a wrapper that records a span
(name, start, end, parent) plus an optional work count and the tracemalloc
peak above the span's starting allocation. Closing the session restores the
originals, so untraced passes run the unmodified program. Private kernels
(`_affine_raw`, `_layer_norm_raw`, `_attention_raw`) are not wrapped: their
time stays in the self time of the public function that calls them.

A traced name that the program no longer defines is reported as absent
instead of failing the run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np


def _elements(args):
    return int(np.asarray(args[0]).size)


def _validated_elements(args):
    return int(np.asarray(args[0].data).size)


def _file_bytes(args):
    try:
        return os.path.getsize(args[0])
    except (OSError, TypeError):  # the traced call reports the bad path itself
        return 0


# traced name -> (module, attribute path, work counter, whether to count after the call)
TARGETS = {
    "cli.main": ("cli", "main", None, False),
    "serde.load_config": ("serde", "load_config", _file_bytes, False),
    "serde.load_weights": ("serde", "load_weights", None, False),
    "serde.load_token_streams": ("serde", "load_token_streams", _file_bytes, False),
    "serde.load_container": ("serde", "load_container", _file_bytes, False),
    "serde.save_container": ("serde", "save_container", _file_bytes, True),
    "pipeline.synth_tokens": ("pipeline", "synth_tokens", None, False),
    "fusion.init_weights": ("fusion", "init_weights", None, False),
    "fusion.fuse": ("fusion", "fuse", None, False),
    "fusion.fuse_backward": ("fusion", "fuse_backward", None, False),
    "fusion.project_qkvc": ("fusion", "project_qkvc", None, False),
    "fusion.geo_bias": ("fusion", "geo_bias", None, False),
    "fusion.token_weights": ("fusion", "token_weights", None, False),
    "fusion.attend": ("fusion", "attend", None, False),
    "fusion.gate_and_fuse": ("fusion", "gate_and_fuse", None, False),
    "tensor.softmax_rows": ("tensor", "softmax_rows", _elements, False),
    "tensor.sigmoid": ("tensor", "sigmoid", None, False),
    "tensor.swish": ("tensor", "swish", None, False),
    "tensor.swish_vjp": ("tensor", "swish_vjp", None, False),
    "tensor.TokenTensor.validate": ("tensor", "TokenTensor.__post_init__",
                                    _validated_elements, False),
}


class Span:
    __slots__ = ("name", "label", "parent", "outermost", "start", "end", "base", "peak", "work")

    def __init__(self, name, label, parent, outermost, base):
        self.name = name
        self.label = label
        self.parent = parent
        self.outermost = outermost
        self.base = base
        self.peak = base
        self.work = 0
        self.start = self.end = 0.0


class Tracer:
    """Records spans of the camfuse package imported in this process."""

    def __init__(self, package: str = "camfuse"):
        self.package = package
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._label = None

    @contextmanager
    def session(self, label):
        """Trace every call made inside the block; spans carry `label`."""
        self._label = label
        tracemalloc.start()
        self._install()
        try:
            yield self
        finally:
            self._uninstall()
            tracemalloc.stop()
            self._label = None

    # -- patching ---------------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(self.package + "."))]

    def _install(self):
        modules = self._modules()
        absent = []
        for name, (module, path, work, after) in TARGETS.items():
            owner = sys.modules.get(f"{self.package}.{module}")
            *holders, attr = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                absent.append(name)
                continue
            wrapper = self._wrap(name, original, work, after)
            if holders:  # a method: patch it on its class
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        self.absent = absent

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, work, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                if work is not None and not after:
                    span.work = work(args)
                result = fn(*args, **kwargs)
                if work is not None and after:
                    span.work = work(args)
                return result
            finally:
                self._exit(span)
        return traced

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        current, peak = tracemalloc.get_traced_memory()
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.peak = max(parent.peak, peak)
        tracemalloc.reset_peak()
        outermost = all(s.name != name for s in self._stack)
        span = Span(name, self._label, parent, outermost, current)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span):
        span.end = time.perf_counter()
        _, peak = tracemalloc.get_traced_memory()
        span.peak = max(span.peak, peak)
        self._stack.pop()
        if self._stack:
            self._stack[-1].peak = max(self._stack[-1].peak, span.peak)
        tracemalloc.reset_peak()


def summarize(spans, label) -> tuple[dict, float]:
    """Per traced name, the totals over spans carrying `label`.

    Returns ({name: {calls, busy_s, self_s, children_s, peak_alloc_bytes,
    work}}, worst |self + children - busy| over single spans). Self time is a
    span's duration minus the union of its child spans' intervals; busy time
    counts only spans not nested in a span of the same name.
    """
    chosen = [s for s in spans if s.label == label]
    children: dict[int, list[Span]] = {}
    for s in chosen:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    table: dict[str, dict] = {}
    worst = 0.0
    for s in chosen:
        duration = s.end - s.start
        kids = sorted(children.get(id(s), []), key=lambda k: k.start)
        covered, cursor = 0.0, s.start
        for k in kids:
            lo, hi = max(k.start, cursor), min(k.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        self_s = duration - covered
        kids_s = sum(k.end - k.start for k in kids)
        worst = max(worst, abs(self_s + kids_s - duration))
        row = table.setdefault(s.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "children_s": 0.0,
                                        "peak_alloc_bytes": 0, "work": 0})
        row["calls"] += 1
        row["self_s"] += self_s
        row["children_s"] += kids_s
        row["work"] += s.work
        if s.outermost:
            row["busy_s"] += duration
        row["peak_alloc_bytes"] = max(row["peak_alloc_bytes"], s.peak - s.base)
    return table, worst
