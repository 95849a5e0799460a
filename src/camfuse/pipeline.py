"""Upstream geometry and synthetic token generation.

Covers what sits in front of fusion without any neural weights: uniform
frame sampling with boundary drop (SAMPLE_COUNT probes), patch-grid token
arithmetic, resize/pad placement geometry for the two encoder inputs
(VISUAL_SIZE for InternViT, SPATIAL_SIZE for VGGT), and seeded synthetic
stand-ins for the two encoders. Only geometry is computed here; no pixels
are resampled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import FusionConfig, FusionInputs, stream_shapes
from .tensor import TokenTensor

__all__ = [
    "SAMPLE_COUNT",
    "VISUAL_SIZE",
    "SPATIAL_SIZE",
    "SamplingPlan",
    "plan_sampling",
    "patch_tokens",
    "ResizePlacement",
    "PaddedPlacement",
    "preprocess_geometry",
    "synth_tokens",
]

# uniform probes per clip; first and last are dropped after sampling
SAMPLE_COUNT = 34

# (height, width) of the visual (InternViT) and spatial (VGGT) encoder inputs;
# the spatial canvas covers the visual content
VISUAL_SIZE = (448, 448)
SPATIAL_SIZE = (518, 518)


@dataclass(frozen=True)
class SamplingPlan:
    total_frames: int
    sampled_indices: tuple[int, ...]
    kept_indices: tuple[int, ...]


def plan_sampling(total_frames: int) -> SamplingPlan:
    """Uniformly probe SAMPLE_COUNT frame indices, then drop the first and
    last sampled frames.

    Probe k lands on floor(k * total_frames / SAMPLE_COUNT). Short clips
    (total_frames < SAMPLE_COUNT) repeat indices; repeats are collapsed, so
    the kept list degrades gracefully instead of failing.
    """
    if total_frames < 1:
        raise ValueError("cannot sample from an empty clip")
    raw = [k * total_frames // SAMPLE_COUNT for k in range(SAMPLE_COUNT)]
    sampled = tuple(sorted(set(raw)))
    return SamplingPlan(total_frames, sampled, sampled[1:-1])


def patch_tokens(height: int, width: int, patch: int) -> int:
    """Number of patch tokens: floor(H/p) * floor(W/p)."""
    if height < 1 or width < 1 or patch < 1:
        raise ValueError(f"dimensions must be positive, got {height}x{width} patch {patch}")
    return (height // patch) * (width // patch)


@dataclass(frozen=True)
class ResizePlacement:
    """Plain resize to a fixed target; aspect ratio is not preserved."""

    target_h: int
    target_w: int
    scale_y: float
    scale_x: float


@dataclass(frozen=True)
class PaddedPlacement:
    """Resized content centered on a zero canvas."""

    canvas_h: int
    canvas_w: int
    content_h: int
    content_w: int
    offset_y: int
    offset_x: int


def preprocess_geometry(src_h: int, src_w: int) -> tuple[ResizePlacement, PaddedPlacement]:
    """Placement geometry for a source image on both encoder inputs.

    The visual branch scales the source to VISUAL_SIZE. The spatial branch
    takes the same resized content and centers it on a zero canvas of
    SPATIAL_SIZE.
    """
    if src_h < 1 or src_w < 1:
        raise ValueError(f"source image has no area: {src_h}x{src_w}")
    vh, vw = VISUAL_SIZE
    sh, sw = SPATIAL_SIZE
    visual = ResizePlacement(vh, vw, vh / src_h, vw / src_w)
    spatial = PaddedPlacement(
        canvas_h=sh,
        canvas_w=sw,
        content_h=vh,
        content_w=vw,
        offset_y=(sh - vh) // 2,
        offset_x=(sw - vw) // 2,
    )
    return visual, spatial


def synth_tokens(config: FusionConfig, seed: int) -> FusionInputs:
    """Seeded synthetic token streams of standard normal entries, shaped by
    `stream_shapes(config)`.

    The register stream (four auxiliary tokens per frame) is always generated
    so the discard path in fusion is exercised.
    """
    rng = np.random.default_rng(seed)
    return FusionInputs(**{name: TokenTensor(rng.standard_normal(shape))
                           for name, shape in stream_shapes(config).items()})
