"""Seeded synthetic stand-ins for the two encoders' token streams."""

from __future__ import annotations

import numpy as np

from .fusion import FusionConfig, FusionInputs, stream_shapes
from .tensor import TokenTensor

__all__ = ["synth_tokens"]


def synth_tokens(config: FusionConfig, seed: int) -> FusionInputs:
    """Seeded synthetic token streams of standard normal entries, shaped by
    `stream_shapes(config)`.

    The register stream (four auxiliary tokens per frame) is always generated
    so the discard path in fusion is exercised.
    """
    rng = np.random.default_rng(seed)
    return FusionInputs(**{name: TokenTensor(rng.standard_normal(shape))
                           for name, shape in stream_shapes(config).items()})
