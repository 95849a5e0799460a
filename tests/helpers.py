"""Constructors and documents that only the tests need."""

import numpy as np

from camfuse.tensor import LayerNormParams, TokenTensor

# JSON that Python's decoder refuses with something other than a JSONDecodeError:
# nesting past the recursion limit, and an integer past the int-string digit limit
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
LONG_INT_JSON = b"1" * 5000


def zero_tokens(frames: int, tokens: int, width: int) -> TokenTensor:
    return TokenTensor(np.zeros((frames, tokens, width)))


def identity_layer_norm(width: int, epsilon: float = 1e-6) -> LayerNormParams:
    return LayerNormParams(np.ones(width), np.zeros(width), epsilon)
