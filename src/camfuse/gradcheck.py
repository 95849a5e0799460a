"""Central finite-difference gradient checking.

This is the independent verification route: it only ever evaluates the
forward pass, so agreement with `fuse_backward` validates the analytic
gradients. `check_fuse_gradients` checks entry by entry, two forward passes
per entry, so it is for small configs. Its relative error per group is

    max_i |analytic_i - numeric_i| / max(|numeric_i|, FLOOR)

with a small floor so near-zero entries are judged absolutely.
`check_directional` checks one random direction over every entry at once, two
forward passes at any shape.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .fusion import (
    REQUIRED_STREAMS,
    FusionConfig,
    FusionInputs,
    FusionWeights,
    fuse,
    fuse_backward,
    iter_params,
    weights_from_arrays,
)
from .tensor import TokenTensor

__all__ = ["finite_difference_grad", "max_relative_error", "check_fuse_gradients",
           "check_directional"]

STEP = 1e-5              # central-difference step of the entrywise check
DIRECTIONAL_STEP = 1e-6  # step along the unnormalised N(0, 1) direction
FLOOR = 1e-3             # smallest |numeric| a relative error divides by


def finite_difference_grad(loss, array: np.ndarray) -> np.ndarray:
    """Central-difference gradient of scalar `loss()` w.r.t. `array`.

    Perturbs `array` in place and restores every entry; `loss` must read the
    live array on each call.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + STEP
        fp = loss()
        flat[i] = orig - STEP
        fm = loss()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * STEP)
    return grad


def _named(inputs: FusionInputs, weights: FusionWeights) -> dict[str, np.ndarray]:
    """Name -> array: "input.<stream>" per required stream, then each parameter."""
    named = {f"input.{name}": getattr(inputs, name).data for name in REQUIRED_STREAMS}
    named.update(iter_params(weights))
    return named


def max_relative_error(analytic, numeric) -> float:
    """The largest relative error over the entries; inf when any entry's
    error is NaN, so that taking the max of several results cannot skip it."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {n.shape}")
    if a.size == 0:
        return 0.0
    worst = float(np.max(np.abs(a - n) / np.maximum(np.abs(n), FLOOR)))
    return np.inf if np.isnan(worst) else worst


def check_fuse_gradients(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig,
                         *, cotangent_seed: int = 0, corruption: float = 0.0) -> dict[str, float]:
    """Compare fuse_backward against central differences, group by group.

    Returns a dict mapping each input stream and parameter name to its max
    relative error. `corruption` adds a constant to every analytic gradient
    and exists purely as a negative control for the checker itself.
    """
    rng = np.random.default_rng(cotangent_seed)
    cot = TokenTensor(rng.standard_normal(inputs.visual.shape))

    input_grads, weight_grads = fuse_backward(inputs, weights, config, cot)

    def loss():
        return float(np.sum(cot.data * fuse(inputs, weights, config).data))

    analytic = _named(input_grads, weight_grads)
    return {name: max_relative_error(analytic[name] + corruption,
                                     finite_difference_grad(loss, array))
            for name, array in _named(inputs, weights).items()}


def check_directional(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig,
                      *, seed: int = 0, corruption: float = 0.0) -> dict[str, float]:
    """Compare fuse_backward with a central difference along one random direction.

    A standard-normal direction d is drawn over every input stream and
    parameter at once. The analytic derivative <grads, d> of
    ``L = <cot, fuse>`` is compared with (L(x + h d) - L(x - h d)) / (2 h),
    h = DIRECTIONAL_STEP, so the check costs two forward passes and one
    backward pass at any shape. Returns {analytic, numeric, scale, error} with
    error = |analytic - numeric| / scale and scale = sum |grads * d|.
    `corruption` adds a constant to every analytic gradient and exists purely
    as a negative control for the checker itself.
    """
    rng = np.random.default_rng(seed)
    cot = TokenTensor(rng.standard_normal(inputs.visual.shape))
    input_grads, weight_grads = fuse_backward(inputs, weights, config, cot)

    point = _named(inputs, weights)
    grads = _named(input_grads, weight_grads)
    direction = {name: rng.standard_normal(array.shape) for name, array in point.items()}

    def loss(sign: float) -> float:
        moved = {name: array + sign * DIRECTIONAL_STEP * direction[name]
                 for name, array in point.items()}
        moved_inputs = replace(inputs, **{name: TokenTensor(moved[f"input.{name}"])
                                          for name in REQUIRED_STREAMS})
        moved_weights = weights_from_arrays(moved)
        return float(np.sum(cot.data * fuse(moved_inputs, moved_weights, config).data))

    numeric = (loss(1.0) - loss(-1.0)) / (2.0 * DIRECTIONAL_STEP)
    # one gradient-times-direction product at a time: a list of them all would
    # hold a copy of every gradient
    analytic = scale = 0.0
    for name in point:
        term = (grads[name] + corruption) * direction[name]
        analytic += float(term.sum())
        scale += float(np.abs(term).sum())
    return {"analytic": analytic, "numeric": numeric, "scale": scale,
            "error": abs(analytic - numeric) / scale}
