"""Finite-difference gradient checking.

This is the independent verification route: it only ever evaluates the
forward pass, so agreement with `fuse_backward` validates the analytic
gradients. Every derivative is taken one way: the Richardson extrapolation
(4 D(h/2) - D(h)) / 3 of the central differences D(s) = (f(s) - f(-s)) / (2 s)
at h = STEP, which cancels their O(h^2) truncation error and leaves O(h^4),
for four evaluations of f. `check_fuse_gradients` takes it entry by entry, so
it is for small configs. Its relative error per group is

    max_i |analytic_i - numeric_i| / max(|numeric_i|, FLOOR)

with a small floor so near-zero entries are judged absolutely.
`check_directional` takes it along one random direction over every entry at
once, four forward passes at any shape. Both draw the cotangent from `seed`.
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

STEP = 1e-5   # the longer of the two central-difference steps
FLOOR = 1e-3  # smallest |numeric| a relative error divides by


def _derivative(f) -> float:
    """d/ds f(s) at s = 0, extrapolated from central differences at STEP and STEP / 2."""
    def central(step: float) -> float:
        return (f(step) - f(-step)) / (2.0 * step)

    return (4.0 * central(STEP / 2) - central(STEP)) / 3.0


def finite_difference_grad(loss, array: np.ndarray) -> np.ndarray:
    """Finite-difference gradient of scalar `loss()` w.r.t. `array`.

    Perturbs `array` in place and restores every entry; `loss` must read the
    live array on each call.
    """
    grad = np.zeros_like(array)
    flat = array.reshape(-1)
    gflat = grad.reshape(-1)

    def moved(step: float) -> float:  # entry i of the loop below, moved from orig
        flat[i] = orig + step
        return loss()

    for i in range(flat.size):
        orig = flat[i]
        gflat[i] = _derivative(moved)
        flat[i] = orig
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
                         *, seed: int = 0) -> dict[str, float]:
    """Compare fuse_backward with finite differences, group by group.

    Returns a dict mapping each input stream and parameter name to its max
    relative error.
    """
    rng = np.random.default_rng(seed)
    cot = TokenTensor(rng.standard_normal(inputs.visual.shape))

    input_grads, weight_grads = fuse_backward(inputs, weights, config, cot)

    def loss():
        return float(np.sum(cot.data * fuse(inputs, weights, config).data))

    analytic = _named(input_grads, weight_grads)
    return {name: max_relative_error(analytic[name], finite_difference_grad(loss, array))
            for name, array in _named(inputs, weights).items()}


def check_directional(inputs: FusionInputs, weights: FusionWeights, config: FusionConfig,
                      *, seed: int = 0) -> dict[str, float]:
    """Compare fuse_backward with a finite difference along one random direction.

    The cotangent and then a standard-normal direction d over every input
    stream and parameter are drawn from `seed`. The analytic derivative
    <grads, d> of ``L = <cot, fuse>`` is compared with the finite-difference
    derivative of L along d, so the check costs four forward passes and one
    backward pass at any shape. Returns {analytic, numeric, scale, error} with
    error = |analytic - numeric| / scale and scale = sum |grads * d|.
    """
    rng = np.random.default_rng(seed)
    cot = TokenTensor(rng.standard_normal(inputs.visual.shape))
    input_grads, weight_grads = fuse_backward(inputs, weights, config, cot)

    point = _named(inputs, weights)
    grads = _named(input_grads, weight_grads)
    direction = {name: rng.standard_normal(array.shape) for name, array in point.items()}

    def loss(step: float) -> float:
        moved = {name: array + step * direction[name] for name, array in point.items()}
        moved_inputs = replace(inputs, **{name: TokenTensor(moved[f"input.{name}"])
                                          for name in REQUIRED_STREAMS})
        moved_weights = weights_from_arrays(moved)
        return float(np.sum(cot.data * fuse(moved_inputs, moved_weights, config).data))

    numeric = _derivative(loss)
    # one gradient-times-direction product at a time: a list of them all would
    # hold a copy of every gradient
    analytic = scale = 0.0
    for name in point:
        term = grads[name] * direction[name]
        analytic += float(term.sum())
        scale += float(np.abs(term).sum())
    return {"analytic": analytic, "numeric": numeric, "scale": scale,
            "error": abs(analytic - numeric) / scale}
