"""Weight initialisation schemes for :mod:`repro.nn` layers."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import as_generator


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Glorot/Xavier uniform init: U(-a, a), a = sqrt(6 / (fan_in + fan_out))."""
    rng = as_generator(rng)
    fan_in, fan_out = _fans(shape)
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def normal(shape: tuple[int, ...], std: float = 0.02, rng: np.random.Generator | int | None = None) -> np.ndarray:
    """Plain Gaussian init with configurable standard deviation."""
    return as_generator(rng).normal(0.0, std, size=shape)


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    """All-zero init (biases)."""
    return np.zeros(shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("initialisation requires at least a 1-D shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out
