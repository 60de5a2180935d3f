"""Correlated multi-dimensional random-walk generator (paper §5.4).

The dimensionality experiments use d-dimensional signals whose per-dimension
values follow the same random-walk model as :mod:`repro.data.random_walk`.
Figure 11 uses independent dimensions; Figure 12 generates a 5-dimensional
signal and varies the correlation between its dimensions from 0.1 to 1.

Correlation is induced through a Gaussian copula with a compound-symmetric
(equicorrelated) latent covariance: one latent normal vector drives the step
*direction*, a second independent latent vector drives the step *magnitude*.
At correlation 1 every dimension takes exactly the same steps; at correlation
0 the dimensions are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["CorrelatedWalkConfig", "correlated_random_walk"]


@dataclass(frozen=True)
class CorrelatedWalkConfig:
    """Parameters of the correlated multi-dimensional random-walk model.

    Attributes:
        length: Number of data points.
        dimensions: Number of signal dimensions ``d``.
        correlation: Pairwise correlation of the latent Gaussians driving the
            per-dimension steps (0 → independent, 1 → identical steps).
        decrease_probability: Probability ``p`` of a downward step, shared by
            all dimensions.
        max_delta: Upper end ``x`` of the ``U(0, x)`` step-magnitude
            distribution.
        initial_value: Initial value of every dimension.
        time_step: Spacing between consecutive timestamps.
        seed: Seed for the pseudo-random generator.
    """

    length: int = 10_000
    dimensions: int = 2
    correlation: float = 0.0
    decrease_probability: float = 0.5
    max_delta: float = 1.0
    initial_value: float = 0.0
    time_step: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be at least 1")
        if self.dimensions < 1:
            raise ValueError("dimensions must be at least 1")
        if not 0.0 <= self.correlation <= 1.0:
            raise ValueError("correlation must be within [0, 1]")
        if not 0.0 <= self.decrease_probability <= 1.0:
            raise ValueError("decrease_probability must be within [0, 1]")
        if self.max_delta < 0.0:
            raise ValueError("max_delta must be non-negative")
        if self.time_step <= 0.0:
            raise ValueError("time_step must be positive")


def _equicorrelated_normals(
    rng: np.random.Generator, steps: int, dimensions: int, correlation: float
) -> np.ndarray:
    """Draw ``(steps, dimensions)`` standard normals with pairwise correlation."""
    shared = rng.standard_normal((steps, 1))
    independent = rng.standard_normal((steps, dimensions))
    weight = np.sqrt(correlation)
    complement = np.sqrt(1.0 - correlation)
    return weight * shared + complement * independent


def correlated_random_walk(
    config: CorrelatedWalkConfig = CorrelatedWalkConfig(),
) -> Tuple[np.ndarray, np.ndarray]:
    """Generate a correlated d-dimensional random-walk signal.

    Returns:
        ``(times, values)`` where ``times`` has shape ``(n,)`` and ``values``
        has shape ``(n, d)``.
    """
    # Imported here, not at module level: ``repro.cli`` reaches this module
    # through the dataset registry, and scipy.stats would add ~70 MiB and
    # most of a second to every ``repro serve`` start.
    from scipy import stats

    rng = np.random.default_rng(config.seed)
    times = np.arange(config.length, dtype=float) * config.time_step
    values = np.full((config.length, config.dimensions), config.initial_value, dtype=float)
    if config.length == 1:
        return times, values
    steps = config.length - 1
    direction_normals = _equicorrelated_normals(rng, steps, config.dimensions, config.correlation)
    magnitude_normals = _equicorrelated_normals(rng, steps, config.dimensions, config.correlation)
    direction_uniforms = stats.norm.cdf(direction_normals)
    magnitude_uniforms = stats.norm.cdf(magnitude_normals)
    directions = np.where(direction_uniforms < config.decrease_probability, -1.0, 1.0)
    magnitudes = magnitude_uniforms * config.max_delta
    increments = directions * magnitudes
    values[1:] = config.initial_value + np.cumsum(increments, axis=0)
    return times, values
