"""Random potentials for the tests: valley-shaped path potentials and
potentials with a unique minimizer."""

import numpy as np

from gapline import graphcore


def random_single_basin_path_potential(rng: np.random.Generator, l: int) -> graphcore.Potential:
    """Valley-shaped potential on a path: strictly decreasing to a random
    minimum position, then strictly increasing."""
    m = int(rng.integers(0, l))
    vals = np.zeros(l)
    for i in range(m - 1, -1, -1):
        vals[i] = vals[i + 1] + rng.uniform(0.05, 1.0)
    for i in range(m + 1, l):
        vals[i] = vals[i - 1] + rng.uniform(0.05, 1.0)
    return graphcore.Potential(vals)


def random_unique_min_potential(
    rng: np.random.Generator, n: int
) -> graphcore.Potential:
    """Random potential with a unique minimizer and distinct two lowest values."""
    while True:
        vals = rng.uniform(-1.0, 1.0, size=n)
        order = np.sort(vals)
        if order[1] - order[0] > 1e-3:
            return graphcore.Potential(vals)
