import math
import random

import numpy as np
import pytest
from scipy.stats import binom

from timebin.binomial import binomial
from .conftest import chi2_z

Z = 4.0  # bound on the z of each seeded check


@pytest.mark.parametrize(
    "n, p",
    [
        (40, 0.1),  # inversion
        (10**9, 3e-9),  # inversion at a large count
        (200, 0.05),  # BTRS at n p = 10, its smallest mean
        (1000, 0.3),  # BTRS
        (25, 0.9),  # reflected, then inversion
        (60, 0.8),  # reflected, then BTRS
    ],
)
def test_draws_follow_the_binomial_pmf(n, p):
    rng = random.Random(f"{n} {p}")
    draws = np.array([binomial(rng, n, p) for _ in range(20_000)])
    lo, hi = int(draws.min()), int(draws.max())
    assert 0 <= lo and hi <= n
    values = np.arange(lo, hi + 1)
    # Every value drawn, then the values never drawn, pooled.
    observed = np.append(np.bincount(draws - lo), 0)
    rest = binom.cdf(lo - 1, n, p) + binom.sf(hi, n, p)
    expected = draws.size * np.append(binom.pmf(values, n, p), rest)
    assert abs(chi2_z(observed, expected)) <= Z


@pytest.mark.parametrize("n, p", [(2**62, 0.3), (2**62, 1e-12), (2**63 - 1, 0.5)])
def test_moments_at_large_counts(n, p):
    """Mean and spread of standardized draws at counts near 2**63.

    lgamma(2**62) has a spacing of 32768, so BTRS's acceptance test written
    with lgamma spreads the draws at n = 2**62 by a factor of 5 to 6.
    """
    draws = 4000
    rng = random.Random(f"{n} {p}")
    mean, sd = n * p, math.sqrt(n * p * (1.0 - p))
    z = np.array([(binomial(rng, n, p) - mean) / sd for _ in range(draws)])
    assert abs(z.mean()) * math.sqrt(draws) <= Z
    # The variance of a standard normal sample of this size has sd sqrt(2 / draws).
    assert abs(z.var() - 1.0) / math.sqrt(2.0 / draws) <= Z


@pytest.mark.parametrize(
    "n, p, expected", [(0, 0.3, 0), (17, 0.0, 0), (17, 1.0, 17), (2**63 - 1, 1.0, 2**63 - 1)]
)
def test_degenerate_parameters(n, p, expected):
    assert binomial(random.Random(1), n, p) == expected
