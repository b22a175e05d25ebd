"""Divergences and matrix powers against scipy.linalg, an independent implementation.

scipy computes logm and fractional_matrix_power by Schur decomposition and
Pade approximation, not by the eigendecomposition the library uses.
"""

import math

import numpy as np
import pytest

from qdpi.divergences import relative_entropy, sandwiched_renyi
from qdpi.linalg import psd
from qdpi.sampling import random_density

scipy_linalg = pytest.importorskip("scipy.linalg")


def _pair(seed: int, d: int):
    rng = np.random.default_rng([seed, d])
    return random_density(rng, d), random_density(rng, d)


def _sandwiched_oracle(rho, sigma, alpha: float) -> float:
    A = scipy_linalg.fractional_matrix_power(sigma, (1.0 - alpha) / (2.0 * alpha))
    q = np.trace(scipy_linalg.fractional_matrix_power(A @ rho @ A, alpha)).real
    return math.log(q) / (alpha - 1.0)


@pytest.mark.parametrize("d", [2, 3, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_relative_entropy_matches_scipy_logm(seed, d):
    rho, sigma = _pair(seed, d)
    expected = np.trace(rho @ (scipy_linalg.logm(rho) - scipy_linalg.logm(sigma))).real
    assert relative_entropy(rho, sigma) == pytest.approx(expected, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("alpha", [0.3, 1.5, 2.0])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_sandwiched_renyi_matches_scipy_fractional_power(alpha, d):
    for seed in range(3):
        rho, sigma = _pair(seed, d)
        expected = _sandwiched_oracle(rho, sigma, alpha)
        assert sandwiched_renyi(rho, sigma, alpha) == pytest.approx(expected, rel=1e-9, abs=1e-11)


@pytest.mark.parametrize("t", [-0.5, 0.3, 0.5, 2.0])
def test_psd_power_matches_scipy_fractional_power(t):
    for d in (2, 4):
        rho, _ = _pair(7, d)
        expected = scipy_linalg.fractional_matrix_power(rho, t)
        assert np.allclose(psd(rho).power(t), expected, rtol=1e-9, atol=1e-11)


@pytest.mark.parametrize("alpha", [0.3, 1.5, 2.0])
def test_stacked_sandwiched_renyi_matches_scipy(alpha):
    pairs = [_pair(seed, 3) for seed in range(6)]
    rho = psd(np.stack([r for r, _ in pairs]))
    sigma = psd(np.stack([s for _, s in pairs]))
    values = sandwiched_renyi(rho, sigma, alpha)
    expected = [_sandwiched_oracle(r, s, alpha) for r, s in pairs]
    assert values == pytest.approx(expected, rel=1e-9, abs=1e-11)
