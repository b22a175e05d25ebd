"""Seeded random generators for states, observables, and projectors.

All generators accept an ``np.random.Generator``. Suites derive per-trial
generators as ``np.random.default_rng([seed, trial])`` so any single trial
can be replayed without rerunning the ones before it.
"""

from __future__ import annotations

import numpy as np

from .linalg import DomainError, _dagger, psd

__all__ = [
    "rng_for_trial",
    "random_complex_gaussian",
    "random_unit_vector",
    "phase_fixed_q",
    "gaussian_factor",
    "density_of_factor",
    "random_unitary",
    "random_hermitian",
    "random_psd",
    "random_density",
    "random_rank_deficient_density",
    "random_projector",
]


def rng_for_trial(seed: int, trial: int) -> np.random.Generator:
    """Independent stream for one trial of a seeded suite."""
    return np.random.default_rng([seed, trial])


def random_complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """IID standard complex Gaussian entries.

    One draw of the real parts, then the imaginary parts, stacked on a new
    leading axis: the values and stream state of two draws of ``shape``.
    """
    try:
        size = (2, *shape)
    except TypeError:  # an int
        size = (2, shape)
    g = rng.standard_normal(size)
    return g[0] + 1j * g[1]


def random_unit_vector(rng: np.random.Generator, d: int) -> np.ndarray:
    v = random_complex_gaussian(rng, d)
    return v / np.linalg.norm(v)


def phase_fixed_q(A: np.ndarray) -> np.ndarray:
    """Q of A = QR with column phases fixed so that R has a positive diagonal.

    A may be an (n, r, c) stack; one stacked QR then finishes every matrix.
    """
    Q, R = np.linalg.qr(A)
    phases = np.diagonal(R, axis1=-2, axis2=-1).copy()
    phases /= np.abs(phases)
    return Q * phases[..., None, :]


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary: the phase-fixed Q of a square Gaussian."""
    return phase_fixed_q(random_complex_gaussian(rng, (d, d)))


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    G = random_complex_gaussian(rng, (d, d))
    return (G + G.conj().T) / 2


def gaussian_factor(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """The (d, rank) Gaussian G that random_psd and random_density draw."""
    if rank is None:
        rank = d
    if not 1 <= rank <= d:
        raise DomainError(f"rank must be in [1, {d}], got {rank}")
    return random_complex_gaussian(rng, (d, rank))


def random_psd(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """Wishart matrix G G^dagger with G of shape (d, rank)."""
    G = gaussian_factor(rng, d, rank)
    return G @ G.conj().T


def density_of_factor(G: np.ndarray) -> np.ndarray:
    """G G^dagger / tr[G G^dagger] of a matrix G, or of each matrix of an (n, d, r) stack."""
    W = G @ _dagger(G)
    return W / W.trace(axis1=-2, axis2=-1).real[..., None, None]


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    """Unit-trace Wishart state, full rank by default."""
    return density_of_factor(gaussian_factor(rng, d, rank))


def random_rank_deficient_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-dimension state with its smallest eigenvalue zeroed out exactly."""
    if d < 2:
        raise DomainError("rank-deficient state needs d >= 2")
    rho = psd(random_density(rng, d))
    w, V = rho.w.copy(), rho.V
    w[0] = 0.0
    w /= w.sum()
    return (V * w) @ V.conj().T


def random_projector(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    """Rank-``rank`` orthogonal projector with Haar-random range."""
    if not 0 <= rank <= d:
        raise DomainError(f"projector rank must be in [0, {d}], got {rank}")
    if rank == 0:
        return np.zeros((d, d), dtype=np.complex128)
    U = random_unitary(rng, d)
    V = U[:, :rank]
    return V @ V.conj().T
