"""Reference values the benchmark checks qdpi's outputs against.

Everything here is written independently of ``src/qdpi``: closed forms from
the paper, classical formulas for commuting pairs, and divergences computed
from one ``numpy.linalg.eigh`` per operator. The workloads look these up
through this module, so a test can replace one with a wrong value and see
the workload's check reject the run.
"""

from __future__ import annotations

import math

import numpy as np

LN2 = math.log(2.0)
# The 2x2 counterexample: D(rho||sigma) = ln2/3 before the map and ln2/2 after.
COUNTEREXAMPLE_BEFORE = LN2 / 3.0
COUNTEREXAMPLE_AFTER = LN2 / 2.0
# The transpose and the reduction map both have Choi minimum eigenvalue -1.
CHOI_MIN_TRANSPOSE = -1.0
CHOI_MIN_REDUCTION = -1.0

# Tolerances, all fixed before any run: divergences on the inputs below are
# well conditioned, so 1e-9 leaves four orders of magnitude for rounding.
VALUE_TOL = 1e-9
SPECTRUM_TOL = 1e-9
SLACK = 1e-8
PSD_TOL = 1e-10  # qdpi's default psd_tolerance, which decides "completely_positive"
VIOLATION_MARGIN = 1e-6


def close(value: float, reference: float, tol: float = VALUE_TOL) -> bool:
    """|value - reference| <= tol * max(1, |reference|)."""
    return abs(value - reference) <= tol * max(1.0, abs(reference))


def _eigh(A: np.ndarray):
    return np.linalg.eigh((A + A.conj().T) / 2)


def _function(A: np.ndarray, f) -> np.ndarray:
    w, V = _eigh(A)
    return (V * f(w)) @ V.conj().T


def relative_entropy(rho: np.ndarray, sigma: np.ndarray) -> float:
    """tr[rho (ln rho - ln sigma)] for full-rank sigma."""
    log_rho = _function(rho, lambda w: np.log(np.clip(w, 1e-300, None)))
    log_sigma = _function(sigma, np.log)
    return float(np.trace(rho @ (log_rho - log_sigma)).real)


def sandwiched_renyi(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """(1/(alpha-1)) ln tr[(sigma^{(1-alpha)/2alpha} rho sigma^{(1-alpha)/2alpha})^alpha]."""
    A = _function(sigma, lambda w: w ** ((1.0 - alpha) / (2.0 * alpha)))
    w = np.linalg.eigvalsh((A @ rho @ A + (A @ rho @ A).conj().T) / 2)
    w = w[w > 0.0]
    logs = alpha * np.log(w)
    m = float(logs.max())
    return (m + math.log(float(np.exp(logs - m).sum()))) / (alpha - 1.0)


def petz_renyi(rho: np.ndarray, sigma: np.ndarray, alpha: float) -> float:
    """(1/(alpha-1)) ln tr[rho^alpha sigma^{1-alpha}] for full-rank inputs."""
    ra = _function(rho, lambda w: np.clip(w, 0.0, None) ** alpha)
    sb = _function(sigma, lambda w: w ** (1.0 - alpha))
    return math.log(float(np.trace(ra @ sb).real)) / (alpha - 1.0)


def divergence(family: str, rho, sigma, alpha) -> float:
    if family == "umegaki":
        return relative_entropy(rho, sigma)
    if family == "sandwiched":
        return sandwiched_renyi(rho, sigma, alpha)
    return petz_renyi(rho, sigma, alpha)


def classical_kl(p: np.ndarray, q: np.ndarray) -> float:
    return float(np.sum(p * np.log(p / q)))


def classical_renyi(p: np.ndarray, q: np.ndarray, alpha: float) -> float:
    """Both Renyi families reduce to this when rho and sigma commute."""
    return math.log(float(np.sum(p ** alpha * q ** (1.0 - alpha)))) / (alpha - 1.0)


def classical_divergence(family: str, p, q, alpha) -> float:
    return classical_kl(p, q) if family == "umegaki" else classical_renyi(p, q, alpha)


# ---------------------------------------------------------------------------
# maps, in the column-stacking convention vec(X)[i + d*j] = X[i, j]


def apply_kraus(kraus, X: np.ndarray) -> np.ndarray:
    return sum(K @ X @ K.conj().T for K in kraus)


def superop_of_kraus(kraus) -> np.ndarray:
    """Matrix M with vec(Phi(X)) = M vec(X); vec(K X K^dag) = (conj(K) kron K) vec(X)."""
    return sum(np.kron(K.conj(), K) for K in kraus)


def apply_superop(M: np.ndarray, X: np.ndarray, d_out: int) -> np.ndarray:
    return (M @ X.flatten(order="F")).reshape(d_out, d_out, order="F")


def transpose_superop(d: int) -> np.ndarray:
    M = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for j in range(d):
            M[i + d * j, j + d * i] = 1.0
    return M


def reduction_superop(d: int) -> np.ndarray:
    """X -> (tr[X] 1 - X)/(d-1)."""
    v = np.eye(d).flatten(order="F").astype(np.complex128)
    return (np.outer(v, v) - np.eye(d * d)) / (d - 1)


def choi_of_superop(M: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """sum_ij Phi(E_ij) kron E_ij, assembled one matrix unit at a time."""
    C = np.zeros((d_out * d_in, d_out * d_in), dtype=np.complex128)
    for i in range(d_in):
        for j in range(d_in):
            E = np.zeros((d_in, d_in), dtype=np.complex128)
            E[i, j] = 1.0
            C += np.kron(apply_superop(M, E, d_out), E)
    return C


def choi_min_eigenvalue(M: np.ndarray, d_in: int, d_out: int) -> float:
    return float(np.linalg.eigvalsh(choi_of_superop(M, d_in, d_out))[0])


def adjoint_unit(M: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """Phi*(1): tr[Phi*(1) X] = tr[Phi(X)] gives vec(Phi*(1)^T) = M^T vec(1)."""
    v = np.eye(d_out).flatten(order="F")
    return (M.T @ v).reshape(d_in, d_in, order="F").T


def adjoint_unit_spectrum(M: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    A = adjoint_unit(M, d_in, d_out)
    return np.linalg.eigvalsh((A + A.conj().T) / 2)


def kraus_is_cptp(kraus, tol: float = SPECTRUM_TOL) -> bool:
    """sum K^dag K = 1 and a PSD Choi matrix, checked without qdpi."""
    d_in = kraus[0].shape[1]
    d_out = kraus[0].shape[0]
    unit = sum(K.conj().T @ K for K in kraus)
    if np.abs(unit - np.eye(d_in)).max() > tol:
        return False
    return choi_min_eigenvalue(superop_of_kraus(kraus), d_in, d_out) >= -tol


# ---------------------------------------------------------------------------
# seeded inputs


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Full-rank Wishart state, made exactly Hermitian."""
    G = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    W = G @ G.conj().T + 0.05 * np.eye(d)
    W = W / np.trace(W).real
    return (W + W.conj().T) / 2


def random_kraus(rng: np.random.Generator, d: int, rank: int, scale: float = 1.0):
    """Kraus blocks of a Haar-like isometry; sum K^dag K = scale * 1."""
    G = rng.standard_normal((d * rank, d)) + 1j * rng.standard_normal((d * rank, d))
    Q, R = np.linalg.qr(G)
    V = Q * (np.diag(R) / np.abs(np.diag(R))) * math.sqrt(scale)
    return [V[k * d:(k + 1) * d, :] for k in range(rank)]


def matrix_payload(M: np.ndarray) -> dict:
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def matrix_from_payload(payload: dict) -> np.ndarray:
    return np.asarray(payload["re"], dtype=float) + 1j * np.asarray(payload["im"], dtype=float)
