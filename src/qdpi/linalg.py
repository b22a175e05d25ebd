"""Dense complex Hermitian linear algebra.

Operators are plain complex ndarrays. The helpers here enforce the
Hermiticity / positivity / projector contracts at API boundaries and provide
the spectral building blocks everything else is made of: eigendecompositions,
support projectors, matrix functions restricted to the support, and Schatten
norms.

Support convention: eigenvalues at or below ``support_cutoff * lambda_max``
count as off-support (strict inequality, so ties break deterministically).
Matrix functions map off-support eigenvalues to 0, which makes log and
negative powers total on PSD inputs (pseudo-inverse convention).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "EigensolverError",
    "ToleranceConfig",
    "DEFAULT_TOL",
    "as_matrix",
    "hermitian_part",
    "require_hermitian",
    "require_psd",
    "require_projector",
    "hermitian_eig",
    "min_eigenvalue",
    "max_eigenvalue",
    "support_projector",
    "matrix_function_on_support",
    "log_on_support",
    "power_on_support",
    "schatten_norm",
    "trace_norm",
    "operator_norm",
]


class DomainError(ValueError):
    """An input violates a documented precondition."""


class EigensolverError(RuntimeError):
    """The Hermitian eigensolver failed to converge."""

    def __init__(self, dim: int):
        super().__init__(f"hermitian eigensolver failed to converge (dim={dim})")
        self.dim = dim


@dataclass(frozen=True)
class ToleranceConfig:
    """Every numerical cutoff used by the library, in one place.

    support_cutoff is relative to the largest eigenvalue of the operator it
    is applied to; containment_tolerance is relative to tr[rho] in support
    containment tests. The remaining fields are absolute.
    """

    support_cutoff: float = 1e-12
    psd_tolerance: float = 1e-10
    monotonicity_slack: float = 1e-8
    hermiticity_tolerance: float = 1e-10
    containment_tolerance: float = 1e-10
    projector_tolerance: float = 1e-10

    def __post_init__(self):
        for field in dataclasses.fields(self):
            if getattr(self, field.name) < 0:
                raise DomainError(f"{field.name} must be nonnegative")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-d complex128 array."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise DomainError(f"expected a matrix, got array of ndim {A.ndim}")
    return A


def _require_square(A: np.ndarray) -> np.ndarray:
    if A.shape[0] != A.shape[1]:
        raise DomainError(f"expected a square matrix, got shape {A.shape}")
    return A


def hermitian_part(A) -> np.ndarray:
    """(A + A^dagger) / 2."""
    A = _require_square(as_matrix(A))
    return (A + A.conj().T) / 2


def require_hermitian(A, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate Hermiticity in max-entry norm and return the symmetrized copy."""
    A = _require_square(as_matrix(A))
    defect = np.abs(A - A.conj().T).max() if A.size else 0.0
    # a NaN defect fails this comparison, so non-finite input is rejected here
    if not defect <= cfg.hermiticity_tolerance:
        raise DomainError(f"matrix is not Hermitian (defect {defect:.3e})")
    return (A + A.conj().T) / 2


def require_psd(A, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate Hermiticity plus min eigenvalue >= -psd_tolerance."""
    A = require_hermitian(A, cfg)
    lo = min_eigenvalue(A, cfg, _validated=True)
    if lo < -cfg.psd_tolerance:
        raise DomainError(f"matrix is not PSD (min eigenvalue {lo:.3e})")
    return A

def require_projector(P, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate ||P^2 - P||_inf <= projector_tolerance (eigenvalues near {0,1})."""
    P = require_hermitian(P, cfg)
    defect = operator_norm(P @ P - P)
    if defect > cfg.projector_tolerance:
        raise DomainError(f"matrix is not a projector (||P^2 - P|| = {defect:.3e})")
    return P


def hermitian_eig(A, cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix: (ascending eigenvalues, unitary V)."""
    A = require_hermitian(A, cfg)
    try:
        w, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(A.shape[0]) from exc
    return w, V


def min_eigenvalue(A, cfg: ToleranceConfig = DEFAULT_TOL, _validated: bool = False) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    if not _validated:
        A = require_hermitian(A, cfg)
    try:
        w = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(A.shape[0]) from exc
    return float(w[0])


def max_eigenvalue(A, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Largest eigenvalue of a Hermitian matrix."""
    A = require_hermitian(A, cfg)
    try:
        w = np.linalg.eigvalsh(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(A.shape[0]) from exc
    return float(w[-1])


def _support_mask(w: np.ndarray, cutoff: float) -> np.ndarray:
    lmax = float(w[-1]) if w.size else 0.0
    if lmax <= 0.0:
        return np.zeros_like(w, dtype=bool)
    return w > cutoff * lmax


def support_projector(A, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Projector onto the span of eigenvectors above the support cutoff.

    The zero matrix maps to the zero projector.
    """
    A = require_psd(A, cfg)
    w, V = hermitian_eig(A, cfg)
    on = _support_mask(w, cfg.support_cutoff)
    Von = V[:, on]
    return Von @ Von.conj().T


def matrix_function_on_support(A, fn, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Spectral function of a PSD matrix, restricted to its support.

    ``fn`` is "log" or ("power", t). Off-support eigenvalues map to 0, so
    log and negative powers never see a zero eigenvalue.
    """
    if fn == "log":
        return log_on_support(A, cfg)
    if isinstance(fn, tuple) and len(fn) == 2 and fn[0] == "power":
        return power_on_support(A, float(fn[1]), cfg)
    raise DomainError(f"unknown matrix function tag {fn!r}")


def _apply_on_support(A, scalar_fn, cfg: ToleranceConfig) -> np.ndarray:
    A = require_psd(A, cfg)
    w, V = hermitian_eig(A, cfg)
    on = _support_mask(w, cfg.support_cutoff)
    out = np.zeros_like(w)
    out[on] = scalar_fn(w[on])
    return (V * out) @ V.conj().T


def log_on_support(A, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Natural matrix logarithm on the support of a PSD matrix."""
    return _apply_on_support(A, np.log, cfg)


def power_on_support(A, t: float, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Fractional matrix power A^t on the support of a PSD matrix."""
    return _apply_on_support(A, lambda w: w ** t, cfg)


def schatten_norm(X, p: float) -> float:
    """Schatten p-norm of a square matrix for p in [1, inf]."""
    X = _require_square(as_matrix(X))
    if not (p == np.inf or p >= 1):
        raise DomainError(f"Schatten norm requires p >= 1, got {p}")
    s = np.linalg.svd(X, compute_uv=False)
    if s.size == 0:
        return 0.0
    smax = float(s[0])
    if p == np.inf or smax == 0.0:
        return smax
    # factor out s_max so large p cannot overflow
    return smax * float(((s / smax) ** p).sum() ** (1.0 / p))


def trace_norm(X) -> float:
    return schatten_norm(X, 1)


def operator_norm(X) -> float:
    return schatten_norm(X, np.inf)
