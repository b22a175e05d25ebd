"""Dense complex Hermitian linear algebra.

Operators are plain complex ndarrays. The helpers here enforce the
Hermiticity / positivity / projector contracts at API boundaries and provide
the spectral building blocks everything else is made of: eigendecompositions,
validated PSD values (support projector and matrix functions restricted to
the support), and Schatten norms.

Support convention: eigenvalues at or below ``support_cutoff * lambda_max``
count as off-support (strict inequality, so ties break deterministically).
Matrix functions map off-support eigenvalues to 0, which makes log and
negative powers total on PSD inputs (pseudo-inverse convention).

A PSD operator is validated once: ``psd`` runs one Hermiticity check and one
``eigh`` and returns a ``ValidatedPSD``, which every divergence and weighted
norm accepts in place of an ndarray without validating it again.
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
    "ValidatedPSD",
    "psd",
    "require_projector",
    "min_eigenvalue",
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
            if not 0 <= getattr(self, field.name) < np.inf:
                raise DomainError(f"{field.name} must be finite and nonnegative")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(M) -> np.ndarray:
    """Coerce to a 2-d complex128 array; a ValidatedPSD gives its matrix."""
    if isinstance(M, ValidatedPSD):
        return M.matrix
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
    """Validate finite entries and Hermiticity in max-entry norm; return the symmetrized copy."""
    A = _require_square(as_matrix(A))
    if not np.isfinite(A).all():
        raise DomainError("matrix has non-finite entries")
    defect = np.abs(A - A.conj().T).max() if A.size else 0.0
    if defect > cfg.hermiticity_tolerance:
        raise DomainError(f"matrix is not Hermitian (defect {defect:.3e})")
    return (A + A.conj().T) / 2


def _solve(solver, A: np.ndarray):
    """Run a numpy Hermitian eigensolver, reporting non-convergence as EigensolverError."""
    try:
        return solver(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(A.shape[0]) from exc


class ValidatedPSD:
    """A PSD operator validated once, with its one eigendecomposition.

    ``matrix`` is the symmetrized input, ``w``/``V`` its ascending eigenvalues
    and eigenvectors, and ``on`` the support mask under ``cfg.support_cutoff``.
    Build it with ``psd``. The support projector and the functions on the
    support are computed once per value and returned read-only.
    """

    __slots__ = ("matrix", "w", "V", "on", "cfg", "_cache")

    def __init__(self, matrix: np.ndarray, w: np.ndarray, V: np.ndarray, cfg: ToleranceConfig):
        self.matrix, self.w, self.V, self.cfg = matrix, w, V, cfg
        lmax = float(w[-1]) if w.size else 0.0
        self.on = w > cfg.support_cutoff * lmax if lmax > 0.0 else np.zeros_like(w, dtype=bool)
        self._cache = {}

    def _cached(self, key, build) -> np.ndarray:
        if key not in self._cache:
            out = self._cache[key] = build()
            out.flags.writeable = False
        return self._cache[key]

    def projector(self) -> np.ndarray:
        """Projector onto the support; the zero matrix maps to the zero projector."""
        Von = self.V[:, self.on]
        return self._cached("projector", lambda: Von @ Von.conj().T)

    def _on_support(self, scalar_fn) -> np.ndarray:
        out = np.zeros_like(self.w)
        out[self.on] = scalar_fn(self.w[self.on])
        return (self.V * out) @ self.V.conj().T

    def log(self) -> np.ndarray:
        """Natural logarithm on the support."""
        return self._cached("log", lambda: self._on_support(np.log))

    def power(self, t: float) -> np.ndarray:
        """Fractional power on the support."""
        t = float(t)
        return self._cached(t, lambda: self._on_support(lambda w: w ** t))


def psd(A, cfg: ToleranceConfig = DEFAULT_TOL) -> ValidatedPSD:
    """Validate Hermiticity plus min eigenvalue >= -psd_tolerance, with one eigh.

    A ValidatedPSD built under the same tolerances is returned unchanged.
    """
    if isinstance(A, ValidatedPSD) and (A.cfg is cfg or A.cfg == cfg):
        return A
    M = require_hermitian(A, cfg)
    w, V = _solve(np.linalg.eigh, M)
    if w.size and w[0] < -cfg.psd_tolerance:
        raise DomainError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    return ValidatedPSD(M, w, V, cfg)


def require_projector(P, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate ||P^2 - P||_inf <= projector_tolerance (eigenvalues near {0,1})."""
    P = require_hermitian(P, cfg)
    defect = operator_norm(P @ P - P)
    if defect > cfg.projector_tolerance:
        raise DomainError(f"matrix is not a projector (||P^2 - P|| = {defect:.3e})")
    return P


def min_eigenvalue(A, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(_solve(np.linalg.eigvalsh, require_hermitian(A, cfg))[0])


def schatten_norm(X, p: float) -> float:
    """Schatten p-norm of a square matrix for p in [1, inf]."""
    X = _require_square(as_matrix(X))
    if not (p == np.inf or p >= 1):
        raise DomainError(f"Schatten norm requires p >= 1, got {p}")
    if not np.isfinite(X).all():
        raise DomainError("matrix has non-finite entries")
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
