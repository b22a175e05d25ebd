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

A PSD operator is validated once, by ``ValidatedPSD(A, cfg)``: from A alone
it runs one Hermiticity check and one ``eigh``, so its spectrum is its
matrix's. Every divergence and weighted norm accepts one in place of an
ndarray without validating it again. A stack is checked matrix by matrix
with one stacked ``eigh`` and keeps its leading axis through every method.
Every eigensolve goes through ``_solve``.

``psd``, ``min_eigenvalue``, ``require_projector`` and ``schatten_norm``
(so ``trace_norm`` and ``operator_norm``) take a matrix or an (n, d, d)
stack. A stack costs one solver call, and each of its values carries the
bits of its matrix evaluated alone; the first failing matrix of a stack
raises the error it raises alone. The numbers come back as a float for a
matrix and as a list for a stack.
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
    """The numerical cutoffs a caller can set, passed to the library as ``cfg``.

    support_cutoff is relative to the largest eigenvalue of the operator it
    is applied to; containment_tolerance is relative to tr[rho] in support
    containment tests. The remaining fields are absolute.

    Thresholds fixed by a contract are constants beside their readers:
    ``channels.TRACE_TOLERANCE``, the harness's suite thresholds
    (``TRACE_MATCH_TOLERANCE``, ``VIOLATION_MARGIN``, ``RATIO_BOUND``,
    ``UNIT_IMAGE_TOLERANCE``, ``ADJOINT_UNIT_BOUND``, ``STEP2_*``,
    ``SUPPORT_INCLUSION_TOLERANCE``) and serialize's density-trace 1e-9.
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
    """Coerce to a 2-d complex128 array; a ValidatedPSD of one matrix gives its matrix."""
    A = M.matrix if isinstance(M, ValidatedPSD) else np.asarray(M, dtype=np.complex128)
    if A.ndim != 2:
        raise DomainError(f"expected a matrix, got array of ndim {A.ndim}")
    return A


def _as_operator(A) -> np.ndarray:
    """Coerce to a complex128 square matrix or (n, d, d) stack; a ValidatedPSD gives its matrix."""
    A = A.matrix if isinstance(A, ValidatedPSD) else np.asarray(A, dtype=np.complex128)
    if A.ndim not in (2, 3):
        raise DomainError(f"expected a matrix, got array of ndim {A.ndim}")
    return _require_square(A)


def _require_square(A: np.ndarray) -> np.ndarray:
    if A.shape[-1] != A.shape[-2]:
        raise DomainError(f"expected a square matrix, got shape {A.shape}")
    return A


def _dagger(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return A.conj().swapaxes(-1, -2)


def _first(values, bad) -> float:
    """The first entry of values, in stack order, where bad holds."""
    return float(np.asarray(values)[bad].flat[0])


def hermitian_part(A) -> np.ndarray:
    """A/2 + A^dagger/2 of a matrix, or of each matrix in an (n, d, d) stack.

    Halving before adding is exact and keeps every finite entry finite.
    """
    half = _as_operator(A) / 2
    return half + _dagger(half)


def _checked_hermitian(A: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Finite entries and Hermiticity of a matrix or of each matrix of a stack; the symmetrized copy."""
    if not np.isfinite(A).all():
        raise DomainError("matrix has non-finite entries")
    # finite entries more than the float range apart overflow to a defect of
    # inf, which no tolerance admits
    with np.errstate(over="ignore"):
        diff = np.abs(A - _dagger(A))
    if A.size and diff.max() > cfg.hermiticity_tolerance:
        defect = diff.max(axis=(-2, -1))
        raise DomainError(
            f"matrix is not Hermitian (defect {_first(defect, defect > cfg.hermiticity_tolerance):.3e})"
        )
    return hermitian_part(A)


def require_hermitian(A, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate finite entries and Hermiticity in max-entry norm; return the symmetrized copy."""
    return _checked_hermitian(_require_square(as_matrix(A)), cfg)


def _solve(solver, A: np.ndarray):
    """Run a numpy Hermitian eigensolver (``np.linalg.eigh`` or ``eigvalsh``) on A.

    Non-convergence raises EigensolverError; eigenvalues beyond the float
    range, which a finite A near the float limit can have, raise DomainError.
    """
    try:
        out = solver(A)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(A.shape[-1]) from exc
    if not np.isfinite(out[0] if isinstance(out, tuple) else out).all():
        raise DomainError("spectrum overflows the float range")
    return out


class ValidatedPSD:
    """A PSD operator validated once, with its one eigendecomposition.

    ``ValidatedPSD(A, cfg)`` takes a matrix or an (n, d, d) stack and checks
    finite entries and Hermiticity, then runs one ``eigh`` and the check
    min eigenvalue >= -psd_tolerance on every matrix; the first failing
    matrix raises the DomainError it raises alone. ``matrix`` is the
    symmetrized input, ``w``/``V`` its ascending eigenvalues and
    eigenvectors, and ``on`` the support mask under ``cfg.support_cutoff``
    (built on first use). A stack's leading axis is kept by every field and
    method. ``matrix``, ``w`` and ``V`` are read-only from construction, so
    a validated value, or a view into a validated stack, cannot be changed
    into one that fails its checks. The support projector and the functions
    on the support are computed once per value and returned read-only.
    """

    __slots__ = ("matrix", "w", "V", "cfg", "_on", "_cache")

    def __init__(self, A, cfg: ToleranceConfig = DEFAULT_TOL):
        M = _checked_hermitian(_as_operator(A), cfg)
        w, V = _solve(np.linalg.eigh, M)
        if w.min(initial=0.0) < -cfg.psd_tolerance:
            # eigh sorts ascending: the first eigenvalue of each matrix is its lowest
            lowest = w[..., 0]
            raise DomainError(
                f"matrix is not PSD (min eigenvalue {_first(lowest, lowest < -cfg.psd_tolerance):.3e})"
            )
        for out in (M, w, V):
            out.flags.writeable = False
        self.matrix, self.w, self.V, self.cfg = M, w, V, cfg
        self._on = None
        self._cache = {}

    def _cached(self, key, build) -> np.ndarray:
        if key not in self._cache:
            out = self._cache[key] = build()
            out.flags.writeable = False
        return self._cache[key]

    @property
    def on(self) -> np.ndarray:
        if self._on is None:
            # eigh sorts ascending, so lambda_max is the last eigenvalue of each
            # matrix; every eigenvalue is <= lambda_max, so a lambda_max <= 0 or
            # a cutoff of 1 or more leaves an empty support
            lambda_max = self.w[..., -1:]
            self._on = self.w > min(self.cfg.support_cutoff, 1.0) * lambda_max
        return self._on

    def projector(self) -> np.ndarray:
        """Projector onto the support; the zero matrix maps to the zero projector."""
        return self._cached("projector", self._projector)

    def _projector(self) -> np.ndarray:
        # every matrix at once, then each one short of full support from its own
        # support columns, so a matrix of a stack gets the bits it has alone
        on, V = self.on, self.V
        P = V @ _dagger(V)
        if not on.all():
            for i in map(tuple, np.argwhere(~on.all(axis=-1))):
                Von = V[i][:, on[i]]
                P[i] = Von @ _dagger(Von)
        return P

    def _on_support(self, scalar_fn) -> np.ndarray:
        on = self.on
        out = np.zeros(self.w.shape)
        out[on] = scalar_fn(self.w[on])
        return (self.V * out[..., None, :]) @ _dagger(self.V)

    def log(self) -> np.ndarray:
        """Natural logarithm on the support."""
        return self._cached("log", lambda: self._on_support(np.log))

    def power(self, t: float) -> np.ndarray:
        """Fractional power on the support."""
        t = float(t)
        return self._cached(t, lambda: self._on_support(lambda w: w ** t))


def psd(A, cfg: ToleranceConfig = DEFAULT_TOL) -> ValidatedPSD:
    """``ValidatedPSD(A, cfg)``, or A itself when it was validated under the same tolerances."""
    if isinstance(A, ValidatedPSD) and (A.cfg is cfg or A.cfg == cfg):
        return A
    return ValidatedPSD(A, cfg)


def _psd_matrix(A, cfg: ToleranceConfig) -> ValidatedPSD:
    """``psd`` of one matrix: a stack raises the DomainError ``as_matrix`` raises."""
    as_matrix(A)
    return psd(A, cfg)


def require_projector(P, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Validate ||P^2 - P||_inf <= projector_tolerance (eigenvalues near {0,1}) of a matrix or of
    each matrix of a stack; return the symmetrized copy."""
    P = _checked_hermitian(_as_operator(P), cfg)
    defects = [x for x in np.ravel(operator_norm(P @ P - P)) if x > cfg.projector_tolerance]
    if defects:
        raise DomainError(f"matrix is not a projector (||P^2 - P|| = {defects[0]:.3e})")
    return P


def min_eigenvalue(A, cfg: ToleranceConfig = DEFAULT_TOL):
    """Smallest eigenvalue of a Hermitian matrix, or of each matrix of a stack."""
    lowest = _solve(np.linalg.eigvalsh, _checked_hermitian(_as_operator(A), cfg))[..., 0]
    return float(lowest) if lowest.ndim == 0 else lowest.tolist()


def schatten_norm(X, p: float):
    """Schatten p-norm of a square matrix, or of each matrix of a stack, for p in [1, inf]."""
    X = _as_operator(X)
    if not (p == np.inf or p >= 1):
        raise DomainError(f"Schatten norm requires p >= 1, got {p}")
    if not np.isfinite(X).all():
        raise DomainError("matrix has non-finite entries")
    s = np.atleast_2d(np.linalg.svd(X, compute_uv=False))  # one row of descending values per matrix
    smax = s[:, 0] if s.shape[1] else np.zeros(len(s))
    if p == np.inf:
        values = smax.tolist()
    else:
        # factor out s_max so large p cannot overflow; the root is taken per row as a
        # scalar power, which an array power need not match in the last bit
        sums = ((s / np.where(smax > 0.0, smax, 1.0)[:, None]) ** p).sum(axis=-1)
        values = [m * float(t ** (1.0 / p)) if m > 0.0 else m for m, t in zip(smax.tolist(), sums)]
    return values[0] if X.ndim == 2 else values


def trace_norm(X):
    return schatten_norm(X, 1)


def operator_norm(X):
    return schatten_norm(X, np.inf)
