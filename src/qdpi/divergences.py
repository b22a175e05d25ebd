"""Entropic divergences between positive semidefinite operators.

Values live on the extended real line: finite floats, or ``math.inf`` when a
support condition fails. Logarithms are natural throughout, so divergences
are measured in nats.

Support conditions use a trace-norm witness: for PSD ``rho`` the mass of rho
outside the support of sigma is ``tr[rho] - tr[rho P_sigma]``, compared
against ``containment_tolerance * tr[rho]``.

``relative_entropy``, ``klein_gap``, ``sandwiched_renyi`` and
``support_contained`` take two matrices or two (n, d, d) stacks, as ``psd``
does, ``von_neumann_entropy`` one matrix or one stack, and
``weighted_p_norm`` a matrix or a stack of X under one sigma. For stacks
they give a list whose values carry the bits of each pair (or matrix)
evaluated alone. Every other function takes matrices only.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DomainError,
    ToleranceConfig,
    _psd_matrix,
    _solve,
    hermitian_part,
    operator_norm,
    psd,
    schatten_norm,
)

__all__ = [
    "support_contained",
    "von_neumann_entropy",
    "relative_entropy",
    "sandwiched_renyi",
    "old_renyi",
    "klein_gap",
    "gamma_inverse",
    "weighted_p_norm",
    "renyi_via_norm",
]


def _pair(rho, sigma, cfg: ToleranceConfig):
    """Validated rho and sigma of one shape: two matrices or two stacks."""
    rho, sigma = psd(rho, cfg), psd(sigma, cfg)
    if rho.matrix.shape != sigma.matrix.shape:
        raise DomainError(f"shape mismatch: {rho.matrix.shape} vs {sigma.matrix.shape}")
    return rho, sigma


def _matrix_pair(rho, sigma, cfg: ToleranceConfig):
    """``_pair`` of two matrices: a stack is rejected."""
    return _pair(_psd_matrix(rho, cfg), _psd_matrix(sigma, cfg), cfg)


def _traces(A) -> np.ndarray:
    """The real trace of a validated operator, or of each matrix of a stack."""
    return A.matrix.trace(axis1=-2, axis2=-1).real


def _over_positive(w: np.ndarray, reduce, empty: float):
    """reduce of the positive eigenvalues of each spectrum on the last axis of w; empty for a spectrum with none.

    A spectrum's positive eigenvalues are its last k, as eigh sorts them.
    Spectra with an eigenvalue that is not positive are grouped by k, so
    each spectrum of a stack is reduced exactly as it is alone.
    """
    if w.min(initial=math.inf) > 0.0:  # every eigenvalue positive, the common case
        return reduce(w)
    counts = np.count_nonzero(w > 0.0, axis=-1)
    values = np.full(counts.shape, empty)
    for k in set(counts.ravel().tolist()) - {0}:
        rows = counts == k
        values[rows] = reduce(w[rows][:, -k:])
    return values


def _xlogx(w: np.ndarray) -> np.ndarray:
    """tr[A ln A] from the eigenvalues of A, with 0 ln 0 = 0: one value per spectrum on the last axis of w."""
    return _over_positive(w, lambda x: (x * np.log(x)).sum(axis=-1), 0.0)


def _contained(rho, sigma, cfg: ToleranceConfig):
    """supp(rho) within supp(sigma) for validated operators: one bool per matrix of a stack."""
    tr_rho = rho.matrix.trace(axis1=-2, axis2=-1).real
    leak = tr_rho - (rho.matrix @ sigma.projector()).trace(axis1=-2, axis2=-1).real
    return (tr_rho <= 0.0) | (leak <= cfg.containment_tolerance * tr_rho)


def support_contained(rho, sigma, cfg: ToleranceConfig = DEFAULT_TOL):
    """Whether supp(rho) is contained in supp(sigma), up to tolerance.

    Uses ||(1 - P) rho (1 - P)||_1 = tr[rho] - tr[rho P] for the support
    projector P of sigma, measured relative to tr[rho]. A bool for two
    matrices, a list of bools for two stacks.
    """
    contained = _contained(*_pair(rho, sigma, cfg), cfg)
    return bool(contained) if contained.ndim == 0 else contained.tolist()


def von_neumann_entropy(rho, cfg: ToleranceConfig = DEFAULT_TOL):
    """-tr[rho ln rho] in nats: a float for a matrix, a list for a stack."""
    values = -_xlogx(psd(rho, cfg).w)
    return float(values) if values.ndim == 0 else values.tolist()


def _relative_core(rho, sigma, cfg: ToleranceConfig) -> np.ndarray:
    """tr[rho ln rho] - tr[rho ln sigma] of a validated pair, or of each pair of two stacks; +inf off the support."""
    cross = np.einsum("...ij,...ji->...", rho.matrix, sigma.log()).real
    return np.where(_contained(rho, sigma, cfg), _xlogx(rho.w) - cross, math.inf)


def relative_entropy(rho, sigma, cfg: ToleranceConfig = DEFAULT_TOL):
    """tr[rho (ln rho - ln sigma)], or +inf if the support condition fails.

    rho = 0 gives 0 by convention (both sides of any monotonicity statement
    vanish for the zero operator). A float for two matrices; for two
    (n, d, d) stacks a list of n floats, each carrying the bits of its pair
    evaluated alone.
    """
    rho, sigma = _pair(rho, sigma, cfg)
    return np.where(_traces(rho) == 0.0, 0.0, _relative_core(rho, sigma, cfg)).tolist()


def _renyi_pair(rho, sigma, alpha: float, cfg: ToleranceConfig):
    alpha = float(alpha)
    if not (0.0 < alpha < math.inf and alpha != 1.0):
        raise DomainError(f"alpha must be in (0,1) or (1,inf), got {alpha}")
    rho, sigma = _pair(rho, sigma, cfg)
    if 0.0 in rho.matrix.trace(axis1=-2, axis2=-1).real.ravel().tolist():
        raise DomainError("Renyi divergence is undefined for rho = 0")
    return rho, sigma, alpha


# math.log elementwise: numpy's SIMD log can differ from it in the last bit, which would change report bytes
_math_log = np.frompyfunc(math.log, 1, 1)


def _renyi_values(w: np.ndarray, alpha: float):
    """(1/(alpha-1)) ln sum w^alpha of each positive spectrum on the last axis of w.

    The sum is taken in log-sum-exp form, which keeps large alpha from
    overflowing, and its logarithm by ``math.log``. A numpy float for one
    spectrum, an object array of floats for a stack.
    """
    logs = np.log(w)
    logs *= alpha
    # the initial value lets an empty stack of 0 x 0 spectra reduce
    m = np.maximum.reduce(logs, axis=-1, initial=-math.inf)
    logs -= m[..., None]
    s = np.add.reduce(np.exp(logs, out=logs), axis=-1)
    return (m + _math_log(s)) / (alpha - 1.0)


def _sandwiched_values(rho, sigma, alpha: float):
    """The sandwiched formula of a pair, or of each pair of two stacks, without the support condition.

    The sum runs over the positive eigenvalues of each product
    sigma^{(1-alpha)/2a} rho sigma^{(1-alpha)/2a} (``_over_positive``),
    +inf without one. Shaped as ``_renyi_values``.
    """
    A = sigma.power((1.0 - alpha) / (2.0 * alpha))
    # symmetrized, not validated: the entries of this product can be far above
    # any absolute Hermiticity tolerance when sigma is nearly singular
    w, _ = _solve(np.linalg.eigh, hermitian_part(A @ rho.matrix @ A))
    return _over_positive(w, lambda x: _renyi_values(x, alpha), math.inf)


def sandwiched_renyi(rho, sigma, alpha: float, cfg: ToleranceConfig = DEFAULT_TOL):
    """Sandwiched Renyi divergence of order alpha in (0, 1) or (1, inf).

    (1/(alpha-1)) ln tr[(sigma^{(1-alpha)/2a} rho sigma^{(1-alpha)/2a})^alpha].
    For alpha > 1 the support condition applies (+inf on failure). For
    alpha < 1 the same formula is exposed as an extension; the value is +inf
    exactly when the trace vanishes (orthogonal supports).

    A float for two matrices; for two (n, d, d) stacks a list of n floats,
    each carrying the bits of its pair evaluated alone.
    """
    rho, sigma, alpha = _renyi_pair(rho, sigma, alpha, cfg)
    if alpha > 1.0:
        contained = _contained(rho, sigma, cfg)
        if False in contained.ravel().tolist():
            # +inf off the support, with no eigensolve when no pair is on it
            values = _sandwiched_values(rho, sigma, alpha) if contained.any() else math.inf
            return np.where(contained, values, math.inf).tolist()
    return _sandwiched_values(rho, sigma, alpha).tolist()


def old_renyi(rho, sigma, alpha: float, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Non-sandwiched quantity (1/(alpha-1)) ln tr[rho^alpha sigma^{1-alpha}]."""
    rho, sigma, alpha = _renyi_pair(_psd_matrix(rho, cfg), _psd_matrix(sigma, cfg), alpha, cfg)
    if alpha > 1.0 and not support_contained(rho, sigma, cfg):
        return math.inf
    q = float(np.einsum("ij,ji->", rho.power(alpha), sigma.power(1.0 - alpha)).real)
    if q <= 0.0:
        return math.inf
    return math.log(q) / (alpha - 1.0)


def klein_gap(A, B, cfg: ToleranceConfig = DEFAULT_TOL):
    """tr[A ln A - A ln B] + tr[B - A] for PSD A, B; nonnegative up to rounding.

    +inf when supp(A) is not contained in supp(B). Matrices or stacks, as
    for ``relative_entropy``.
    """
    A, B = _pair(A, B, cfg)
    tr_A, tr_B = _traces(A), _traces(B)
    return np.where(tr_A == 0.0, tr_B, _relative_core(A, B, cfg) - tr_A + tr_B).tolist()


def gamma_inverse(sigma, X, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """sigma^{-1/2} X sigma^{-1/2} with the inverse taken on the support.

    X must live on supp(sigma): X = P X P up to tolerance. The defect is
    compared against sqrt(containment_tolerance) * ||X||_inf because mass
    epsilon outside the support shows up as sqrt(epsilon) cross blocks.
    """
    sigma = _psd_matrix(sigma, cfg)
    X = np.asarray(X, dtype=np.complex128)
    P = sigma.projector()
    defect = operator_norm(X - P @ X @ P)
    scale = operator_norm(X)
    if scale > 0.0 and defect > math.sqrt(cfg.containment_tolerance) * scale:
        raise DomainError(
            f"input has components off supp(sigma) (defect {defect:.3e}); "
            "restrict it to the support first"
        )
    root = sigma.power(-0.5)
    return root @ X @ root


def weighted_p_norm(X, sigma, p: float, cfg: ToleranceConfig = DEFAULT_TOL):
    """Weighted norm ||sigma^{1/2p} X sigma^{1/2p}||_p; plain operator norm at p=inf.

    sigma must be full rank (the weights are invertible there); at p = inf the
    weights drop out and the value is the largest singular value of X. The
    weight is computed once per validated sigma and p. X is a matrix, or an
    (n, d, d) stack weighted by the one sigma, which gives a list of norms
    from one SVD.
    """
    if p == np.inf or p == math.inf:
        return operator_norm(X)
    p = float(p)
    if p < 1.0:
        raise DomainError(f"weighted norm requires p >= 1, got {p}")
    sigma = _psd_matrix(sigma, cfg)
    if not (sigma.w.size and sigma.on.all()):
        raise DomainError("sigma is rank-deficient; restrict to its support before taking weighted norms")
    root = sigma.power(1.0 / (2.0 * p))
    return schatten_norm(root @ np.asarray(X, dtype=np.complex128) @ root, p)


def renyi_via_norm(rho, sigma, alpha: float, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Sandwiched divergence written through the weighted norm.

    (alpha/(alpha-1)) ln || sigma^{-1/2} rho sigma^{-1/2} ||_{alpha, sigma}.
    Cross-check path: agrees with ``sandwiched_renyi`` whenever the support
    condition holds. Rank-deficient sigma is handled by compressing both
    operators to supp(sigma) first.
    """
    alpha = float(alpha)
    if not 1.0 < alpha < math.inf:
        raise DomainError(f"norm form needs finite alpha > 1, got {alpha}")
    rho, sigma = _matrix_pair(rho, sigma, cfg)
    if not support_contained(rho, sigma, cfg):
        return math.inf
    X = rho.matrix
    if not sigma.on.all():
        B = sigma.V[:, sigma.on]
        X = B.conj().T @ X @ B
        sigma = psd(B.conj().T @ sigma.matrix @ B, cfg)
    nrm = weighted_p_norm(gamma_inverse(sigma, X, cfg), sigma, alpha, cfg)
    if nrm <= 0.0:
        return math.inf
    return (alpha / (alpha - 1.0)) * math.log(nrm)
