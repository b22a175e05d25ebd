"""Entropic divergences between positive semidefinite operators.

Values live on the extended real line: finite floats, or ``math.inf`` when a
support condition fails. Logarithms are natural throughout, so divergences
are measured in nats.

Support conditions use a trace-norm witness: for PSD ``rho`` the mass of rho
outside the support of sigma is ``tr[rho] - tr[rho P_sigma]``, compared
against ``containment_tolerance * tr[rho]``.
"""

from __future__ import annotations

import math

import numpy as np

from .linalg import DEFAULT_TOL, DomainError, ToleranceConfig, _solve, operator_norm, psd, schatten_norm

__all__ = [
    "support_contained",
    "von_neumann_entropy",
    "relative_entropy",
    "sandwiched_renyi",
    "old_renyi",
    "klein_gap",
    "gamma_map",
    "gamma_inverse",
    "weighted_p_norm",
    "renyi_via_norm",
]


def _pair(rho, sigma, cfg: ToleranceConfig):
    rho, sigma = psd(rho, cfg), psd(sigma, cfg)
    if rho.matrix.shape != sigma.matrix.shape:
        raise DomainError(f"shape mismatch: {rho.matrix.shape} vs {sigma.matrix.shape}")
    return rho, sigma


def _trace(A) -> float:
    return float(np.trace(A.matrix).real)


def _xlogx(w: np.ndarray) -> float:
    """tr[A ln A] from the eigenvalues of A, with 0 ln 0 = 0."""
    pos = w > 0.0
    return float((w[pos] * np.log(w[pos])).sum()) if pos.any() else 0.0


def support_contained(rho, sigma, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Whether supp(rho) is contained in supp(sigma), up to tolerance.

    Uses ||(1 - P) rho (1 - P)||_1 = tr[rho] - tr[rho P] for the support
    projector P of sigma, measured relative to tr[rho].
    """
    rho, sigma = _pair(rho, sigma, cfg)
    tr_rho = _trace(rho)
    if tr_rho <= 0.0:
        return True
    leak = tr_rho - float(np.trace(rho.matrix @ sigma.projector()).real)
    return leak <= cfg.containment_tolerance * tr_rho


def von_neumann_entropy(rho, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """-tr[rho ln rho] in nats."""
    return -_xlogx(psd(rho, cfg).w)


def _relative_core(rho, sigma, cfg: ToleranceConfig) -> float:
    """tr[rho ln rho] - tr[rho ln sigma] for validated operators, +inf off the support."""
    if not support_contained(rho, sigma, cfg):
        return math.inf
    return _xlogx(rho.w) - float(np.einsum("ij,ji->", rho.matrix, sigma.log()).real)


def relative_entropy(rho, sigma, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """tr[rho (ln rho - ln sigma)], or +inf if the support condition fails.

    rho = 0 gives 0 by convention (both sides of any monotonicity statement
    vanish for the zero operator).
    """
    rho, sigma = _pair(rho, sigma, cfg)
    if _trace(rho) == 0.0:
        return 0.0
    return _relative_core(rho, sigma, cfg)


def _renyi_pair(rho, sigma, alpha: float, cfg: ToleranceConfig):
    alpha = float(alpha)
    if not (alpha > 0.0 and alpha != 1.0):
        raise DomainError(f"alpha must be in (0,1) or (1,inf), got {alpha}")
    rho, sigma = _pair(rho, sigma, cfg)
    if _trace(rho) == 0.0:
        raise DomainError("Renyi divergence is undefined for rho = 0")
    return rho, sigma, alpha


def sandwiched_renyi(rho, sigma, alpha: float, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Sandwiched Renyi divergence of order alpha in (0, 1) or (1, inf).

    (1/(alpha-1)) ln tr[(sigma^{(1-alpha)/2a} rho sigma^{(1-alpha)/2a})^alpha].
    For alpha > 1 the support condition applies (+inf on failure). For
    alpha < 1 the same formula is exposed as an extension; the value is +inf
    exactly when the trace vanishes (orthogonal supports).
    """
    rho, sigma, alpha = _renyi_pair(rho, sigma, alpha, cfg)
    if alpha > 1.0 and not support_contained(rho, sigma, cfg):
        return math.inf
    A = sigma.power((1.0 - alpha) / (2.0 * alpha))
    B = A @ rho.matrix @ A
    # symmetrized, not validated: the entries of this product can be far above
    # any absolute Hermiticity tolerance when sigma is nearly singular
    w, _ = _solve(np.linalg.eigh, (B + B.conj().T) / 2)
    w = w[w > 0.0]
    if w.size == 0:
        return math.inf
    # log-sum-exp form keeps large alpha from overflowing
    logs = alpha * np.log(w)
    m = float(logs.max())
    log_q = m + math.log(float(np.exp(logs - m).sum()))
    return log_q / (alpha - 1.0)


def old_renyi(rho, sigma, alpha: float, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Non-sandwiched quantity (1/(alpha-1)) ln tr[rho^alpha sigma^{1-alpha}]."""
    rho, sigma, alpha = _renyi_pair(rho, sigma, alpha, cfg)
    if alpha > 1.0 and not support_contained(rho, sigma, cfg):
        return math.inf
    q = float(np.einsum("ij,ji->", rho.power(alpha), sigma.power(1.0 - alpha)).real)
    if q <= 0.0:
        return math.inf
    return math.log(q) / (alpha - 1.0)


def klein_gap(A, B, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """tr[A ln A - A ln B] + tr[B - A] for PSD A, B; nonnegative up to rounding.

    +inf when supp(A) is not contained in supp(B).
    """
    A, B = _pair(A, B, cfg)
    tr_A, tr_B = _trace(A), _trace(B)
    if tr_A == 0.0:
        return tr_B
    return _relative_core(A, B, cfg) - tr_A + tr_B


def gamma_map(sigma, X, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """sigma^{1/2} X sigma^{1/2}."""
    root = psd(sigma, cfg).power(0.5)
    return root @ np.asarray(X, dtype=np.complex128) @ root


def gamma_inverse(sigma, X, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """sigma^{-1/2} X sigma^{-1/2} with the inverse taken on the support.

    X must live on supp(sigma): X = P X P up to tolerance. The defect is
    compared against sqrt(containment_tolerance) * ||X||_inf because mass
    epsilon outside the support shows up as sqrt(epsilon) cross blocks.
    """
    sigma = psd(sigma, cfg)
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


def weighted_p_norm(X, sigma, p: float, cfg: ToleranceConfig = DEFAULT_TOL) -> float:
    """Weighted norm ||sigma^{1/2p} X sigma^{1/2p}||_p; plain operator norm at p=inf.

    sigma must be full rank (the weights are invertible there); at p = inf the
    weights drop out and the value is the largest singular value of X. The
    weight is computed once per validated sigma and p.
    """
    if p == np.inf or p == math.inf:
        return operator_norm(X)
    p = float(p)
    if p < 1.0:
        raise DomainError(f"weighted norm requires p >= 1, got {p}")
    sigma = psd(sigma, cfg)
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
    if alpha <= 1.0:
        raise DomainError(f"norm form needs alpha > 1, got {alpha}")
    rho, sigma = _pair(rho, sigma, cfg)
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
