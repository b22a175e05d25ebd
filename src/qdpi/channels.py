"""Linear maps on matrix spaces: representation, classification, families.

Conventions, fixed once and unit-tested via round-trips:
  - column-stacking vectorization, vec(X)[i + d*j] = X[i, j];
  - a map with Kraus operators {K_i} has representation matrix
    sum_i conj(K_i) kron K_i acting on vec(X);
  - unnormalized Choi matrix C = sum_ij Phi(E_ij) tensor E_ij, so complete
    positivity is equivalent to C being PSD.

Positivity semantics are honest: a certificate is either CompletelyPositive,
PositiveByConstruction (a family whose positivity is a theorem), Unverified,
or Falsified (a stored pure state whose image has a negative eigenvalue).
CompletelyPositive is issued by theorem for Kraus forms (the Choi matrix
sum_i vec(K_i) vec(K_i)^dagger is a Gram matrix) and for depolarizing maps
with lam in [0, 1], and by the exact Choi eigenvalue test in ``classify``
and ``from_choi`` (and so in ``qdpi check-map``). Sampling can only falsify,
never certify.

Maps given by Kraus operators evaluate through them; their representation
matrix is built on first access, as one Gram product of the stacked Kraus
operators, and cached. A truncation's terms come from this algebra
(``truncation_parts``): its compression is a composite, a Kraus map for a
Kraus base; ``truncation_map`` adds the rank-1 reroute to its matrix.

Every trace fact is read off Phi*(1), eigendecomposed once per map (for a
list of maps, in one stacked solve) and cached as the map's
``TraceBehavior``: the trace tag (Phi*(1) = 1 or Phi*(1) <= 1), the unit
sector where a trace-nonincreasing map preserves the trace (``sector()``),
and the 1->1 norm of a positive map, its largest eigenvalue (Russo-Dye).
The suites draw every family of ``FAMILY_TABLE`` in two steps: a take reads
a trial's stream and a build makes the maps of many takes at once, each with
the bits of its draw alone (``Family``). The seedless families' draws share
one map per dimension (``_shared``).
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DomainError,
    ToleranceConfig,
    ValidatedPSD,
    _dagger,
    _psd_matrix,
    _solve,
    as_matrix,
    hermitian_part,
    require_projector,
)
from .sampling import (
    phase_fixed_q,
    projector_take,
    projectors,
    random_complex_gaussian,
    trial_streams,
    unit_vectors,
)

__all__ = [
    "TRACE_TOLERANCE",
    "PositivityCertificate",
    "TraceBehavior",
    "SuperOperator",
    "from_matrix",
    "from_kraus",
    "kraus_blocks",
    "from_isometry",
    "apply_kraus_stack",
    "choi",
    "from_choi",
    "adjoint",
    "compose",
    "trace_behavior",
    "classify",
    "one_to_one_norm_positive",
    "gamma_superoperator",
    "identity_map",
    "transpose_map",
    "pinching_map",
    "truncation_parts",
    "truncation_map",
    "reduction_map",
    "depolarizing_map",
    "halving_map",
    "counterexample_map",
    "cptp_draw",
    "random_cptp",
    "random_positive_noncp",
    "damped_cptp",
    "Family",
    "FAMILY_TABLE",
    "families",
    "construct",
]

# thresholds fixed by the trace-behavior contract, independent of ToleranceConfig
TRACE_TOLERANCE = 1e-9


@dataclass(frozen=True, eq=False)
class PositivityCertificate:
    """Why (or whether) a map is believed positive.

    tag is one of "completely_positive", "positive_by_construction",
    "unverified", "falsified". For falsified certificates ``witness`` holds a
    unit vector whose image under the map has a negative eigenvalue.
    ``choi_min`` is the Choi matrix's smallest eigenvalue when ``classify``
    computed it (None when the Choi matrix is not Hermitian).
    """

    tag: str
    reason: str | None = None
    witness: np.ndarray | None = None
    choi_min: float | None = None

    @property
    def is_positive(self) -> bool:
        return self.tag in ("completely_positive", "positive_by_construction")


UNVERIFIED = PositivityCertificate("unverified")


@dataclass(frozen=True, eq=False)
class TraceBehavior:
    """Trace classification of a map, decided exactly through Phi*(1).

    ``w``/``V`` are the ascending eigenvalues and eigenvectors of Phi*(1),
    from its one eigendecomposition. ``tag`` is read off w: "preserving" when
    max|w - 1| <= 1e-9, else "nonincreasing" when max(w) <= 1 + 1e-9, else
    "neither". For a positive map max(w) is the 1->1 norm (Russo-Dye).
    """

    w: np.ndarray
    V: np.ndarray

    @cached_property
    def tag(self) -> str:
        if np.abs(self.w - 1.0).max() <= TRACE_TOLERANCE:
            return "preserving"
        return "nonincreasing" if self.w.max() <= 1.0 + TRACE_TOLERANCE else "neither"

    @property
    def is_nonincreasing(self) -> bool:
        return self.tag in ("preserving", "nonincreasing")

    def sector(self) -> np.ndarray:
        """Orthonormal basis (columns) of the eigenvalue-1 eigenspace of Phi*(1).

        States supported here have their trace preserved exactly by a
        trace-nonincreasing map. Raises when the sector is trivial.
        """
        B = self.V[:, self.w >= 1.0 - TRACE_TOLERANCE]
        if B.shape[1] == 0:
            raise DomainError("Phi*(1) has no eigenvalue-1 sector")
        return B


def _vec(X: np.ndarray) -> np.ndarray:
    return np.asarray(X, dtype=np.complex128).flatten(order="F")


def _unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    return v.reshape(rows, cols, order="F")


class SuperOperator:
    """A linear map on matrices with a dim_out^2 x dim_in^2 representation matrix.

    It is given exactly one operator, from which it reads its dimensions:
    a representation matrix of shape (dim_out^2, dim_in^2), or a tuple of
    Kraus operators, at least one and all of shape (dim_out, dim_in). A
    Kraus map evaluates through ``kraus`` in ``apply``, and its matrix is
    built from them on first access and cached; the two agree on probes
    within rounding. ``descriptor`` records a seeded construction recipe
    when one exists, so the map can be serialized by recipe instead of by
    payload. A map is fixed once built: no attribute can be rebound, and
    ``matrix`` and the Kraus operators are read-only views.
    """

    def __init__(
        self,
        matrix: np.ndarray | None = None,
        kraus: tuple[np.ndarray, ...] | None = None,
        certificate: PositivityCertificate = UNVERIFIED,
        descriptor: dict | None = None,
    ):
        if (matrix is None) == (kraus is None):
            raise DomainError("a map needs exactly one of a representation matrix and Kraus operators")
        if matrix is None:
            if not kraus:
                raise DomainError("at least one Kraus operator is required")
            shape = kraus[0].shape
            if {K.shape for K in kraus} != {shape}:
                raise DomainError("all Kraus operators must share one shape")
            kraus = tuple(map(_read_only, kraus))
        else:
            shape = tuple(map(math.isqrt, matrix.shape))
            if matrix.shape != tuple(map(int.__mul__, shape, shape)):
                raise DomainError(f"representation matrix shape {matrix.shape} is not (d_out^2, d_in^2)")
            vars(self)["matrix"] = _read_only(matrix)  # fills the cached property
        if len(shape) != 2 or min(shape) < 1:
            raise DomainError(f"a map needs dimensions >= 1, got shape {shape}")
        # past __setattr__, which refuses every later change
        vars(self).update(kraus=kraus, dim_out=shape[0], dim_in=shape[1], certificate=certificate,
                          descriptor=descriptor)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a map is fixed once built; cannot change {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def matrix(self) -> np.ndarray:
        return _read_only(_kraus_matrix(self.kraus, self.dim_in, self.dim_out))

    @cached_property
    def _trace_behavior(self) -> TraceBehavior:
        return _trace_behaviors(_adjoint_unit(self))

    @cached_property
    def _choi(self) -> _ChoiFacts:
        return _ChoiFacts(choi(self))

    def apply(self, X) -> np.ndarray:
        """Phi(X) of a matrix, or of each matrix of an (n, dim_in, dim_in) stack."""
        X = _require_input(X, self.dim_in)
        if self.kraus is not None:
            return _kraus_sum(self.kraus, X)
        # M vec(X) as one matrix-vector product per matrix (not one matrix
        # product for a stack), so a stacked image has the bits of its matrix's
        # own; the sizes are written out so an empty stack still reshapes
        lead = X.shape[:-2]
        v = X.swapaxes(-1, -2).reshape(lead + (self.dim_in * self.dim_in, 1))
        return (self.matrix @ v).reshape(lead + (self.dim_out, self.dim_out)).swapaxes(-1, -2)


def _read_only(A: np.ndarray) -> np.ndarray:
    """A read-only view of A; A's own flags are left as they were."""
    view = A.view()
    view.setflags(write=False)
    return view


class _ChoiFacts:
    """A Choi matrix's Hermiticity defect and, computed at most once, its minimum eigenvalue; free of tolerances."""

    def __init__(self, C: np.ndarray):
        self.C, self.defect = C, float(np.abs(C - C.conj().T).max())

    @cached_property
    def min(self) -> float:
        return float(_solve(np.linalg.eigvalsh, hermitian_part(self.C))[0])


def _require_input(X, dim_in: int) -> np.ndarray:
    """A map input of the input dimension with finite entries: a matrix or a stack, or its ValidatedPSD."""
    X = X.matrix if isinstance(X, ValidatedPSD) else np.asarray(X, dtype=np.complex128)
    if X.ndim not in (2, 3) or X.shape[-2:] != (dim_in, dim_in):
        raise DomainError(f"input shape {X.shape} does not match map input dimension {dim_in}")
    if not np.isfinite(X).all():
        raise DomainError("map input has non-finite entries")
    return X


def _kraus_sum(kraus, X: np.ndarray) -> np.ndarray:
    """sum_i K_i X K_i^dagger, matrix by matrix when X and the K_i are stacks."""
    dim_out = kraus[0].shape[-2]
    out = np.zeros(X.shape[:-2] + (dim_out, dim_out), dtype=np.complex128)
    for K in kraus:
        out += K @ X @ _dagger(K)
    return out


def apply_kraus_stack(kraus, X) -> np.ndarray:
    """Apply n Kraus maps to n inputs at once: ``apply`` of each, with its checks.

    X is an (n, d_in, d_in) stack and each K_i an (n, d_out, d_in) stack;
    matrix j of the result is sum_i K_i[j] X[j] K_i[j]^dagger.
    """
    return _kraus_sum(kraus, _require_input(X, kraus[0].shape[-1]))


def from_matrix(M, *, certificate: PositivityCertificate = UNVERIFIED,
                descriptor: dict | None = None) -> SuperOperator:
    """The map with representation matrix M, of shape (d_out^2, d_in^2), which gives its dimensions."""
    return SuperOperator(as_matrix(M), None, certificate, descriptor)


def _kraus_matrix(kraus, dim_in: int, dim_out: int) -> np.ndarray:
    """sum_i conj(K_i) kron K_i as one Gram product, O(k d_out^2 d_in^2).

    Entry [a + d_out b, c + d_in e] is sum_i K_i[a, c] conj(K_i[b, e]), so
    with S the k x (d_out d_in) stack of flattened Kraus operators it is a
    reindexing of S^T conj(S). When the K_i are (n, d_out, d_in) stacks, the
    n matrices of n maps come from one stacked product.
    """
    S = np.stack(kraus, axis=-3)
    lead = S.shape[:-3]
    S = S.reshape(lead + (len(kraus), dim_out * dim_in))
    G = (S.swapaxes(-1, -2) @ S.conj()).reshape(lead + (dim_out, dim_in, dim_out, dim_in))
    G = np.ascontiguousarray(np.moveaxis(G, (-2, -4, -1, -3), (-4, -3, -2, -1)))
    return G.reshape(lead + (dim_out * dim_out, dim_in * dim_in))


_KRAUS_FORM = PositivityCertificate("completely_positive", reason="Kraus form")


def _choi_test(facts: _ChoiFacts, cfg: ToleranceConfig):
    """Exact CP test: (certificate when the Choi matrix is PSD, else None; its minimum eigenvalue).

    The minimum is None when the Choi matrix is not Hermitian.
    """
    if not facts.defect <= cfg.hermiticity_tolerance:
        return None, None
    cmin = facts.min
    if cmin < -cfg.psd_tolerance:
        return None, cmin
    reason = f"choi min eigenvalue {cmin:.3e}"
    return PositivityCertificate("completely_positive", reason=reason, choi_min=cmin), cmin


def from_kraus(kraus, *, descriptor: dict | None = None) -> SuperOperator:
    """Map X -> sum_i K_i X K_i^dagger, completely positive by Choi's theorem.

    The operators' shape (d_out, d_in) gives the dimensions; no Choi matrix is formed.
    """
    return SuperOperator(None, [as_matrix(K) for K in kraus], _KRAUS_FORM, descriptor)


def kraus_blocks(V: np.ndarray, dim_out: int) -> list:
    """The consecutive dim_out-row blocks of V, or of each matrix of a stack V; dim_out must divide its rows."""
    rows = V.shape[-2]
    if dim_out < 1 or rows % dim_out:
        raise DomainError(f"{rows} isometry rows do not split into blocks of {dim_out} rows")
    return [V[..., i * dim_out : (i + 1) * dim_out, :] for i in range(rows // dim_out)]


def from_isometry(V, dim_out: int, *, descriptor: dict | None = None) -> SuperOperator:
    """The Kraus map whose operators are stacked in V: X -> tr_K[V X V^dagger]; V's columns give d_in."""
    return from_kraus(kraus_blocks(as_matrix(V), dim_out), descriptor=descriptor)


def _choi_of_matrix(M: np.ndarray, dim_in: int, dim_out: int) -> np.ndarray:
    T = M.reshape(dim_out, dim_out, dim_in, dim_in, order="F")
    return np.ascontiguousarray(T.transpose(0, 2, 1, 3)).reshape(dim_out * dim_in, dim_out * dim_in)


def choi(phi: SuperOperator) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij Phi(E_ij) tensor E_ij."""
    return _choi_of_matrix(phi.matrix, phi.dim_in, phi.dim_out)


def from_choi(C, dim_in: int, cfg: ToleranceConfig = DEFAULT_TOL) -> SuperOperator:
    """The map with Choi matrix C, whose size divided by dim_in is the output dimension."""
    C = as_matrix(C)
    if not 1 <= dim_in <= C.shape[0] or C.shape[0] % dim_in or C.shape[1] != C.shape[0]:
        raise DomainError(f"Choi matrix shape {C.shape} is not square with n * dim_in rows, n >= 1, dim_in = {dim_in}")
    dim_out = C.shape[0] // dim_in
    U = C.reshape(dim_out, dim_in, dim_out, dim_in)
    M = np.asfortranarray(U.transpose(0, 2, 1, 3)).reshape(dim_out * dim_out, dim_in * dim_in, order="F")
    # a PSD Choi certifies complete positivity on the spot; the map keeps C's facts, so classify reuses the solve
    facts = _ChoiFacts(C)
    phi = SuperOperator(M, None, _choi_test(facts, cfg)[0] or UNVERIFIED)
    vars(phi)["_choi"] = facts
    return phi


def adjoint(phi: SuperOperator) -> SuperOperator:
    """Adjoint map for the Hilbert-Schmidt pairing tr[B^dagger Phi(A)]."""
    kr = tuple(K.conj().T for K in phi.kraus) if phi.kraus is not None else None
    cert = phi.certificate
    if cert.tag == "completely_positive":
        pass  # adjoint of a CP map is CP with the dagger Kraus family
    elif cert.tag == "positive_by_construction":
        cert = PositivityCertificate("positive_by_construction", reason=f"adjoint of: {cert.reason}")
    else:
        cert = UNVERIFIED
    M = phi.matrix.conj().T if kr is None else None
    return SuperOperator(M, kr, cert)


def compose(outer: SuperOperator, inner: SuperOperator) -> SuperOperator:
    """outer after inner."""
    if inner.dim_out != outer.dim_in:
        raise DomainError(
            f"cannot compose: inner output dim {inner.dim_out} != outer input dim {outer.dim_in}"
        )
    kr = None
    if outer.kraus is not None and inner.kraus is not None:
        kr = tuple(Ko @ Ki for Ko in outer.kraus for Ki in inner.kraus)
    a, b = outer.certificate, inner.certificate
    if a.tag == "completely_positive" and b.tag == "completely_positive":
        cert = PositivityCertificate("completely_positive", reason="composition of CP maps")
    elif a.is_positive and b.is_positive:
        cert = PositivityCertificate(
            "positive_by_construction", reason="composition of positive maps"
        )
    else:
        cert = UNVERIFIED
    M = outer.matrix @ inner.matrix if kr is None else None
    return SuperOperator(M, kr, cert)


def _adjoint_unit(phi: SuperOperator) -> np.ndarray:
    """Phi*(1), before its Hermitian part is taken."""
    if phi.kraus is not None:
        return sum(K.conj().T @ K for K in phi.kraus)
    return _unvec(phi.matrix.conj().T @ _vec(np.eye(phi.dim_out)), phi.dim_in, phi.dim_in)


def _trace_behaviors(A: np.ndarray):
    """The TraceBehavior of Phi*(1) = A, or the list of those of a stack A, from one eigh."""
    w, V = _solve(np.linalg.eigh, hermitian_part(A))
    if A.ndim == 2:
        return TraceBehavior(_read_only(w), _read_only(V))
    return [TraceBehavior(_read_only(wk), _read_only(Vk)) for wk, Vk in zip(w, V)]


def trace_behavior(phi):
    """Exact trace classification through Phi*(1), computed once per map.

    Given a sequence of maps, the list of their behaviors: the maps whose
    Phi*(1) is not solved yet are solved in one stacked eigh per input
    dimension, each result cached on its own map with the bits of its own
    solve, and a map listed twice is solved once.
    """
    if isinstance(phi, SuperOperator):
        return phi._trace_behavior
    unsolved = {}  # dim_in -> {id: map}
    for m in phi:
        if "_trace_behavior" not in vars(m):
            unsolved.setdefault(m.dim_in, {})[id(m)] = m
    for group in unsolved.values():
        group = list(group.values())
        for m, behavior in zip(group, _trace_behaviors(np.stack([_adjoint_unit(m) for m in group]))):
            vars(m)["_trace_behavior"] = behavior  # fills the cached property
    return [m._trace_behavior for m in phi]


# probes per stacked evaluation in classify, which bounds its memory for any sample_count
_PROBE_CHUNK = 256


def classify(
    phi: SuperOperator,
    cfg: ToleranceConfig = DEFAULT_TOL,
    sample_count: int = 0,
    seed: int = 0,
) -> PositivityCertificate:
    """Re-certify positivity.

    CP is decided exactly via the Choi minimum eigenvalue, which every
    returned certificate carries as ``choi_min``. Non-CP maps are probed with
    ``sample_count`` random pure states, probe t drawn from its own stream
    ``rng_for_trial(seed, t)`` (derived in batches by ``trial_streams``);
    sampling below -psd_tolerance falsifies (the witness is the first probe
    with the smallest image eigenvalue), otherwise
    any construction certificate stands. The probes are evaluated in stacks
    of at most ``_PROBE_CHUNK``: one ``apply`` and one eigensolve per stack,
    each probe's minimum bit-identical to evaluating it alone.
    """
    cert, cmin = _choi_test(phi._choi, cfg)
    if cert is not None:
        return cert
    worst = np.inf
    worst_psi = None
    for start in range(0, sample_count, _PROBE_CHUNK):
        streams = trial_streams(seed, range(start, min(start + _PROBE_CHUNK, sample_count)))
        psis = unit_vectors(np.stack([random_complex_gaussian(rng, phi.dim_in) for rng in streams]))
        images = hermitian_part(phi.apply(psis[:, :, None] * psis.conj()[:, None, :]))
        minima = _solve(np.linalg.eigvalsh, images)[:, 0]
        i = int(np.argmin(minima))
        if minima[i] < worst:
            worst, worst_psi = float(minima[i]), psis[i]
    if worst_psi is not None and worst < -cfg.psd_tolerance:
        cert = PositivityCertificate(
            "falsified", reason=f"pure-state image has min eigenvalue {worst:.3e}", witness=worst_psi
        )
    elif phi.certificate.tag == "positive_by_construction":
        cert = phi.certificate
    else:
        cert = UNVERIFIED
    return dataclasses.replace(cert, choi_min=cmin)


def one_to_one_norm_positive(phi: SuperOperator) -> float:
    """1->1 norm of a certified positive map, equal to ||Phi*(1)||_inf."""
    if not phi.certificate.is_positive:
        raise DomainError(
            "the 1->1 norm formula ||Phi*(1)||_inf is only valid for positive maps; "
            f"certificate tag is {phi.certificate.tag!r}"
        )
    return float(trace_behavior(phi).w[-1])


def gamma_superoperator(sigma, inverse: bool = False, cfg: ToleranceConfig = DEFAULT_TOL) -> SuperOperator:
    """X -> sigma^{1/2} X sigma^{1/2} as a map (inverse powers on the support)."""
    R = _psd_matrix(sigma, cfg).power(-0.5 if inverse else 0.5)
    return from_kraus([R])


# ---------------------------------------------------------------------------
# map families


def identity_map(d: int) -> SuperOperator:
    if d < 1:
        raise DomainError("dimension must be positive")
    return from_kraus([np.eye(d)], descriptor={"family": "identity", "params": {"d": d}})


def transpose_map(d: int) -> SuperOperator:
    """X -> X^T; positive but not CP for d >= 2 (Choi is the SWAP matrix)."""
    if d < 1:
        raise DomainError("dimension must be positive")
    M = np.zeros((d * d, d * d), dtype=np.complex128)
    rows = np.arange(d * d)  # row i + d j holds a 1 in column j + d i
    M[rows, rows // d + d * (rows % d)] = 1.0
    cert = PositivityCertificate("positive_by_construction", reason="transpose")
    return from_matrix(M, certificate=cert, descriptor={"family": "transpose", "params": {"d": d}})


def pinching_map(P, cfg: ToleranceConfig = DEFAULT_TOL) -> SuperOperator:
    """X -> P X P + (1-P) X (1-P) for a projector P; CPTP."""
    return _pinching_maps(as_matrix(P)[None], cfg)[0]


def _pinching_maps(P: np.ndarray, cfg: ToleranceConfig) -> list:
    """The pinching of each projector of an (n, d, d) stack, validated by one stacked require_projector."""
    P = require_projector(P, cfg)
    eye = np.eye(P.shape[-1])
    return [from_kraus([Pk, eye - Pk]) for Pk in P]


def truncation_parts(base: SuperOperator, P, P_prime, cfg: ToleranceConfig = DEFAULT_TOL):
    """The terms (kept, W, tau) of the truncation Phi_n(A) = kept(A) + tr[A W] tau.

    kept(A) = P' base(P A P) P' is the compression, a Kraus map when ``base``
    is one; W = P base*(1 - P')^dagger P gives the weight tr[base(P A P) (1 - P')]
    that escapes P', rerouted to tau = P'/tr[P'].
    """
    P = require_projector(P, cfg)
    P_prime = require_projector(P_prime, cfg)
    if P.shape[0] != base.dim_in:
        raise DomainError(f"input projector dim {P.shape[0]} != map input dim {base.dim_in}")
    if P_prime.shape[0] != base.dim_out:
        raise DomainError(f"output projector dim {P_prime.shape[0]} != map output dim {base.dim_out}")
    tr_pp = float(np.trace(P_prime).real)
    if tr_pp <= 0.0:
        raise DomainError("output projector must have positive rank")
    kept = compose(from_kraus([P_prime]), compose(base, from_kraus([P])))
    escape = adjoint(base).apply(np.eye(base.dim_out) - P_prime)
    return kept, P @ _dagger(escape) @ P, P_prime / tr_pp


def truncation_map(base: SuperOperator, P, P_prime, cfg: ToleranceConfig = DEFAULT_TOL) -> SuperOperator:
    """Compress ``base`` between projectors, rerouting the escaped weight.

    A -> P' base(P A P) P' + (P'/tr[P']) tr[base(P A P) (1 - P')].
    Positive and trace-preserving on inputs supported under P when the base
    map is positive and trace-preserving. The matrix is the compression's
    plus the rank-1 reroute outer(vec(tau), vec(W^T)), from ``truncation_parts``.
    """
    kept, W, tau = truncation_parts(base, P, P_prime, cfg)
    if base.certificate.is_positive:
        cert = PositivityCertificate("positive_by_construction", reason="truncation of a positive map")
    else:
        cert = UNVERIFIED
    M = kept.matrix + np.outer(_vec(tau), _vec(W.T))
    return from_matrix(M, certificate=cert)


def reduction_map(d: int) -> SuperOperator:
    """X -> (tr[X] 1 - X)/(d-1); positive and TP, not CP."""
    if d < 2:
        raise DomainError("reduction map needs d >= 2")
    v = _vec(np.eye(d))
    M = (np.outer(v, v) - np.eye(d * d)) / (d - 1)
    cert = PositivityCertificate("positive_by_construction", reason="reduction")
    return from_matrix(M, certificate=cert, descriptor={"family": "reduction", "params": {"d": d}})


def depolarizing_map(d: int, lam: float) -> SuperOperator:
    """X -> lam X + (1-lam) tr[X] 1/d; CPTP for lam in [0, 1].

    Its Choi matrix lam |Omega><Omega| + (1-lam) 1/d has eigenvalues
    (1-lam)/d and (1-lam)/d + lam d, so complete positivity is certified
    without an eigensolve.
    """
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"mixing parameter must be in [0, 1], got {lam}")
    if d < 1:
        raise DomainError("dimension must be positive")
    return _depolarizing_maps([lam], d)[0]


def _depolarizing_maps(lams, d: int, cfg: ToleranceConfig = DEFAULT_TOL) -> list:
    """depolarizing_map(d, lam) of each lam of lams (floats in [0, 1]), their matrices built as one stack.

    Matrix k is lam_k 1 + ((1 - lam_k)/d) |vec 1><vec 1|. Off the diagonal
    lam_k 1 adds an exact zero, so lam_k is added on the diagonal only: the
    bits are those of the whole sum, and no stack of identities is allocated.
    """
    v = _vec(np.eye(d))
    lam = np.array(lams, dtype=float)
    M = ((1.0 - lam[:, None, None]) / d) * np.outer(v, v)
    diagonal = np.arange(d * d)
    M[:, diagonal, diagonal] += lam[:, None]
    maps = []
    for m, lam_k in zip(M, lams):
        cert = PositivityCertificate(
            "completely_positive", reason=f"depolarizing, choi min eigenvalue {(1.0 - lam_k) / d:.3e}"
        )
        descriptor = {"family": "depolarizing", "params": {"d": d, "lam": lam_k}}
        maps.append(from_matrix(m, certificate=cert, descriptor=descriptor))
    return maps


def halving_map(d: int) -> SuperOperator:
    """X -> X/2; CP and trace-nonincreasing, not TP."""
    if d < 1:
        raise DomainError("dimension must be positive")
    K = np.eye(d) / np.sqrt(2.0)
    return from_kraus([K], descriptor={"family": "halving", "params": {"d": d}})


def counterexample_map() -> SuperOperator:
    """The 2x2 map (v w; x y) -> (v/2 0; 0 y).

    CP (diagonal Kraus pair) and trace-nonincreasing but not TP; relative
    entropy between its images can exceed the input relative entropy.
    """
    K1 = np.diag([1.0 / np.sqrt(2.0), 0.0]).astype(np.complex128)
    K2 = np.diag([0.0, 1.0]).astype(np.complex128)
    return from_kraus([K1, K2], descriptor={"family": "counterexample", "params": {}})


def _seeded(family: str, params: dict, seed, rng):
    """(generator, recipe descriptor) of a seeded family.

    An explicit ``rng`` is used as given and leaves no recipe to record.
    """
    if rng is not None:
        return rng, None
    if seed is None:
        raise DomainError(f"{family} requires a seed (or an explicit generator)")
    return np.random.default_rng(seed), {"family": family, "params": params, "seed": int(seed)}


def _cptp_dims(d: int, d_out: int | None, kraus_rank: int | None) -> tuple[int, int]:
    """random_cptp's output dimension and Kraus rank, defaulting to d."""
    if d_out is None:
        d_out = d
    if kraus_rank is None:
        kraus_rank = d
    if d < 1 or d_out < 1 or kraus_rank < 1:
        raise DomainError("dimensions and Kraus rank must be positive")
    if d_out * kraus_rank < d:
        raise DomainError(f"d_out * kraus_rank = {d_out * kraus_rank} < d = {d}: no isometry exists")
    return d_out, kraus_rank


def cptp_draw(rng: np.random.Generator, d: int, d_out: int | None = None,
              kraus_rank: int | None = None) -> np.ndarray:
    """The Gaussian random_cptp draws: its phase-fixed Q stacks the Kraus operators.

    ``sampling.phase_fixed_q`` finishes one draw or a stack of them. The
    dimensions default and are validated as in random_cptp.
    """
    d_out, kraus_rank = _cptp_dims(d, d_out, kraus_rank)
    return random_complex_gaussian(rng, (d_out * kraus_rank, d))


def _cptp_kraus(G, d_out: int) -> list:
    """The Kraus operators of the random_cptp map of each Gaussian of an (n, d_out k, d) stack: k stacks
    of n, the blocks of their phase-fixed Qs from one stacked QR."""
    return kraus_blocks(phase_fixed_q(np.stack(G)), d_out)


def _maps_of_kraus(kraus, descriptor=None) -> list:
    """The Kraus map of each index of the stacks kraus."""
    return [from_kraus(ops, descriptor=descriptor) for ops in zip(*kraus)]


def random_cptp(
    d: int,
    d_out: int | None = None,
    kraus_rank: int | None = None,
    seed=None,
    rng: np.random.Generator | None = None,
) -> SuperOperator:
    """Seeded CPTP map: Kraus blocks of a QR-orthonormalized Gaussian isometry."""
    d_out, kraus_rank = _cptp_dims(d, d_out, kraus_rank)
    rng, desc = _seeded("random_cptp", {"d": d, "d_out": d_out, "kraus_rank": kraus_rank}, seed, rng)
    return _maps_of_kraus(_cptp_kraus([cptp_draw(rng, d, d_out, kraus_rank)], d_out), desc)[0]


def _take_noncp(rng, d: int):
    """random_positive_noncp's draws: whether the transpose acts first, then its CPTP map's Gaussian."""
    return bool(rng.integers(2)), cptp_draw(rng, d)


_NONCP = PositivityCertificate("positive_by_construction", reason="transpose composed with a CPTP map")


def _noncp_maps(takes, d: int, cfg: ToleranceConfig = DEFAULT_TOL, descriptor=None) -> list:
    """The random_positive_noncp map of each take: the CPTP matrices as one stack, each composed with the
    one shared transpose map."""
    first, G = zip(*takes)
    T = _shared(transpose_map, d).matrix
    M = _kraus_matrix(_cptp_kraus(G, d), d, d)
    return [from_matrix(m @ T if t else T @ m, certificate=_NONCP, descriptor=descriptor) for t, m in zip(first, M)]


def random_positive_noncp(
    d: int,
    seed=None,
    rng: np.random.Generator | None = None,
) -> SuperOperator:
    """Transpose composed with a random CPTP map (order decided by the seed)."""
    rng, desc = _seeded("random_positive_noncp", {"d": d}, seed, rng)
    return _noncp_maps([_take_noncp(rng, d)], d, descriptor=desc)[0]


def _damped_gaussians(rng, d: int) -> tuple:
    """damped_cptp's Gaussians: its subspace projector's, then its CPTP map's."""
    return random_complex_gaussian(rng, (d, d)), cptp_draw(rng, d)


def _take_damped(rng, d: int) -> tuple:
    """A damped_cptp draw of a random rank in [1, d) and mu in [0.2, 0.9): the rank, mu, then its Gaussians."""
    return int(rng.integers(1, d)), float(rng.uniform(0.2, 0.9)), *_damped_gaussians(rng, d)


def _damped_maps(takes, d: int, cfg: ToleranceConfig = DEFAULT_TOL, descriptor=None) -> list:
    """The damped_cptp map of each take (rank, mu, subspace Gaussian, CPTP Gaussian), built as stacks."""
    rank, mu, GQ, GV = zip(*takes)
    Q = np.stack(projectors(zip(rank, GQ)))
    W = Q + np.sqrt(np.array(mu))[:, None, None] * (np.eye(d) - Q)
    return _maps_of_kraus([K @ W for K in _cptp_kraus(GV, d)], descriptor)


def damped_cptp(
    d: int,
    rank: int,
    mu: float,
    seed=None,
    rng: np.random.Generator | None = None,
) -> SuperOperator:
    """Random CPTP map preceded by damping outside a rank-``rank`` subspace.

    Phi*(1) = Q + mu (1 - Q) for a random projector Q, so the map is
    trace-nonincreasing for mu <= 1 and preserves the trace exactly on states
    supported under Q.
    """
    mu = float(mu)
    if not 0.0 <= mu <= 1.0:
        raise DomainError(f"damping parameter must be in [0, 1], got {mu}")
    if not 1 <= rank <= d:
        raise DomainError(f"subspace rank must be in [1, {d}], got {rank}")
    rng, desc = _seeded("damped_cptp", {"d": d, "rank": rank, "mu": mu}, seed, rng)
    return _damped_maps([(rank, mu, *_damped_gaussians(rng, d))], d, descriptor=desc)[0]


def _take_truncation(rng, d: int) -> tuple:
    """A truncation's draws: its CPTP map's Gaussian, then P's and P''s, each of rank in [1, d]."""
    return cptp_draw(rng, d), projector_take(rng, d, d + 1), projector_take(rng, d, d + 1)


_TRUNCATION = PositivityCertificate("positive_by_construction", reason="truncation of a positive map")


def _truncation_maps(takes, d: int, cfg: ToleranceConfig) -> list:
    """``truncation_map`` of each take's CPTP map between its projectors, built as stacks.

    The projectors of every take are validated by one stacked require_projector;
    the compression's Kraus operators P' K_i P, the escape weight W and the
    reroute state tau are computed as ``truncation_parts`` computes them, one
    stacked product each.
    """
    G, P, P_prime = zip(*takes)
    kraus = _cptp_kraus(G, d)
    P, P_prime = np.split(require_projector(np.stack(projectors(P + P_prime)), cfg), 2)
    kept = [P_prime @ (K @ P) for K in kraus]
    escape = _kraus_sum([_dagger(K) for K in kraus], np.eye(d) - P_prime)
    W = P @ _dagger(escape) @ P
    tau = P_prime / P_prime.trace(axis1=-2, axis2=-1).real[:, None, None]
    # kept.matrix + outer(vec(tau), vec(W^T)), vec stacking columns
    n = len(takes)
    M = _kraus_matrix(kept, d, d) + tau.swapaxes(-1, -2).reshape(n, d * d, 1) * W.reshape(n, 1, d * d)
    return [from_matrix(m, certificate=_TRUNCATION) for m in M]


@functools.lru_cache(maxsize=64)
def _shared(build, *args) -> SuperOperator:
    """build(*args) of a seedless family, built once and shared by every draw: a map is fixed once
    built, so its trials also share its cached Phi*(1)."""
    return build(*args)


def _take_nothing(rng, d: int) -> None:
    """The take of a seedless family, which reads nothing from the stream."""
    return None


@dataclass(frozen=True, eq=False)
class Family:
    """One entry of FAMILY_TABLE.

    ``constructor`` builds the family's recipes (None when it takes
    operators). A family that fills suite ``roles`` (the dpi modes, "support"
    for auxiliary's check (d), "contraction" for the contraction battery) is
    drawn in two steps, so that a suite builds each (family, d) group of a
    chunk of trials at once:

    - ``take(rng, d)`` reads from the trial's stream everything the draw
      needs, in one fixed order, and returns it; it computes nothing that a
      build can compute. The stream may be a reused Generator
      (``sampling.trial_streams``), so a take must not keep it.
    - ``build(takes, d, cfg)`` returns the maps of a list of takes, all drawn
      at d, in their order. Each map must carry the bits, certificate and
      descriptor it gets when built alone: a build stacks only operations
      that give each matrix of a stack its own result (QR, eigh, matrix
      products, elementwise arithmetic), never a reduction across the stack.

    ``draw(rng, d, cfg)``, the take and build of one, is the one-trial draw.
    ``dim`` is the input dimension of every draw when it is fixed (the 2x2
    counterexample map), else None: the draw's maps act on d x d matrices.
    A new family is its constructor, its take and its build, and a test
    checks that builds of many takes equal their draws one at a time.
    """

    constructor: object
    take: object = None
    build: object = None
    roles: tuple = ()
    dim: int | None = None

    def draw(self, rng, d: int, cfg: ToleranceConfig = DEFAULT_TOL) -> SuperOperator:
        return self.build([self.take(rng, d)], d, cfg)[0]


def _shared_maps(make):
    """The build of a seedless family: every take gets the one shared make(d)."""
    return lambda takes, d, cfg: [_shared(make, d)] * len(takes)


# every map family; a suite picks by index among its role's families, so this order is in every report
FAMILY_TABLE = {
    "random_cptp": Family(random_cptp, cptp_draw,
                          lambda takes, d, cfg: _maps_of_kraus(_cptp_kraus(takes, d)),
                          ("tp", "tni", "support", "contraction")),
    "random_positive_noncp": Family(random_positive_noncp, _take_noncp, _noncp_maps,
                                    ("tp", "tni", "support", "contraction")),
    "reduction": Family(reduction_map, _take_nothing, _shared_maps(reduction_map), ("tp", "tni", "support")),
    "pinching": Family(None, projector_take, lambda takes, d, cfg: _pinching_maps(np.stack(projectors(takes)), cfg),
                       ("tp", "tni")),
    "depolarizing": Family(depolarizing_map, lambda rng, d: float(rng.uniform(0.0, 1.0)), _depolarizing_maps,
                           ("tp", "tni", "contraction")),
    "halving": Family(halving_map, _take_nothing, _shared_maps(halving_map), ("tni",)),
    "counterexample": Family(counterexample_map, _take_nothing,
                             lambda takes, d, cfg: [_shared(counterexample_map)] * len(takes),
                             ("tni", "trace_match"), dim=2),
    "damped_cptp": Family(damped_cptp, _take_damped, _damped_maps, ("trace_match",)),
    "truncation": Family(None, _take_truncation, _truncation_maps, ("trace_match",)),
    "identity": Family(identity_map),
    "transpose": Family(transpose_map),
}


def families(role: str) -> tuple:
    """The names of the families that fill a suite role, in table order."""
    return tuple(name for name, family in FAMILY_TABLE.items() if role in family.roles)


_INTEGER_PARAMS = ("d", "d_out", "kraus_rank", "rank")
_REAL_PARAMS = ("lam", "mu")
# the largest d whose d^2 x d^2 complex128 matrix numpy can index: 16 d^4 bytes within intp
MAX_DIM = math.isqrt(math.isqrt(np.iinfo(np.intp).max // 16))


def _is_number(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


def construct(family: str, params: dict | None = None, seed=None) -> SuperOperator:
    """Build a map from a (family, params, seed) recipe.

    The family is a ``FAMILY_TABLE`` entry with a recipe constructor; pinching
    and truncation take operators, so a recipe naming them, like a name
    outside the table, is an unknown family. Recipes come from files, so each
    parameter (a size at most MAX_DIM) and the seed are checked, then bound to
    the constructor's keyword arguments: a parameter the family lacks, a missing
    one, or a seed for a seedless family is an error. A new family is two edits:
    its table entry, and each new parameter name in ``_INTEGER_PARAMS`` or
    ``_REAL_PARAMS``.
    """
    fn = FAMILY_TABLE[family].constructor if isinstance(family, str) and family in FAMILY_TABLE else None
    if fn is None:
        raise DomainError(f"unknown map family {family!r}")
    params = {} if params is None else params
    if not isinstance(params, dict):
        raise DomainError(f"params must be an object, got {params!r}")
    for key, value in params.items():
        if key not in _INTEGER_PARAMS + _REAL_PARAMS:
            raise DomainError(f"unknown map parameter {key!r}")
        if key in _INTEGER_PARAMS and not (_is_number(value, (int, np.integer)) and value >= 1):
            raise DomainError(f"{key} must be a positive integer, got {value!r}")
        if key in _INTEGER_PARAMS and value > MAX_DIM:
            raise DomainError(f"{key} must be at most {MAX_DIM}, got {value!r}")
        if key in _REAL_PARAMS and not _is_number(value, (int, float, np.integer, np.floating)):
            raise DomainError(f"{key} must be a real number, got {value!r}")
    if seed is not None and not (_is_number(seed, (int, np.integer)) and seed >= 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    kwargs = params if seed is None else {**params, "seed": seed}
    try:
        inspect.signature(fn).bind(**kwargs)
    except TypeError as exc:
        raise DomainError(f"{family} recipe does not fit its constructor: {exc}") from exc
    return fn(**kwargs)

