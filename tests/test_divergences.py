import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdpi.channels import gamma_superoperator
from qdpi.divergences import (
    gamma_inverse,
    klein_gap,
    old_renyi,
    relative_entropy,
    renyi_via_norm,
    sandwiched_renyi,
    support_contained,
    von_neumann_entropy,
    weighted_p_norm,
)
from qdpi.linalg import DomainError, ToleranceConfig, operator_norm, psd
from qdpi.sampling import random_density, random_hermitian, random_unitary, rng_for_trial


# Classical oracles on probability vectors, written directly from the
# defining sums. On commuting (diagonal) inputs every matrix divergence
# must reduce to these.

def classical_kl(p, q):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi * math.log(pi / qi)
    return total


def classical_renyi(p, q, alpha):
    total = 0.0
    for pi, qi in zip(p, q):
        if pi == 0.0:
            continue
        if qi == 0.0:
            return math.inf
        total += pi**alpha * qi ** (1.0 - alpha)
    if total <= 0.0:
        return math.inf
    return math.log(total) / (alpha - 1.0)


def random_prob(rng, d, zero_index=None):
    p = rng.random(d) + 0.05
    if zero_index is not None:
        p[zero_index] = 0.0
    return p / p.sum()


def embed(p, rng=None):
    D = np.diag(p).astype(complex)
    if rng is None:
        return D
    U = random_unitary(rng, len(p))
    return U @ D @ U.conj().T


def test_relative_entropy_matches_classical_kl_on_diagonals():
    for trial in range(50):
        rng = rng_for_trial(101, trial)
        d = int(rng.integers(2, 7))
        p = random_prob(rng, d)
        q = random_prob(rng, d)
        expected = classical_kl(p, q)
        assert relative_entropy(np.diag(p), np.diag(q)) == pytest.approx(expected, abs=1e-12)


def test_renyi_families_match_classical_on_diagonals():
    for trial in range(50):
        rng = rng_for_trial(102, trial)
        d = int(rng.integers(2, 7))
        p = random_prob(rng, d)
        q = random_prob(rng, d)
        for alpha in (0.3, 0.5, 1.5, 2.0, 3.0):
            expected = classical_renyi(p, q, alpha)
            assert sandwiched_renyi(np.diag(p), np.diag(q), alpha) == pytest.approx(expected, abs=1e-11)
            assert old_renyi(np.diag(p), np.diag(q), alpha) == pytest.approx(expected, abs=1e-11)


def test_relative_entropy_is_unitarily_invariant():
    rng = rng_for_trial(103, 0)
    p = random_prob(rng, 4)
    q = random_prob(rng, 4)
    U = random_unitary(rng, 4)
    rho = U @ np.diag(p) @ U.conj().T
    sigma = U @ np.diag(q) @ U.conj().T
    assert relative_entropy(rho, sigma) == pytest.approx(classical_kl(p, q), abs=1e-11)


def test_relative_entropy_fixed_point_values():
    rho = np.diag([1 / 3, 2 / 3])
    sigma = np.diag([2 / 3, 1 / 3])
    assert relative_entropy(rho, sigma) == pytest.approx(math.log(2) / 3, abs=1e-12)
    assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-12)


def test_relative_entropy_support_violation_is_infinite():
    rho = np.diag([1.0, 0.0])
    sigma = np.diag([0.0, 1.0])
    assert relative_entropy(rho, sigma) == math.inf
    # and the reverse orientation too
    assert relative_entropy(sigma, rho) == math.inf


def test_relative_entropy_of_zero_rho_is_zero():
    assert relative_entropy(np.zeros((2, 2)), np.diag([0.5, 0.5])) == 0.0


def test_relative_entropy_unnormalized_inputs():
    # D(a rho || b rho) = a (ln a - ln b) tr[rho] for scaled copies
    rho = np.diag([0.25, 0.75])
    a, b = 2.0, 0.5
    expected = a * math.log(a / b)
    assert relative_entropy(a * rho, b * rho) == pytest.approx(expected, abs=1e-12)


def test_renyi_rejects_zero_rho_and_bad_alpha():
    sigma = np.diag([0.5, 0.5])
    with pytest.raises(DomainError):
        sandwiched_renyi(np.zeros((2, 2)), sigma, 2.0)
    with pytest.raises(DomainError):
        old_renyi(np.zeros((2, 2)), sigma, 2.0)
    for alpha in (-1.0, 0.0, 1.0):
        with pytest.raises(DomainError):
            sandwiched_renyi(sigma, sigma, alpha)


@pytest.mark.parametrize("alpha", [math.inf, math.nan])
@pytest.mark.parametrize("fn", [sandwiched_renyi, old_renyi, renyi_via_norm, "stack"])
def test_renyi_forms_reject_non_finite_alpha(fn, alpha):
    rho, sigma = np.diag([0.9, 0.1]), np.eye(2) / 2
    if fn == "stack":
        rho, sigma = psd(rho[None]), psd(sigma[None])
        fn = sandwiched_renyi
    with pytest.raises(DomainError, match="alpha"):
        fn(rho, sigma, alpha)


# every form of one matrix; relative_entropy, klein_gap, sandwiched_renyi, support_contained
# and von_neumann_entropy also take stacks, and weighted_p_norm a stack of X under one sigma
ONE_MATRIX_FORMS = {
    "old_renyi": lambda S, X: old_renyi(S, S, 2.0),
    "renyi_via_norm": lambda S, X: renyi_via_norm(S, S, 2.0),
    "gamma_inverse": lambda S, X: gamma_inverse(S, X),
    "weighted_p_norm": lambda S, X: weighted_p_norm(X, S, 2.0),
    "gamma_superoperator": lambda S, X: gamma_superoperator(S),
}


@pytest.mark.parametrize("name", sorted(ONE_MATRIX_FORMS))
@pytest.mark.parametrize("validated", [False, True])
def test_one_matrix_forms_reject_a_stack(name, validated):
    stack = np.stack([np.eye(2) / 2] * 3)
    with pytest.raises(DomainError, match="expected a matrix, got array of ndim 3"):
        ONE_MATRIX_FORMS[name](psd(stack) if validated else stack, np.eye(2) / 2)


RELATIVE_FORMS = {"relative_entropy": relative_entropy, "klein_gap": klein_gap}


@pytest.mark.parametrize("name", sorted(RELATIVE_FORMS))
@pytest.mark.parametrize("validated", [False, True])
def test_relative_forms_take_a_stack(name, validated):
    stack = np.stack([np.eye(2) / 2] * 3)
    fn = RELATIVE_FORMS[name]
    assert fn(psd(stack) if validated else stack, stack) == [0.0] * 3
    with pytest.raises(DomainError, match="shape mismatch"):
        fn(stack, stack[0])


def test_sandwiched_support_rules_differ_across_one():
    rho = np.diag([0.5, 0.5])
    sigma = np.diag([1.0, 0.0])
    # alpha > 1 diverges on support violation
    assert sandwiched_renyi(rho, sigma, 2.0) == math.inf
    # alpha < 1 stays finite while the sandwiched trace is positive
    assert math.isfinite(sandwiched_renyi(rho, sigma, 0.5))
    # orthogonal supports kill the trace for alpha < 1
    assert sandwiched_renyi(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5) == math.inf


def test_sandwiched_known_value_pure_vs_mixed():
    # D_2(|0><0| || I/2) = 2 ln 2 - ln 2 = ln 2
    rho = np.diag([1.0, 0.0])
    sigma = np.eye(2) / 2.0
    assert sandwiched_renyi(rho, sigma, 2.0) == pytest.approx(math.log(2), abs=1e-12)


def test_sandwiched_is_nondecreasing_in_alpha():
    for trial in range(20):
        rng = rng_for_trial(104, trial)
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        grid = (0.4, 0.7, 1.3, 2.0, 4.0)
        values = [sandwiched_renyi(rho, sigma, a) for a in grid]
        assert all(values[i] <= values[i + 1] + 1e-10 for i in range(len(values) - 1))


def test_sandwiched_at_most_old_renyi():
    for trial in range(20):
        rng = rng_for_trial(105, trial)
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        for alpha in (1.5, 2.0, 3.0):
            assert sandwiched_renyi(rho, sigma, alpha) <= old_renyi(rho, sigma, alpha) + 1e-10


def test_alpha_to_one_limit_approaches_relative_entropy():
    rng = rng_for_trial(106, 0)
    rho = random_density(rng, 4)
    sigma = random_density(rng, 4)
    target = relative_entropy(rho, sigma)
    assert sandwiched_renyi(rho, sigma, 1.0 + 1e-5) == pytest.approx(target, abs=1e-4)


def test_von_neumann_entropy_values():
    assert von_neumann_entropy(np.eye(3) / 3.0) == pytest.approx(math.log(3), abs=1e-12)
    assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.diag([1 / 3, 2 / 3])) == pytest.approx(
        -(1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3), abs=1e-12
    )


def test_klein_gap_nonnegative_and_exact_cases():
    # tr[A ln A - A ln B] + tr[B - A] >= 0 with equality at A = B
    A = np.diag([0.2, 0.8])
    assert klein_gap(A, A) == pytest.approx(0.0, abs=1e-12)
    # closed form: (1/2) ln(1/2) + 1/2
    fixed = klein_gap(np.diag([0.5, 0.0]), np.diag([1.0, 0.0]))
    assert fixed == pytest.approx(0.5 * math.log(0.5) + 0.5, abs=1e-12)
    for trial in range(25):
        rng = rng_for_trial(107, trial)
        A = random_density(rng, 3) * float(rng.uniform(0.2, 2.0))
        B = random_density(rng, 3) * float(rng.uniform(0.2, 2.0))
        assert klein_gap(A, B) >= -1e-10


def test_klein_gap_zero_A_returns_trace_of_B():
    B = np.diag([0.3, 0.4])
    assert klein_gap(np.zeros((2, 2)), B) == pytest.approx(0.7, abs=1e-12)


def test_klein_gap_support_violation_is_infinite():
    assert klein_gap(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == math.inf


def test_support_contained_cases():
    assert support_contained(np.diag([0.5, 0.0]), np.diag([1.0, 0.0]))
    assert not support_contained(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))


def test_gamma_round_trip_on_full_rank():
    rng = rng_for_trial(108, 0)
    sigma = random_density(rng, 3)
    X = random_hermitian(rng, 3)
    # sigma^{1/2} from the test's own eigendecomposition
    w, V = np.linalg.eigh(sigma)
    root = (V * np.sqrt(w)) @ V.conj().T
    Y = gamma_inverse(sigma, root @ X @ root)
    assert np.allclose(Y, X, atol=1e-9)


def test_gamma_inverse_rejects_off_support_mass():
    sigma = np.diag([1.0, 0.0])
    X = np.array([[0.3, 0.0], [0.0, 0.7]])
    with pytest.raises(DomainError):
        gamma_inverse(sigma, X)


def test_weighted_norm_diagonal_oracle():
    # ||X||_{p,sigma} = ||sigma^{1/2p} X sigma^{1/2p}||_p; diagonal case is elementwise
    sigma = np.diag([0.25, 0.75])
    X = np.diag([2.0, -1.0])
    p = 2.0
    weights = np.diag(sigma) ** (1.0 / (2.0 * p))
    scaled = np.diag(np.diag(X) * weights * weights)
    expected = (np.sum(np.abs(np.diag(scaled)) ** p)) ** (1.0 / p)
    assert weighted_p_norm(X, sigma, p) == pytest.approx(expected, abs=1e-12)


def test_weighted_norm_requires_full_rank_sigma():
    with pytest.raises(DomainError):
        weighted_p_norm(np.eye(2), np.diag([1.0, 0.0]), 2.0)


@pytest.mark.parametrize("p", [2.0, math.inf])
@pytest.mark.parametrize("sigma, message", [
    (np.diag([1.0, -5.0]), "not PSD"),
    (np.zeros((3, 3)), "rank-deficient"),
    (np.eye(3) / 3.0, "dimension 2 cannot be weighted by sigma of dimension 3"),
], ids=["not-psd", "zero", "other-dimension"])
def test_weighted_norm_validates_sigma_at_every_p(sigma, message, p):
    # p = inf drops the weights from the value, not sigma's checks
    with pytest.raises(DomainError, match=message):
        weighted_p_norm(np.eye(2), sigma, p)


def test_weighted_norm_rejects_non_finite_input():
    X = np.array([[np.nan, 0.0], [0.0, 1.0]])
    for p in (2.0, math.inf):
        with pytest.raises(DomainError, match="non-finite"):
            weighted_p_norm(X, np.eye(2) / 2.0, p)


def test_weighted_norm_p_infinity_and_identity_weight():
    rng = rng_for_trial(109, 0)
    X = random_hermitian(rng, 3)
    assert weighted_p_norm(X, np.eye(3) / 3.0, math.inf) == pytest.approx(operator_norm(X), abs=1e-10)


def test_renyi_via_norm_matches_direct_formula():
    for trial in range(15):
        rng = rng_for_trial(110, trial)
        rho = random_density(rng, 3)
        sigma = random_density(rng, 3)
        for alpha in (1.5, 2.0, 3.0):
            assert renyi_via_norm(rho, sigma, alpha) == pytest.approx(
                sandwiched_renyi(rho, sigma, alpha), abs=1e-10
            )


def test_renyi_via_norm_handles_rank_deficient_sigma():
    # rho supported inside supp(sigma): both routes agree after compression
    rho = np.diag([0.4, 0.6, 0.0])
    sigma = np.diag([0.5, 0.5, 0.0])
    assert renyi_via_norm(rho, sigma, 2.0) == pytest.approx(
        sandwiched_renyi(rho, sigma, 2.0), abs=1e-10
    )
    # support violation diverges
    assert renyi_via_norm(np.diag([0.0, 0.0, 1.0]), sigma, 2.0) == math.inf


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from([2, 3, 4]))
def test_relative_entropy_nonnegative_on_density_pairs(trial, d):
    # Klein inequality: D >= 0 for unit-trace pairs
    rng = rng_for_trial(111, trial)
    rho = random_density(rng, d)
    sigma = random_density(rng, d)
    assert relative_entropy(rho, sigma) >= -1e-11


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_weighted_norm_scales_linearly(trial):
    rng = rng_for_trial(112, trial)
    sigma = random_density(rng, 3)
    X = random_hermitian(rng, 3)
    c = float(rng.uniform(0.1, 5.0))
    assert weighted_p_norm(c * X, sigma, 2.0) == pytest.approx(
        c * weighted_p_norm(X, sigma, 2.0), rel=1e-10
    )


def test_renyi_families_are_unitarily_invariant():
    for trial in range(10):
        rng = rng_for_trial(108, trial)
        d = int(rng.integers(2, 5))
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
        U = random_unitary(rng, d)
        ru = U @ rho @ U.conj().T
        su = U @ sigma @ U.conj().T
        for alpha in (0.5, 1.5, 2.0, 3.0):
            assert sandwiched_renyi(ru, su, alpha) == pytest.approx(
                sandwiched_renyi(rho, sigma, alpha), abs=1e-9
            )
            assert old_renyi(ru, su, alpha) == pytest.approx(
                old_renyi(rho, sigma, alpha), abs=1e-9
            )


def test_relative_entropy_scaling_identity():
    # D(rho || sigma) = c (D(rho/c || sigma) + ln c) for tr[rho] = c > 0
    for trial in range(10):
        rng = rng_for_trial(109, trial)
        d = int(rng.integers(2, 5))
        c = float(rng.uniform(0.2, 3.0))
        rho = random_density(rng, d) * c
        sigma = random_density(rng, d)
        lhs = relative_entropy(rho, sigma)
        rhs = c * (relative_entropy(rho / c, sigma) + math.log(c))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_weighted_norm_approaches_sup_norm():
    # || X ||_{p, sigma} -> || X ||_inf as p grows; gap shrinks monotonically
    # and is within 5% by p = 128
    for trial in range(8):
        rng = rng_for_trial(110, trial)
        d = int(rng.integers(2, 5))
        X = random_hermitian(rng, d)
        sigma = random_density(rng, d)
        sup = operator_norm(X)
        gaps = [abs(weighted_p_norm(X, sigma, p) - sup) for p in (2.0, 8.0, 32.0, 128.0)]
        assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
        assert gaps[-1] <= 0.05 * sup


def test_divergences_accept_validated_values_with_identical_results():
    rng = rng_for_trial(77, 0)
    rho, sigma = random_density(rng, 4), random_density(rng, 4)
    X = random_hermitian(rng, 4)
    rho_v, sigma_v = psd(rho), psd(sigma)
    for fn in (relative_entropy, klein_gap, support_contained):
        assert fn(rho_v, sigma_v) == fn(rho, sigma)
    for fn in (sandwiched_renyi, old_renyi, renyi_via_norm):
        assert fn(rho_v, sigma_v, 2.0) == fn(rho, sigma, 2.0)
    assert von_neumann_entropy(rho_v) == von_neumann_entropy(rho)
    assert weighted_p_norm(X, sigma_v, 3.0) == weighted_p_norm(X, sigma, 3.0)
    assert np.array_equal(gamma_superoperator(sigma_v).apply(X), gamma_superoperator(sigma).apply(X))
    assert np.array_equal(gamma_inverse(sigma_v, X), gamma_inverse(sigma, X))


def test_divergence_eigensolve_counts(eig_sizes):
    rng = rng_for_trial(78, 0)
    rho, sigma = random_density(rng, 4), random_density(rng, 4)
    relative_entropy(rho, sigma)
    assert len(eig_sizes) <= 2
    del eig_sizes[:]
    sandwiched_renyi(rho, sigma, 2.0)
    assert len(eig_sizes) <= 3


# Full-rank d=4 sigmas with smallest eigenvalue 1e-10, rotated by the DFT so
# that sigma^{(1-alpha)/2alpha} rho sigma^{(1-alpha)/2alpha} has entries near
# 1e8: far above any absolute Hermiticity tolerance.
DFT4 = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2
NEAR_SINGULAR_SPECTRA = ((1e-10, 0.2, 0.3, 0.5 - 1e-10), (1e-10, 0.1, 0.4, 0.5 - 1e-10))
NEAR_SINGULAR_RHO = np.array([0.4, 0.3, 0.2, 0.1])


def near_singular_sigma(spectrum):
    sigma = (DFT4 * np.array(spectrum)) @ DFT4.conj().T
    return (sigma + sigma.conj().T) / 2


def sandwiched_reference(p, sigma, alpha):
    """Through rho^{1/2} sigma^{(1-alpha)/alpha} rho^{1/2}, which has the same spectrum."""
    s, V = np.linalg.eigh(sigma)
    S = (V * s ** ((1.0 - alpha) / alpha)) @ V.conj().T
    Q = np.sqrt(p)[:, None] * S * np.sqrt(p)[None, :]
    q = np.linalg.eigvalsh((Q + Q.conj().T) / 2)
    return math.log(float(np.sum(q**alpha))) / (alpha - 1.0)


@pytest.mark.parametrize("alpha", [5.0, 10.0])
@pytest.mark.parametrize("spectrum", NEAR_SINGULAR_SPECTRA)
def test_sandwiched_renyi_on_nearly_singular_sigma(spectrum, alpha):
    sigma = near_singular_sigma(spectrum)
    want = sandwiched_reference(NEAR_SINGULAR_RHO, sigma, alpha)
    got = sandwiched_renyi(np.diag(NEAR_SINGULAR_RHO), sigma, alpha)
    assert got == pytest.approx(want, rel=1e-6)


def _stack_cases(d: int, n: int = 8):
    """Density pairs with full-rank, rank-deficient and orthogonal members."""
    rhos, sigmas = [], []
    for t in range(n):
        rng = rng_for_trial(88, t)
        rank_rho = d if t % 3 else 1
        rank_sigma = d if t % 4 else max(1, d - 1)
        rhos.append(random_density(rng, d, rank_rho))
        sigmas.append(random_density(rng, d, rank_sigma))
    e = np.eye(d, dtype=complex)
    rhos.append(np.outer(e[0], e[0]))
    sigmas.append(np.outer(e[1], e[1]))
    return np.stack(rhos), np.stack(sigmas)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.5, 3.0])
@pytest.mark.parametrize("d", [2, 3, 9])
def test_sandwiched_renyi_stack_carries_the_scalar_bits(alpha, d):
    rhos, sigmas = _stack_cases(d)
    values = sandwiched_renyi(psd(rhos), psd(sigmas), alpha)
    assert values == [sandwiched_renyi(r, s, alpha) for r, s in zip(rhos, sigmas)]
    assert all(type(v) is float for v in values) and math.isinf(values[-1])


@pytest.mark.parametrize("name", sorted(RELATIVE_FORMS))
@pytest.mark.parametrize("d", [2, 3, 9, 16])
def test_relative_forms_stack_carries_the_scalar_bits(name, d):
    rhos, sigmas = _stack_cases(d)
    # a zero rho (0 for the relative entropy, tr[sigma] for the Klein gap) and an equal pair
    rhos = np.concatenate([rhos, np.zeros((1, d, d)), sigmas[:1]])
    sigmas = np.concatenate([sigmas, sigmas[:2]])
    fn = RELATIVE_FORMS[name]
    values = fn(psd(rhos), psd(sigmas))
    assert values == [fn(r, s) for r, s in zip(rhos, sigmas)]
    assert all(type(v) is float for v in values)
    # rank-deficient sigmas off rho's support, the orthogonal pair among them
    assert math.isinf(values[-3]) and sum(map(math.isinf, values)) >= 2


def test_sandwiched_renyi_stack_decides_support_as_the_scalar_path():
    # the containment tolerance sits exactly at each pair's own leak ratio, so
    # the +inf/finite decision turns on the last bit of the leak
    rhos, sigmas = _stack_cases(3)
    leaking = 0
    for i, (r, s) in enumerate(zip(rhos, sigmas)):
        tr = np.trace(r).real
        leak = tr - np.trace(r @ psd(s).projector()).real
        if leak <= 0.0:
            continue
        leaking += 1
        cfg = ToleranceConfig(containment_tolerance=leak / tr)
        values = sandwiched_renyi(psd(rhos, cfg), psd(sigmas, cfg), 2.0, cfg)
        assert values[i] == sandwiched_renyi(r, s, 2.0, cfg)
    assert leaking >= 2


def test_sandwiched_renyi_stack_checks_its_inputs():
    rhos, sigmas = _stack_cases(2)
    with pytest.raises(DomainError, match="rho = 0"):
        zero = rhos.copy()
        zero[3] = 0.0
        sandwiched_renyi(psd(zero), psd(sigmas), 0.5)
    with pytest.raises(DomainError, match="alpha"):
        sandwiched_renyi(psd(rhos), psd(sigmas), 1.0)
    with pytest.raises(DomainError, match="shape mismatch"):
        sandwiched_renyi(psd(rhos), psd(sigmas[:-1]), 0.5)


def _bits(values) -> list:
    """float.hex of each value, so two lists compare bit for bit (the sign of zero included)."""
    return [float(v).hex() for v in values]


def _state_stack(seed: int, n: int, d: int) -> np.ndarray:
    """n density matrices of dimension d: the first pure and diagonal, every third of rank d - 1."""
    rng = rng_for_trial(seed, n)
    out = np.zeros((n, d, d), dtype=np.complex128)
    for k in range(n):
        out[k] = random_density(rng, d, rank=d - 1 if k % 3 == 2 else None)
    if n:
        out[0] = np.diag([1.0] + [0.0] * (d - 1))
    return out


@pytest.mark.parametrize("n", [0, 1, 7])
def test_von_neumann_entropy_of_a_stack_has_the_bits_of_each_matrix(n):
    rho = _state_stack(31, n, 3)
    values = von_neumann_entropy(rho)
    assert isinstance(values, list) and len(values) == n
    assert _bits(values) == _bits(von_neumann_entropy(M) for M in rho)
    assert _bits(von_neumann_entropy(psd(rho))) == _bits(values)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_support_contained_of_a_stack_is_that_of_each_pair(n):
    rho, sigma = _state_stack(32, n, 3), _state_stack(33, n, 3)
    values = support_contained(rho, sigma)
    assert values == [support_contained(a, b) for a, b in zip(rho, sigma)]
    assert all(type(v) is bool for v in values)
    assert n < 7 or {True, False} <= set(values)
    with pytest.raises(DomainError, match="shape mismatch"):
        support_contained(rho, sigma[:, :2, :2])


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, 7.5, math.inf])
@pytest.mark.parametrize("n", [0, 1, 6])
def test_weighted_p_norm_of_a_stack_has_the_bits_of_each_matrix(p, n):
    rng = rng_for_trial(34, n)
    sigma = psd(random_density(rng, 4))
    X = np.zeros((n, 4, 4), dtype=np.complex128)
    for k in range(n):
        X[k] = random_hermitian(rng, 4)
    values = weighted_p_norm(X, sigma, p)
    assert isinstance(values, list) and len(values) == n
    assert _bits(values) == _bits(weighted_p_norm(M, sigma, p) for M in X)
