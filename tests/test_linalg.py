import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdpi.linalg import (
    DEFAULT_TOL,
    DomainError,
    ToleranceConfig,
    hermitian_part,
    min_eigenvalue,
    operator_norm,
    psd,
    require_hermitian,
    require_projector,
    schatten_norm,
    trace_norm,
)
from qdpi.sampling import random_hermitian, random_psd, random_unitary, rng_for_trial


def test_tolerance_config_rejects_negative_values():
    for value in (-1e-12, math.nan, math.inf):
        with pytest.raises(DomainError):
            ToleranceConfig(support_cutoff=value)


def test_require_hermitian_accepts_and_symmetrizes():
    A = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    B = require_hermitian(A)
    assert np.allclose(B, B.conj().T)


def test_require_hermitian_rejects_large_defect():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(DomainError):
        require_hermitian(A)
    # non-finite entries are rejected before any arithmetic, so no warning
    for bad in (np.nan, np.inf):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                require_hermitian(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_hermiticity_defect_keeps_subnormal_bits():
    # at tolerance 0 the smallest subnormal defect is seen and reported as it is
    A = np.array([[1.0, 5e-324], [0.0, 1.0]])
    with pytest.raises(DomainError, match=r"defect 4\.941e-324"):
        require_hermitian(A, ToleranceConfig(hermiticity_tolerance=0.0))
    require_hermitian(A + A.T, ToleranceConfig(hermiticity_tolerance=0.0))


def test_require_psd_rejects_negative_eigenvalue():
    with pytest.raises(DomainError):
        psd(np.diag([1.0, -1e-3]))


def test_require_projector_accepts_exact_and_rejects_scaled():
    P = np.diag([1.0, 0.0, 1.0])
    require_projector(P)
    with pytest.raises(DomainError):
        require_projector(0.5 * P)


def test_psd_eigenvalues_are_ascending():
    rng = rng_for_trial(0, 0)
    value = psd(random_psd(rng, 5))
    w, V = value.w, value.V
    assert np.all(np.diff(w) >= 0)
    # eigenvector reconstruction
    A = (V * w) @ V.conj().T
    assert np.allclose(A, A.conj().T)


def test_support_projector_of_diagonal():
    P = psd(np.diag([0.0, 2.0, 0.0, 1e-3])).projector()
    assert np.allclose(P, np.diag([0.0, 1.0, 0.0, 1.0]))


def test_support_projector_of_zero_matrix_is_zero():
    P = psd(np.zeros((3, 3))).projector()
    assert np.allclose(P, 0.0)


def test_log_on_support_diagonal_oracle():
    # off-support entries map to 0, on-support entries to their log
    A = np.diag([math.e, 0.0, 1.0])
    L = psd(A).log()
    assert np.allclose(L, np.diag([1.0, 0.0, 0.0]), atol=1e-14)


def test_power_on_support_diagonal_oracle():
    A = np.diag([4.0, 0.0, 9.0])
    R = psd(A).power(0.5)
    assert np.allclose(R, np.diag([2.0, 0.0, 3.0]), atol=1e-14)


def test_power_on_support_unitary_covariance():
    rng = rng_for_trial(2, 0)
    A = random_psd(rng, 4)
    U = random_unitary(rng, 4)
    lhs = psd(U @ A @ U.conj().T).power(0.3)
    rhs = U @ psd(A).power(0.3) @ U.conj().T
    assert np.allclose(lhs, rhs, atol=1e-11)


def test_schatten_norm_known_values():
    X = np.diag([3.0, -4.0])
    assert schatten_norm(X, 1) == pytest.approx(7.0, abs=1e-12)
    assert schatten_norm(X, 2) == pytest.approx(5.0, abs=1e-12)
    assert schatten_norm(X, math.inf) == pytest.approx(4.0, abs=1e-12)
    assert trace_norm(X) == pytest.approx(7.0, abs=1e-12)
    assert operator_norm(X) == pytest.approx(4.0, abs=1e-12)


def test_schatten_norm_rejects_p_below_one():
    with pytest.raises(DomainError):
        schatten_norm(np.eye(2), 0.5)
    # non-finite entries are a domain error, not a failed SVD
    for bad in (np.nan, np.inf, -np.inf):
        X = np.array([[bad, 0.0], [0.0, 1.0]])
        for norm in (trace_norm, operator_norm, lambda X: schatten_norm(X, 3)):
            with pytest.raises(DomainError, match="non-finite"):
                norm(X)


def test_schatten_norm_overflow_safe():
    X = np.diag([1e200, 1e200])
    assert schatten_norm(X, 3) == pytest.approx(2 ** (1 / 3) * 1e200, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_schatten_norm_decreases_in_p(trial):
    # ||X||_p is nonincreasing in p on [1, inf]
    rng = rng_for_trial(99, trial)
    X = random_hermitian(rng, 4)
    values = [schatten_norm(X, p) for p in (1, 1.5, 2, 4, math.inf)]
    assert all(values[i] + 1e-10 >= values[i + 1] for i in range(len(values) - 1))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_schatten_norm_triangle_inequality(trial):
    rng = rng_for_trial(98, trial)
    X = random_hermitian(rng, 3)
    Y = random_hermitian(rng, 3)
    for p in (1, 2, math.inf):
        assert schatten_norm(X + Y, p) <= schatten_norm(X, p) + schatten_norm(Y, p) + 1e-10


def test_min_max_eigenvalue_consistency():
    A = np.diag([-2.0, 5.0, 0.5])
    assert min_eigenvalue(A) == pytest.approx(-2.0, abs=1e-12)
    assert min_eigenvalue(-A) == pytest.approx(-5.0, abs=1e-12)


def test_hermitian_part_projects_onto_hermitian_matrices():
    X = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    H = hermitian_part(X)
    assert np.allclose(H, H.conj().T)
    assert np.allclose(H, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_support_projector_respects_relative_cutoff():
    # 1e-6 is above the default relative cutoff, so it stays in the support
    A = np.diag([1.0, 1e-6])
    P = psd(A, DEFAULT_TOL).projector()
    assert np.allclose(P, np.eye(2))


def test_psd_eigendecomposition_reconstructs_input():
    for trial in range(20):
        rng = rng_for_trial(11, trial)
        d = int(rng.integers(2, 7))
        A = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        value = psd(A)
        w, V = value.w, value.V
        assert np.max(np.abs((V * w) @ V.conj().T - A)) <= 1e-10


def test_support_projector_idempotent_compression():
    # PSD matrices live on their support: P A P = A
    for trial in range(20):
        rng = rng_for_trial(12, trial)
        d = int(rng.integers(2, 7))
        A = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        P = psd(A).projector()
        assert np.max(np.abs(P @ A @ P - A)) <= 1e-10


def test_power_on_support_composes():
    # square root applied twice equals the fourth root
    for trial in range(15):
        rng = rng_for_trial(13, trial)
        d = int(rng.integers(2, 6))
        A = random_psd(rng, d, rank=int(rng.integers(1, d + 1)))
        half = psd(A).power(0.5)
        assert np.max(np.abs(psd(half).power(0.5) - psd(A).power(0.25))) <= 1e-9


def test_trace_norm_duality_lower_bound():
    # ||X||_1 = max_U |tr[U X]|; random unitaries lower-bound it and the
    # SVD-derived unitary attains it
    for trial in range(10):
        rng = rng_for_trial(14, trial)
        d = int(rng.integers(2, 6))
        X = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t1 = trace_norm(X)
        for _ in range(50):
            U = random_unitary(rng, d)
            assert abs(np.trace(U @ X)) <= t1 + 1e-10
        W, _, Vh = np.linalg.svd(X)
        assert abs(np.trace((Vh.conj().T @ W.conj().T) @ X)) == pytest.approx(t1, abs=1e-10)


def test_psd_value_is_validated_once_and_reused(eig_sizes):
    A = random_psd(rng_for_trial(3, 0), 4)
    v = psd(A)
    assert len(eig_sizes) == 1
    assert psd(v) is v
    assert np.array_equal(psd(v).matrix, psd(A).matrix)
    assert psd(v).projector() is v.projector()
    assert np.array_equal(psd(v).power(0.3), psd(A).power(0.3))
    assert np.array_equal(psd(v).log(), psd(A).log())
    assert len(eig_sizes) == 4  # the three ndarray calls above diagonalize A again
    with pytest.raises(ValueError):
        v.log()[0, 0] = 1.0  # shared results are read-only


def test_psd_value_is_revalidated_under_other_tolerances():
    A = np.diag([1.0, 1e-9])
    v = psd(A)
    assert v.on.all()
    coarse = ToleranceConfig(support_cutoff=1e-6)
    w = psd(v, coarse)
    assert w is not v and not w.on.all()
    with pytest.raises(DomainError, match="not PSD"):
        psd(np.diag([1.0, -1e-3]))


def _mixed_rank_stack(d: int = 3, n: int = 6) -> np.ndarray:
    """PSD matrices of full and deficient rank, plus the zero matrix."""
    mats = []
    for t in range(n):
        rng = rng_for_trial(71, t)
        mats.append(random_psd(rng, d, rank=1 + t % d))
    mats.append(np.zeros((d, d), dtype=complex))
    return np.stack(mats)


def test_psd_stack_equals_psd_of_each_matrix():
    stack = _mixed_rank_stack()
    v = psd(stack)
    for i, A in enumerate(stack):
        one = psd(A)
        assert np.array_equal(v.matrix[i], one.matrix)
        assert np.array_equal(v.w[i], one.w) and np.array_equal(v.V[i], one.V)
        assert np.array_equal(v.on[i], one.on)
        for t in (0.5, -0.5, 2.0):
            assert np.array_equal(v.power(t)[i], one.power(t))
        assert np.array_equal(v.log()[i], one.log())
        assert np.array_equal(v.projector()[i], one.projector())


@pytest.mark.parametrize("stacked", [False, True])
def test_validated_arrays_are_read_only(stacked):
    A = np.diag([0.5, 0.5])
    v = psd(A[None] if stacked else A)
    with pytest.raises(ValueError, match="read-only"):
        v.w[0] = -0.5
    for field in ("matrix", "V"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(v, field)[0] = 0.0
    # the value still holds what it certified, and the caller's array stays writable
    assert v.w.min() == 0.5 and A.flags.writeable


def test_psd_stack_checks_every_matrix():
    stack = _mixed_rank_stack()
    bad_cases = []
    nonfinite = stack.copy()
    nonfinite[4, 0, 0] = np.nan
    bad_cases.append(nonfinite)
    skewed = stack.copy()
    skewed[2, 0, 1] += 1e-3
    bad_cases.append(skewed)
    negative = stack.copy()
    negative[5] -= 1e-3 * np.eye(3)
    negative[3] -= 1e-2 * np.eye(3)
    bad_cases.append(negative)
    for bad in bad_cases:
        first = next(A for A in bad if _psd_error(A) is not None)
        with pytest.raises(DomainError) as err:
            psd(bad)
        assert str(err.value) == _psd_error(first)
    with pytest.raises(DomainError):
        psd(stack[None])
    with pytest.raises(DomainError):
        psd(np.zeros((2, 3, 2)))


def _psd_error(A):
    try:
        psd(A)
    except DomainError as exc:
        return str(exc)
    return None


def test_hermitian_part_of_a_stack_is_taken_per_matrix():
    stack = np.stack([random_hermitian(rng_for_trial(5, t), 3) + 1j * np.eye(3) * t for t in range(3)])
    assert np.array_equal(hermitian_part(stack), np.stack([hermitian_part(A) for A in stack]))


@pytest.mark.parametrize("cutoff", [0.0, 0.5, 1.0, 2.0])
def test_support_mask_is_empty_without_a_positive_top_eigenvalue(cutoff):
    cfg = ToleranceConfig(support_cutoff=cutoff)
    for A in (np.zeros((3, 3)), -1e-12 * np.eye(3), np.diag([-1e-12, -2e-12, 0.0])):
        assert not psd(A, cfg).on.any()
        assert not psd(np.stack([A, A]), cfg).on.any()
    v = psd(np.diag([0.0, 0.25, 0.75]), cfg)
    assert v.on.tolist() == [False, cutoff < 1 / 3, cutoff < 1.0]


def _bits(values) -> list:
    """float.hex of each value, so two lists compare bit for bit (the sign of zero included)."""
    return [float(v).hex() for v in values]


def _general_stack(seed: int, n: int, d: int) -> np.ndarray:
    """n complex Gaussian d x d matrices, the second of them zero."""
    rng = rng_for_trial(seed, n * 100 + d)
    X = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    if n > 1:
        X[1] = 0.0
    return X


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, 7.5, math.inf])
@pytest.mark.parametrize("n", [0, 1, 5])
@pytest.mark.parametrize("d", [3, 12])
def test_schatten_norm_of_a_stack_has_the_bits_of_each_matrix(p, n, d):
    X = _general_stack(7, n, d)
    values = schatten_norm(X, p)
    assert isinstance(values, list) and len(values) == n
    assert _bits(values) == _bits(schatten_norm(M, p) for M in X)


@pytest.mark.parametrize("p", [1.5, 2, 3, 7.5])
def test_schatten_norm_takes_its_root_as_a_scalar_power(p):
    # an array power differs from the scalar one in the last bit for some inputs
    for M in _general_stack(12, 100, 3):
        s = np.linalg.svd(M, compute_uv=False)
        smax = float(s[0])
        expected = smax * float(((s / smax) ** p).sum() ** (1.0 / p)) if smax else 0.0
        assert schatten_norm(M, p).hex() == expected.hex()


def test_trace_and_operator_norms_of_a_stack():
    X = _general_stack(8, 4, 3)
    assert _bits(trace_norm(X)) == _bits(trace_norm(M) for M in X)
    assert _bits(operator_norm(X)) == _bits(operator_norm(M) for M in X)
    assert schatten_norm(np.zeros((2, 0, 0)), 3) == [0.0, 0.0]
    assert isinstance(trace_norm(X[0]), float)


def test_schatten_norm_of_a_stack_checks_every_matrix():
    X = _general_stack(9, 3, 2)
    X[2, 0, 0] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        schatten_norm(X, 2)
    with pytest.raises(DomainError, match="expected a matrix, got array of ndim 4"):
        schatten_norm(X[None], 2)


@pytest.mark.parametrize("n", [0, 1, 6])
def test_min_eigenvalue_of_a_stack_has_the_bits_of_each_matrix(n):
    rng = rng_for_trial(10, n)
    A = np.zeros((n, 4, 4), dtype=np.complex128)
    for k in range(n):
        A[k] = random_hermitian(rng, 4)
    values = min_eigenvalue(A)
    assert isinstance(values, list) and len(values) == n
    assert _bits(values) == _bits(min_eigenvalue(M) for M in A)


def test_min_eigenvalue_of_a_stack_raises_the_first_failure():
    A = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 2.0], [0.0, 0.0]])])
    with pytest.raises(DomainError, match=r"not Hermitian \(defect 1\.000e\+00\)"):
        min_eigenvalue(A)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_require_projector_of_a_stack_has_the_bits_of_each_matrix(n):
    rng = rng_for_trial(11, n)
    P = np.zeros((n, 4, 4), dtype=np.complex128)
    for k in range(n):
        U = random_unitary(rng, 4)[:, : k % 4]
        P[k] = U @ U.conj().T
    out = require_projector(P)
    assert out.shape == (n, 4, 4)
    assert out.tobytes() == b"".join(require_projector(M).tobytes() for M in P)


def test_require_projector_of_a_stack_raises_the_first_failure():
    P = np.stack([np.diag([1.0, 0.0]), 0.5 * np.eye(2), 0.25 * np.eye(2)])
    with pytest.raises(DomainError, match=r"not a projector \(\|\|P\^2 - P\|\| = 2\.500e-01\)"):
        require_projector(P)
