import copy
import dataclasses
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdpi import serialize
from qdpi.channels import (
    _INTEGER_PARAMS,
    _REAL_PARAMS,
    FAMILY_TABLE,
    PositivityCertificate,
    SuperOperator,
    TraceBehavior,
    adjoint,
    apply_kraus_stack,
    choi,
    classify,
    compose,
    construct,
    counterexample_map,
    cptp_draw,
    damped_cptp,
    depolarizing_map,
    families,
    from_choi,
    from_isometry,
    from_kraus,
    from_matrix,
    gamma_superoperator,
    halving_map,
    identity_map,
    kraus_blocks,
    one_to_one_norm_positive,
    pinching_map,
    random_cptp,
    random_positive_noncp,
    reduction_map,
    trace_behavior,
    transpose_map,
    truncation_map,
    truncation_parts,
)
from qdpi.divergences import gamma_inverse, support_contained
from qdpi.linalg import (
    DEFAULT_TOL,
    DomainError,
    ValidatedPSD,
    hermitian_part,
    min_eigenvalue,
    operator_norm,
    psd,
)
from qdpi.sampling import (
    density_of_factor,
    gaussian_factor,
    phase_fixed_q,
    random_complex_gaussian,
    random_density,
    random_hermitian,
    random_projector,
    random_psd,
    random_unit_vector,
    rng_for_trial,
)


def test_identity_choi_is_maximally_entangled():
    C = choi(identity_map(2))
    w = np.linalg.eigvalsh(C)
    assert w[-1] == pytest.approx(2.0, abs=1e-12)
    assert np.all(np.abs(w[:-1]) < 1e-12)


def test_transpose_choi_is_swap_with_negative_eigenvalue():
    d = 2
    C = choi(transpose_map(d))
    swap = np.zeros((4, 4))
    for i in range(d):
        for j in range(d):
            swap[i * d + j, j * d + i] = 1.0
    assert np.allclose(C, swap, atol=1e-12)
    assert min_eigenvalue(C) == pytest.approx(-1.0, abs=1e-12)


def test_transpose_map_matrix_is_the_swap_of_vec_entries():
    # the one-entry-at-a-time fill, at dimensions where the transpose is not a symmetric relabelling
    for d in (1, 3, 5):
        M = np.zeros((d * d, d * d))
        for i in range(d):
            for j in range(d):
                M[i + d * j, j + d * i] = 1.0
        assert np.array_equal(transpose_map(d).matrix, M)


def test_reduction_map_values_and_choi():
    d = 3
    phi = reduction_map(d)
    X = np.diag([1.0, 2.0, 3.0]).astype(complex)
    expected = (np.trace(X) * np.eye(d) - X) / (d - 1)
    assert np.allclose(phi.apply(X), expected, atol=1e-12)
    # Choi = (I - d |Omega><Omega|) / (d - 1) has min eigenvalue -1 for all d
    assert min_eigenvalue(choi(phi)) == pytest.approx(-1.0, abs=1e-12)
    assert phi.certificate.tag == "positive_by_construction"


def test_counterexample_map_images_and_adjoint_unit():
    phi = counterexample_map()
    X = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert np.allclose(phi.apply(X), np.diag([0.5, 4.0]), atol=1e-12)
    unit = adjoint(phi).apply(np.eye(2))
    assert np.allclose(unit, np.diag([0.5, 1.0]), atol=1e-12)
    assert phi.certificate.tag == "completely_positive"
    b = trace_behavior(phi)
    assert b.tag == "nonincreasing"


def test_kraus_and_matrix_paths_agree():
    rng = rng_for_trial(201, 0)
    phi = random_cptp(3, rng=rng)
    X = random_hermitian(rng, 3)
    via_matrix = SuperOperator(
        matrix=phi.matrix,
        kraus=None,
        certificate=phi.certificate,
        descriptor=None,
    )
    assert np.allclose(phi.apply(X), via_matrix.apply(X), atol=1e-12)


def test_lazy_kraus_matrix_matches_kron_sum_for_rectangular_maps():
    rng = rng_for_trial(215, 0)
    for d_in, d_out, rank in ((3, 2, 3), (2, 5, 2), (4, 4, 1)):
        phi = random_cptp(d_in, d_out=d_out, kraus_rank=rank, rng=rng)
        assert "matrix" not in vars(phi)
        reference = sum(np.kron(K.conj(), K) for K in phi.kraus)
        assert phi.matrix.shape == (d_out * d_out, d_in * d_in)
        assert np.allclose(phi.matrix, reference, atol=1e-14)
        X = random_hermitian(rng, d_in)
        via_matrix = (phi.matrix @ X.flatten(order="F")).reshape(d_out, d_out, order="F")
        assert np.allclose(phi.apply(X), via_matrix, atol=1e-12)
        # adjoints and composites of Kraus maps stay Kraus-only until asked
        star = adjoint(phi)
        assert "matrix" not in vars(star)
        assert np.allclose(star.matrix, reference.conj().T, atol=1e-14)
        assert "matrix" not in vars(compose(star, phi))
    with pytest.raises(DomainError):
        SuperOperator(None, None)


def test_truncation_matrix_matches_dense_formula():
    # the former O(d^6) construction, kept as the reference
    def dense(base, P, P_prime):
        vec = lambda X: X.flatten(order="F")
        compress_in = np.kron(P.conj(), P)
        compress_out = np.kron(P_prime.conj(), P_prime)
        escape = np.eye(base.dim_out) - P_prime
        reroute = np.outer(vec(P_prime / np.trace(P_prime).real), vec(escape.T))
        return (compress_out + reroute) @ base.matrix @ compress_in

    rng = rng_for_trial(216, 0)
    K, L = random_hermitian(rng, 4) + 1j * random_hermitian(rng, 4), random_hermitian(rng, 4)
    cases = [
        (random_cptp(5, rng=rng), 5, 5, "positive_by_construction"),
        (transpose_map(5), 5, 5, "positive_by_construction"),
        (random_cptp(4, d_out=3, rng=rng), 4, 3, "positive_by_construction"),
        # X -> K X L^dagger does not preserve Hermiticity
        (from_matrix(np.kron(L.conj(), K)), 4, 4, "unverified"),
    ]
    for base, d_in, d_out, tag in cases:
        P = random_projector(rng, d_in, 2)
        P_prime = random_projector(rng, d_out, 2)
        phi = truncation_map(base, P, P_prime)
        oracle = dense(base, P, P_prime)
        assert np.allclose(phi.matrix, oracle, atol=1e-13)
        assert phi.certificate.tag == tag
        # the two terms alone, without the d^2 x d^2 matrix
        kept, W, tau = truncation_parts(base, P, P_prime)
        A = random_hermitian(rng, d_in) + 1j * random_hermitian(rng, d_in)
        expected = (oracle @ A.flatten(order="F")).reshape(d_out, d_out, order="F")
        assert np.allclose(kept.apply(A) + np.trace(A @ W) * tau, expected, atol=1e-13)


def test_kraus_constructors_make_no_eigensolver_call(monkeypatch):
    calls = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(a, *args, _original=original, **kwargs):
            calls.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    rng = rng_for_trial(217, 0)
    maps = [
        from_kraus([np.eye(3) / np.sqrt(2.0), np.diag([1.0, 1.0, 0.0]) / np.sqrt(2.0)]),
        random_cptp(6, rng=rng),
        random_cptp(4, seed=3),
        pinching_map(random_projector(rng, 6, 2)),
        depolarizing_map(6, 0.3),
    ]
    assert calls == []
    for phi in maps:
        assert phi.certificate.tag == "completely_positive"
        # the theorem agrees with the exact Choi test
        assert min_eigenvalue(choi(phi)) >= -1e-12


def test_choi_round_trip():
    rng = rng_for_trial(202, 0)
    phi = random_cptp(3, d_out=2, rng=rng)
    back = from_choi(choi(phi), dim_in=3)
    assert (back.dim_in, back.dim_out) == (3, 2)
    assert np.allclose(back.matrix, phi.matrix, atol=1e-11)
    assert back.certificate.tag == "completely_positive"


@pytest.mark.parametrize("form", ["kraus", "matrix", "choi"])
def test_maps_are_fixed_once_built(form):
    K = random_cptp(2, seed=0).kraus[0].copy()
    M = depolarizing_map(2, 0.5).matrix.copy()
    phi = {"kraus": lambda: from_kraus([K]), "matrix": lambda: from_matrix(M),
           "choi": lambda: from_choi(choi(from_matrix(M)), 2)}[form]()
    image = phi.apply(np.eye(2))
    for name, value in (("dim_in", 3), ("certificate", classify(transpose_map(2))), ("descriptor", None)):
        with pytest.raises(AttributeError, match="fixed once built"):
            setattr(phi, name, value)
    with pytest.raises(AttributeError, match="fixed once built"):
        del phi.kraus
    with pytest.raises(ValueError, match="read-only"):
        phi.matrix[0, 0] = 1
    if phi.kraus is not None:
        with pytest.raises(ValueError, match="read-only"):
            phi.kraus[0][0, 0] = 1
    # the map still does what it did, and the caller's arrays stay writable
    assert np.array_equal(phi.apply(np.eye(2)), image) and phi.dim_in == 2
    assert K.flags.writeable and M.flags.writeable


def test_from_choi_rejects_bad_shape():
    with pytest.raises(DomainError):
        from_choi(np.eye(5), dim_in=2)


def test_adjoint_pairing_identity():
    # tr[Phi(A)^dag B] = tr[A^dag Phi*(B)]
    rng = rng_for_trial(203, 0)
    phi = random_cptp(3, d_out=2, rng=rng)
    star = adjoint(phi)
    for trial in range(10):
        sub = rng_for_trial(203, trial + 1)
        A = random_hermitian(sub, 3)
        B = random_hermitian(sub, 2)
        lhs = np.trace(phi.apply(A).conj().T @ B)
        rhs = np.trace(A.conj().T @ star.apply(B))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_compose_applies_sequentially():
    rng = rng_for_trial(204, 0)
    f = random_cptp(2, rng=rng)
    g = random_cptp(2, rng=rng)
    X = random_hermitian(rng, 2)
    assert np.allclose(compose(f, g).apply(X), f.apply(g.apply(X)), atol=1e-12)
    assert compose(f, g).certificate.tag == "completely_positive"


def test_compose_of_positive_maps_is_positive_by_construction():
    t = transpose_map(2)
    c = random_cptp(2, seed=5)
    assert compose(t, c).certificate.tag == "positive_by_construction"


def test_trace_behavior_classification():
    assert trace_behavior(random_cptp(3, seed=1)).tag == "preserving"
    assert trace_behavior(halving_map(2)).tag == "nonincreasing"
    inflating = from_matrix(2.0 * identity_map(2).matrix)
    assert trace_behavior(inflating).tag == "neither"
    # the tag is read off the one eigendecomposition of Phi*(1), cached on the map
    phi = damped_cptp(4, 2, 0.3, seed=6)
    b = trace_behavior(phi)
    assert trace_behavior(phi) is b
    assert np.allclose((b.V * b.w) @ b.V.conj().T, adjoint(phi).apply(np.eye(4)), atol=1e-12)
    assert np.all(np.diff(b.w) >= 0.0)


def _unsolved_maps() -> list:
    """Maps of every representation, of input dimensions 3 and 2, with no Phi*(1) solved yet."""
    return [random_cptp(3, seed=1), reduction_map(3), random_positive_noncp(3, seed=2),
            damped_cptp(3, 2, 0.5, seed=3), counterexample_map(), transpose_map(2)]


def test_trace_behavior_of_a_list_has_the_bits_of_each_maps_own_solve(solver_calls):
    maps = _unsolved_maps()
    listed = maps + maps[:2]  # a map listed twice is solved once
    behaviors = trace_behavior(listed)
    assert [(name, a.shape) for name, a in solver_calls] == [("eigh", (4, 3, 3)), ("eigh", (2, 2, 2))]
    assert all(trace_behavior(phi) is b for phi, b in zip(listed, behaviors))
    assert trace_behavior(maps) == behaviors[:len(maps)] and len(solver_calls) == 2  # no map is solved again
    assert trace_behavior([]) == []
    for b, alone in zip(behaviors, map(trace_behavior, _unsolved_maps())):
        assert (b.w.tobytes(), b.V.tobytes()) == (alone.w.tobytes(), alone.V.tobytes())
        assert b.tag == alone.tag and not b.w.flags.writeable and not b.V.flags.writeable


@pytest.mark.parametrize("name", ["reduction", "halving", "counterexample"])
def test_seedless_families_draw_one_shared_map(name):
    draw = FAMILY_TABLE[name].draw
    rng = rng_for_trial(215, 0)
    state = rng.bit_generator.state
    first = draw(rng, 3, DEFAULT_TOL)
    assert rng.bit_generator.state == state  # a seedless draw takes nothing from its stream
    assert draw(rng_for_trial(215, 1), 3, DEFAULT_TOL) is first
    assert (draw(rng, 4, DEFAULT_TOL) is first) == (name == "counterexample")
    # a payload written from the shared map can be edited without changing the map
    descriptor = copy.deepcopy(first.descriptor)
    payload = serialize.channel_to_dict(first)
    payload["params"]["d"] = 99
    assert first.descriptor == descriptor


def test_classify_confirms_cp_and_falsifies_negative_map():
    cert = classify(random_cptp(2, seed=2))
    assert cert.tag == "completely_positive"
    assert trace_behavior(random_cptp(2, seed=2)).tag == "preserving"
    negate = from_matrix(-identity_map(2).matrix)
    cert = classify(negate, sample_count=64, seed=0)
    assert cert.tag == "falsified"
    assert cert.witness is not None


def _classify_one_probe_at_a_time(phi, sample_count, seed, cfg=DEFAULT_TOL):
    """classify's reference: each probe applied and solved alone, the strict < keeping the first minimum."""
    cert = classify(phi, cfg)  # the Choi test, and the certificate when no probe falsifies
    if cert.tag == "completely_positive":
        return cert
    worst, worst_psi = np.inf, None
    for t in range(sample_count):
        psi = random_unit_vector(rng_for_trial(seed, t), phi.dim_in)
        m = float(np.linalg.eigvalsh(hermitian_part(phi.apply(np.outer(psi, psi.conj()))))[0])
        if m < worst:
            worst, worst_psi = m, psi
    if worst_psi is not None and worst < -cfg.psd_tolerance:
        return dataclasses.replace(
            cert, tag="falsified", reason=f"pure-state image has min eigenvalue {worst:.3e}", witness=worst_psi
        )
    return cert


def _random_matrix_map(d):
    rng = np.random.default_rng(100 + d)
    return from_matrix(rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d)))


def _held_as(form, phi):
    """phi as its family, as a bare representation matrix or as a Choi matrix."""
    if form == "superop_matrix":
        return from_matrix(phi.matrix)
    if form == "choi":
        return from_choi(choi(phi), phi.dim_in)
    return phi


# maps in every form classify meets: family, representation matrix, Choi matrix, Kraus operators
_PROBED_MAPS = {
    "negated-identity-2": lambda: from_matrix(-identity_map(2).matrix),
    # X -> -tr(X) E_00: every probe's minimum is minus its rounded trace, so
    # equal minima recur within each stack and the first one must win
    "negated-trace-2": lambda: from_matrix(np.array([[-1.0, 0, 0, -1]] + [[0.0] * 4] * 3)),
    # a non-Hermitian Choi matrix, so no Choi eigensolve; entries near the
    # float limit, which the halving symmetrization keeps finite, falsify
    "overflowing-negation-2": lambda: from_matrix(-1e308 * np.eye(4) + 1e-3j),
    **{f"random-matrix-{d}": (lambda d=d: _random_matrix_map(d)) for d in range(3, 7)},
    **{f"{family.__name__}-{form}-{d}": (lambda family=family, form=form, d=d: _held_as(form, family(d)))
       for family in (transpose_map, reduction_map) for form in ("family", "superop_matrix", "choi") for d in (2, 4)},
    "kraus-cptp-3": lambda: random_cptp(3, seed=4),
}


@pytest.mark.parametrize("name", sorted(_PROBED_MAPS))
def test_stacked_probes_equal_one_probe_at_a_time(name):
    phi = _PROBED_MAPS[name]()
    for count in (0, 1, 255, 256, 257, 1000):
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _classify_one_probe_at_a_time(phi, count, seed=3)
            cert = classify(phi, sample_count=count, seed=3)
        assert (cert.tag, cert.reason, cert.choi_min) == (ref.tag, ref.reason, ref.choi_min)
        assert (cert.witness is None) == (ref.witness is None)
        if ref.witness is not None:
            assert cert.witness.tobytes() == ref.witness.tobytes()
        if count and name.startswith(("negated", "overflowing", "random")):
            assert cert.tag == "falsified"


def test_classify_keeps_by_construction_tag_for_transpose():
    assert classify(transpose_map(2)).tag == "positive_by_construction"
    assert trace_behavior(transpose_map(2)).tag == "preserving"


def test_one_to_one_norm_for_positive_tni_maps_is_at_most_one():
    maps = [
        random_cptp(3, seed=3),
        random_positive_noncp(3, seed=3),
        halving_map(3),
        counterexample_map(),
        depolarizing_map(3, 0.4),
        damped_cptp(3, 2, 0.5, seed=3),
    ]
    for phi in maps:
        assert one_to_one_norm_positive(phi) <= 1.0 + 1e-10


def test_one_to_one_norm_requires_positivity_certificate():
    unknown = from_matrix(identity_map(2).matrix)
    assert unknown.certificate.tag == "unverified"
    with pytest.raises(DomainError):
        one_to_one_norm_positive(unknown)


def test_pinching_map_action():
    P = np.diag([1.0, 1.0, 0.0])
    phi = pinching_map(P)
    rng = rng_for_trial(205, 0)
    X = random_hermitian(rng, 3)
    expected = P @ X @ P + (np.eye(3) - P) @ X @ (np.eye(3) - P)
    assert np.allclose(phi.apply(X), expected, atol=1e-12)
    assert trace_behavior(phi).tag == "preserving"


def test_depolarizing_extremes():
    d = 3
    assert np.allclose(depolarizing_map(d, 1.0).matrix, identity_map(d).matrix, atol=1e-12)
    rng = rng_for_trial(206, 0)
    X = random_hermitian(rng, d)
    fully = depolarizing_map(d, 0.0)
    assert np.allclose(fully.apply(X), np.trace(X) * np.eye(d) / d, atol=1e-12)
    with pytest.raises(DomainError):
        depolarizing_map(d, 1.5)


def test_truncation_trace_identity_and_adjoint_unit():
    # for a TP base, tr[Phi_n(A)] = tr[P A P] and Phi_n*(1) = P
    rng = rng_for_trial(207, 0)
    base = random_cptp(4, rng=rng)
    P = random_projector(rng, 4, 2)
    P_prime = random_projector(rng, 4, 3)
    phi = truncation_map(base, P, P_prime)
    for trial in range(8):
        sub = rng_for_trial(207, trial + 1)
        A = random_hermitian(sub, 4)
        assert np.trace(phi.apply(A)) == pytest.approx(np.trace(P @ A @ P), abs=1e-10)
    unit = adjoint(phi).apply(np.eye(4))
    assert np.allclose(unit, P, atol=1e-10)


def test_truncation_rejects_zero_target_projector():
    base = random_cptp(3, seed=4)
    with pytest.raises(DomainError):
        truncation_map(base, np.eye(3), np.zeros((3, 3)))


def test_unit_sector_projector_cases():
    def projector(phi):
        B = trace_behavior(phi).sector()
        return B @ B.conj().T

    assert np.allclose(projector(counterexample_map()), np.diag([0.0, 1.0]), atol=1e-9)
    assert np.allclose(projector(random_cptp(3, seed=6)), np.eye(3), atol=1e-9)
    B = trace_behavior(damped_cptp(4, 2, 0.3, seed=6)).sector()
    assert B.shape == (4, 2)
    assert np.allclose(B.conj().T @ B, np.eye(2), atol=1e-12)
    with pytest.raises(DomainError):
        trace_behavior(halving_map(2)).sector()


def test_gamma_superoperator_matches_direct_conjugation():
    rng = rng_for_trial(209, 0)
    sigma = random_density(rng, 3)
    X = random_hermitian(rng, 3)
    # sigma^{1/2} from the test's own eigendecomposition
    w, V = np.linalg.eigh(sigma)
    root = (V * np.sqrt(w)) @ V.conj().T
    assert np.allclose(gamma_superoperator(sigma).apply(X), root @ X @ root, atol=1e-10)
    assert np.allclose(
        gamma_superoperator(sigma, inverse=True).apply(X), gamma_inverse(sigma, X), atol=1e-8
    )


def test_random_cptp_is_trace_preserving_and_cp():
    for seed in range(5):
        phi = random_cptp(3, seed=seed)
        assert phi.certificate.tag == "completely_positive"
        assert trace_behavior(phi).tag == "preserving"
        assert min_eigenvalue(choi(phi)) >= -1e-10


def test_random_cptp_descriptor_round_trip():
    phi = random_cptp(3, seed=11)
    assert phi.descriptor is not None
    rebuilt = construct(phi.descriptor["family"], phi.descriptor.get("params", {}), phi.descriptor.get("seed"))
    assert np.allclose(rebuilt.matrix, phi.matrix, atol=0.0)
    anon = random_cptp(3, rng=rng_for_trial(0, 0))
    assert anon.descriptor is None


def test_random_positive_noncp_is_positive_but_not_cp():
    phi = random_positive_noncp(3, seed=8)
    assert phi.certificate.tag == "positive_by_construction"
    assert min_eigenvalue(choi(phi)) < -1e-6
    rng = rng_for_trial(210, 0)
    for trial in range(10):
        sub = rng_for_trial(210, trial)
        rho = random_psd(sub, 3)
        assert min_eigenvalue(phi.apply(rho)) >= -1e-10


def test_construct_rejects_unknown_family():
    with pytest.raises(DomainError):
        construct("teleporter", {}, 0)


def test_family_roles_keep_their_order():
    # a suite picks a family by its index in its role's tuple, so these orders are in every report
    assert families("tp") == ("random_cptp", "random_positive_noncp", "reduction", "pinching", "depolarizing")
    assert families("tni") == families("tp") + ("halving", "counterexample")
    assert families("trace_match") == ("counterexample", "damped_cptp", "truncation")
    assert families("support") == ("random_cptp", "random_positive_noncp", "reduction")
    assert families("contraction") == ("random_cptp", "random_positive_noncp", "depolarizing")
    assert families("teleporter") == ()


@pytest.mark.parametrize("role", ["tp", "tni", "trace_match", "support", "contraction"])
def test_every_suite_role_has_a_family(role):
    # a suite picks among its role's families by index, so an empty role would draw nothing
    assert families(role)


@pytest.mark.parametrize("family", [name for name, entry in FAMILY_TABLE.items() if entry.take is not None])
def test_drawn_families_fill_their_roles(family):
    entry = FAMILY_TABLE[family]
    assert entry.roles
    for trial in range(10):
        rng = rng_for_trial(214, trial)
        phi = entry.draw(rng, int(rng.integers(2, 6)), DEFAULT_TOL)
        assert phi.certificate.is_positive
        behavior = trace_behavior(phi)
        if "tp" in entry.roles:
            assert behavior.tag == "preserving"
        if "tni" in entry.roles:
            assert behavior.is_nonincreasing
        if "trace_match" in entry.roles:
            assert behavior.sector().shape[1] >= 1
        if "contraction" in entry.roles:
            # the weighted norms of the contraction lemma need sigma and Phi(sigma) full rank
            assert behavior.is_nonincreasing
            image = phi.apply(random_density(rng, phi.dim_in))
            assert psd(hermitian_part(image)).on.all()


# one recipe of every family that has a constructor
RECIPES = {
    "random_cptp": ({"d": 3, "d_out": 2, "kraus_rank": 2}, 4),
    "random_positive_noncp": ({"d": 3}, 5),
    "reduction": ({"d": 3}, None),
    "depolarizing": ({"d": 3, "lam": 0.25}, None),
    "halving": ({"d": 2}, None),
    "counterexample": ({}, None),
    "damped_cptp": ({"d": 3, "rank": 2, "mu": 0.5}, 3),
    "identity": ({"d": 2}, None),
    "transpose": ({"d": 3}, None),
}


def test_every_recipe_family_round_trips_by_recipe():
    assert set(RECIPES) == {name for name, entry in FAMILY_TABLE.items() if entry.constructor is not None}
    for family, (params, seed) in RECIPES.items():
        phi = construct(family, params, seed)
        payload = serialize.channel_to_dict(phi)
        assert payload["representation"] == "family" and payload["family"] == family
        back = serialize.channel_from_dict(payload)
        assert serialize.channel_to_dict(back) == payload
        assert back.matrix.tobytes() == phi.matrix.tobytes()


def test_every_family_parameter_is_a_recipe_parameter():
    # construct type-checks a recipe's params against these tuples, the second edit site of a new family
    known = set(_INTEGER_PARAMS + _REAL_PARAMS)
    for name, entry in FAMILY_TABLE.items():
        if entry.constructor is not None:
            params = set(inspect.signature(entry.constructor).parameters) - {"seed", "rng"}
            assert params <= known, (name, params - known)


@pytest.mark.parametrize("path", ["kraus", "matrix"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_apply_rejects_non_finite_input(path, bad):
    phi = random_cptp(2, seed=1) if path == "kraus" else transpose_map(2)
    assert (phi.kraus is not None) == (path == "kraus")
    with pytest.raises(DomainError):
        phi.apply(np.array([[0.5, 0.0], [0.0, bad]]))


@pytest.mark.parametrize("make", [lambda: random_cptp(3, seed=1), lambda: transpose_map(3),
                                  lambda: from_matrix(np.arange(36.0).reshape(4, 9) * (1 - 2j))])
def test_apply_of_a_stack_equals_apply_of_each_matrix(make):
    phi = make()
    rng = np.random.default_rng(5)
    X = np.stack([random_density(rng, 3) for _ in range(5)])
    validated = psd(X)
    for stack, matrices in ((X, X), (validated, validated.matrix)):
        out = phi.apply(stack)
        assert out.shape == (5, phi.dim_out, phi.dim_out)
        for i in range(5):
            assert out[i].tobytes() == phi.apply(matrices[i]).tobytes()
    if phi.kraus is None:
        # the matrix form is M vec(X) with column-stacking vec
        for i in range(5):
            image = (phi.matrix @ X[i].flatten(order="F")).reshape(phi.dim_out, phi.dim_out, order="F")
            assert phi.apply(X[i]).tobytes() == image.tobytes()
    assert phi.apply(X[:0]).shape == (0, phi.dim_out, phi.dim_out)
    bad = X.copy()
    bad[3, 0, 2] = np.nan
    with pytest.raises(DomainError, match="non-finite"):
        phi.apply(bad)
    for shape in ((5, 2, 2), (1, 5, 3, 3), (9,)):
        with pytest.raises(DomainError, match="input dimension"):
            phi.apply(np.zeros(shape))


def test_from_kraus_dimension_checks():
    K = np.zeros((2, 3))
    phi = from_kraus([K])
    assert phi.dim_in == 3 and phi.dim_out == 2
    # the operators' shape is the only source of the dimensions
    with pytest.raises(TypeError):
        from_kraus([np.eye(4)], 3)
    with pytest.raises(DomainError):
        from_kraus([np.eye(2), np.eye(3)])


@pytest.mark.parametrize(
    "build",
    [
        lambda: from_matrix(np.eye(3)),
        lambda: from_kraus([]),
        lambda: from_kraus([np.eye(2), np.eye(3)]),
        lambda: from_choi(np.eye(5), 2),
        lambda: compose(identity_map(2), identity_map(3)),
        lambda: identity_map(0),
        lambda: transpose_map(0),
        lambda: reduction_map(1),
        lambda: depolarizing_map(0, 0.5),
        lambda: truncation_map(identity_map(2), np.eye(3), np.eye(2)),
        lambda: truncation_map(identity_map(2), np.eye(2), np.eye(3)),
        lambda: random_cptp(2),
        lambda: damped_cptp(2, 1, 1.5, seed=0),
        lambda: damped_cptp(2, 3, 0.5, seed=0),
        lambda: halving_map(0),
        lambda: halving_map(-1),
        # a map of dimension 0, rejected before any numpy reduction
        lambda: from_kraus([np.zeros((0, 0))]),
        lambda: from_kraus([np.zeros((2, 0))]),
        lambda: from_matrix(np.zeros((0, 0))),
        lambda: from_choi(np.zeros((0, 0)), 1),
        lambda: from_choi(np.eye(2), 0),
    ],
    ids=[
        "from_matrix-shape", "from_kraus-empty", "from_kraus-mixed", "from_choi-multiple", "compose-dims", "identity-0", "transpose-0",
        "reduction-1", "depolarizing-0", "truncation-P", "truncation-P-prime", "random_cptp-no-seed",
        "damped-mu", "damped-rank", "halving-0", "halving-negative",
        "from_kraus-0x0", "from_kraus-2x0", "from_matrix-0x0", "from_choi-0x0", "from_choi-dim-in-0",
    ],
)
def test_constructors_reject_bad_arguments(build):
    with pytest.raises(DomainError):
        build()


def _dims(phi: SuperOperator) -> tuple:
    return phi.dim_in, phi.dim_out


# each value type is given only its operator and derives the rest: a
# construction that would contradict itself raises, with psd's own message
# for a PSD value
@pytest.mark.parametrize(
    "build, expected",
    [
        (lambda: ValidatedPSD(np.diag([1.5, -0.5])), DomainError("matrix is not PSD (min eigenvalue -5.000e-01)")),
        (lambda: ValidatedPSD(np.array([[1.0, 1.0], [0.0, 1.0]])),
         DomainError("matrix is not Hermitian (defect 1.000e+00)")),
        (lambda: SuperOperator(np.eye(5)), DomainError("representation matrix shape (5, 5) is not")),
        (lambda: SuperOperator(kraus=(np.eye(2), np.eye(3))), DomainError("all Kraus operators must share one shape")),
        (lambda: SuperOperator(kraus=()), DomainError("at least one Kraus operator is required")),
        (lambda: SuperOperator(np.eye(4), kraus=(np.eye(2),)), DomainError("exactly one")),
        (lambda: _dims(SuperOperator(np.eye(4))), (2, 2)),
        (lambda: _dims(SuperOperator(np.ones((4, 9)))), (3, 2)),
        (lambda: _dims(SuperOperator(kraus=(np.ones((2, 3)),))), (3, 2)),
        (lambda: TraceBehavior(np.array([1.0, 1.0]), np.eye(2)).tag, "preserving"),
        (lambda: TraceBehavior(np.array([0.5, 1.0]), np.eye(2)).tag, "nonincreasing"),
        (lambda: TraceBehavior(np.array([0.2, 3.0]), np.eye(2)).tag, "neither"),
    ],
    ids=[
        "psd-negative", "psd-non-hermitian", "superop-5x5", "kraus-mixed", "kraus-empty", "both-operators",
        "dims-matrix-square", "dims-matrix-rectangular", "dims-kraus-rectangular",
        "trace-preserving", "trace-nonincreasing", "trace-neither",
    ],
)
def test_value_types_derive_what_they_certify(build, expected):
    if isinstance(expected, DomainError):
        with pytest.raises(DomainError, match=re.escape(str(expected))):
            build()
    else:
        assert build() == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_positive_maps_preserve_psd_cone(trial):
    rng = rng_for_trial(211, trial)
    phi = random_positive_noncp(3, rng=rng)
    rho = random_psd(rng, 3)
    assert min_eigenvalue(phi.apply(rho)) >= -1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_superoperator_linearity(trial):
    rng = rng_for_trial(212, trial)
    phi = random_cptp(3, rng=rng)
    A = random_hermitian(rng, 3)
    B = random_hermitian(rng, 3)
    c = float(rng.uniform(-2.0, 2.0))
    assert np.allclose(phi.apply(A + c * B), phi.apply(A) + c * phi.apply(B), atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_hermiticity_preservation(trial):
    rng = rng_for_trial(213, trial)
    phi = random_positive_noncp(4, rng=rng)
    X = random_hermitian(rng, 4)
    Y = phi.apply(X)
    assert operator_norm(Y - Y.conj().T) < 1e-10


def test_russo_dye_one_to_one_norm_equals_adjoint_unit_norm():
    # for positive maps the 1->1 norm is attained at the identity
    for seed in range(4):
        phi = random_positive_noncp(3, seed=seed)
        unit_norm = float(np.linalg.eigvalsh(adjoint(phi).apply(np.eye(3)))[-1])
        assert one_to_one_norm_positive(phi) == pytest.approx(unit_norm, abs=1e-12)
        rng = rng_for_trial(214, seed)
        for trial in range(6):
            rho = random_psd(rng, 3)
            ratio = np.trace(phi.apply(rho)).real / np.trace(rho).real
            assert ratio <= unit_norm + 1e-9


def test_one_to_one_norm_attained_on_pure_states():
    # for positive maps ||Phi(psi psi*)||_1 = <psi| Phi*(1) |psi>, so sampled
    # pure states never exceed the norm and the top eigenvector attains it
    scaled = from_kraus([0.9 * K for K in random_cptp(3, seed=21).kraus])
    for phi in (counterexample_map(), random_cptp(3, seed=20), reduction_map(3), scaled):
        norm = one_to_one_norm_positive(phi)
        unit = adjoint(phi).apply(np.eye(phi.dim_out))
        _, V = np.linalg.eigh(unit)
        top = V[:, -1]
        attained = np.trace(phi.apply(np.outer(top, top.conj()))).real
        assert attained == pytest.approx(norm, abs=1e-9)
        rng = rng_for_trial(30, phi.dim_in)
        for _ in range(1000):
            v = rng.normal(size=phi.dim_in) + 1j * rng.normal(size=phi.dim_in)
            v /= np.linalg.norm(v)
            value = np.trace(phi.apply(np.outer(v, v.conj()))).real
            assert value <= norm + 1e-8


def test_positive_maps_preserve_support_inclusion():
    relaxed = dataclasses.replace(DEFAULT_TOL, containment_tolerance=1e-6)
    for trial in range(12):
        rng = rng_for_trial(31, trial)
        d = int(rng.integers(2, 5))
        sigma = random_psd(rng, d, rank=max(1, d - 1))
        # compress a random state into supp(sigma)
        Q = psd(sigma).projector()
        rho = Q @ random_psd(rng, d) @ Q
        phi = (random_cptp, random_positive_noncp)[trial % 2](d, seed=trial)
        assert support_contained(rho, sigma)
        assert support_contained(phi.apply(rho), phi.apply(sigma), relaxed)


def test_stacked_sampling_finish_equals_the_scalar_samplers():
    d, n = 3, 5
    iso, rho_factors, maps, states = [], [], [], []
    for t in range(n):
        rng = rng_for_trial(12, t)
        iso.append(cptp_draw(rng, d))
        rho_factors.append(gaussian_factor(rng, d))
        rng = rng_for_trial(12, t)
        maps.append(random_cptp(d, rng=rng))
        states.append(random_density(rng, d))
    V = phase_fixed_q(np.stack(iso))
    rho = density_of_factor(np.stack(rho_factors))
    for i in range(n):
        assert np.array_equal(V[i], np.vstack(maps[i].kraus))
        assert np.array_equal(rho[i], states[i])
    # the draw validates its dimensions as random_cptp does
    for dims in ((0,), (3, 1, 2), (2, 0)):
        with pytest.raises(DomainError):
            cptp_draw(np.random.default_rng(0), *dims)
        with pytest.raises(DomainError):
            random_cptp(*dims, seed=0)


@pytest.mark.parametrize("shape", [(2, 2), (3,), 3, (5, 4, 3), (0, 2)])
def test_complex_gaussian_is_one_draw_of_both_parts(shape):
    # the values and stream state of drawing the real parts, then the imaginary parts
    one, two = np.random.default_rng(9), np.random.default_rng(9)
    got = random_complex_gaussian(one, shape)
    want = two.standard_normal(shape) + 1j * two.standard_normal(shape)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert one.bit_generator.state == two.bit_generator.state
    assert one.standard_normal() == two.standard_normal()


def test_from_isometry_rejects_rows_that_do_not_split_into_blocks():
    # 5 rows hold no whole number of 2-row Kraus operators; none is dropped
    V = phase_fixed_q(cptp_draw(np.random.default_rng(0), 2, 5, 1))
    with pytest.raises(DomainError, match="blocks of 2 rows"):
        from_isometry(V, 2)
    with pytest.raises(DomainError, match="blocks of 0 rows"):
        from_isometry(V, 0)
    assert trace_behavior(from_isometry(V, 5)).tag == "preserving"


def test_apply_kraus_stack_equals_apply_of_each_map():
    d, n = 3, 4
    rng = np.random.default_rng(2)
    V = phase_fixed_q(np.stack([cptp_draw(rng, d) for _ in range(n)]))
    X = np.stack([random_density(rng, d) for _ in range(n)])
    out = apply_kraus_stack(kraus_blocks(V, d), X)
    for i in range(n):
        assert np.array_equal(out[i], from_isometry(V[i], d).apply(X[i]))
    bad = X.copy()
    bad[2, 1, 1] = np.inf
    with pytest.raises(DomainError, match="non-finite"):
        apply_kraus_stack(kraus_blocks(V, d), bad)
    with pytest.raises(DomainError, match="input dimension"):
        apply_kraus_stack(kraus_blocks(V, d), X[:, :2, :2])


def _draw_alone(name, rng, d, cfg=DEFAULT_TOL):
    """The map of family name drawn from rng by one-map constructions, in the order the family's take reads:
    the reference that each stacked build must match bit for bit."""
    if name == "random_cptp":
        return from_isometry(phase_fixed_q(cptp_draw(rng, d)), d)
    if name == "random_positive_noncp":
        transpose_first = bool(rng.integers(2))
        cptp = from_isometry(phase_fixed_q(cptp_draw(rng, d)), d)
        T = transpose_map(d)
        cert = PositivityCertificate("positive_by_construction", reason="transpose composed with a CPTP map")
        return from_matrix(compose(cptp, T).matrix if transpose_first else compose(T, cptp).matrix, certificate=cert)
    if name == "pinching":
        return pinching_map(random_projector(rng, d, int(rng.integers(1, d))), cfg)
    if name == "depolarizing":
        lam, v = float(rng.uniform(0.0, 1.0)), np.eye(d, dtype=complex).flatten(order="F")
        cert = PositivityCertificate("completely_positive", reason=f"depolarizing, choi min eigenvalue {(1.0 - lam) / d:.3e}")
        return from_matrix(lam * np.eye(d * d) + ((1.0 - lam) / d) * np.outer(v, v), certificate=cert,
                           descriptor={"family": "depolarizing", "params": {"d": d, "lam": lam}})
    if name == "damped_cptp":
        rank, mu = int(rng.integers(1, d)), float(rng.uniform(0.2, 0.9))
        Q = random_projector(rng, d, rank)
        W = Q + np.sqrt(mu) * (np.eye(d) - Q)
        return from_kraus([K @ W for K in from_isometry(phase_fixed_q(cptp_draw(rng, d)), d).kraus])
    if name == "truncation":
        base = from_isometry(phase_fixed_q(cptp_draw(rng, d)), d)
        P, P_prime = (random_projector(rng, d, int(rng.integers(1, d + 1))) for _ in range(2))
        return truncation_map(base, P, P_prime, cfg)
    if name == "counterexample":
        return counterexample_map()
    return {"reduction": reduction_map, "halving": halving_map}[name](d)


def _map_fields(phi):
    kraus = None if phi.kraus is None else [K.tobytes() for K in phi.kraus]
    cert = phi.certificate
    return phi.matrix.tobytes(), kraus, (cert.tag, cert.reason), phi.descriptor


@pytest.mark.parametrize("name", [name for name, entry in FAMILY_TABLE.items() if entry.take is not None])
def test_family_builds_equal_one_trial_draws(name):
    # a build of many takes gives each map the bits, certificate and descriptor of its draw alone
    family = FAMILY_TABLE[name]
    for d in (2, 3, 4, 5, 6):
        streams = [rng_for_trial(216, 10 * d + t) for t in range(7)]
        built = family.build([family.take(rng, d) for rng in streams], d, DEFAULT_TOL)
        assert len(built) == len(streams)
        for t, phi in enumerate(built):
            drawn = family.draw(rng_for_trial(216, 10 * d + t), d, DEFAULT_TOL)
            alone = rng_for_trial(216, 10 * d + t)
            reference = _draw_alone(name, alone, d)
            assert _map_fields(phi) == _map_fields(drawn) == _map_fields(reference), (d, t)
            assert streams[t].bit_generator.state == alone.bit_generator.state  # the take read what the draw reads
            assert phi.dim_in == (family.dim or d)
