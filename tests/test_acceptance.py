"""Acceptance gate: one test per shipped claim, each printing a PASS line.

Each criterion pins its seed, trial count, tolerance, and wall-clock budget.
Run with `pytest -v tests/test_acceptance.py` to get one line per criterion.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from qdpi import serialize
from qdpi.channels import counterexample_map, from_kraus, from_matrix, random_cptp, trace_behavior, transpose_map
from qdpi.divergences import old_renyi, relative_entropy, sandwiched_renyi
from qdpi.harness import (
    alpha_limit_suite,
    contraction_battery,
    counterexample_suite,
    randomized_dpi_suite,
    replay_witness,
    report_from_dict,
    report_to_dict,
    sample_state_pairs,
    step2_battery,
    violation_search,
    witness_from_dict,
    witness_to_dict,
)
from qdpi.sampling import random_density, random_hermitian, rng_for_trial

LN2 = math.log(2.0)


def _announce(label: str) -> None:
    print(f"{label}: PASS")


def test_criterion_01_counterexample_exactness():
    t0 = time.perf_counter()
    report = counterexample_suite()
    elapsed = time.perf_counter() - t0

    assert report.passed and report.trials == 5
    # re-derive the three headline numbers directly
    rho = np.diag([1 / 3, 2 / 3])
    sigma = np.diag([2 / 3, 1 / 3])
    phi = counterexample_map()
    d_before = relative_entropy(rho, sigma)
    d_after = relative_entropy(phi.apply(rho), phi.apply(sigma))
    assert abs(d_before - LN2 / 3) <= 1e-10
    assert abs(d_after - LN2 / 2) <= 1e-10
    gap = d_before - d_after
    assert abs(gap - (-LN2 / 6)) <= 1e-10
    assert gap == pytest.approx(-0.115525, abs=5e-7)
    assert phi.certificate.tag == "completely_positive"
    behavior = trace_behavior(phi)
    assert behavior.tag == "nonincreasing"
    assert elapsed < 1.0
    _announce("criterion-01 counterexample-exactness")


def test_criterion_02_relative_entropy_monotone_under_positive_tp_maps():
    t0 = time.perf_counter()
    report = randomized_dpi_suite("tp", dims=(2, 3, 4), trials=1000, seed=0)
    elapsed = time.perf_counter() - t0

    assert report.trials == 1000
    assert not report.failures, [w.gap for w in report.failures][:3]
    assert report.passes == 1000
    assert set(report.config["families"]) == {
        "random_cptp", "random_positive_noncp", "reduction", "pinching", "depolarizing",
    }
    assert elapsed < 60.0
    _announce("criterion-02 dpi-positive-tp")


def test_criterion_03_sandwiched_monotone_under_positive_tni_maps():
    t0 = time.perf_counter()
    report = randomized_dpi_suite(
        "tni", dims=(2, 3, 4), trials=1000, seed=0, alphas=(1.1, 1.25, 1.5, 2.0, 3.0, 5.0)
    )
    elapsed = time.perf_counter() - t0

    assert report.trials == 1000 and report.passes == 1000
    assert "halving" in report.config["families"]
    assert "counterexample" in report.config["families"]
    assert report.config["alphas"] == [1.1, 1.25, 1.5, 2.0, 3.0, 5.0]
    assert elapsed < 120.0
    _announce("criterion-03 dpi-sandwiched-tni")


def test_criterion_04_relative_entropy_monotone_with_matched_trace():
    t0 = time.perf_counter()
    report = randomized_dpi_suite("trace_match", dims=(2, 3, 4), trials=500, seed=0)
    elapsed = time.perf_counter() - t0

    assert report.trials == 500 and report.passes == 500
    # the mode constructs states whose trace survives the map within 1e-9
    for w in report.failures:
        raise AssertionError(f"unexpected failure with gap {w.gap}")
    assert elapsed < 60.0
    _announce("criterion-04 dpi-trace-matched")


def test_criterion_05_weighted_norm_contraction():
    t0 = time.perf_counter()
    report = contraction_battery(instances=20, dims=(2, 3, 4), alphas=(1.5, 2.0, 3.0), trials=200, seed=0)
    elapsed = time.perf_counter() - t0

    # 20 instances x (3 alphas x 200 probes + 2 endpoint checks)
    assert report.trials == 20 * (3 * 200 + 2)
    assert report.passes == report.trials, [w.rhs for w in report.failures][:3]
    assert elapsed < 60.0
    _announce("criterion-05 norm-contraction")


def test_criterion_06_alpha_limit_convergence():
    t0 = time.perf_counter()
    pairs = sample_state_pairs(50, (2, 3, 4, 5, 6), seed=0)
    report = alpha_limit_suite(pairs, seed=0)
    elapsed = time.perf_counter() - t0

    assert report.config["eps_grid"] == [1e-1, 1e-2, 1e-3, 1e-4]
    assert report.trials == 50 and report.passes == 50
    assert elapsed < 30.0
    _announce("criterion-06 alpha-limit")


def test_criterion_07_truncation_step_study():
    t0 = time.perf_counter()
    report = step2_battery(d=32, seed=0)
    elapsed = time.perf_counter() - t0

    assert report.config["n_sequence"] == [4, 8, 16, 24, 32]
    assert report.passes == report.trials, [(w.lhs, w.rhs) for w in report.failures][:4]
    assert elapsed < 120.0
    _announce("criterion-07 truncation-step")


def test_criterion_08_classical_oracle_agreement():
    def classical_kl(p, q):
        total = 0.0
        for pi, qi in zip(p, q):
            if pi > 0.0:
                total += pi * math.log(pi / qi)
        return total

    def classical_renyi(p, q, alpha):
        total = sum(pi**alpha * qi ** (1.0 - alpha) for pi, qi in zip(p, q) if pi > 0.0)
        return math.log(total) / (alpha - 1.0)

    t0 = time.perf_counter()
    for trial in range(200):
        rng = rng_for_trial(0, trial)
        d = int(rng.integers(2, 7))
        p = rng.random(d) + 0.02
        p /= p.sum()
        q = rng.random(d) + 0.02
        q /= q.sum()
        rho, sigma = np.diag(p), np.diag(q)
        assert abs(relative_entropy(rho, sigma) - classical_kl(p, q)) <= 1e-10
        for alpha in (0.5, 1.5, 2.0, 3.0):
            expected = classical_renyi(p, q, alpha)
            assert abs(sandwiched_renyi(rho, sigma, alpha) - expected) <= 1e-10
            assert abs(old_renyi(rho, sigma, alpha) - expected) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce("criterion-08 classical-oracle")


def test_criterion_09_violation_search_below_one_half():
    t0 = time.perf_counter()
    report = violation_search(0.3, dims=(2,), trials=100_000, seed=0, hill_steps=1500)
    elapsed = time.perf_counter() - t0

    assert report.outcome == "violation_found"
    witness = report.best_witness
    assert witness is not None
    assert witness.gap < -1e-6
    # deterministic re-verification, bit exact
    replayed = replay_witness(witness)
    assert replayed.lhs == witness.lhs
    assert replayed.rhs == witness.rhs
    assert replayed.gap == witness.gap
    # the same instance shows no violation in the monotone regime
    assert replay_witness(dataclasses.replace(witness, alpha=2.0)).gap >= -1e-8
    assert report.passes + len(report.failures) == report.trials
    assert elapsed < 300.0
    _announce("criterion-09 violation-search")


def test_criterion_10_serialization_round_trips():
    t0 = time.perf_counter()
    count = 0
    for trial in range(40):
        rng = rng_for_trial(0, trial)
        rho = random_density(rng, int(rng.integers(2, 5)))
        text1 = serialize.canonical_json(serialize.matrix_to_dict(rho, "density"))
        M, _ = serialize.matrix_from_dict(json.loads(text1))
        assert serialize.canonical_json(serialize.matrix_to_dict(M, "density")) == text1
        count += 1
    for trial in range(30):
        rng = rng_for_trial(1, trial)
        X = random_hermitian(rng, 3)
        text1 = serialize.canonical_json(serialize.matrix_to_dict(X, "hermitian"))
        M, _ = serialize.matrix_from_dict(json.loads(text1))
        assert serialize.canonical_json(serialize.matrix_to_dict(M, "hermitian")) == text1
        count += 1
    channels = [
        random_cptp(2, seed=0), random_cptp(3, seed=1), random_cptp(4, seed=2),
        counterexample_map(), transpose_map(3),
        from_kraus([np.eye(2) / math.sqrt(2.0), np.diag([1.0, -1.0]) / math.sqrt(2.0)]),
        from_matrix(transpose_map(2).matrix),
    ]
    for base in channels:
        for _ in range(4):
            text1 = serialize.canonical_json(serialize.channel_to_dict(base))
            back = serialize.channel_from_dict(json.loads(text1))
            assert serialize.canonical_json(serialize.channel_to_dict(back)) == text1
            base = back
            count += 1
    # report and witness payloads round trip and replay to the last digit
    report = violation_search(0.3, dims=(2,), trials=300, seed=1, hill_steps=200)
    text1 = serialize.canonical_json(report_to_dict(report))
    back = report_from_dict(json.loads(text1))
    assert serialize.canonical_json(report_to_dict(back)) == text1
    count += 1
    witness = back.best_witness
    assert witness is not None
    rewitness = witness_from_dict(json.loads(serialize.canonical_json(witness_to_dict(witness))))
    replayed = replay_witness(rewitness)
    assert replayed.lhs == witness.lhs and replayed.rhs == witness.rhs and replayed.gap == witness.gap
    count += 1

    assert count >= 100
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _announce("criterion-10 serialization-round-trip")
