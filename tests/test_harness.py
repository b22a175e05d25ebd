import dataclasses
import functools
import json
import math
import re

import numpy as np
import pytest

from qdpi.channels import (
    adjoint,
    classify,
    compose,
    counterexample_map,
    damped_cptp,
    from_isometry,
    from_kraus,
    from_matrix,
    gamma_superoperator,
    halving_map,
    identity_map,
    one_to_one_norm_positive,
    pinching_map,
    random_cptp,
    reduction_map,
    trace_behavior,
    transpose_map,
)
from qdpi.harness import (
    CheckReport,
    TRACE_MATCH_TOLERANCE,
    Witness,
    alpha_limit_battery,
    alpha_limit_suite,
    auxiliary_inequality_suite,
    contraction_battery,
    counterexample_suite,
    monotonicity_check,
    randomized_dpi_suite,
    replay_witness,
    report_from_dict,
    report_to_dict,
    sample_state_pairs,
    step2_battery,
    step2_suite,
    violation_search,
    witness_from_dict,
    witness_to_dict,
)
from qdpi import channels, cli, harness
from qdpi.divergences import (
    klein_gap,
    relative_entropy,
    sandwiched_renyi,
    support_contained,
    von_neumann_entropy,
    weighted_p_norm,
)
from qdpi.harness import (
    _gap_of,
    _seeded_trials,
    _violation_trials,
)
from qdpi.linalg import DEFAULT_TOL, DomainError, hermitian_part, min_eigenvalue, operator_norm, psd
from qdpi.sampling import (
    phase_fixed_q,
    random_complex_gaussian,
    random_density,
    random_hermitian,
    random_projector,
    random_psd,
    random_rank_deficient_density,
    random_unit_vector,
    rng_for_trial,
)
from qdpi.serialize import FormatError, canonical_json, matrix_from_dict


def frozen_report_text(report: CheckReport) -> str:
    payload = report_to_dict(report)
    payload["runtime_ms"] = 0
    return canonical_json(payload)


def test_counterexample_suite_passes_with_known_gap():
    r = counterexample_suite()
    assert r.passed and r.trials == 5
    assert r.min_gap == pytest.approx(-math.log(2) / 6, abs=1e-12)


def test_monotonicity_check_zero_gap_under_unitary_conjugation():
    rng = rng_for_trial(401, 0)
    rho = random_density(rng, 3)
    sigma = random_density(rng, 3)
    w = monotonicity_check(identity_map(3), rho, sigma)
    assert w.gap == pytest.approx(0.0, abs=1e-11)
    assert w.alpha is None


def test_monotonicity_check_rejects_unverified_certificate():
    unknown = from_matrix(identity_map(2).matrix)
    rho = np.diag([0.5, 0.5])
    with pytest.raises(DomainError):
        monotonicity_check(unknown, rho, rho)


def test_monotonicity_check_rejects_trace_increasing_map():
    inflating = from_matrix(2.0 * identity_map(2).matrix)
    # grant positivity via a CP certificate from Kraus form instead
    from qdpi.channels import from_kraus

    inflating = from_kraus([np.eye(2) * math.sqrt(2.0)])
    rho = np.diag([0.5, 0.5])
    with pytest.raises(DomainError):
        monotonicity_check(inflating, rho, rho)


def test_monotonicity_check_requires_trace_match_for_tni_umegaki():
    phi = counterexample_map()
    rho = np.diag([0.5, 0.5])  # trace drops under phi
    sigma = np.diag([0.25, 0.75])
    with pytest.raises(DomainError):
        monotonicity_check(phi, rho, sigma)
    # the sandwiched divergence accepts trace-nonincreasing maps directly
    w = monotonicity_check(phi, rho, sigma, 2.0)
    assert w.gap >= -1e-10


@pytest.mark.parametrize("alpha", [1.0, 0.0, -2.0])
def test_monotonicity_check_alpha_argument_validation(alpha):
    phi = identity_map(2)
    rho = np.diag([0.5, 0.5])
    with pytest.raises(DomainError):
        monotonicity_check(phi, rho, rho, alpha)


@pytest.mark.parametrize("alpha", [None, 0.7, 2.0])
def test_witness_round_trip_and_replay_are_exact(alpha):
    rng = rng_for_trial(402, 0)
    phi = random_cptp(3, rng=rng)
    rho = random_density(rng, 3)
    sigma = random_density(rng, 3)
    w = monotonicity_check(phi, rho, sigma, alpha)
    assert w.alpha == alpha
    w2 = witness_from_dict(json.loads(canonical_json(witness_to_dict(w))))
    replayed = replay_witness(w2)
    assert replayed.lhs == w.lhs and replayed.rhs == w.rhs and replayed.gap == w.gap


def test_replay_witness_at_another_alpha():
    phi = counterexample_map()
    rho = np.diag([1 / 3, 2 / 3])
    sigma = np.diag([2 / 3, 1 / 3])
    w = monotonicity_check(phi, rho, sigma, 2.0)
    at_three = replay_witness(dataclasses.replace(w, alpha=3.0))
    assert at_three.alpha == 3.0
    assert at_three.gap != w.gap


def _witness_payload():
    w = monotonicity_check(identity_map(2), np.diag([0.5, 0.5]), np.diag([0.25, 0.75]), 2.0)
    return witness_to_dict(w)


def _report_payload():
    return json.loads(canonical_json(report_to_dict(counterexample_suite())))


def _without(payload, field):
    return {k: v for k, v in payload.items() if k != field}


@pytest.mark.parametrize("read, payload, field", [
    (witness_from_dict, lambda: [], "must be an object"),
    (witness_from_dict, lambda: {}, "'map'"),
    (witness_from_dict, lambda: _without(_witness_payload(), "gap"), "'gap'"),
    (witness_from_dict, lambda: {**_witness_payload(), "alpha": "nan"}, "'alpha'"),
    (witness_from_dict, lambda: {**_witness_payload(), "alpha": True}, "'alpha'"),
    (witness_from_dict, lambda: {**_witness_payload(), "alpha": 1e999}, "'alpha'"),
    (witness_from_dict, lambda: {**_witness_payload(), "alpha": math.nan}, "'alpha'"),
    (witness_from_dict, lambda: {**_witness_payload(), "alpha": "2.0"}, "'alpha'"),
    (witness_from_dict, lambda: {**_witness_payload(), "alpha": 10**400}, "'alpha'"),
    (report_from_dict, lambda: "report", "must be an object"),
    (report_from_dict, lambda: _without(_report_payload(), "min_gap"), "'min_gap'"),
    (report_from_dict, lambda: _without(_report_payload(), "failures"), "'failures'"),
    (report_from_dict, lambda: {**_report_payload(), "seed": "0"}, "'seed'"),
    (report_from_dict, lambda: {**_report_payload(), "trials": 5.0}, "'trials'"),
    (report_from_dict, lambda: {**_report_payload(), "passes": True}, "'passes'"),
    (report_from_dict, lambda: {**_report_payload(), "escalations": None}, "'escalations'"),
    (report_from_dict, lambda: {**_report_payload(), "failures": {}}, "'failures'"),
    (report_from_dict, lambda: {**_report_payload(), "failures": [{}]}, "'map'"),
    (report_from_dict, lambda: {**_report_payload(), "suite_name": 7}, "'suite_name'"),
    (report_from_dict, lambda: {**_report_payload(), "suite_name": None}, "'suite_name'"),
    (report_from_dict, lambda: {**_report_payload(), "config": 5}, "'config'"),
    (report_from_dict, lambda: {**_report_payload(), "config": ["fixture"]}, "'config'"),
])
def test_readers_raise_format_errors_that_name_the_field(read, payload, field):
    with pytest.raises(FormatError, match=field):
        read(payload())


def _with_failure_field(name, value):
    payload = _failing_payload()
    return {**payload, "failures": [{**payload["failures"][0], name: value}, *payload["failures"][1:]]}


# every extended-real field of the two readers, malformed
@pytest.mark.parametrize("bad", ["x", None, [0.0], "inf", math.nan, True])
@pytest.mark.parametrize("read, edit, field", [
    (report_from_dict, lambda bad: {**_report_payload(), "min_gap": bad}, "report field 'min_gap'"),
    (witness_from_dict, lambda bad: {**_witness_payload(), "lhs": bad}, "witness field 'lhs'"),
    (witness_from_dict, lambda bad: {**_witness_payload(), "rhs": bad}, "witness field 'rhs'"),
    (witness_from_dict, lambda bad: {**_witness_payload(), "gap": bad}, "witness field 'gap'"),
    (report_from_dict, lambda bad: _with_failure_field("lhs", bad), "witness field 'lhs'"),
], ids=["min_gap", "lhs", "rhs", "gap", "failure-lhs"])
def test_malformed_extended_reals_name_their_field(read, edit, field, bad):
    with pytest.raises(FormatError, match=re.escape(field)):
        read(edit(bad))


def test_readers_load_every_well_formed_payload_as_before():
    for alpha in (None, 2.0, 0.75, 2):
        w = witness_from_dict({**_witness_payload(), "alpha": alpha})
        assert w.alpha == alpha and (alpha is None or type(w.alpha) is float)
    report = report_from_dict(_without(_report_payload(), "escalations"))
    assert report.escalations == 0 and report.passed
    assert frozen_report_text(report) == frozen_report_text(counterexample_suite())


@functools.cache
def _violation_text():
    # two failing trials, gaps -0.0020 and -0.0291; the best witness is the second
    return canonical_json(report_to_dict(violation_search(0.3, trials=300, hill_steps=0, seed=3)))


def _violation_payload():
    return json.loads(_violation_text())


def _failing_payload():
    # two failing trials out of five, one with gap -inf
    cfg = dataclasses.replace(DEFAULT_TOL, support_cutoff=0.6)
    return json.loads(canonical_json(report_to_dict(counterexample_suite(cfg))))


def _edited_best_witness(**fields):
    payload = _violation_payload()
    return {**payload, "best_witness": {**payload["best_witness"], **fields}}


# each case edits one field of a genuine payload so that it contradicts another
@pytest.mark.parametrize("read, payload, field", [
    (witness_from_dict, lambda: {**_witness_payload(), "gap": 5.0}, "'gap'"),
    (witness_from_dict, lambda: {**_witness_payload(), "gap": -0.0}, "'gap'"),
    (witness_from_dict, lambda: {**_witness_payload(), "lhs": "+inf"}, "'gap'"),
    (report_from_dict, lambda: _edited_best_witness(gap=5.0), "'gap'"),
    (report_from_dict, lambda: {**_report_payload(), "seed": -1}, "'seed'"),
    (report_from_dict, lambda: {**_report_payload(), "trials": -7}, "'trials'"),
    (report_from_dict, lambda: {**_report_payload(), "escalations": -1}, "'escalations'"),
    (report_from_dict, lambda: {**_report_payload(), "runtime_ms": -1}, "'runtime_ms'"),
    (report_from_dict, lambda: {**_failing_payload(), "trials": 1}, "'failures'"),
    (report_from_dict, lambda: {**_report_payload(), "passes": 99}, "'passes'"),
    (report_from_dict, lambda: {**_failing_payload(), "passes": 5}, "'passes'"),
    (report_from_dict, lambda: {**_report_payload(), "escalations": 6}, "'escalations'"),
    (report_from_dict, lambda: {**_failing_payload(), "min_gap": "both-infinite"}, "'min_gap'"),
    (report_from_dict, lambda: {**_violation_payload(), "min_gap": 1.0}, "'min_gap'"),
    (report_from_dict, lambda: {**_report_payload(), "outcome": "passed"}, "'outcome'"),
    (report_from_dict, lambda: {**_violation_payload(), "best_witness": None}, "'best_witness'"),
    (report_from_dict, lambda: {**_violation_payload(), "outcome": "inconclusive"}, "'best_witness'"),
    (report_from_dict, lambda: {**_violation_payload(), "outcome": None}, "'best_witness'"),
])
def test_readers_reject_payloads_that_contradict_themselves(read, payload, field):
    with pytest.raises(FormatError, match=field):
        read(payload())


def test_readers_load_the_genuine_payloads_the_rules_are_checked_on():
    for payload in (_report_payload(), _failing_payload(), _violation_payload()):
        assert canonical_json(report_to_dict(report_from_dict(payload))) == canonical_json(payload)
    # a pair with both sides infinite has gap 0
    w = witness_from_dict({**_witness_payload(), "lhs": "+inf", "rhs": "+inf", "gap": 0.0})
    assert w.gap == 0.0
    assert [f.name for f in dataclasses.fields(Witness)].count("gap") == 0
    assert [f.name for f in dataclasses.fields(CheckReport)].count("passes") == 0


# (cli.SUITES name, harness keyword arguments, tolerance overrides) at tiny sizes; the
# overrides make a suite fail, escalate or find a violation, so the reports hold witnesses
ROUND_TRIPS = [
    ("dpi", {"mode": "tni", "dims": (2, 3), "trials": 20, "seed": 5}, {}),
    ("dpi", {"mode": "tp", "trials": 120, "seed": 29}, {"monotonicity_slack": 1e-16}),
    ("counterexample", {}, {}),
    ("counterexample", {}, {"support_cutoff": 0.6}),
    ("contraction", {"instances": 2, "dims": (2, 3), "alphas": (1.5,), "trials": 3, "seed": 3}, {}),
    ("step2", {"d": 6, "seed": 0}, {}),
    ("step2", {"d": 6, "seed": 0}, {"support_cutoff": 0.3}),
    ("auxiliary", {"trials": 20, "seed": 3}, {}),
    ("auxiliary", {"trials": 20, "seed": 3}, {"support_cutoff": 0.3}),
    ("alpha-limit", {"trials": 10, "seed": 3}, {}),
    ("alpha-limit", {"trials": 10, "seed": 3}, {"support_cutoff": 0.3}),
    ("violation", {"alpha": 0.3, "trials": 300, "hill_steps": 20, "seed": 3}, {}),
    ("violation", {"alpha": 0.3, "trials": 300, "hill_steps": 20, "seed": 3}, {"support_cutoff": 0.3}),
    ("violation", {"alpha": 0.3, "dims": (2,), "trials": 2, "hill_steps": 0, "seed": 12345}, {}),
]


def test_round_trips_cover_every_suite():
    assert {name for name, _, _ in ROUND_TRIPS} == set(cli.SUITES)


@pytest.mark.parametrize("name, kwargs, tolerances", ROUND_TRIPS)
def test_every_suite_report_round_trips_through_its_reader(name, kwargs, tolerances):
    cfg = dataclasses.replace(DEFAULT_TOL, **tolerances)
    report = getattr(harness, cli.SUITES[name][0])(**kwargs, cfg=cfg)
    text = canonical_json(report_to_dict(report))
    assert canonical_json(report_to_dict(report_from_dict(json.loads(text)))) == text


def test_auxiliary_failures_have_negative_gaps():
    # check (d) alone fails some of these trials; its failing term is -1, not 0
    cfg = dataclasses.replace(DEFAULT_TOL, support_cutoff=1e-3)
    report = auxiliary_inequality_suite(trials=400, seed=1, cfg=cfg)
    assert len(report.failures) == 22
    assert all(w.gap < 0.0 for w in report.failures)
    assert report.min_gap <= min(w.gap for w in report.failures)


# suite -> (support cutoff that fails its threshold checks, run, failures); the digest lines' parameters
THRESHOLD_FAILURES = {
    "counterexample": (0.6, lambda cfg: counterexample_suite(cfg), 2),
    "step2": (0.3, lambda cfg: step2_battery(d=6, seed=0, cfg=cfg), 3),
    "auxiliary": (0.3, lambda cfg: auxiliary_inequality_suite(trials=20, seed=3, cfg=cfg), 20),
    "alpha-limit": (0.3, lambda cfg: alpha_limit_battery(trials=10, seed=3, cfg=cfg), 10),
    # every ratio check fails against a bound of 0: 2 instances x 2 alphas x 3 probes
    "contraction": (None, lambda cfg: contraction_battery(instances=2, alphas=(1.5, 2.0), trials=3, seed=3,
                                                          cfg=cfg), 12),
}


@pytest.mark.parametrize("suite", THRESHOLD_FAILURES)
def test_threshold_failure_witnesses_are_written_without_an_eigensolve(monkeypatch, eig_sizes, suite):
    cutoff, run, failures = THRESHOLD_FAILURES[suite]
    cfg = DEFAULT_TOL if cutoff is None else dataclasses.replace(DEFAULT_TOL, support_cutoff=cutoff)
    if suite == "contraction":
        monkeypatch.setattr(harness, "RATIO_BOUND", 0.0)
    checks, write_solves = [], []
    add = harness._Tally.add

    def recording_add(tally, lhs, rhs, passed, parts):
        checks.append((lhs, rhs, parts))
        if not passed:
            solves = len(eig_sizes)
            parts()
            write_solves.append(len(eig_sizes) - solves)
        add(tally, lhs, rhs, passed, parts)

    monkeypatch.setattr(harness._Tally, "add", recording_add)
    report = run(cfg)
    assert len(report.failures) == len(write_solves) == failures
    assert write_solves == [0] * failures
    for w in report.failures:
        text = canonical_json(witness_to_dict(w))
        assert canonical_json(witness_to_dict(witness_from_dict(json.loads(text)))) == text
        for state in (w.rho, w.sigma):
            matrix_from_dict(state, cfg)  # checks the declared kind
    if suite == "counterexample":
        # the pinching and trace-matched checks are monotonicity witnesses
        for lhs, rhs, parts in checks[-2:]:
            replayed = replay_witness(Witness(*parts(), lhs, rhs), cfg)
            assert (replayed.lhs, replayed.rhs) == (lhs, rhs)


def test_both_infinite_is_vacuous_pass():
    # pure sigma: reduction sends its orthogonal complement to the support,
    # so both sides diverge and the trial is vacuous
    phi = reduction_map(2)
    rho = np.diag([0.5, 0.5])
    sigma = np.diag([1.0, 0.0])
    w = monotonicity_check(phi, rho, sigma)
    assert math.isinf(w.lhs) and math.isinf(w.rhs) and w.gap == 0.0


def test_dpi_suite_modes_pass_briefly():
    for mode, trials in (("tp", 80), ("tni", 80), ("trace_match", 50)):
        r = randomized_dpi_suite(mode, trials=trials, seed=17)
        assert r.passed, (mode, [w.gap for w in r.failures][:3])
        assert r.trials == trials
        assert r.suite_name == f"dpi-{mode}"


def test_dpi_suite_reports_are_deterministic():
    a = randomized_dpi_suite("tni", trials=40, seed=9)
    b = randomized_dpi_suite("tni", trials=40, seed=9)
    assert frozen_report_text(a) == frozen_report_text(b)


def test_dpi_suite_rejects_bad_arguments():
    with pytest.raises(DomainError):
        randomized_dpi_suite("sideways")
    with pytest.raises(DomainError):
        randomized_dpi_suite("tni", alphas=(0.5, 2.0))
    with pytest.raises(DomainError):
        randomized_dpi_suite("tp", dims=(1,))
    with pytest.raises(DomainError):
        randomized_dpi_suite("tp", dims=())
    with pytest.raises(DomainError):
        randomized_dpi_suite("tp", trials=-3)
    with pytest.raises(DomainError):
        randomized_dpi_suite("tp", trials=2, seed=-1)
    # the inputs are checked even when no trial runs
    with pytest.raises(DomainError):
        randomized_dpi_suite("tp", trials=0, dims=(1,))


@pytest.mark.parametrize("mode", ["tp", "trace_match"])
@pytest.mark.parametrize("alphas", [(0.5,), (0.5, 7.0), (2.0,)])
def test_dpi_suite_reads_alpha_in_tni_mode_only(mode, alphas):
    # relative entropy is the divergence of these modes; an alpha would go untested
    with pytest.raises(DomainError, match="tni mode only"):
        randomized_dpi_suite(mode, trials=3, alphas=alphas)


@pytest.mark.parametrize(
    "run",
    [
        lambda: auxiliary_inequality_suite(trials=-1),
        lambda: auxiliary_inequality_suite(trials=2, seed=-4),
        lambda: auxiliary_inequality_suite(trials=0, dims=(1,)),
        lambda: contraction_battery(instances=-2),
        lambda: contraction_battery(instances=1, trials=-1),
        lambda: contraction_battery(instances=1, seed=-1),
        lambda: contraction_battery(instances=0, dims=(2, 1)),
        lambda: sample_state_pairs(-1, (2,), 0),
        lambda: sample_state_pairs(2, (2,), -3),
        lambda: sample_state_pairs(0, (), 0),
        lambda: step2_battery(d=1),
        lambda: step2_battery(d=4, seed=-1),
        lambda: step2_suite((1, 2), identity_map(2), np.eye(2) / 2, np.eye(2) / 2, seed=-1),
        # the alphas and the probe count are checked once, before any instance is drawn
        lambda: contraction_battery(instances=0, trials=-1),
        lambda: contraction_battery(instances=0, alphas=(0.5,)),
        lambda: contraction_battery(instances=0, alphas=(math.inf,)),
        lambda: contraction_battery(instances=0, alphas=()),
        lambda: randomized_dpi_suite("tni", trials=0, alphas=()),
    ],
    ids=[
        "auxiliary-trials", "auxiliary-seed", "auxiliary-dims-no-trials",
        "contraction-instances", "contraction-trials", "contraction-seed", "contraction-dims-no-instances",
        "pairs-count", "pairs-seed", "pairs-dims-no-count", "step2-dims", "step2-seed",
        "step2-suite-seed",
        "contraction-trials-no-instances", "contraction-alpha-below-one-no-instances",
        "contraction-alpha-inf-no-instances", "contraction-alpha-empty",
        "dpi-tni-alpha-empty",
    ],
)
def test_seeded_suites_reject_bad_arguments(run):
    with pytest.raises(DomainError):
        run()


@pytest.mark.parametrize("options", [(3, 5, 7), (1.5, 2.0, 4.0), ("tp", "tni", "trace_match"), (11,)])
def test_pick_draws_what_choice_draws(options):
    for t in range(200):
        a, b = rng_for_trial(t, 3), rng_for_trial(t, 3)
        picked = harness._pick(a, options)
        assert picked == b.choice(options) and type(picked) is type(options[0])
        assert a.bit_generator.state == b.bit_generator.state


def _sample_state_pair(rng, d):
    """A tp or tni trial's state pair drawn alone, the reference for the suite's stacked build: after a
    uniform u, a rank-deficient sigma (u < 0.15) or rho (u < 0.30) first, else rho first."""
    u = float(rng.random())
    if u < 0.15:
        sigma = random_rank_deficient_density(rng, d)
        rho = random_density(rng, d)
    elif u < 0.30:
        rho = random_rank_deficient_density(rng, d)
        sigma = random_density(rng, d)
    else:
        rho = random_density(rng, d)
        sigma = random_density(rng, d)
    return rho, sigma


def _sector_state(rng, B):
    """A trace_match trial's rho drawn alone, the reference for the suite's stacked build: the Wishart
    state of an r x r Gaussian carried onto the span of B's r orthonormal columns."""
    r = B.shape[1]
    G = random_complex_gaussian(rng, (r, r))
    state = B @ (G @ G.conj().T) @ B.conj().T
    return state / float(np.trace(state).real)


def test_state_sampler_hits_rank_deficient_branches():
    deficient = 0
    total = 400
    for t in range(total):
        rng = rng_for_trial(403, t)
        rho, sigma = _sample_state_pair(rng, 3)
        wr = np.linalg.eigvalsh(rho)
        ws = np.linalg.eigvalsh(sigma)
        if min(wr[0], ws[0]) < 1e-14:
            deficient += 1
    assert deficient >= 0.05 * total


def test_report_round_trip_bytes():
    r = randomized_dpi_suite("tp", trials=25, seed=21)
    d1 = report_to_dict(r)
    text1 = canonical_json(d1)
    r2 = report_from_dict(json.loads(text1))
    assert canonical_json(report_to_dict(r2)) == text1


def test_norm_contraction_suite_requires_full_rank_sigma():
    phi = random_cptp(2, seed=23)
    tally = harness._Tally("norm-contraction", 0, {}, DEFAULT_TOL)
    with pytest.raises(DomainError, match="sigma is rank-deficient"):
        harness._contraction_checks(tally, np.diag([1.0, 0.0]), phi, (2.0,), 2, 0, DEFAULT_TOL)
    assert tally.trials == 0


def test_norm_contraction_suite_requires_tni_map(monkeypatch):
    # instance 0 draws the contraction role's first family; this one is certified CP, with Phi*(1) = 2
    name = channels.families("contraction")[0]

    def doubling(takes, d, cfg):
        return [from_kraus([np.eye(d) * math.sqrt(2.0)]) for _ in takes]

    monkeypatch.setitem(channels.FAMILY_TABLE, name, dataclasses.replace(channels.FAMILY_TABLE[name], build=doubling))
    with pytest.raises(DomainError, match="trace-nonincreasing"):
        contraction_battery(instances=1, trials=2)


def test_contraction_battery_draws_its_role_families_in_table_order(monkeypatch):
    names = channels.families("contraction")
    drawn = []
    for name in names:
        family = channels.FAMILY_TABLE[name]

        def take(rng, d, name=name, family=family):
            drawn.append(name)
            return family.take(rng, d)

        monkeypatch.setitem(channels.FAMILY_TABLE, name, dataclasses.replace(family, take=take))
    r = contraction_battery(instances=3, dims=(3,), trials=4)
    assert drawn == list(names)
    assert r.config["families"] == list(names)
    assert r.passed and r.trials == 3 * (3 * 4 + 2)


def test_norm_contraction_small_battery_passes():
    r = contraction_battery(instances=3, trials=30, seed=2)
    assert r.passed
    # 3 alphas x 30 probes + 2 endpoint checks, per instance
    assert r.trials == 3 * (3 * 30 + 2)


def test_step2_battery_small_dimension():
    r = step2_battery(d=6, n_sequence=(2, 4, 6), seed=3)
    assert r.passed, [(w.lhs, w.rhs) for w in r.failures][:4]


def test_step2_battery_solves_no_superoperator_sized_eigenproblem(eig_sizes):
    r = step2_battery(d=16, seed=4)
    assert r.passed
    assert eig_sizes and max(eig_sizes) <= 16


def test_step2_battery_builds_no_superoperator_matrix(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("step2 built a d^2 x d^2 superoperator matrix")

    monkeypatch.setattr(channels, "_kraus_matrix", forbidden)
    monkeypatch.setattr(channels, "from_matrix", forbidden)
    r = step2_battery(d=8, seed=4)
    assert r.passed and r.trials > 0


def test_step2_suite_validates_sequence():
    phi = random_cptp(4, seed=31)
    rng = rng_for_trial(404, 0)
    rho = random_density(rng, 4)
    sigma = random_density(rng, 4)
    with pytest.raises(DomainError):
        step2_suite((3, 2, 4), phi, rho, sigma)
    with pytest.raises(DomainError):
        step2_suite((2, 3), phi, rho, sigma)
    with pytest.raises(DomainError):
        step2_suite((2, 4, 4), phi, rho, sigma)
    # d is the map's input dimension, which its output dimension must equal
    with pytest.raises(DomainError, match="equal dimensions"):
        step2_suite((2, 4), random_cptp(4, d_out=3, seed=31), rho, sigma)
    assert step2_suite((2, 4), phi, rho, sigma).config["d"] == 4


def test_auxiliary_suite_passes():
    r = auxiliary_inequality_suite(trials=60, seed=5)
    assert r.passed


def test_alpha_limit_suite_detects_monotone_convergence():
    pairs = sample_state_pairs(10, (2, 3, 4), 19)
    r = alpha_limit_suite(pairs, seed=19)
    assert r.passed
    assert r.trials == 10


@pytest.mark.parametrize("seed, d", [(17, 4), (24, 3), (26, 6), (30, 6), (31, 4)])
def test_alpha_limit_checks_the_slope_not_an_absolute_error(seed, d):
    # these pairs have |D_{1+eps} - D| above 1e-3 at eps = 1e-4: the error is
    # eps V / 2 with a large variance V, and the expansion holds to second order
    pairs = sample_state_pairs(10, (d,), seed)
    errors = [abs(sandwiched_renyi(r, s, 1.0 + 1e-4) - relative_entropy(r, s)) for r, s in pairs]
    assert max(errors) > 1e-3
    report = alpha_limit_suite(pairs, seed=seed)
    assert report.passed and report.trials == 10


def test_alpha_limit_detects_a_wrong_slope(monkeypatch):
    # evaluating at alpha = 1 + 1.01 eps puts 1% on the slope: a first-order
    # residual of eps V / 200, far above the second-order bound
    pairs = sample_state_pairs(10, (2, 3, 4), 19)
    exact = harness.sandwiched_renyi
    monkeypatch.setattr(
        harness, "sandwiched_renyi", lambda r, s, a, cfg: exact(r, s, 1.0 + 1.01 * (a - 1.0), cfg)
    )
    report = alpha_limit_suite(pairs, seed=19)
    assert report.trials == 10 and len(report.failures) == 10


@pytest.mark.parametrize("d", [2, 3, 4, 6, 8])
def test_alpha_limit_passes_equal_and_nearly_equal_states(d):
    # D_{1+eps} of equal states is rounding alone, and that grows like u / eps
    for seed in range(4):
        rng = rng_for_trial(seed, d)
        rho, tau = random_density(rng, d), random_density(rng, d)
        report = alpha_limit_suite([(rho, rho), (rho, rho + 1e-9 * (tau - rho))])
        assert report.passed, (seed, [(w.lhs, w.rhs) for w in report.failures])


def test_alpha_limit_fails_a_rise_above_rounding(monkeypatch):
    # a rise of 4e-9 at eps = 1e-4 is about 28 times the rounding allowance
    # there, while |D_{1+eps}| stays within the slope bound eps^2 of rho = sigma
    rho = random_density(rng_for_trial(5, 0), 3)
    assert alpha_limit_suite([(rho, rho)]).passed
    exact = harness.sandwiched_renyi
    monkeypatch.setattr(
        harness, "sandwiched_renyi",
        lambda r, s, a, cfg: exact(r, s, a, cfg) + (4e-9 if a == 1.0 + 1e-4 else 0.0),
    )
    report = alpha_limit_suite([(rho, rho)])
    assert len(report.failures) == 1 and report.failures[0].rhs <= report.failures[0].lhs


def test_alpha_limit_fails_when_the_support_condition_fails():
    rho = np.diag([0.5, 0.5]).astype(complex)
    sigma = np.diag([1.0, 0.0]).astype(complex)
    report = alpha_limit_suite([(rho, sigma)])
    assert not report.passed and len(report.failures) == 1
    # D = +inf has no expansion: the residual is +inf, and the report serializes
    assert report_to_dict(report)["failures"][0]["rhs"] == "+inf"


def test_sample_state_pairs_shapes():
    pairs = sample_state_pairs(5, (2, 3), 7)
    assert len(pairs) == 5
    for rho, sigma in pairs:
        assert rho.shape == sigma.shape
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)


def test_alpha_limit_battery_runs_the_suite_on_sampled_pairs():
    report = alpha_limit_battery(trials=4, dims=(2, 3), seed=6)
    assert report.passed and report.trials == 4
    expected = alpha_limit_suite(sample_state_pairs(4, (2, 3), 6), seed=6)
    assert frozen_report_text(report) == frozen_report_text(expected)


def test_violation_search_finds_and_replays_witness():
    # (2, 3) mixes dimensions within each chunk of stacked trials
    for dims in ((2,), (2, 3)):
        r = violation_search(0.3, dims=dims, trials=400, seed=1, hill_steps=300)
        assert r.outcome == "violation_found"
        w = r.best_witness
        assert w is not None and w.gap < -1e-6
        assert replay_witness(w).gap == w.gap
        # the violation disappears in the alpha > 1 regime
        assert replay_witness(dataclasses.replace(w, alpha=2.0)).gap >= -1e-8
        assert r.passes + len(r.failures) == r.trials
        # every stored trial witness replays to its stored values, bit for bit
        assert r.failures
        for failure in r.failures:
            replayed = replay_witness(failure)
            assert (replayed.lhs, replayed.rhs, replayed.gap) == (failure.lhs, failure.rhs, failure.gap)


@pytest.mark.parametrize("alpha", [0.3, 1.5])
@pytest.mark.parametrize("dims", [(2,), (2, 3), (4,)])
def test_stacked_trials_equal_scalar_evaluation(monkeypatch, dims, alpha):
    # chunks of 7 trials: each search below spans several chunks
    monkeypatch.setattr(harness, "TRIAL_CHUNK", 7)
    for seed in (0, 3, 11):
        trials = list(_violation_trials(alpha, _seeded_trials(seed, 30, dims)[1], DEFAULT_TOL))
        assert len(trials) == 30
        for t, (lhs, rhs, V, rho, sigma) in enumerate(trials):
            rng = rng_for_trial(seed, t)
            d = int(rng.choice(dims))
            phi = random_cptp(d, rng=rng)
            r, s = random_density(rng, d), random_density(rng, d)
            assert np.array_equal(V, np.vstack(phi.kraus))
            assert np.array_equal(rho, r) and np.array_equal(sigma, s)
            # the scalar reference: the raw states, and their images under the map
            ref_lhs = sandwiched_renyi(r, s, alpha, DEFAULT_TOL)
            ref_rhs = sandwiched_renyi(hermitian_part(phi.apply(r)), hermitian_part(phi.apply(s)),
                                       alpha, DEFAULT_TOL)
            assert (lhs, rhs, _gap_of(lhs, rhs)) == (ref_lhs, ref_rhs, _gap_of(ref_lhs, ref_rhs))


@pytest.mark.parametrize("mode, cfg_fields, seed, failures", [
    ("tp", {"monotonicity_slack": 1e-18}, 5, 5),
    ("tni", {"monotonicity_slack": 1e-18}, 5, 7),
    # trace-match gaps stay above 3e-3, so no slack fails one; a coarse
    # support cutoff drops part of an image's support (rhs = +inf)
    ("trace_match", {"support_cutoff": 0.2}, 0, 5),
])
def test_dpi_failures_replay_exactly(mode, cfg_fields, seed, failures):
    cfg = dataclasses.replace(DEFAULT_TOL, **cfg_fields)
    r = randomized_dpi_suite(mode, dims=(2, 3, 4, 5, 6), trials=300, seed=seed, cfg=cfg)
    assert len(r.failures) == failures
    for stored in r.failures:
        w = witness_from_dict(json.loads(canonical_json(witness_to_dict(stored))))
        replayed = replay_witness(w, cfg=cfg)
        assert (replayed.lhs, replayed.rhs, replayed.gap) == (stored.lhs, stored.rhs, stored.gap)


@pytest.mark.parametrize("mode, alphas", [("tp", None), ("tni", (1.5, 2.0, 4.0)), ("trace_match", None)])
def test_stacked_dpi_trials_equal_monotonicity_check(monkeypatch, mode, alphas):
    # chunks of 16 trials over three dimensions: several chunks, each with mixed groups
    monkeypatch.setattr(harness, "TRIAL_CHUNK", 16)
    seen = []
    add = harness._Tally.add_monotonicity
    monkeypatch.setattr(harness._Tally, "add_monotonicity",
                        lambda tally, lhs, rhs, parts, slack: seen.append((lhs, rhs, parts)) or
                        add(tally, lhs, rhs, parts, slack))
    dims, trials, seed = (2, 3, 5), 60, 21
    randomized_dpi_suite(mode, dims=dims, trials=trials, seed=seed, alphas=alphas)
    assert len(seen) == trials
    for t, (lhs, rhs, parts) in enumerate(seen):
        # the trial drawn alone, with rng.choice for every pick
        rng = rng_for_trial(seed, t)
        d = int(rng.choice(dims))
        phi = channels.FAMILY_TABLE[str(rng.choice(channels.families(mode)))].draw(rng, d, DEFAULT_TOL)
        alpha = None
        if mode == "trace_match":
            rho = _sector_state(rng, trace_behavior(phi).sector())
            draw = random_rank_deficient_density if rng.random() < 0.15 else random_density
            sigma = draw(rng, phi.dim_in)
        else:
            rho, sigma = _sample_state_pair(rng, phi.dim_in)
            if mode == "tni":
                alpha = float(rng.choice(alphas))
        w = monotonicity_check(phi, rho, sigma, alpha)
        assert (lhs, rhs) == (w.lhs, w.rhs)
        assert canonical_json(parts()) == canonical_json((w.map_descriptor, w.rho, w.sigma, w.alpha))
    # rank-deficient states put +inf on a side
    assert any(math.isinf(lhs) or math.isinf(rhs) for lhs, rhs, _ in seen)


@pytest.mark.parametrize("mode", ["tp", "tni", "trace_match"])
def test_dpi_report_does_not_depend_on_chunk_size(monkeypatch, mode):
    cfg = dataclasses.replace(DEFAULT_TOL, monotonicity_slack=1e-18)
    a = randomized_dpi_suite(mode, dims=(2, 3, 4), trials=90, seed=5, cfg=cfg)
    monkeypatch.setattr(harness, "TRIAL_CHUNK", 7)
    b = randomized_dpi_suite(mode, dims=(2, 3, 4), trials=90, seed=5, cfg=cfg)
    assert frozen_report_text(a) == frozen_report_text(b)


def test_violation_report_does_not_depend_on_chunk_size(monkeypatch):
    a = violation_search(0.3, dims=(2, 3), trials=120, seed=6, hill_steps=20)
    monkeypatch.setattr(harness, "TRIAL_CHUNK", 5)
    b = violation_search(0.3, dims=(2, 3), trials=120, seed=6, hill_steps=20)
    assert frozen_report_text(a) == frozen_report_text(b)


def test_violation_trials_solve_in_stacks(monkeypatch, eig_sizes):
    # psd of rho, sigma and both images, and one sandwiched eigh per side:
    # six stacked solves per dimension and chunk, however many trials it holds
    monkeypatch.setattr(harness, "TRIAL_CHUNK", 150)
    for trials, chunks in ((100, 1), (150, 1), (300, 2)):
        eig_sizes.clear()
        draws = _seeded_trials(4, trials, (2, 3))[1]
        assert len(list(_violation_trials(0.3, draws, DEFAULT_TOL))) == trials
        assert sorted(eig_sizes) == [2] * (6 * chunks) + [3] * (6 * chunks)


def _one_step_climb(alpha, lhs, rhs, V, rho, sigma, steps, rng, cfg):
    """The hill climb evaluated one proposal at a time: the reference for ``harness._climb``."""
    gap = _gap_of(lhs, rhs)
    step = 0.25
    for _ in range(steps):
        V2 = phase_fixed_q(V + step * random_complex_gaussian(rng, V.shape))
        phi = from_isometry(V2, rho.shape[0])
        rhs2 = sandwiched_renyi(hermitian_part(phi.apply(rho)), hermitian_part(phi.apply(sigma)), alpha, cfg)
        gap2 = _gap_of(lhs, rhs2)
        if gap2 < gap:
            V, rhs, gap = V2, rhs2, gap2
        else:
            step *= 0.99
    return rhs, V


K = harness.CLIMB_STACK


# seed 0 accepts 12-25% of its first 24 proposals where d = 2 is drawn and
# 5-9% of 300; seed 7 accepts 0-17% of its first 24 and 3-8% of 300
@pytest.mark.parametrize("hill_steps", [0, 1, K - 1, K, K + 1, 300])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.45])
@pytest.mark.parametrize("dims", [(2,), (3,), (2, 3)])
@pytest.mark.parametrize("seed", [0, 7])
def test_stacked_climb_equals_the_sequential_climb(monkeypatch, seed, dims, alpha, hill_steps):
    climbs = []

    def recorded(climb):
        def run(*args):
            climbs.append(climb(*args))
            return climbs[-1]
        return run

    reports = []
    for climb in (harness._climb, _one_step_climb):
        monkeypatch.setattr(harness, "_climb", recorded(climb))
        reports.append(violation_search(alpha, dims=dims, trials=40, seed=seed, hill_steps=hill_steps))
    assert frozen_report_text(reports[0]) == frozen_report_text(reports[1])
    assert len(climbs) == (2 if hill_steps else 0)
    if hill_steps:
        (rhs, V), (ref_rhs, ref_V) = climbs
        assert np.float64(rhs).tobytes() == np.float64(ref_rhs).tobytes()
        assert V.shape == ref_V.shape and V.tobytes() == ref_V.tobytes()


@pytest.mark.parametrize("hill_steps", [0, 40])
def test_a_one_ulp_drift_in_the_stacked_values_fails_the_replay(monkeypatch, hill_steps):
    # the best witness carries the stacked values, so a replay that does not
    # reproduce them bit for bit stops the search, whether the trial or the climb found it
    assert violation_search(0.3, trials=300, seed=3, hill_steps=hill_steps).outcome == "violation_found"
    exact = harness._isometry_images
    monkeypatch.setattr(harness, "_isometry_images",
                        lambda *args: [np.nextafter(v, math.inf) for v in exact(*args)])
    with pytest.raises(harness.ReplayMismatch, match="stored witness did not replay to the identical gap"):
        violation_search(0.3, trials=300, seed=3, hill_steps=hill_steps)


def test_violation_search_solves_no_eigenproblem_per_failure(eig_sizes):
    # a failure's states passed psd in their stack, so serializing it solves
    # nothing: one chunk of trials with 1, 2 or 3 failures, and one best witness
    solves = {}
    for seed in (1, 0, 2):
        eig_sizes.clear()
        report = violation_search(0.3, trials=256, seed=seed, hill_steps=0)
        solves[len(report.failures)] = len(eig_sizes)
    assert sorted(solves) == [1, 2, 3] and len(set(solves.values())) == 1


def test_violation_search_inconclusive_path():
    r = violation_search(0.3, dims=(2,), trials=2, seed=12345, hill_steps=0)
    assert r.outcome == "inconclusive"
    assert r.best_witness is None


def test_violation_search_passes_exactly_when_it_finds_a_violation():
    found = violation_search(0.3, trials=300, hill_steps=0, seed=3)
    assert found.outcome == "violation_found" and found.passes < found.trials
    assert found.passed
    inconclusive = violation_search(0.3, dims=(2,), trials=2, seed=12345, hill_steps=0)
    assert inconclusive.outcome == "inconclusive" and inconclusive.passes == inconclusive.trials
    assert not inconclusive.passed


def test_violation_search_rejects_alpha_outside_regime():
    with pytest.raises(DomainError):
        violation_search(0.7, trials=1)
    with pytest.raises(DomainError):
        violation_search(0.0, trials=1)


@pytest.mark.parametrize(
    "kwargs",
    [{"dims": ()}, {"dims": (1,)}, {"dims": (2, 1)}, {"trials": -5}, {"hill_steps": -3}, {"seed": -1},
     {"trials": 0, "dims": (1,)}],
)
def test_violation_search_rejects_bad_arguments(kwargs):
    with pytest.raises(DomainError):
        violation_search(0.3, **{"trials": 1, **kwargs})


def test_violation_reports_are_deterministic():
    a = violation_search(0.3, trials=200, seed=4, hill_steps=50)
    b = violation_search(0.3, trials=200, seed=4, hill_steps=50)
    assert frozen_report_text(a) == frozen_report_text(b)


def test_trace_match_tolerance_is_tight():
    assert TRACE_MATCH_TOLERANCE == 1e-9


def test_escalation_counts_marginal_trials():
    # slack so tiny that honest rounding noise lands in the escalation band
    tight = dataclasses.replace(DEFAULT_TOL, monotonicity_slack=1e-16)
    r = randomized_dpi_suite("tp", trials=120, seed=29, cfg=tight)
    # at this seed one gap lands between slack and 10x slack (escalated pass)
    # and one lands beyond 10x slack (failure)
    assert r.escalations == 1
    assert len(r.failures) == 1
    assert r.passes == 119
    # the same seed is clean at the default slack
    assert randomized_dpi_suite("tp", trials=120, seed=29).passed


def test_dpi_suite_with_zero_trials_is_vacuous_pass():
    report = randomized_dpi_suite("tp", trials=0, seed=9)
    assert report.trials == 0
    assert report.passes == 0
    assert report.failures == ()
    assert report.min_gap is None
    assert report.passed


def test_dpi_tp_trial_runs_at_most_eight_eigensolves(eig_sizes):
    r = randomized_dpi_suite("tp", dims=(2, 3, 4, 5, 6), trials=200, seed=3)
    assert r.passed
    # 1.395 per trial: Phi*(1) of each map, the rank-deficient draws and four stacked solves per dimension
    assert len(eig_sizes) <= 279


def test_norm_contraction_eigensolves_do_not_grow_with_trials(eig_sizes):
    counts = []
    for trials in (10, 50):
        # each run draws its own map, so no cached Phi*(1) spectrum is carried over
        del eig_sizes[:]
        assert contraction_battery(instances=1, dims=(4,), trials=trials, seed=1).passed
        counts.append(len(eig_sizes))
    assert counts[0] == counts[1]


# solver calls (eigh + eigvalsh + svd) over 200 trials: at most 1.84 per
# trace-match trial, 1.59 per tp trial and 2.385 per tni trial
@pytest.mark.parametrize("mode, budget", [("trace_match", 368), ("tp", 318), ("tni", 477)])
def test_dpi_solver_calls_per_trial(solver_calls, mode, budget):
    r = randomized_dpi_suite(mode, dims=(2, 3, 4, 5, 6), trials=200, seed=3)
    assert r.passed
    assert len(solver_calls) <= budget


def test_adjoint_unit_is_diagonalized_once_per_map(solver_calls):
    phi = damped_cptp(3, 2, 0.5, seed=4)
    rng = rng_for_trial(402, 0)
    rho, sigma = random_density(rng, 3), random_density(rng, 3)
    assert classify(phi).tag == "completely_positive"
    assert trace_behavior(phi).tag == "nonincreasing"
    assert one_to_one_norm_positive(phi) == pytest.approx(1.0, abs=1e-12)
    assert monotonicity_check(phi, rho, sigma, 2.0).gap >= -1e-9
    unit = adjoint(phi).apply(np.eye(3))
    solves = [a for _, a in solver_calls if a.shape == unit.shape and np.allclose(a, unit, atol=1e-12)]
    assert len(solves) == 1


@pytest.mark.parametrize("family", channels.families("trace_match"))
def test_trace_preserved_on_sector_only(family):
    for trial in range(10):
        rng = rng_for_trial(208, trial)
        phi = channels.FAMILY_TABLE[family].draw(rng, int(rng.integers(2, 6)), DEFAULT_TOL)
        behavior = trace_behavior(phi)
        B = behavior.sector()
        assert np.allclose(B.conj().T @ B, np.eye(B.shape[1]), atol=1e-12)
        rho = _sector_state(rng, B)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(phi.apply(rho)).real == pytest.approx(1.0, abs=1e-10)
        # off the sector the trace shrinks: tr Phi(v v*) = <v|Phi*(1)|v>
        v = behavior.V[:, 0]
        lost = np.trace(phi.apply(np.outer(v, v.conj()))).real
        assert lost == pytest.approx(behavior.w[0], abs=1e-10)
        if behavior.tag == "nonincreasing":
            assert lost < 1.0 - 1e-9


def _record_tally_adds(monkeypatch) -> list:
    """(lhs, rhs, passed) of every _Tally.add from here on, each value as float.hex."""
    adds, add = [], harness._Tally.add

    def recording(self, lhs, rhs, passed, parts):
        adds.append((float(lhs).hex(), float(rhs).hex(), passed))
        return add(self, lhs, rhs, passed, parts)

    monkeypatch.setattr(harness._Tally, "add", recording)
    return adds


def _contraction_one_at_a_time(instances, dims, alphas, trials, seed, cfg=DEFAULT_TOL):
    """contraction_battery's adds, as _record_tally_adds writes them, with each probe drawn and evaluated alone."""
    names = channels.families("contraction")
    _, draws = _seeded_trials(seed, instances, dims, first=1_000_000)
    adds = []
    for i, (rng, d) in enumerate(draws):
        phi = channels.FAMILY_TABLE[names[i % len(names)]].draw(rng, d, cfg)
        sigma = psd(random_density(rng, d), cfg)
        probe_seed = int(rng.integers(0, 2**31))
        sigma_prime = psd(hermitian_part(phi.apply(sigma)), cfg)
        psi = compose(gamma_superoperator(sigma_prime, inverse=True, cfg=cfg),
                      compose(phi, gamma_superoperator(sigma, cfg=cfg)))
        for a, alpha in enumerate(alphas):
            for t in range(trials):
                probe_rng = rng_for_trial(probe_seed, a * trials + t)
                if t % 2 == 0:
                    X = random_hermitian(probe_rng, d)
                else:
                    X = np.outer(random_unit_vector(probe_rng, d), random_unit_vector(probe_rng, d).conj())
                ratio = weighted_p_norm(psi.apply(X), sigma_prime, alpha, cfg) / weighted_p_norm(X, sigma, alpha, cfg)
                adds.append((harness.RATIO_BOUND, ratio, ratio <= harness.RATIO_BOUND))
        eye = np.eye(d)
        defect = operator_norm(psi.apply(eye) - eye)
        adds.append((harness.UNIT_IMAGE_TOLERANCE, defect, defect <= harness.UNIT_IMAGE_TOLERANCE))
        norm = one_to_one_norm_positive(phi)
        adds.append((harness.ADJOINT_UNIT_BOUND, norm, norm <= harness.ADJOINT_UNIT_BOUND))
    return [(float(lhs).hex(), float(rhs).hex(), passed) for lhs, rhs, passed in adds]


def _auxiliary_one_at_a_time(trials, seed, dims, cfg=DEFAULT_TOL):
    """auxiliary_inequality_suite's adds, as _record_tally_adds writes them, with each trial evaluated alone."""
    _, draws = _seeded_trials(seed, trials, dims)
    relaxed = dataclasses.replace(cfg, containment_tolerance=harness.SUPPORT_INCLUSION_TOLERANCE)
    adds = []
    for rng, d in draws:
        sigma = random_density(rng, d)
        pinch = pinching_map(random_projector(rng, d, int(rng.integers(1, d))), cfg)
        concavity = min_eigenvalue(psd(hermitian_part(pinch.apply(sigma)), cfg).log()
                                   - hermitian_part(pinch.apply(psd(sigma, cfg).log())), cfg)
        rho = random_density(rng, d)
        jump = von_neumann_entropy(hermitian_part(pinch.apply(rho)), cfg) - von_neumann_entropy(rho, cfg)
        g = klein_gap(random_psd(rng, d), random_psd(rng, d), cfg)
        sigma_small = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
        Q = psd(sigma_small, cfg).projector()
        rho_small = Q @ random_density(rng, d) @ Q
        tr = float(np.trace(rho_small).real)
        rho_small = rho_small / tr if tr > 0.0 else sigma_small
        psi = channels.FAMILY_TABLE[harness._pick(rng, channels.families("support"))].draw(rng, d, cfg)
        ok_d = support_contained(hermitian_part(psi.apply(rho_small)), hermitian_part(psi.apply(sigma_small)),
                                 relaxed)
        margin = min(concavity + harness.STEP2_INEQUALITY_TOLERANCE, jump + 1e-9,
                     (g if not math.isinf(g) else 1.0) + 1e-9, 1.0 if ok_d else -1.0)
        passed = concavity >= -harness.STEP2_INEQUALITY_TOLERANCE and jump >= -1e-9 and g >= -1e-9 and ok_d
        adds.append((float(margin).hex(), (0.0).hex(), passed))
    return adds


# a contraction report's min_gap comes from its adjoint-unit check, so its digest
# cannot show the probe ratios' bits; these tests compare every add
@pytest.mark.parametrize("alphas, trials", [((1.0, 1.5, 7.5), 7), ((2.0,), 1), ((3.0,), 0)])
def test_stacked_contraction_probes_equal_one_at_a_time_evaluation(monkeypatch, alphas, trials):
    adds = _record_tally_adds(monkeypatch)
    contraction_battery(instances=4, dims=(2, 3, 5), alphas=alphas, trials=trials, seed=2)
    assert len(adds) == 4 * (len(alphas) * trials + 2)
    assert adds == _contraction_one_at_a_time(4, (2, 3, 5), alphas, trials, 2)


@pytest.mark.parametrize("cutoff", [DEFAULT_TOL.support_cutoff, 0.3])
@pytest.mark.parametrize("trials, dims", [(60, (2, 3, 4, 5, 6)), (1, (2,)), (0, (3,))])
def test_stacked_auxiliary_checks_equal_one_at_a_time_evaluation(monkeypatch, trials, dims, cutoff):
    cfg = dataclasses.replace(DEFAULT_TOL, support_cutoff=cutoff)
    adds = _record_tally_adds(monkeypatch)
    auxiliary_inequality_suite(trials=trials, seed=4, cfg=cfg, dims=dims)
    assert len(adds) == trials
    assert adds == _auxiliary_one_at_a_time(trials, 4, dims, cfg)
    if trials == 60:  # the coarse cutoff fails checks, whose witnesses are written too
        assert any(not passed for _, _, passed in adds) == (cutoff == 0.3)


@pytest.mark.parametrize("suite", [
    lambda trials: contraction_battery(instances=3, dims=(4,), trials=trials, seed=1),
    lambda trials: auxiliary_inequality_suite(trials=trials, dims=(4,), seed=1),
], ids=["contraction", "auxiliary"])
def test_battery_solver_calls_do_not_grow_with_trials(solver_calls, suite):
    counts = []
    for trials in (20, 40):
        del solver_calls[:]
        assert suite(trials).passed
        counts.append(len(solver_calls))
    assert counts[0] == counts[1]


def test_a_dpi_group_sharing_a_seedless_map_solves_its_adjoint_unit_once(solver_calls):
    rng = rng_for_trial(403, 0)
    rho = np.stack([random_density(rng, 3) for _ in range(5)])
    sigma = np.stack([random_density(rng, 3) for _ in range(5)])
    shapes = []
    for k in (1, 5):
        phi = reduction_map(3)  # not solved yet, as at its first draw
        del solver_calls[:]
        harness._monotonicity_values([phi] * k, rho[:k], sigma[:k], None, DEFAULT_TOL)
        shapes.append([a.shape for _, a in solver_calls])
    # Phi*(1) once, then one psd per state stack and per image stack
    assert shapes == [[(1, 3, 3)] + [(k, 3, 3)] * 4 for k in (1, 5)]


# one round of the battery workload's suites at seed 0 (d = 2..6 one at a time),
# with the solver calls (eigh + eigvalsh + svd) each may make in it
BATTERY_ROUND = {
    "dpi": (430, lambda d: [randomized_dpi_suite("tp", dims=(d,), trials=60),
                            randomized_dpi_suite("tni", dims=(d,), trials=60),
                            randomized_dpi_suite("trace_match", dims=(d,), trials=30)]),
    "contraction": (150, lambda d: [contraction_battery(instances=3, dims=(d,), trials=20)]),
    "auxiliary": (55, lambda d: [auxiliary_inequality_suite(trials=20, dims=(d,))]),
}


@pytest.mark.parametrize("suite", sorted(BATTERY_ROUND))
def test_battery_round_solver_calls(solver_calls, suite):
    budget, run = BATTERY_ROUND[suite]
    for d in (2, 3, 4, 5, 6):
        assert all(report.passed for report in run(d))
    assert len(solver_calls) <= budget


def test_battery_round_draw_counts(monkeypatch):
    # a round's draws take their streams in batches and build in stacks: its QRs and default_rng
    # constructions are counted, which no machine changes
    calls = []
    for name, module in (("qr", np.linalg), ("default_rng", np.random)):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _name=name, _original=original, **kwargs:
                            calls.append(_name) or _original(*args, **kwargs))
    for _, run in BATTERY_ROUND.values():
        for d in (2, 3, 4, 5, 6):
            run(d)
    assert (calls.count("qr"), calls.count("default_rng")) == (75, 0)
