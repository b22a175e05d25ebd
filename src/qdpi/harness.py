"""Seeded verification suites for divergence monotonicity.

Each suite turns an inequality into deterministic pass/fail trials with a
structured, serializable report. Determinism contract: identical (seed,
parameters) produce bit-identical reports modulo runtime_ms. The one trial
source, ``_seeded_trials``, checks a suite's inputs and gives each trial its
own stream ``rng_for_trial(seed, t)`` and dimension, so any single trial can
be replayed without running the ones before it.

Witnesses: ``_parts`` writes every one, ``_divergence(alpha, cfg)`` picks every
divergence, and ``replay_witness`` recomputes a witness from its own fields.
Derived facts are computed, never stored: a witness's gap is lhs - rhs (0 when
both are infinite) and a report's passes is trials - len(failures). The
writers still write both, and the readers reject a payload whose stored gap,
counts, min_gap, outcome or best witness contradict one another. Gap
semantics: monotonicity witnesses hold the two divergence values; the
inequality asserts lhs >= rhs, and a pair with both sides infinite is a
vacuous pass with gap 0. Threshold
witnesses (norm contraction, step-2, limit checks) store the allowed bound
as lhs and the observed value as rhs, so gap >= 0 is again a pass, except
where a check names its own rule: step-2's Klein gap passes at gap >=
-STEP2_RESIDUAL_TOLERANCE, its pinching and concavity checks at gap >=
-STEP2_INEQUALITY_TOLERANCE, its block sum and the counterexample's
closed-form values pass on |gap| within their tolerance, and the
counterexample's violation check passes when its gap is negative.

Failure policy: a trial whose gap breaches the slack is re-judged once at
ten times the slack before being recorded as a failure ("escalation"); this
separates conditioning artifacts near rank deficiency from real violations.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DomainError,
    ToleranceConfig,
    _psd_matrix,
    _solve,
    as_matrix,
    hermitian_part,
    min_eigenvalue,
    operator_norm,
    psd,
    require_projector,
    trace_norm,
)
from .divergences import (
    klein_gap,
    relative_entropy,
    sandwiched_renyi,
    support_contained,
    von_neumann_entropy,
    weighted_p_norm,
)
from .channels import (
    FAMILY_TABLE,
    SuperOperator,
    _is_number,
    apply_kraus_stack,
    compose,
    counterexample_map,
    cptp_draw,
    families,
    from_isometry,
    gamma_superoperator,
    kraus_blocks,
    one_to_one_norm_positive,
    pinching_map,
    random_cptp,
    trace_behavior,
    truncation_parts,
)
from .sampling import (
    density_of_factor,
    gaussian_factor,
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
from . import serialize
from .serialize import SCHEMA_VERSION, decode_extended, encode_extended

__all__ = [
    "TRACE_MATCH_TOLERANCE",
    "VIOLATION_MARGIN",
    "Witness",
    "CheckReport",
    "ReplayMismatch",
    "witness_to_dict",
    "witness_from_dict",
    "report_to_dict",
    "report_from_dict",
    "monotonicity_check",
    "replay_witness",
    "counterexample_suite",
    "randomized_dpi_suite",
    "contraction_battery",
    "step2_suite",
    "step2_battery",
    "auxiliary_inequality_suite",
    "alpha_limit_suite",
    "alpha_limit_battery",
    "violation_search",
    "sample_state_pairs",
    "DEFAULT_ALPHAS",
    "DEFAULT_EPS_GRID",
]

TRACE_MATCH_TOLERANCE = 1e-9
VIOLATION_MARGIN = 1e-6

DEFAULT_ALPHAS = (1.1, 1.25, 1.5, 2.0, 3.0, 5.0)
DEFAULT_EPS_GRID = (1e-1, 1e-2, 1e-3, 1e-4)


class ReplayMismatch(RuntimeError):
    """A stored witness did not replay to its identical gap."""


@dataclass(frozen=True, eq=False)
class Witness:
    """One checked instance, fully serialized for exact replay."""

    map_descriptor: dict
    rho: dict
    sigma: dict
    alpha: float | None
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return _gap_of(self.lhs, self.rhs)


@dataclass(frozen=True, eq=False)
class CheckReport:
    """Aggregated outcome of one suite run; every trial not in failures passed."""

    suite_name: str
    seed: int
    trials: int
    failures: tuple
    min_gap: float | None
    runtime_ms: int
    config: dict
    escalations: int = 0
    outcome: str | None = None
    best_witness: Witness | None = None

    @property
    def passes(self) -> int:
        return self.trials - len(self.failures)

    @property
    def passed(self) -> bool:
        """Every trial passed, or, for a violation search (the suite that sets
        ``outcome``), the search found a violation."""
        if self.outcome is not None:
            return self.outcome == "violation_found"
        return self.passes == self.trials


def witness_to_dict(w: Witness) -> dict:
    return {
        "map": w.map_descriptor,
        "rho": w.rho,
        "sigma": w.sigma,
        "alpha": None if w.alpha is None else float(w.alpha),
        "lhs": encode_extended(w.lhs),
        "rhs": encode_extended(w.rhs),
        "gap": encode_extended(w.gap),
    }


def _extended_field(d: dict, what: str, name: str) -> float:
    """The extended real in field name of a what payload; a malformed one is a FormatError that names the field."""
    try:
        return decode_extended(d[name])
    except serialize.FormatError as exc:
        raise serialize.FormatError(f"{what} field {name!r}: {exc}") from exc


def witness_from_dict(d: dict) -> Witness:
    """Parse a witness payload; a malformed or self-contradicting one is a FormatError that names the field."""
    serialize._checked_payload(d, "witness", ("map", "rho", "sigma", "lhs", "rhs", "gap"), versioned=False)
    alpha = d.get("alpha")
    if alpha is not None and not (_is_number(alpha, (int, float)) and abs(alpha) <= float(np.finfo(float).max)):
        raise serialize.FormatError(f"witness field 'alpha' must be None or a finite real, got {alpha!r}")
    w = Witness(
        map_descriptor=d["map"],
        rho=d["rho"],
        sigma=d["sigma"],
        alpha=None if alpha is None else float(alpha),
        lhs=_extended_field(d, "witness", "lhs"),
        rhs=_extended_field(d, "witness", "rhs"),
    )
    stored = _extended_field(d, "witness", "gap")
    if (stored, math.copysign(1.0, stored)) != (w.gap, math.copysign(1.0, w.gap)):
        raise serialize.FormatError(f"witness field 'gap' is {stored!r}, but lhs - rhs is {w.gap!r}")
    return w


def report_to_dict(r: CheckReport) -> dict:
    """Canonical report payload; min_gap "both-infinite" means no trial recorded a gap."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite_name": r.suite_name,
        "seed": int(r.seed),
        "trials": int(r.trials),
        "passes": int(r.passes),
        "escalations": int(r.escalations),
        "min_gap": "both-infinite" if r.min_gap is None else encode_extended(r.min_gap),
        "outcome": r.outcome,
        "best_witness": None if r.best_witness is None else witness_to_dict(r.best_witness),
        "failures": [witness_to_dict(w) for w in r.failures],
        "runtime_ms": int(r.runtime_ms),
        "config": r.config,
    }


def report_from_dict(d: dict) -> CheckReport:
    """Parse a report payload; a malformed or self-contradicting one is a FormatError that names the field.

    Its counts are nonnegative, passes = trials - len(failures), escalations
    <= passes (an escalated trial passes), min_gap is at most every failure's
    gap ("both-infinite" only with no failures), and a best witness comes
    with outcome "violation_found" and only with it.
    """
    serialize._checked_payload(
        d, "report", ("suite_name", "seed", "trials", "passes", "failures", "min_gap", "runtime_ms", "config"))
    if not isinstance(d["suite_name"], str):
        raise serialize.FormatError(f"report field 'suite_name' must be a string, got {d['suite_name']!r}")
    if not isinstance(d["config"], dict):
        raise serialize.FormatError(f"report field 'config' must be an object, got {d['config']!r}")
    counts = {name: d.get(name, 0) for name in ("seed", "trials", "passes", "escalations", "runtime_ms")}
    for name, value in counts.items():
        if not _is_number(value, int):
            raise serialize.FormatError(f"report field {name!r} must be an integer, got {value!r}")
        if value < 0:
            raise serialize.FormatError(f"report field {name!r} must be nonnegative, got {value}")
    if not isinstance(d["failures"], list):
        raise serialize.FormatError("report field 'failures' must be a list")
    failures = tuple(witness_from_dict(w) for w in d["failures"])
    trials, passes = counts["trials"], counts["passes"]
    if len(failures) > trials:
        raise serialize.FormatError(f"report field 'failures' holds {len(failures)} witnesses of {trials} trials")
    if passes != trials - len(failures):
        raise serialize.FormatError(f"report field 'passes' is {passes}, not trials - len(failures)")
    if counts["escalations"] > passes:
        raise serialize.FormatError(f"report field 'escalations' is {counts['escalations']}, above passes")
    min_gap = None if d["min_gap"] == "both-infinite" else _extended_field(d, "report", "min_gap")
    if failures and (min_gap is None or min_gap > min(w.gap for w in failures)):
        raise serialize.FormatError(f"report field 'min_gap' is {d['min_gap']!r}, above a failure's gap")
    outcome, best = d.get("outcome"), d.get("best_witness")
    if outcome not in (None, "violation_found", "inconclusive"):
        raise serialize.FormatError(f"report field 'outcome' must be null, 'violation_found' or 'inconclusive', "
                                    f"got {outcome!r}")
    if (outcome == "violation_found") != (best is not None):
        raise serialize.FormatError(f"report field 'best_witness' must be given exactly when a violation is found, "
                                    f"got outcome {outcome!r}")
    return CheckReport(
        suite_name=d["suite_name"],
        seed=counts["seed"],
        trials=trials,
        failures=failures,
        min_gap=min_gap,
        runtime_ms=counts["runtime_ms"],
        config=d["config"],
        escalations=counts["escalations"],
        outcome=outcome,
        best_witness=None if best is None else witness_from_dict(best),
    )


def _gap_of(lhs: float, rhs: float) -> float:
    if math.isinf(lhs) and math.isinf(rhs):
        return 0.0
    if math.isinf(lhs):
        return math.inf
    if math.isinf(rhs):
        return -math.inf
    return lhs - rhs


def _divergence(alpha: float | None, cfg: ToleranceConfig):
    """Relative entropy when alpha is None, else the sandwiched divergence of order alpha."""
    if alpha is None:
        return lambda a, b: relative_entropy(a, b, cfg)
    return lambda a, b: sandwiched_renyi(a, b, alpha, cfg)


def _parts(map_or_descriptor, rho, sigma, alpha, kinds=("psd", "psd")):
    """A thunk returning the witness fields (map_descriptor, rho, sigma, alpha).

    A SuperOperator is serialized; a dict is stored as the map descriptor as it is. The states
    are written under their kinds with no second eigensolve; reading them checks the kinds.
    """
    m = map_or_descriptor
    return lambda: (
        serialize.channel_to_dict(m) if isinstance(m, SuperOperator) else m,
        serialize._checked_matrix_dict(as_matrix(rho), kinds[0]),
        serialize._checked_matrix_dict(as_matrix(sigma), kinds[1]),
        alpha,
    )


def _monotonicity_values(maps, rho, sigma, alpha, cfg):
    """Check the preconditions of ``monotonicity_check`` on a group of trials and evaluate both sides.

    Trial k is (maps[k], rho[k], sigma[k]): rho and sigma are (n, d, d)
    stacks, each validated by one ``psd``, and the maps share their
    dimensions. Each map acts on its validated state, its images are
    stacked, and each side is one stacked divergence call, so every value
    carries the bits of its trial evaluated alone. Returns (lhs, rhs, parts),
    lists in trial order, where ``parts[k]()`` serializes trial k's witness
    fields.
    """
    trace_behavior([phi for phi in maps if phi.certificate.is_positive])  # their Phi*(1) in one solve
    behaviors = []
    for phi in maps:
        if not phi.certificate.is_positive:
            raise DomainError(
                f"monotonicity preconditions need a positive map; certificate tag is "
                f"{phi.certificate.tag!r}"
            )
        behaviors.append(trace_behavior(phi))
        if not behaviors[-1].is_nonincreasing:
            raise DomainError("monotonicity preconditions need a trace-nonincreasing map")
    rho, sigma = psd(rho, cfg), psd(sigma, cfg)
    rho_images = [phi.apply(X) for phi, X in zip(maps, rho.matrix)]
    if alpha is None:
        for behavior, image, X in zip(behaviors, rho_images, rho.matrix):
            if behavior.tag == "nonincreasing":
                drift = abs(float(np.trace(image).real) - float(np.trace(X).real))
                if drift > TRACE_MATCH_TOLERANCE:
                    raise DomainError(
                        f"relative entropy monotonicity for a non-trace-preserving map needs "
                        f"tr[Phi(rho)] = tr[rho]; drift is {drift:.3e}"
                    )
    sigma_images = [phi.apply(X) for phi, X in zip(maps, sigma.matrix)]
    fn = _divergence(alpha, cfg)
    lhs = fn(rho, sigma)
    rhs = fn(hermitian_part(np.stack(rho_images)), hermitian_part(np.stack(sigma_images)))
    return lhs, rhs, [_parts(*trial, alpha) for trial in zip(maps, rho.matrix, sigma.matrix)]


def monotonicity_check(
    phi: SuperOperator,
    rho,
    sigma,
    alpha: float | None = None,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> Witness:
    """Evaluate a divergence on both sides of a map and return the witness.

    alpha selects the divergence: relative entropy when it is None, else
    the sandwiched Renyi divergence of order alpha (the rule ``replay_witness``
    applies to the stored alpha). Preconditions are matched to the
    inequality being exercised. Relative entropy: positive map,
    trace-preserving, or trace-nonincreasing with the state's trace matched
    within 1e-9. Sandwiched: positive trace-nonincreasing suffices (no
    theorem is asserted for alpha < 1; that regime exists for violation
    searches).
    """
    (lhs,), (rhs,), (parts,) = _monotonicity_values([phi], as_matrix(rho)[None], as_matrix(sigma)[None], alpha, cfg)
    return Witness(*parts(), lhs, rhs)


def replay_witness(w: Witness, cfg: ToleranceConfig = DEFAULT_TOL) -> Witness:
    """Re-evaluate a witness from its own fields alone; same inputs reproduce the gap exactly.
    Its alpha picks the divergence: replay ``dataclasses.replace(w, alpha=2.0)`` for another."""
    phi = serialize.channel_from_dict(w.map_descriptor, cfg)
    rho, rho_value = serialize.matrix_from_dict(w.rho, cfg)
    sigma, sigma_value = serialize.matrix_from_dict(w.sigma, cfg)
    fn = _divergence(w.alpha, cfg)
    # the map acts on the stored bits, the divergence reuses their validation
    lhs = fn(rho_value, sigma_value)
    rhs = fn(hermitian_part(phi.apply(rho)), hermitian_part(phi.apply(sigma)))
    return dataclasses.replace(w, lhs=lhs, rhs=rhs)


# ---------------------------------------------------------------------------
# suite plumbing


class _Tally:
    """Collects trial outcomes and assembles the report.

    A trial's witness is serialized only when the trial fails: callers pass
    ``parts``, a callable returning (map_descriptor, rho, sigma, alpha).
    The tolerances of ``cfg`` are appended to ``config`` as its last key.
    """

    def __init__(self, suite_name: str, seed: int, config: dict, cfg: ToleranceConfig):
        self.suite_name = suite_name
        self.seed = seed
        self.config = {
            **config,
            "tolerances": {k: float(v) for k, v in dataclasses.asdict(cfg).items()},
        }
        self.trials = 0
        self.escalations = 0
        self.failures: list[Witness] = []
        self.min_gap: float | None = None
        self.start = time.perf_counter()

    def add(self, lhs: float, rhs: float, passed: bool, parts) -> None:
        """One check of lhs >= rhs (for a bound: the bound as lhs, the observed value as rhs)."""
        gap = _gap_of(lhs, rhs)
        self.trials += 1
        if self.min_gap is None or gap < self.min_gap:
            self.min_gap = gap
        if not passed:
            self.failures.append(Witness(*parts(), lhs, rhs))

    def add_monotonicity(self, lhs: float, rhs: float, parts, slack: float) -> None:
        if math.isinf(lhs) and math.isinf(rhs):
            self.trials += 1
            return
        gap = _gap_of(lhs, rhs)
        if -10.0 * slack <= gap < -slack:
            self.escalations += 1
        self.add(lhs, rhs, gap >= -10.0 * slack, parts)

    def report(self, outcome: str | None = None, best_witness: Witness | None = None) -> CheckReport:
        runtime_ms = int(round((time.perf_counter() - self.start) * 1000))
        return CheckReport(
            suite_name=self.suite_name,
            seed=self.seed,
            trials=self.trials,
            failures=tuple(self.failures),
            min_gap=self.min_gap,
            runtime_ms=runtime_ms,
            config=self.config,
            escalations=self.escalations,
            outcome=outcome,
            best_witness=best_witness,
        )


# trials drawn and evaluated together by the dpi suites, the auxiliary suite and the
# violation search; bounds their memory at any trial count
TRIAL_CHUNK = 256


def _in_chunks(draws, draw, key, evaluate):
    """Yield the result of each trial of ``draws``, in trial order, evaluated in groups.

    Each chunk of TRIAL_CHUNK trials is drawn first, ``draw(rng, d)`` for each
    (rng, d) of draws, then grouped by ``key(trial)``; ``evaluate(group)``
    gives the results of a group's trials, in its order.
    """
    while chunk := [draw(rng, d) for rng, d in islice(draws, TRIAL_CHUNK)]:
        groups = {}  # key -> places in chunk
        for i, trial in enumerate(chunk):
            groups.setdefault(key(trial), []).append(i)
        results = [None] * len(chunk)
        for places in groups.values():
            for i, result in zip(places, evaluate([chunk[i] for i in places])):
                results[i] = result
        yield from results


def _pick(rng, options):
    """The option ``rng.choice`` picks, by the same single draw, without its array conversion."""
    return options[int(rng.integers(len(options)))]


def _seeded_trials(seed: int, count: int, dims, first: int = 0):
    """(dims, draws) of a seeded suite, its inputs checked before any draw.

    draws yields (rng, d) for trial t = first, ..., first + count - 1: its own
    stream rng = ``rng_for_trial(seed, t)`` and its dimension d, rng's first pick.
    """
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise DomainError("suite dimensions must not be empty")
    if any(d < 2 for d in dims):
        raise DomainError("suite dimensions must be >= 2")
    if count < 0 or seed < 0:
        raise DomainError(f"trial count and seed must be nonnegative, got {count} and {seed}")
    streams = (rng_for_trial(seed, t) for t in range(first, first + count))
    return dims, ((rng, _pick(rng, dims)) for rng in streams)


def _sample_state_pair(rng, d: int):
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


def _sector_state(rng, B: np.ndarray) -> np.ndarray:
    """Random density supported on the span of the orthonormal columns of B."""
    r = B.shape[1]
    G = random_complex_gaussian(rng, (r, r))
    W = G @ G.conj().T
    state = B @ W @ B.conj().T
    return state / float(np.trace(state).real)


# ---------------------------------------------------------------------------
# suites


def counterexample_suite(cfg: ToleranceConfig = DEFAULT_TOL) -> CheckReport:
    """The fixed 2x2 instance where relative entropy monotonicity fails.

    Five checks: the two closed-form divergence values to 1e-10, the strict
    violation by a CP trace-nonincreasing (non-TP) map, the vacuous pinching
    case, and the trace-matched state for which monotonicity is restored.
    """
    tally = _Tally("counterexample", 0, {"fixture": "counterexample"}, cfg)
    phi = counterexample_map()
    rho = psd(np.diag([1.0 / 3.0, 2.0 / 3.0]).astype(np.complex128), cfg)
    sigma = psd(np.diag([2.0 / 3.0, 1.0 / 3.0]).astype(np.complex128), cfg)
    ln2 = math.log(2.0)

    d_before = relative_entropy(rho, sigma, cfg)
    tally.add(ln2 / 3.0, d_before, abs(ln2 / 3.0 - d_before) <= 1e-10,
              _parts(phi, rho, sigma, None, ("density", "density")))

    image_rho = psd(hermitian_part(phi.apply(rho)), cfg)
    image_sigma = psd(hermitian_part(phi.apply(sigma)), cfg)
    d_after = relative_entropy(image_rho, image_sigma, cfg)
    tally.add(ln2 / 2.0, d_after, abs(ln2 / 2.0 - d_after) <= 1e-10,
              _parts(phi, image_rho, image_sigma, None))

    behavior = trace_behavior(phi)
    structurally_sound = (
        phi.certificate.tag == "completely_positive" and behavior.tag == "nonincreasing"
    )
    violated = _gap_of(d_before, d_after) < 0.0 and structurally_sound
    tally.add(d_before, d_after, violated, _parts(phi, rho, sigma, None))

    pinched = monotonicity_check(pinching_map(np.diag([1.0, 0.0]), cfg), rho, sigma, None, cfg)
    matched = monotonicity_check(phi, np.diag([0.0, 1.0]), sigma, None, cfg)  # trace matched
    for w, passed in ((pinched, abs(pinched.gap) <= 1e-9), (matched, matched.gap >= -1e-9)):
        tally.add(w.lhs, w.rhs, passed, lambda w=w: (w.map_descriptor, w.rho, w.sigma, w.alpha))

    return tally.report()


def _draw_dpi_trial(rng, d: int, mode: str, names, alphas, cfg: ToleranceConfig):
    """(phi, rho, sigma, alpha) of one dpi trial, drawn from its stream rng after its dimension d."""
    phi = FAMILY_TABLE[_pick(rng, names)].draw(rng, d, cfg)
    d = phi.dim_in  # the counterexample map is 2x2 whatever d was drawn
    if mode == "trace_match":
        rho = _sector_state(rng, trace_behavior(phi).sector())
        if float(rng.random()) < 0.15:
            sigma = random_rank_deficient_density(rng, d)
        else:
            sigma = random_density(rng, d)
        return phi, rho, sigma, None
    rho, sigma = _sample_state_pair(rng, d)
    return phi, rho, sigma, _pick(rng, alphas) if mode == "tni" else None


def randomized_dpi_suite(
    mode: str = "tp",
    dims=(2, 3, 4),
    trials: int = 1000,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOL,
    alphas=None,
) -> CheckReport:
    """Randomized monotonicity trials in one of three theorem modes.

    "tp": relative entropy under positive trace-preserving families.
    "tni": sandwiched divergence (alpha > 1) under positive trace-nonincreasing
    families. "trace_match": relative entropy under trace-nonincreasing maps
    with rho supported where the map preserves trace. Defaults: tp mode,
    1000 trials over d in (2, 3, 4), seed 0, and in tni mode DEFAULT_ALPHAS;
    alphas given in another mode are a DomainError.

    Trials are drawn TRIAL_CHUNK at a time, each from its own
    ``rng_for_trial(seed, t)`` stream (``_draw_dpi_trial``), then evaluated
    in groups of one map dimension and alpha (``_monotonicity_values``) and
    tallied in trial order. Each value carries the bits of evaluating its
    trial alone, so any trial, and any stored failure, replays alone. The
    fixed families' trials share their maps (``channels.FAMILY_TABLE``), and
    a group's unsolved Phi*(1) are solved in one stacked eigh.
    """
    if mode not in ("tp", "tni", "trace_match"):
        raise DomainError(f"unknown mode {mode!r}")
    names = families(mode)
    if mode == "tni":
        alphas = tuple(float(a) for a in (alphas if alphas is not None else DEFAULT_ALPHAS))
        if not alphas or not all(1.0 < a < math.inf for a in alphas):
            raise DomainError(f"tni mode exercises one or more finite alpha > 1, got {list(alphas)}")
    elif alphas is not None:
        raise DomainError(f"alpha applies in tni mode only, not in {mode} mode")
    dims, draws = _seeded_trials(seed, trials, dims)
    config = {
        "mode": mode,
        "dims": list(dims),
        "families": list(names),
        "alphas": None if alphas is None else list(alphas),
        "trials": int(trials),
        "seed": int(seed),
    }
    tally = _Tally(f"dpi-{mode}", seed, config, cfg)

    def evaluate(group):
        maps, rho, sigma, (alpha, *_) = zip(*group)
        return zip(*_monotonicity_values(maps, np.stack(rho), np.stack(sigma), alpha, cfg))

    results = _in_chunks(draws, lambda rng, d: _draw_dpi_trial(rng, d, mode, names, alphas, cfg),
                         lambda trial: (trial[0].dim_in, trial[0].dim_out, trial[3]), evaluate)
    for lhs, rhs, parts in results:
        tally.add_monotonicity(lhs, rhs, parts, cfg.monotonicity_slack)
    return tally.report()


RATIO_BOUND = 1.0 + 1e-8
UNIT_IMAGE_TOLERANCE = 1e-9
ADJOINT_UNIT_BOUND = 1.0 + 1e-10


def _contraction_checks(tally: _Tally, sigma, phi: SuperOperator, alphas, trials: int, seed: int,
                        cfg: ToleranceConfig) -> None:
    """Add the norm-contraction checks of one (sigma, Phi) instance to ``tally``: for ``trials`` probes X
    per alpha, ||Psi(X)||_{alpha,Phi(sigma)} <= RATIO_BOUND ||X||_{alpha,sigma} with Psi = Gamma^{-1}_{Phi(sigma)}
    o Phi o Gamma_sigma; then Psi(1) = 1 within UNIT_IMAGE_TOLERANCE and ||Phi*(1)||_inf <= ADJOINT_UNIT_BOUND.

    Probe t of the alpha at index a is drawn from its own stream ``rng_for_trial(seed, a * trials + t)``. An
    alpha's probes are evaluated as one stack (one apply of Psi, one stacked weighted norm per side), each
    ratio with the bits of its probe evaluated alone."""
    if not phi.certificate.is_positive:
        raise DomainError("norm contraction needs a certified positive map")
    if not trace_behavior(phi).is_nonincreasing:
        raise DomainError("norm contraction needs a trace-nonincreasing map")
    sigma = _psd_matrix(sigma, cfg)
    d = phi.dim_in
    sigma_prime = psd(hermitian_part(phi.apply(sigma)), cfg)
    for name, S in (("sigma", sigma), ("Phi(sigma)", sigma_prime)):
        if not S.on.all():
            raise DomainError(f"{name} is rank-deficient; the weighted norms need full rank")
    psi = compose(
        gamma_superoperator(sigma_prime, inverse=True, cfg=cfg),
        compose(phi, gamma_superoperator(sigma, cfg=cfg)),
    )

    # sigma and Phi(sigma) are validated values, so each weight sigma^{1/2alpha}
    # is computed once per alpha, not once per probe
    for ai, alpha in enumerate(alphas):
        X = np.empty((trials, d, d), dtype=np.complex128)
        for t in range(trials):
            rng = rng_for_trial(seed, ai * trials + t)
            if t % 2 == 0:
                X[t] = random_hermitian(rng, d)
            else:
                X[t] = np.outer(random_unit_vector(rng, d), random_unit_vector(rng, d).conj())
        dens = weighted_p_norm(X, sigma, alpha, cfg)
        nums = weighted_p_norm(psi.apply(X), sigma_prime, alpha, cfg)
        for probe, den, num in zip(X, dens, nums):
            parts = _parts(psi, probe, sigma, alpha, ("general", "psd"))
            if den <= 0.0:
                tally.add(RATIO_BOUND, math.inf, False, parts)
                continue
            ratio = num / den
            tally.add(RATIO_BOUND, ratio, ratio <= RATIO_BOUND, parts)

    eye = np.eye(d)
    unit_defect = operator_norm(psi.apply(eye) - eye)
    tally.add(UNIT_IMAGE_TOLERANCE, unit_defect, unit_defect <= UNIT_IMAGE_TOLERANCE,
              _parts(psi, eye, sigma, None))

    one_norm = one_to_one_norm_positive(phi)
    tally.add(ADJOINT_UNIT_BOUND, one_norm, one_norm <= ADJOINT_UNIT_BOUND,
              _parts(phi, eye, sigma, None))


def contraction_battery(
    instances: int = 20,
    dims=(2, 3, 4),
    alphas=(1.5, 2.0, 3.0),
    trials: int = 200,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> CheckReport:
    """Norm-contraction checks over seeded (map, sigma) instances, in one report.

    Instance i draws its map from family i mod n of the n "contraction"
    families in table order (random CPTP, positive non-CP, depolarizing), so
    from n instances on the lemma is sampled on every one, beyond the CP
    cone; then a full-rank sigma and the seed of its probes. Each alpha's
    probes are evaluated as one stack (``_contraction_checks``), so an
    instance costs a fixed number of solver calls at any probe count.
    """
    names = families("contraction")
    dims, draws = _seeded_trials(seed, instances, dims, first=1_000_000)
    alphas = tuple(float(a) for a in alphas)
    if not alphas or not all(1.0 <= a < math.inf for a in alphas):
        raise DomainError(f"weighted norms need one or more finite alpha >= 1, got {list(alphas)}")
    if trials < 0:
        raise DomainError(f"probe count must be nonnegative, got {trials}")
    config = {
        "instances": int(instances),
        "dims": list(dims),
        "families": list(names),
        "alphas": list(alphas),
        "trials": int(trials),
        "seed": int(seed),
    }
    tally = _Tally("norm-contraction", seed, config, cfg)
    for i, (rng, d) in enumerate(draws):
        phi = FAMILY_TABLE[names[i % len(names)]].draw(rng, d, cfg)
        sigma = random_density(rng, phi.dim_in)
        sub_seed = int(rng.integers(0, 2**31))
        _contraction_checks(tally, sigma, phi, alphas, trials, sub_seed, cfg)
    return tally.report()


def _descending_projector(w: np.ndarray, V: np.ndarray, n: int, d: int) -> np.ndarray:
    """Projector onto the top-n eigenvectors in (w, V); exact identity at n = d."""
    if n == d:
        return np.eye(d, dtype=np.complex128)
    top = V[:, np.argsort(w)[::-1][:n]]
    return top @ top.conj().T


STEP2_RESIDUAL_TOLERANCE = 1e-9
STEP2_INEQUALITY_TOLERANCE = 1e-8
# relative leaked mass allowed by the auxiliary suite's support-inclusion check (d)
SUPPORT_INCLUSION_TOLERANCE = 1e-6


def step2_suite(
    n_sequence,
    phi: SuperOperator,
    rho,
    sigma,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> CheckReport:
    """Finite-dimensional study of the truncation/pinching approximation step.

    For nested projectors P_n built from rho's eigenbasis (descending weight)
    and P'_n from Phi(rho)'s: truncation residuals ||Phi_n(A) - Phi(A)||_1
    must be nonincreasing in n and vanish at n = d; per n, the compressed
    Klein gap is nonnegative, pinching does not increase relative entropy,
    the pinched divergence splits additively over blocks, and the operator
    concavity of log holds on the pinched sigma. The dimension d is the
    map's input dimension, which its output dimension must equal.
    """
    d = phi.dim_in
    n_sequence = tuple(int(n) for n in n_sequence)
    if not n_sequence or any(a >= b for a, b in zip(n_sequence, n_sequence[1:])):
        raise DomainError("n_sequence must be strictly ascending and nonempty")
    if n_sequence[0] < 1 or n_sequence[-1] != d:
        raise DomainError(f"n_sequence must lie in [1, {d}] and end at {d}")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    if phi.dim_out != d:
        raise DomainError(f"step-2 study needs a map with equal dimensions, got {d} -> {phi.dim_out}")
    rho = _psd_matrix(rho, cfg)
    sigma = _psd_matrix(sigma, cfg)
    config = {
        "d": int(d),
        "n_sequence": list(n_sequence),
        "seed": int(seed),
    }
    tally = _Tally("step2", seed, config, cfg)
    parts = _parts(phi, rho, sigma, None)

    image_w, image_V = _solve(np.linalg.eigh, hermitian_part(phi.apply(rho)))
    projectors = []
    for n in n_sequence:
        P = _descending_projector(rho.w, rho.V, n, d)
        commutator = operator_norm(P @ rho.matrix - rho.matrix @ P)
        if commutator > 1e-9:
            raise DomainError(f"P_{n} does not commute with rho (defect {commutator:.3e})")
        P_prime = _descending_projector(image_w, image_V, n, d)
        projectors.append((n, P, truncation_parts(phi, P, P_prime, cfg)))

    # Phi_n(A) = kept(A) + tr[A W] tau is never formed as a map; witnesses stay probe-major
    for A in (rho.matrix, sigma.matrix, random_density(rng_for_trial(seed, 0), d)):
        image = phi.apply(A)
        residuals = [trace_norm(kept.apply(A) + np.sum(A * W.T) * tau - image)
                     for _, _, (kept, W, tau) in projectors]
        for k in range(len(residuals) - 1):
            bound = residuals[k] + STEP2_RESIDUAL_TOLERANCE
            tally.add(bound, residuals[k + 1], residuals[k + 1] <= bound, parts)
        tally.add(STEP2_RESIDUAL_TOLERANCE, residuals[-1], residuals[-1] <= STEP2_RESIDUAL_TOLERANCE, parts)

    base_divergence = relative_entropy(rho, sigma, cfg)
    for n, P, _ in projectors:
        P_perp = np.eye(d) - P
        rho_out = psd(hermitian_part(P_perp @ rho.matrix @ P_perp), cfg)
        sigma_out = psd(hermitian_part(P_perp @ sigma.matrix @ P_perp), cfg)
        g = klein_gap(rho_out, sigma_out, cfg)
        # the residual checks above set min_gap first, so an infinite (+inf) Klein gap never lowers it
        tally.add(g, 0.0, g >= -STEP2_RESIDUAL_TOLERANCE, parts)

        pinch = pinching_map(P, cfg)
        pinched_rho = hermitian_part(pinch.apply(rho))
        pinched_sigma = psd(hermitian_part(pinch.apply(sigma)), cfg)
        pinched = relative_entropy(pinched_rho, pinched_sigma, cfg)
        # a pair with both values infinite has gap 0 and passes
        passed = _gap_of(base_divergence, pinched) >= -STEP2_INEQUALITY_TOLERANCE
        tally.add(base_divergence, pinched, passed, parts)

        rho_in = hermitian_part(P @ rho.matrix @ P)
        sigma_in = hermitian_part(P @ sigma.matrix @ P)
        block_sum = relative_entropy(rho_in, sigma_in, cfg) + relative_entropy(
            rho_out, sigma_out, cfg
        )
        passed = abs(_gap_of(block_sum, pinched)) <= STEP2_INEQUALITY_TOLERANCE
        tally.add(block_sum, pinched, passed, parts)

        concavity = min_eigenvalue(
            pinched_sigma.log() - hermitian_part(pinch.apply(sigma.log())), cfg
        )
        tally.add(concavity, 0.0, concavity >= -STEP2_INEQUALITY_TOLERANCE, parts)

    return tally.report()


def step2_battery(
    d: int = 32,
    n_sequence=None,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOL,
) -> CheckReport:
    """step2_suite on a seeded CPTP map and full-rank state pair."""
    (d,), draws = _seeded_trials(seed, 1, (d,), first=1)
    if n_sequence is None:
        n_sequence = sorted({max(1, d // 8), max(1, d // 4), max(1, d // 2), max(1, (3 * d) // 4), d})
    rng, _ = next(draws)
    phi = random_cptp(d, rng=rng)
    rho = random_density(rng, d)
    sigma = random_density(rng, d)
    return step2_suite(n_sequence, phi, rho, sigma, seed, cfg)


def _draw_auxiliary_trial(rng, d: int, names, cfg: ToleranceConfig):
    """(sigma, P, rho, A, B, sigma_small, inner, psi) of one auxiliary trial, drawn in that order from
    its stream rng after its dimension d; psi is of one of the families names."""
    sigma = random_density(rng, d)
    P = random_projector(rng, d, int(rng.integers(1, d)))
    rho = random_density(rng, d)
    A = random_psd(rng, d)
    B = random_psd(rng, d)
    sigma_small = random_density(rng, d, rank=int(rng.integers(1, d + 1)))
    inner = random_density(rng, d)
    return sigma, P, rho, A, B, sigma_small, inner, FAMILY_TABLE[_pick(rng, names)].draw(rng, d, cfg)


def _auxiliary_values(group, cfg: ToleranceConfig, relaxed: ToleranceConfig):
    """(margin, passed, rho, sigma) of each auxiliary trial of a group of one dimension, in its order.

    Checks (a)-(c) are evaluated as stacks, the pinching as a two-Kraus
    ``apply_kraus_stack``; check (d) applies each trial's own map alone and
    tests the images' supports as one stack. Every value carries the bits of
    its trial evaluated alone.
    """
    *drawn, maps = zip(*group)
    sigma, P, rho, A, B, sigma_small, inner = map(np.stack, drawn)
    P = require_projector(P, cfg)
    pinch = [P, np.eye(P.shape[-1]) - P]
    pinched_sigma = psd(hermitian_part(apply_kraus_stack(pinch, sigma)), cfg)
    concavity = min_eigenvalue(
        pinched_sigma.log() - hermitian_part(apply_kraus_stack(pinch, psd(sigma, cfg).log())), cfg
    )
    pinched_entropy = von_neumann_entropy(hermitian_part(apply_kraus_stack(pinch, rho)), cfg)
    entropy = von_neumann_entropy(rho, cfg)
    gaps = klein_gap(A, B, cfg)

    Q = psd(sigma_small, cfg).projector()
    rho_small = Q @ inner @ Q
    traces = rho_small.trace(axis1=-2, axis2=-1).real.tolist()
    rho_small = [R / tr if tr > 0.0 else S for R, tr, S in zip(rho_small, traces, sigma_small)]
    images = [np.stack([hermitian_part(psi.apply(X)) for psi, X in zip(maps, states)])
              for states in (rho_small, sigma_small)]
    contained = support_contained(*images, relaxed)

    results = []
    for trial, c, pe, e, g, ok_d in zip(group, concavity, pinched_entropy, entropy, gaps, contained):
        jump = pe - e
        margin = min(
            c + STEP2_INEQUALITY_TOLERANCE,
            jump + 1e-9,
            (g if not math.isinf(g) else 1.0) + 1e-9,
            1.0 if ok_d else -1.0,
        )
        passed = c >= -STEP2_INEQUALITY_TOLERANCE and jump >= -1e-9 and g >= -1e-9 and ok_d
        results.append((margin, passed, trial[2], trial[0]))  # the trial's rho and sigma
    return results


def auxiliary_inequality_suite(
    trials: int = 200,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOL,
    dims=(2, 3, 4, 5, 6),
) -> CheckReport:
    """Randomized checks of the lemma-level facts behind the truncation step.

    Per trial: (a) operator concavity of log across a random pinching,
    (b) entropy nondecrease under pinching, (c) Klein gap nonnegativity for
    a random PSD pair with compatible supports, (d) support inclusion is
    preserved by a random positive map. cfg's containment_tolerance applies
    to (c), the Klein gap; (d) allows SUPPORT_INCLUSION_TOLERANCE instead.

    Trials are drawn TRIAL_CHUNK at a time, each from its own
    ``rng_for_trial(seed, t)`` stream (``_draw_auxiliary_trial``), then
    evaluated in groups of one dimension (``_auxiliary_values``) and tallied
    in trial order, each value with the bits of its trial evaluated alone.
    """
    dims, draws = _seeded_trials(seed, trials, dims)
    relaxed = dataclasses.replace(cfg, containment_tolerance=SUPPORT_INCLUSION_TOLERANCE)
    config = {
        "trials": int(trials),
        "seed": int(seed),
        "dims": list(dims),
    }
    tally = _Tally("auxiliary", seed, config, cfg)
    names = families("support")
    results = _in_chunks(draws, lambda rng, d: _draw_auxiliary_trial(rng, d, names, cfg),
                         lambda trial: trial[0].shape[0], lambda group: _auxiliary_values(group, cfg, relaxed))
    for t, (margin, passed, rho, sigma) in enumerate(results):
        tally.add(margin, 0.0, passed,
                  _parts({"trial": t, "kind": "auxiliary"}, rho, sigma, None, ("density", "density")))
    return tally.report()


def alpha_limit_suite(
    pairs,
    *,
    cfg: ToleranceConfig = DEFAULT_TOL,
    seed: int = 0,
) -> CheckReport:
    """Convergence of the sandwiched divergence to relative entropy as alpha -> 1, with its slope.

    For each (rho, sigma) pair the error |D_{1+eps} - D| must be nonincreasing
    along DEFAULT_EPS_GRID, up to a rise of 64 u / eps (u the machine epsilon)
    that rounding alone can cause. At the final eps the first-order expansion
    D_{1+eps} = D + eps V / 2 must hold up to a second-order residual:

        |D_{1+eps} - D - eps V / 2| <= eps^2 (1 + ||L - D|| V),

    where L = ln rho - ln sigma, V = tr[rho L^2] - D^2 is the relative-entropy
    variance (V / 2 is the derivative of the sandwiched divergence at
    alpha = 1) and ||.|| the operator norm. For commuting states the residual
    is eps^2 k3 / 6 with the third cumulant |k3| <= ||L - D|| V; the bound
    leaves room for the non-commuting terms. The error itself is first order,
    eps V / 2, so no absolute bound on it holds for every pair. A pair with
    D = +inf (supp rho not within supp sigma) has no expansion and fails.
    """
    config = {
        "eps_grid": list(DEFAULT_EPS_GRID),
        "pairs": len(pairs),
        "seed": int(seed),
    }
    eps = DEFAULT_EPS_GRID[-1]
    tally = _Tally("alpha-limit", seed, config, cfg)
    for rho, sigma in pairs:
        rho = _psd_matrix(rho, cfg)
        sigma = _psd_matrix(sigma, cfg)
        target = relative_entropy(rho, sigma, cfg)
        values = [sandwiched_renyi(rho, sigma, 1.0 + e, cfg) for e in DEFAULT_EPS_GRID]
        errors = [abs(v - target) for v in values]
        monotone = all(errors[k + 1] <= errors[k] + 64 * np.finfo(float).eps / DEFAULT_EPS_GRID[k + 1]
                       for k in range(len(errors) - 1))
        bound, residual = eps**2, math.inf
        if math.isfinite(target):
            log_ratio = rho.log() - sigma.log()
            variance = float(np.einsum("ij,ji->", rho.matrix @ log_ratio, log_ratio).real) - target**2
            spread = operator_norm(log_ratio - target * np.eye(len(log_ratio)))
            bound *= 1.0 + spread * variance
            residual = abs(values[-1] - target - eps * variance / 2.0)
        tally.add(bound, residual, monotone and residual <= bound,
                  _parts({"kind": "alpha-limit"}, rho, sigma, 1.0 + eps))
    return tally.report()


def sample_state_pairs(count: int, dims, seed: int):
    """Seeded full-rank (rho, sigma) density pairs for limit and contraction studies."""
    _, draws = _seeded_trials(seed, count, dims)
    return [(random_density(rng, d), random_density(rng, d)) for rng, d in draws]


def alpha_limit_battery(trials: int = 50, dims=(2, 3, 4, 5, 6), seed: int = 0,
                        cfg: ToleranceConfig = DEFAULT_TOL) -> CheckReport:
    """alpha_limit_suite on seeded pairs (sample_state_pairs); defaults: 50 pairs over d = 2..6, seed 0."""
    return alpha_limit_suite(sample_state_pairs(trials, dims, seed), cfg=cfg, seed=seed)


# hill-climb proposals evaluated together by the violation search
CLIMB_STACK = 12


def _isometry_images(alpha: float, V: np.ndarray, rho, sigma, cfg: ToleranceConfig):
    """alpha's sandwiched divergence between the images of rho and sigma under each Kraus map of V.

    V stacks isometries, each holding one map's Kraus operators; rho and sigma are stacks as
    long as V or one matrix each. Each value carries the bits of ``replay_witness``.
    """
    n, d = len(V), rho.shape[-1]
    kraus = kraus_blocks(V, d)
    images = [hermitian_part(apply_kraus_stack(kraus, np.broadcast_to(X, (n, d, d)))) for X in (rho, sigma)]
    return _divergence(alpha, cfg)(*images)


def _violation_trials(alpha: float, draws, cfg: ToleranceConfig):
    """Yield (lhs, rhs, V, rho, sigma) of each violation-search trial, in index order.

    Each (rng, d) of ``draws`` (from ``_seeded_trials``) goes on to draw what
    ``random_cptp(d, rng=rng)`` and two ``random_density(rng, d)`` calls draw,
    in that order, so any trial replays alone. Within each chunk of
    TRIAL_CHUNK trials (``_in_chunks``), those of one dimension are finished
    and evaluated as stacks: one QR for the isometries V, one Wishart
    normalisation per state and one sandwiched evaluation per side
    (``_isometry_images`` for the right), each value carrying the bits of
    evaluating its trial alone.
    """
    def evaluate(group):
        _, iso, rho_factors, sigma_factors = zip(*group)
        V = phase_fixed_q(np.stack(iso))
        rho = density_of_factor(np.stack(rho_factors))
        sigma = density_of_factor(np.stack(sigma_factors))
        return zip(_divergence(alpha, cfg)(rho, sigma), _isometry_images(alpha, V, rho, sigma, cfg), V, rho, sigma)

    # a trial is (d, isometry Gaussian, rho factor, sigma factor)
    return _in_chunks(draws, lambda rng, d: (d, cptp_draw(rng, d), gaussian_factor(rng, d), gaussian_factor(rng, d)),
                      lambda trial: trial[0], evaluate)


def _climb(alpha: float, lhs, rhs, V: np.ndarray, rho, sigma, steps: int, rng, cfg: ToleranceConfig):
    """The (rhs, V) that ``steps`` hill-climb steps reach from a trial's (lhs, rhs, V).

    V is the isometry that stacks the Kraus operators of the trial's map,
    lhs and rhs alpha's divergence on (rho, sigma) and across the map. Step
    s proposes phase_fixed_q(V + step * G_s), with G_s the s-th complex
    Gaussian that ``random_complex_gaussian(rng, V.shape)`` would draw and
    step starting at 0.25. A proposal whose gap is lower is accepted, else
    step *= 0.99; lhs does not move. Proposals are evaluated CLIMB_STACK at
    a time (``_isometry_images``), all built from the current (V, step) as
    if each were rejected: the first one that lowers the gap is accepted
    and the rest, built from a V that is now stale, are dropped, their noise
    kept for the steps that follow. Every value carries the bits of
    evaluating its proposal alone, so the result is that of the one-step-at-
    a-time climb, and memory stays bounded at any step count.
    """
    gap = _gap_of(lhs, rhs)
    noise = np.empty((0,) + V.shape, dtype=np.complex128)  # drawn, not yet proposed
    step, done = 0.25, 0
    while done < steps:
        k = min(CLIMB_STACK, steps - done)
        # per step: the real part, then the imaginary part, as random_complex_gaussian draws them
        fresh = rng.standard_normal((k - len(noise), 2) + V.shape)
        noise = np.concatenate([noise, fresh[:, 0] + 1j * fresh[:, 1]])
        sizes = [step]
        for _ in range(k - 1):
            sizes.append(sizes[-1] * 0.99)
        proposals = phase_fixed_q(V + np.array(sizes)[:, None, None] * noise)
        values = _isometry_images(alpha, proposals, rho, sigma, cfg)
        gaps = [_gap_of(lhs, value) for value in values]
        taken = next((j for j, g in enumerate(gaps) if g < gap), None)
        if taken is None:
            step, taken = sizes[-1] * 0.99, k - 1
        else:
            V, rhs, gap, step = proposals[taken], values[taken], gaps[taken], sizes[taken]
        noise = noise[taken + 1:]
        done += taken + 1
    return rhs, V


def violation_search(
    alpha: float = 0.3,
    dims=(2,),
    trials: int = 100_000,
    seed: int = 0,
    cfg: ToleranceConfig = DEFAULT_TOL,
    hill_steps: int = 1500,
) -> CheckReport:
    """Search for monotonicity violations of the alpha < 1/2 sandwiched formula.

    Each trial samples a random CPTP map (random_cptp) and a full-rank
    state pair (random_density) of a dimension drawn from dims. Trials are
    evaluated in per-dimension stacks (``_violation_trials``) but each keeps
    its own ``rng_for_trial(seed, t)`` stream, so any trial still replays
    alone, and its values carry the bits of evaluating it alone. A map is
    built only for a violating trial and for the best one. Hill climbing
    then perturbs the stacked Kraus isometry of the best candidate
    (``_climb``), evaluating its proposals in stacks of CLIMB_STACK with
    the result of evaluating them one at a time. A violating best witness
    (gap < -1e-6) carries the search's own lhs, rhs and gap, which
    ``replay_witness`` must reproduce bit for bit (else ReplayMismatch);
    finding none is reported as inconclusive, never as a refutation.
    Defaults: alpha 0.3, 100 000 trials at d = 2, seed 0 and 1500
    hill-climb steps.
    """
    alpha = float(alpha)
    if not 0.0 < alpha < 0.5:
        raise DomainError(f"the violation regime is alpha in (0, 1/2); got {alpha}")
    dims, draws = _seeded_trials(seed, trials, dims)
    if hill_steps < 0:
        raise DomainError(f"hill_steps must be nonnegative, got {hill_steps}")
    config = {
        "alpha": alpha,
        "dims": list(dims),
        "trials": int(trials),
        "seed": int(seed),
        "hill_steps": int(hill_steps),
    }
    tally = _Tally("violation-search", seed, config, cfg)
    best = None  # (gap, lhs, rhs, V, rho, sigma)
    for lhs, rhs, V, rho, sigma in _violation_trials(alpha, draws, cfg):
        gap = _gap_of(lhs, rhs)
        if best is None or gap < best[0]:
            best = (gap, lhs, rhs, V, rho, sigma)
        found = gap < -VIOLATION_MARGIN
        parts = _parts(from_isometry(V, rho.shape[0]), rho, sigma, alpha) if found else None
        tally.add(lhs, rhs, not found, parts)

    best_witness = None
    if best is not None:
        gap, lhs, rhs, V, rho, sigma = best
        if hill_steps > 0:
            rhs, V = _climb(alpha, lhs, rhs, V, rho, sigma, hill_steps, rng_for_trial(seed, trials), cfg)
            gap = _gap_of(lhs, rhs)
        if gap < -VIOLATION_MARGIN:
            best_witness = Witness(*_parts(from_isometry(V, rho.shape[0]), rho, sigma, alpha)(), lhs, rhs)
            replayed = replay_witness(best_witness, cfg=cfg)
            if (replayed.lhs, replayed.rhs) != (lhs, rhs):
                raise ReplayMismatch("stored witness did not replay to the identical gap")
    outcome = "violation_found" if best_witness is not None else "inconclusive"
    return tally.report(outcome=outcome, best_witness=best_witness)
