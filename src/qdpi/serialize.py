"""Every file format of qdpi (operators, maps, witnesses, reports, command
outputs), with its writer, its reader and the reader's rules; a file that
cannot be read or written is a FormatError that names its path.

The emitter is ``json.dumps`` and is canonical: fixed field order (insertion
order of the writer), ", " and ": " separators, ASCII output, and each float
written as its shortest round-trip repr (``0.1``, ``1.0``, ``-0.0``: a float
stays a float and zero keeps its sign). Reading a file back gives the same
doubles, so save -> load -> save is byte-identical, which is what makes
witness replay exact.

Infinities never appear as raw JSON numbers; fields that can be infinite are
encoded as the strings "+inf" / "-inf" by ``encode_extended``.

Witnesses and reports: ``_parts`` writes every witness's fields. Derived
facts are computed, never stored: a witness's gap is lhs - rhs (0 when both
are infinite) and a report's passes is trials - len(failures). The writers
still write both, and the readers reject a payload whose stored gap, counts,
min_gap, outcome or best witness contradict one another. Gap semantics:
monotonicity witnesses hold the two divergence values; the inequality
asserts lhs >= rhs, and a pair with both sides infinite is a vacuous pass
with gap 0. Threshold witnesses (norm contraction, step-2, limit checks)
store the allowed bound as lhs and the observed value as rhs, so gap >= 0 is
again a pass, except where a check names its own rule: step-2's Klein gap
passes at gap >= -STEP2_RESIDUAL_TOLERANCE, its pinching and concavity
checks at gap >= -STEP2_INEQUALITY_TOLERANCE, its block sum and the
counterexample's closed-form values pass on |gap| within their tolerance,
and the counterexample's violation check passes when its gap is negative
(the tolerances are ``harness``'s).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    DomainError,
    ToleranceConfig,
    as_matrix,
    psd,
    require_hermitian,
    require_projector,
)
from . import channels
from .channels import SuperOperator, _is_number, from_choi, from_kraus, from_matrix

__all__ = [
    "FormatError",
    "SCHEMA_VERSION",
    "canonical_json",
    "save_json",
    "load_json",
    "encode_extended",
    "decode_extended",
    "matrix_to_dict",
    "matrix_from_dict",
    "channel_to_dict",
    "choi_to_dict",
    "channel_from_dict",
    "Witness",
    "CheckReport",
    "witness_to_dict",
    "witness_from_dict",
    "encode_min_gap",
    "report_to_dict",
    "report_from_dict",
    "divergence_to_dict",
    "classification_to_dict",
]

SCHEMA_VERSION = "1"

MATRIX_KINDS = ("general", "hermitian", "psd", "density", "projector")


class FormatError(ValueError):
    """A file or payload does not conform to the declared schema."""


def _checked_payload(d, what: str, fields=(), versioned: bool = True) -> None:
    """Raise a FormatError unless d is an object, of SCHEMA_VERSION when its format is versioned,
    holding every field of fields."""
    if not isinstance(d, dict):
        raise FormatError(f"{what} payload must be an object")
    if versioned and d.get("schema_version") != SCHEMA_VERSION:
        raise FormatError(f"unsupported schema_version {d.get('schema_version')!r}")
    for name in fields:
        if name not in d:
            raise FormatError(f"{what} payload is missing field {name!r}")


def _plain(obj):
    """The Python value of a NumPy scalar, for the encoder; anything else is not serializable."""
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"cannot serialize value of type {type(obj).__name__}")


def canonical_json(obj) -> str:
    try:
        return json.dumps(obj, allow_nan=False, default=_plain)
    except ValueError as exc:
        raise FormatError("non-finite floats must be encoded with encode_extended") from exc
    except TypeError as exc:
        raise FormatError(str(exc)) from exc


def save_json(path, obj) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(canonical_json(obj) + "\n")
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def _reject_constant(name: str):
    raise FormatError(f"raw {name} is not legal; infinities are encoded as \"+inf\"/\"-inf\"")


def load_json(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise FormatError(f"not an ASCII file: {exc}") from exc


def encode_extended(x: float):
    """Extended real -> JSON value: finite number, or "+inf" / "-inf"."""
    x = float(x)
    if math.isnan(x):
        raise FormatError("NaN is not a legal extended-real value")
    if x == math.inf:
        return "+inf"
    if x == -math.inf:
        return "-inf"
    return x


def decode_extended(v) -> float:
    if v == "+inf":
        return math.inf
    if v == "-inf":
        return -math.inf
    if _is_number(v, (int, float)):
        x = float(v)
        if math.isnan(x) or math.isinf(x):
            raise FormatError("raw non-finite numbers are not legal; use \"+inf\"/\"-inf\"")
        return x
    raise FormatError(f"not an extended-real encoding: {v!r}")


def _matrix_payload(M: np.ndarray) -> dict:
    return {"re": M.real.tolist(), "im": M.imag.tolist()}


def _matrix_from_payload(payload: dict, rows: int, cols: int, what: str) -> np.ndarray:
    try:
        re = np.asarray(payload["re"], dtype=np.float64)
        im = np.asarray(payload["im"], dtype=np.float64)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"{what}: malformed re/im arrays") from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise FormatError(
            f"{what}: expected {rows}x{cols} arrays, got {re.shape} and {im.shape}"
        )
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise FormatError(f"{what}: entries must be finite")
    # set the parts, as re + 1j * im would turn a -0.0 into +0.0
    M = np.empty((rows, cols), dtype=np.complex128)
    M.real, M.imag = re, im
    return M


def _validate_kind(M, kind: str, cfg: ToleranceConfig):
    """Check M (an ndarray or a ValidatedPSD, which is not diagonalized again) against kind.

    Returns the validated value: a ValidatedPSD for the psd and density kinds, else M.
    """
    try:
        if kind == "general":
            pass
        elif kind == "hermitian":
            require_hermitian(M, cfg)
        elif kind in ("psd", "density"):
            M = psd(M, cfg)
            trace = float(np.trace(M.matrix).real)
            if kind == "density" and abs(trace - 1.0) > 1e-9:
                raise DomainError(f"trace is {trace:.12g}, not 1")
        elif kind == "projector":
            require_projector(M, cfg)
        else:
            raise FormatError(f"unknown matrix kind {kind!r}")
    except DomainError as exc:
        raise FormatError(f"matrix does not satisfy declared kind {kind!r}: {exc}") from exc
    return M


def matrix_to_dict(M, kind: str = "general", cfg: ToleranceConfig = DEFAULT_TOL) -> dict:
    """Payload of an ndarray or a ValidatedPSD, validated against ``kind``."""
    A = as_matrix(M)
    if A.shape[0] != A.shape[1]:
        raise FormatError(f"matrix files hold square matrices, got shape {A.shape}")
    _validate_kind(M, kind, cfg)
    return _checked_matrix_dict(A, kind)


def _checked_matrix_dict(A: np.ndarray, kind: str) -> dict:
    """``matrix_to_dict`` of a square ndarray its caller has already checked against ``kind``."""
    out = {"schema_version": SCHEMA_VERSION, "kind": kind, "dim": A.shape[0]}
    out.update(_matrix_payload(A))
    return out


def _positive_int(d: dict, name: str) -> int:
    """Field name of d, which must be a positive integer."""
    value = d.get(name)
    if not _is_number(value, int) or value < 1:
        raise FormatError(f"{name} must be a positive integer, got {value!r}")
    return value


def matrix_from_dict(d: dict, cfg: ToleranceConfig = DEFAULT_TOL):
    """Parse and re-validate a matrix payload: (the stored matrix unmodified, its validated value)."""
    _checked_payload(d, "matrix")
    kind = d.get("kind")
    if kind not in MATRIX_KINDS:
        raise FormatError(f"unknown matrix kind {kind!r}")
    dim = _positive_int(d, "dim")
    M = _matrix_from_payload(d, dim, dim, "matrix file")
    return M, _validate_kind(M, kind, cfg)


def channel_to_dict(phi: SuperOperator) -> dict:
    """Serialize a map in the form it holds.

    Its family recipe when it has one, else its Kraus operators, else its
    representation matrix. The form determines the evaluation path on
    reload, matching the original map's path bit for bit.
    """
    out = {"schema_version": SCHEMA_VERSION, "dim_in": phi.dim_in, "dim_out": phi.dim_out}
    if phi.descriptor is not None:
        out["representation"] = "family"
        out["family"] = phi.descriptor["family"]
        out["params"] = dict(phi.descriptor["params"])  # a copy: editing the payload leaves the map as it is
        out["seed"] = phi.descriptor.get("seed")
    elif phi.kraus is not None:
        out["representation"] = "kraus"
        out["kraus"] = [_matrix_payload(K) for K in phi.kraus]
    else:
        out["representation"] = "superop_matrix"
        out.update(_matrix_payload(phi.matrix))
    return out


def choi_to_dict(phi: SuperOperator) -> dict:
    """Serialize a map as its Choi matrix, which reloads certified by the exact Choi test."""
    out = {"schema_version": SCHEMA_VERSION, "dim_in": phi.dim_in, "dim_out": phi.dim_out,
           "representation": "choi"}
    out.update(_matrix_payload(channels.choi(phi)))
    return out


def channel_from_dict(d: dict, cfg: ToleranceConfig = DEFAULT_TOL) -> SuperOperator:
    rep = d.get("representation") if isinstance(d, dict) else None
    _checked_payload(d, "channel", ("family",) if rep == "family" else ())
    dim_in, dim_out = _positive_int(d, "dim_in"), _positive_int(d, "dim_out")
    try:
        if rep == "family":
            phi = channels.construct(d["family"], d.get("params"), d.get("seed"))
        elif rep == "kraus":
            payloads = d.get("kraus")
            if not isinstance(payloads, list) or not payloads:
                raise FormatError("kraus payload must be a nonempty list")
            kraus = [
                _matrix_from_payload(p, dim_out, dim_in, f"kraus[{i}]")
                for i, p in enumerate(payloads)
            ]
            phi = from_kraus(kraus)
        elif rep == "superop_matrix":
            M = _matrix_from_payload(d, dim_out * dim_out, dim_in * dim_in, "superop matrix")
            phi = from_matrix(M)
        elif rep == "choi":
            C = _matrix_from_payload(d, dim_out * dim_in, dim_out * dim_in, "choi matrix")
            phi = from_choi(C, dim_in, cfg)
        else:
            raise FormatError(f"unknown channel representation {rep!r}")
    except DomainError as exc:
        raise FormatError(f"channel payload invalid: {exc}") from exc
    if phi.dim_in != dim_in or phi.dim_out != dim_out:
        raise FormatError(
            f"declared dims ({dim_in}, {dim_out}) do not match "
            f"constructed map ({phi.dim_in}, {phi.dim_out})"
        )
    return phi


def _gap_of(lhs: float, rhs: float) -> float:
    if math.isinf(lhs) and math.isinf(rhs):
        return 0.0
    if math.isinf(lhs):
        return math.inf
    if math.isinf(rhs):
        return -math.inf
    return lhs - rhs


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


def _parts(map_or_descriptor, rho, sigma, alpha, kinds=("psd", "psd")):
    """A thunk returning the witness fields (map_descriptor, rho, sigma, alpha).

    A SuperOperator is serialized; a dict is stored as the map descriptor as it is. The states
    are written under their kinds with no second eigensolve; reading them checks the kinds.
    """
    m = map_or_descriptor
    return lambda: (
        channel_to_dict(m) if isinstance(m, SuperOperator) else m,
        _checked_matrix_dict(as_matrix(rho), kinds[0]),
        _checked_matrix_dict(as_matrix(sigma), kinds[1]),
        alpha,
    )


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
    except FormatError as exc:
        raise FormatError(f"{what} field {name!r}: {exc}") from exc


def witness_from_dict(d: dict) -> Witness:
    """Parse a witness payload; a malformed or self-contradicting one is a FormatError that names the field."""
    _checked_payload(d, "witness", ("map", "rho", "sigma", "lhs", "rhs", "gap"), versioned=False)
    alpha = d.get("alpha")
    if alpha is not None and not (_is_number(alpha, (int, float)) and abs(alpha) <= float(np.finfo(float).max)):
        raise FormatError(f"witness field 'alpha' must be None or a finite real, got {alpha!r}")
    w = Witness(d["map"], d["rho"], d["sigma"], None if alpha is None else float(alpha),
                _extended_field(d, "witness", "lhs"), _extended_field(d, "witness", "rhs"))
    stored = _extended_field(d, "witness", "gap")
    if (stored, math.copysign(1.0, stored)) != (w.gap, math.copysign(1.0, w.gap)):
        raise FormatError(f"witness field 'gap' is {stored!r}, but lhs - rhs is {w.gap!r}")
    return w


def encode_min_gap(min_gap: float | None):
    """A report's min_gap as written: "both-infinite" when no trial recorded a gap (None)."""
    return "both-infinite" if min_gap is None else encode_extended(min_gap)


def report_to_dict(r: CheckReport) -> dict:
    """Canonical report payload; min_gap "both-infinite" means no trial recorded a gap."""
    return {
        "schema_version": SCHEMA_VERSION,
        "suite_name": r.suite_name,
        "seed": int(r.seed),
        "trials": int(r.trials),
        "passes": int(r.passes),
        "escalations": int(r.escalations),
        "min_gap": encode_min_gap(r.min_gap),
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
    _checked_payload(
        d, "report", ("suite_name", "seed", "trials", "passes", "failures", "min_gap", "runtime_ms", "config"))
    for name, kind, word in (("suite_name", str, "a string"), ("config", dict, "an object")):
        if not isinstance(d[name], kind):
            raise FormatError(f"report field {name!r} must be {word}, got {d[name]!r}")
    counts = {name: d.get(name, 0) for name in ("seed", "trials", "passes", "escalations", "runtime_ms")}
    for name, value in counts.items():
        if not _is_number(value, int):
            raise FormatError(f"report field {name!r} must be an integer, got {value!r}")
        if value < 0:
            raise FormatError(f"report field {name!r} must be nonnegative, got {value}")
    if not isinstance(d["failures"], list):
        raise FormatError("report field 'failures' must be a list")
    failures = tuple(witness_from_dict(w) for w in d["failures"])
    trials, passes = counts["trials"], counts.pop("passes")
    if len(failures) > trials:
        raise FormatError(f"report field 'failures' holds {len(failures)} witnesses of {trials} trials")
    if passes != trials - len(failures):
        raise FormatError(f"report field 'passes' is {passes}, not trials - len(failures)")
    if counts["escalations"] > passes:
        raise FormatError(f"report field 'escalations' is {counts['escalations']}, above passes")
    min_gap = None if d["min_gap"] == "both-infinite" else _extended_field(d, "report", "min_gap")
    if failures and (min_gap is None or min_gap > min(w.gap for w in failures)):
        raise FormatError(f"report field 'min_gap' is {d['min_gap']!r}, above a failure's gap")
    outcome, best = d.get("outcome"), d.get("best_witness")
    if outcome not in (None, "violation_found", "inconclusive"):
        raise FormatError(f"report field 'outcome' must be null, 'violation_found' or 'inconclusive', got {outcome!r}")
    if (outcome == "violation_found") != (best is not None):
        raise FormatError(f"report field 'best_witness' must be given exactly when a violation is found, "
                          f"got outcome {outcome!r}")
    return CheckReport(suite_name=d["suite_name"], failures=failures, min_gap=min_gap, config=d["config"],
                       outcome=outcome, best_witness=None if best is None else witness_from_dict(best), **counts)


def divergence_to_dict(family: str, alpha: float | None, value: float) -> dict:
    """The payload of ``qdpi compute``: a divergence family, its alpha (None for relative entropy) and its value."""
    return {"schema_version": SCHEMA_VERSION, "family": family, "alpha": None if alpha is None else float(alpha),
            "value": encode_extended(value)}


def classification_to_dict(phi: SuperOperator, cert, behavior) -> dict:
    """The payload of ``qdpi check-map``: a map's positivity certificate and its trace behavior.

    The spectrum of Phi*(1) gives both the listing and, for a map the
    certificate calls positive, the 1->1 norm ||Phi*(1)||_inf.
    """
    return {
        "schema_version": SCHEMA_VERSION, "dim_in": phi.dim_in, "dim_out": phi.dim_out,
        "certificate": cert.tag, "certificate_reason": cert.reason, "trace_behavior": behavior.tag,
        "choi_min_eigenvalue": encode_extended(cert.choi_min),
        "adjoint_unit_spectrum": [encode_extended(v) for v in behavior.w],
        "one_to_one_norm": encode_extended(behavior.w[-1]) if cert.is_positive else None,
    }
