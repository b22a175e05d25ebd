"""Command line front end: divergence evaluation, map vetting, suite runs.

Exit codes: 0 success (or suite pass), 1 suite failure, 2 input or format
error (or an input too large for memory), 3 precondition (domain) error, 4
internal numerical error (an eigensolver that did not converge, or a witness
that did not replay to its stored gap). Each error prints one line on stderr.
Reports are canonical JSON; the file formats are serialize's, and a rerun
with the same seed and parameters is byte-identical modulo runtime_ms.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

import numpy as np

from . import harness, serialize
from .channels import classify, trace_behavior
from .divergences import old_renyi, relative_entropy, sandwiched_renyi
from .linalg import DEFAULT_TOL, DomainError, EigensolverError, ToleranceConfig
from .serialize import FormatError

EXIT_PASS = 0
EXIT_SUITE_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_PRECONDITION_ERROR = 3
EXIT_NUMERICAL_ERROR = 4

# argparse dest of each --tolerance-* flag: (the ToleranceConfig field it sets, help); a command
# adds those it reads (check-map: its Choi test and probes; compute: all but the gap's slack)
_TOLERANCE_FLAGS = {
    "tolerance_support_cutoff": ("support_cutoff", "relative eigenvalue cutoff defining numerical support"),
    "tolerance_psd": ("psd_tolerance", "allowed negative eigenvalue magnitude in PSD validation"),
    "tolerance_slack": ("monotonicity_slack", "slack applied to monotonicity gaps before failing a trial"),
    "tolerance_hermiticity": ("hermiticity_tolerance", "allowed Hermiticity defect on inputs"),
    "tolerance_containment": ("containment_tolerance", "relative leaked mass allowed by the support containment test"),
    "tolerance_projector": ("projector_tolerance", "allowed deviation from idempotence for projectors"),
}
_NO_SLACK = tuple(dest for dest in _TOLERANCE_FLAGS if dest != "tolerance_slack")
_SPECTRAL = ("tolerance_support_cutoff", "tolerance_psd", "tolerance_hermiticity")

# each suite's harness entry point, looked up when the suite runs, and the flags (argparse
# dests) it reads: its suite flags, then the --tolerance-* flags of the fields its checks read;
# every suite also reads --out, and any other flag given is an input error
SUITES = {
    "dpi": ("randomized_dpi_suite", ("mode", "dims", "trials", "seed", "alpha", *_TOLERANCE_FLAGS)),
    "counterexample": ("counterexample_suite", _NO_SLACK),
    "contraction": ("contraction_battery", ("instances", "dims", "alpha", "trials", "seed", *_SPECTRAL)),
    "step2": ("step2_battery", ("dims", "n_sequence", "seed", *_NO_SLACK)),
    "auxiliary": ("auxiliary_inequality_suite", ("trials", "dims", "seed", *_NO_SLACK)),
    "alpha-limit": ("alpha_limit_battery", ("trials", "dims", "seed", *_SPECTRAL, "tolerance_containment")),
    "violation": ("violation_search", ("alpha", "dims", "trials", "seed", "hill_steps", "allow_inconclusive", *_SPECTRAL)),
}


def _add_tolerance_flags(parser: argparse.ArgumentParser, dests=tuple(_TOLERANCE_FLAGS)) -> None:
    for dest in dests:
        parser.add_argument("--" + dest.replace("_", "-"), type=float, default=None, help=_TOLERANCE_FLAGS[dest][1])


def _config_from_args(args) -> ToleranceConfig:
    overrides = {field: getattr(args, dest) for dest, (field, _) in _TOLERANCE_FLAGS.items()
                 if getattr(args, dest, None) is not None}
    return dataclasses.replace(DEFAULT_TOL, **overrides) if overrides else DEFAULT_TOL


def _require_nonnegative(args, *dests) -> None:
    """Counts and seeds given on the command line must be nonnegative."""
    for dest in dests:
        value = getattr(args, dest)
        if value is not None and value < 0:
            raise FormatError(f"--{dest.replace('_', '-')} must be nonnegative, got {value}")


def _parse_list(text: str, flag: str, convert) -> tuple:
    """A comma separated list of at least one value of the given type."""
    try:
        values = tuple(convert(p) for p in text.split(",") if p.strip())
    except ValueError as exc:
        raise FormatError(f"bad {flag} value {text!r}") from exc
    if not values:
        raise FormatError(f"{flag} needs at least one value")
    return values


def _single(values: tuple, flag: str, name: str):
    if len(values) != 1:
        raise FormatError(f"suite {name} takes one {flag} value, got {len(values)}")
    return values[0]


def _load_matrix(path: str, cfg: ToleranceConfig):
    # the validated value, so each operator is diagonalized once
    _, value = serialize.matrix_from_dict(serialize.load_json(path), cfg)
    return value


def _emit(payload: dict, out: str | None) -> None:
    print(serialize.canonical_json(payload))
    if out:
        serialize.save_json(out, payload)


def _cmd_compute(args) -> int:
    cfg = _config_from_args(args)
    rho = _load_matrix(args.rho, cfg)
    sigma = _load_matrix(args.sigma, cfg)
    family = args.family
    if family == "umegaki":
        if args.alpha is not None:
            raise DomainError("--alpha applies only to Renyi families")
        value = relative_entropy(rho, sigma, cfg)
    else:
        if args.alpha is None:
            raise DomainError(f"the {family} family requires --alpha")
        fn = sandwiched_renyi if family == "sandwiched" else old_renyi
        value = fn(rho, sigma, float(args.alpha), cfg)
    _emit(serialize.divergence_to_dict(family, args.alpha, value), args.out)
    return EXIT_PASS


def _cmd_check_map(args) -> int:
    _require_nonnegative(args, "samples", "seed")
    cfg = _config_from_args(args)
    phi = serialize.channel_from_dict(serialize.load_json(args.map), cfg)
    cert = classify(phi, cfg, sample_count=args.samples, seed=args.seed)
    behavior = trace_behavior(phi)
    if cert.choi_min is None:
        raise DomainError("the Choi matrix is not Hermitian")
    _emit(serialize.classification_to_dict(phi, cert, behavior), args.out)
    return EXIT_PASS


def _summary_line(report, ok: bool) -> str:
    status = "PASS" if ok else "FAIL"
    gap = serialize.encode_min_gap(report.min_gap)
    extra = f", outcome {report.outcome}" if report.outcome else ""
    return (
        f"{report.suite_name}: {status} ({report.passes}/{report.trials} trials, "
        f"min gap {gap}, {report.escalations} escalations{extra}, {report.runtime_ms} ms)"
    )


def _suite_options(args) -> dict:
    """The suite options given on the command line, which the named suite must read."""
    unread = set().union(*(flags for _, flags in SUITES.values())) - set(SUITES[args.name][1])
    for flag in sorted(unread):
        value = getattr(args, flag)
        if value is not None and value is not False:
            raise FormatError(f"suite {args.name} does not read --{flag.replace('_', '-')}")
    _require_nonnegative(args, "seed", "trials", "instances", "hill_steps")
    cfg = _config_from_args(args)
    options = {
        "mode": args.mode.replace("-", "_") if args.mode else None,
        "seed": args.seed,
        "trials": args.trials,
        "dims": _parse_list(args.dims, "--dims", int) if args.dims is not None else None,
        "alphas": _parse_list(args.alpha, "--alpha", float) if args.alpha is not None else None,
        "instances": args.instances,
        "n_sequence": _parse_list(args.n_sequence, "--n-sequence", int) if args.n_sequence is not None else None,
        "hill_steps": args.hill_steps,
        "cfg": None if cfg is DEFAULT_TOL else cfg,
    }
    return {k: v for k, v in options.items() if v is not None}


def _cmd_suite(args) -> int:
    name = args.name
    options = _suite_options(args)  # the harness defaults the rest
    if name == "step2" and "dims" in options:
        options["d"] = _single(options.pop("dims"), "--dims", name)
    if name == "violation" and "alphas" in options:
        options["alpha"] = _single(options.pop("alphas"), "--alpha", name)
    report = getattr(harness, SUITES[name][0])(**options)

    ok = report.passed or (name == "violation" and args.allow_inconclusive)
    if args.out:
        serialize.save_json(args.out, serialize.report_to_dict(report))
    print(_summary_line(report, ok))
    return EXIT_PASS if ok else EXIT_SUITE_FAILURE


# one parser per process, shared by every main() call: callers must not mutate it
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qdpi",
        description="Divergence monotonicity checks for positive matrix maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="evaluate a divergence on two serialized matrices")
    p.add_argument("--family", choices=("umegaki", "sandwiched", "old"), default="umegaki")
    p.add_argument("--rho", required=True, help="JSON file holding the first operator")
    p.add_argument("--sigma", required=True, help="JSON file holding the second operator")
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--out", default=None, help="also write the result JSON here")
    _add_tolerance_flags(p, _NO_SLACK)
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("check-map", help="classify a serialized map (positivity, trace behavior)")
    p.add_argument("--map", required=True, help="JSON file holding the map")
    p.add_argument("--samples", type=int, default=256, help="states sampled when falsifying positivity")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    _add_tolerance_flags(p, ("tolerance_hermiticity", "tolerance_psd"))
    p.set_defaults(func=_cmd_check_map)

    p = sub.add_parser("suite", help="run a named verification suite")
    p.add_argument("name", choices=SUITES)
    p.add_argument("--mode", choices=("tp", "tni", "trace-match"), default=None,
                   help="(dpi) theorem variant, tp when not given")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--dims", default=None, help="comma separated dimensions, e.g. 2,3,4")
    p.add_argument("--alpha", default=None, help="comma separated alpha values")
    p.add_argument("--instances", type=int, default=None, help="(contraction) number of map/state instances")
    p.add_argument("--n-sequence", default=None, help="(step2) comma separated truncation ranks")
    p.add_argument("--hill-steps", type=int, default=None,
                   help="(violation) local refinement steps after the random search")
    p.add_argument("--allow-inconclusive", action="store_true",
                   help="(violation) exit 0 even when no violating witness is found")
    p.add_argument("--out", default=None, help="write the full report JSON here")
    _add_tolerance_flags(p)
    p.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:
        print("input error: not enough memory for this input", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except DomainError as exc:
        print(f"precondition error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION_ERROR
    except (EigensolverError, np.linalg.LinAlgError, harness.ReplayMismatch) as exc:
        print(f"internal numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
