#!/usr/bin/env python3
"""Print the exit code and report digest of `qdpi suite` commands.

Each argument is one `qdpi suite` command line without the leading
`qdpi suite`, for example "dpi --mode tp --trials 300 --seed 44". With no
arguments the script runs a fixed set of acceptance commands (the last four
fail on purpose, with exit code 1, so that their reports hold the failure
witnesses of the threshold suites), then writes a fixed set of map files
(every representation, a map that sampling falsifies, the d = 16 reduction
map, recipes with real-valued params, a 3 -> 2 map as Kraus operators and as
a Choi matrix) and runs `qdpi check-map` on each, then writes a full-rank and a rank-deficient
state pair and runs `qdpi compute` on each for the relative entropy, the
sandwiched divergence at alpha = 0.3 and 2 and the old Renyi divergence at
alpha = 2. For each command it prints one line: the exit code, the sha256
of the canonical report with `runtime_ms` set to 0 ("-" when the command
wrote no report), and the command, `check-map <map name>` or
`compute <pair name> <family> [alpha]`. Each suite report is read back
through `qdpi.harness.report_from_dict` before it is digested; a report
that the reader rejects stops the script with one line on stderr that
names the command, and exit code 2.
Two checkouts whose reports agree byte for byte, apart from `runtime_ms`,
print the same lines, so comparing the output of

    PYTHONPATH=src python3 scripts/report_digests.py

on both checks that a change left every report as it was.
"""

import argparse
import contextlib
import hashlib
import io
import pathlib
import shlex
import sys
import tempfile

import numpy as np

from qdpi import cli, harness, serialize
from qdpi.channels import (
    damped_cptp,
    depolarizing_map,
    from_kraus,
    from_matrix,
    identity_map,
    random_cptp,
    random_positive_noncp,
    reduction_map,
    transpose_map,
)
from qdpi.sampling import random_density, random_unitary, rng_for_trial

ACCEPTANCE_COMMANDS = (
    "dpi --mode tp --dims 2,3,4,5,6 --trials 300 --seed 44",
    "dpi --mode tni --dims 2,3,4,5,6 --trials 300 --seed 44",
    "dpi --mode trace-match --dims 2,3,4,5,6 --trials 300 --seed 44",
    "contraction --instances 6 --trials 20 --dims 2,3,4,5,6 --seed 44",
    "auxiliary --trials 50 --seed 44",
    "step2 --dims 16 --seed 44",
    "step2 --dims 32 --seed 0",
    "counterexample",
    "violation --alpha 0.3 --dims 2 --trials 2000 --hill-steps 1500 --seed 44",
    "violation --alpha 0.3 --dims 2,3 --trials 600 --hill-steps 100 --seed 7",
    "violation --alpha 0.2 --dims 3 --trials 300 --hill-steps 0 --seed 9",
    # a violation found with no climb: the best witness is a trial's
    "violation --alpha 0.3 --dims 2,3 --trials 600 --hill-steps 0 --seed 7",
    # no trial violates: the witness is the d = 3 climb's, whose last stack of proposals is short
    "violation --alpha 0.2 --dims 3 --trials 300 --hill-steps 203 --seed 4",
    "alpha-limit --trials 20 --seed 44",
    "dpi --mode tni --dims 2,3 --trials 200 --seed 5 --tolerance-slack 1e-18",
    # every pick from a list that is not its suite's default
    "dpi --mode tni --dims 3,5 --alpha 1.5,2,4 --trials 200 --seed 12",
    "alpha-limit --dims 2,5 --trials 30 --seed 8",
    "contraction --instances 4 --dims 3,4 --alpha 1.5,2 --trials 10 --seed 8",
    "auxiliary --dims 3,4 --trials 40 --seed 12",
    # a default the harness holds: dpi's mode, violation's alpha, alpha-limit's pairs
    "dpi --trials 50 --seed 3",
    "violation --trials 300 --hill-steps 50 --seed 3",
    "alpha-limit",
    "alpha-limit --dims 3 --seed 5",
    # a tolerance flag that a suite other than dpi reads
    "violation --alpha 0.3 --dims 2 --trials 300 --hill-steps 50 --seed 3 --tolerance-psd 1e-9",
    "alpha-limit --trials 20 --seed 44 --tolerance-containment 1e-6",
    "contraction --instances 3 --trials 10 --seed 3 --tolerance-support-cutoff 1e-10",
    # one dimension: each chunk of dpi trials holds a single dimension
    "dpi --mode tni --dims 4 --trials 300 --seed 8",
    # stacks of probes and of auxiliary trials: p = 1, a large p and an odd probe count,
    # empty probe stacks, a stack of one trial, and no trials
    "contraction --instances 3 --dims 2,5 --alpha 1,7.5 --trials 9 --seed 5",
    "contraction --instances 2 --trials 0 --seed 1",
    "auxiliary --dims 2 --trials 1 --seed 9",
    "auxiliary --trials 0 --seed 2",
    # seeds at the 32-bit boundary of the batched trial streams: at 2**32 every stream
    # comes from default_rng, and 2**32 - 1 is the largest seed derived in batches
    "dpi --mode trace-match --dims 2,3,4,5,6 --trials 300 --seed 4294967296",
    "contraction --instances 3 --trials 7 --seed 4294967295",
    # a coarse support cutoff fails threshold checks on purpose (exit 1), so these
    # reports hold the failure witnesses of step2, alpha-limit, auxiliary and counterexample
    "step2 --dims 6 --seed 0 --tolerance-support-cutoff 0.3",
    "alpha-limit --trials 10 --seed 3 --tolerance-support-cutoff 0.3",
    "auxiliary --trials 20 --seed 3 --tolerance-support-cutoff 0.3",
    "counterexample --tolerance-support-cutoff 0.6",
)


def check_map_inputs() -> dict:
    """{map name: (map payload, --seed)} of the `check-map` runs."""
    transpose_minus_half = transpose_map(5).matrix - 0.5 * identity_map(5).matrix
    rectangular = random_cptp(3, d_out=2, kraus_rank=2, seed=6)
    return {
        "family-noncp-d3": (serialize.channel_to_dict(random_positive_noncp(3, seed=2)), 0),
        "family-reduction-d16": (serialize.channel_to_dict(reduction_map(16)), 1),
        "kraus-cptp-d4": (serialize.channel_to_dict(from_kraus(random_cptp(4, seed=5).kraus)), 0),
        "superop-transpose-d3": (serialize.channel_to_dict(from_matrix(transpose_map(3).matrix)), 2),
        # X -> X^T - X/2 sends some pure states to a negative eigenvalue
        "superop-falsified-d5": (serialize.channel_to_dict(from_matrix(transpose_minus_half)), 3),
        "choi-reduction-d4": (serialize.choi_to_dict(reduction_map(4)), 4),
        # recipes with real-valued params, which construct binds through the family table
        "family-depolarizing-d3": (serialize.channel_to_dict(depolarizing_map(3, 0.25)), 0),
        "family-damped-d3": (serialize.channel_to_dict(damped_cptp(3, 2, 0.5, seed=3)), 1),
        # a rectangular map, whose two dimensions are read off its operator
        "kraus-cptp-3to2": (serialize.channel_to_dict(from_kraus(rectangular.kraus)), 0),
        "choi-cptp-3to2": (serialize.choi_to_dict(rectangular), 0),
    }


COMPUTE_FAMILIES = (("umegaki", None), ("sandwiched", "0.3"), ("sandwiched", "2"), ("old", "2"))


def compute_inputs() -> dict:
    """{pair name: (rho payload, sigma payload)} of the `compute` runs, both of kind psd."""
    rng = rng_for_trial(44, 0)
    U = random_unitary(rng, 4)
    # rank 2 within rank 3: every divergence is finite, and each matrix has
    # eigenvalues at zero, off its support
    rank_deficient = [U @ np.diag(w) @ U.conj().T for w in ([0.0, 0.0, 0.4, 0.6], [0.0, 0.2, 0.3, 0.5])]
    pairs = {"full-rank-d3": (random_density(rng, 3), random_density(rng, 3)), "rank-deficient-d4": rank_deficient}
    return {name: tuple(serialize.matrix_to_dict(M, "psd") for M in pair) for name, pair in pairs.items()}


def file_commands(tmp: pathlib.Path) -> list:
    """[(label, argv)] of the `check-map` and `compute` runs, their input files written to tmp."""
    commands = []
    for name, (payload, seed) in check_map_inputs().items():
        path = tmp / f"{name}.json"
        serialize.save_json(path, payload)
        commands.append((f"check-map {name}", ["check-map", "--map", str(path), "--seed", str(seed)]))
    for name, payloads in compute_inputs().items():
        paths = [tmp / f"{name}-{side}.json" for side in ("rho", "sigma")]
        for path, payload in zip(paths, payloads):
            serialize.save_json(path, payload)
        for family, alpha in COMPUTE_FAMILIES:
            argv = ["compute", "--family", family, "--rho", str(paths[0]), "--sigma", str(paths[1])]
            label = f"compute {name} {family}"
            if alpha is not None:
                argv += ["--alpha", alpha]
                label += f" {alpha}"
            commands.append((label, argv))
    return commands


def digest(argv: list, out: pathlib.Path) -> tuple[int, str]:
    """(exit code, report digest or "-") of one qdpi command that writes its report to out.

    A suite report is read back first; one its reader rejects raises the reader's FormatError.
    """
    out.unlink(missing_ok=True)
    # a suite's summary line carries the runtime, so it is not part of the digest
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([*argv, "--out", str(out)])
    if not out.exists():
        return code, "-"
    report = serialize.load_json(out)
    if argv[0] == "suite":
        harness.report_from_dict(report)
    if "runtime_ms" in report:
        report["runtime_ms"] = 0
    return code, hashlib.sha256(serialize.canonical_json(report).encode("ascii")).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("commands", nargs="*",
                        help="suite command lines, each one argument (default: the fixed set, then check-map)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "report.json"
        runs = [(command, ["suite", *shlex.split(command)]) for command in args.commands or ACCEPTANCE_COMMANDS]
        if not args.commands:
            runs += file_commands(pathlib.Path(tmp))
        for label, argv in runs:
            try:
                code, sha = digest(argv, out)
            except serialize.FormatError as exc:
                print(f"{label}: report rejected: {exc}", file=sys.stderr)
                return 2
            print(f"{code} {sha} {label}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
