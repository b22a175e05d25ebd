#!/usr/bin/env python3
"""Run every verification suite and write one report file per suite.

Each suite runs through ``qdpi suite``, which prints its summary line and
decides its pass rule. A size or seed left out is the suite's own default,
except the trace-match trial count, which is this script's. Exits 1 when
any suite fails or errs.

Example:
    python3 scripts/run_full_battery.py --seed 0 --out-dir reports
"""

import argparse
import pathlib
import sys

from qdpi import cli


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out-dir", default="reports")
    parser.add_argument("--dpi-trials", type=int, default=None)
    parser.add_argument("--trace-match-trials", type=int, default=500)
    parser.add_argument("--contraction-instances", type=int, default=None)
    parser.add_argument("--contraction-trials", type=int, default=None)
    parser.add_argument("--step2-dim", type=int, default=None)
    parser.add_argument("--auxiliary-trials", type=int, default=None)
    parser.add_argument("--limit-pairs", type=int, default=None)
    parser.add_argument("--violation-trials", type=int, default=None)
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # (report name, suite, {flag: value}); a flag whose value is None is not passed
    runs = [
        ("counterexample", "counterexample", {}),
        ("dpi_tp", "dpi", {"--mode": "tp", "--trials": args.dpi_trials}),
        ("dpi_tni", "dpi", {"--mode": "tni", "--trials": args.dpi_trials}),
        ("dpi_trace_match", "dpi", {"--mode": "trace-match", "--trials": args.trace_match_trials}),
        ("contraction", "contraction", {"--instances": args.contraction_instances,
                                        "--trials": args.contraction_trials}),
        ("step2", "step2", {"--dims": args.step2_dim}),
        ("auxiliary", "auxiliary", {"--trials": args.auxiliary_trials}),
        ("alpha_limit", "alpha-limit", {"--trials": args.limit_pairs}),
        ("violation", "violation", {"--trials": args.violation_trials}),
    ]

    all_ok = True
    for name, suite, flags in runs:
        # the counterexample suite is a fixed instance and reads no seed
        if suite != "counterexample":
            flags["--seed"] = args.seed
        given = [str(word) for flag, value in flags.items() if value is not None for word in (flag, value)]
        argv = ["suite", suite, *given, "--out", str(out / f"{name}.json")]
        all_ok = cli.main(argv) == cli.EXIT_PASS and all_ok

    print(f"reports written to {out}/")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
