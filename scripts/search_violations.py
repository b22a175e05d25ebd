#!/usr/bin/env python3
"""Sweep the alpha < 1/2 regime for monotonicity violations.

For each alpha on the grid, runs ``qdpi suite violation`` (a random search
plus hill climb), which prints its summary line and writes its report to
``<out-dir>/violation_alpha_<alpha>.json``. For each witness found, the
script also prints the gap the witness has at alpha = 2, where the sandwiched
divergence is monotone. A report's ``best_witness`` loads with
`qdpi.harness.report_from_dict` and re-evaluates with
`qdpi.harness.replay_witness`, which reads only the witness: the alpha = 2
gap is the replay of ``dataclasses.replace(w, alpha=2.0)``.

Exits 0 when some alpha found a violation and 1 when none did. A bad
argument stops the sweep with the CLI's one-line error and exit code.

Example:
    python3 scripts/search_violations.py --alphas 0.1,0.2,0.3,0.4 --trials 20000
"""

import argparse
import dataclasses
import pathlib
import sys

from qdpi import cli, harness, serialize


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", default="0.1,0.2,0.3,0.4,0.45")
    parser.add_argument("--dims", default="2,3")
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--hill-steps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="violation_witnesses")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    found_any = False
    for alpha in (a.strip() for a in args.alphas.split(",") if a.strip()):
        path = out / f"violation_alpha_{alpha}.json"
        code = cli.main(["suite", "violation", "--alpha", alpha, "--dims", args.dims,
                         "--trials", str(args.trials), "--hill-steps", str(args.hill_steps),
                         "--seed", str(args.seed), "--out", str(path)])
        if code not in (cli.EXIT_PASS, cli.EXIT_SUITE_FAILURE):
            return code
        w = harness.report_from_dict(serialize.load_json(path)).best_witness
        if w is not None:
            found_any = True
            check = harness.replay_witness(dataclasses.replace(w, alpha=2.0))
            print(f"alpha={alpha}: best gap {w.gap:+.6f} (at alpha=2 the gap is {check.gap:+.6f}); wrote {path}")

    return 0 if found_any else 1


if __name__ == "__main__":
    sys.exit(main())
