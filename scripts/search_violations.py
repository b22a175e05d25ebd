#!/usr/bin/env python3
"""Sweep the alpha < 1/2 regime for monotonicity violations.

For each alpha on the grid, runs a random search plus hill climb and prints
the most negative gap found. Witnesses are written as JSON; load one with
`qdpi.harness.witness_from_dict` and re-evaluate it with
`qdpi.harness.replay_witness`.

Example:
    python3 scripts/search_violations.py --alphas 0.1,0.2,0.3,0.4 --trials 20000
"""

import argparse
import pathlib
import sys

from qdpi import harness, serialize


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--alphas", default="0.1,0.2,0.3,0.4,0.45")
    parser.add_argument("--dims", default="2,3")
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--hill-steps", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out-dir", default="violation_witnesses")
    args = parser.parse_args()

    alphas = [float(a) for a in args.alphas.split(",") if a.strip()]
    dims = tuple(int(d) for d in args.dims.split(",") if d.strip())
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    found_any = False
    for alpha in alphas:
        report = harness.violation_search(
            alpha, dims=dims, trials=args.trials, seed=args.seed, hill_steps=args.hill_steps
        )
        if report.best_witness is not None:
            found_any = True
            w = report.best_witness
            path = out / f"witness_alpha_{alpha:.3f}.json"
            serialize.save_json(path, harness.witness_to_dict(w))
            check = harness.replay_witness(w, alpha_override=2.0)
            print(f"alpha={alpha:.3f}: {len(report.failures)} violations in {report.trials} trials, "
                  f"best gap {w.gap:+.6f} (at alpha=2 the gap is {check.gap:+.6f}); wrote {path}")
        else:
            print(f"alpha={alpha:.3f}: inconclusive "
                  f"(best gap {report.min_gap:+.6f} over {report.trials} trials)")

    return 0 if found_any else 1


if __name__ == "__main__":
    sys.exit(main())
