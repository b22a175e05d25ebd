#!/usr/bin/env python3
"""Benchmark of qdpi's verification suites, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload battery --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0          # every workload, one fresh process each

The last line of standard output is one JSON object with the keys
"correct", "attempted", "failed" and "metrics". With --trace 0 the metrics
are the end-to-end ones (setup_s, wall_s, peak_rss_mib); with --trace 1 they
are the per-layer ones of a traced run (see tracing.METRICS). Exit code 0
means the run finished, whatever its outputs; it is 2 when the checkout has
no qdpi sources to benchmark.
"""

import os

# One BLAS thread, which is never more than nproc: with more, a neighbour
# busy on one core stalls every BLAS barrier and the d^2 x d^2 solves of
# step2 slow down by an order of magnitude. Set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("battery", "step2-large", "violation", "replay")
SETUP_PROBES = 7  # set-up is timed in this many fresh processes; the median is reported
MIN_ROUNDS = 3    # rounds per run at least, so wall_s is a median of three or more


def import_qdpi():
    """Import qdpi from this checkout's src/, never from anywhere else."""
    if not (SRC / "qdpi" / "__init__.py").is_file():
        print(f"no qdpi sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import qdpi
    import qdpi.cli

    if pathlib.Path(qdpi.__file__).resolve().parent != (SRC / "qdpi").resolve():
        print(f"qdpi was imported from {qdpi.__file__}, not from {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return qdpi


def set_up():
    """Import qdpi and make the first call into every layer; returns (qdpi, seconds)."""
    start = time.perf_counter()
    qdpi = import_qdpi()
    with contextlib.redirect_stdout(io.StringIO()):
        qdpi.cli.main(["suite", "counterexample"])
    phi = qdpi.random_cptp(2, seed=0)
    qdpi.serialize.channel_from_dict(qdpi.serialize.channel_to_dict(phi))
    qdpi.sandwiched_renyi(phi.apply([[0.5, 0.1], [0.1, 0.5]]), [[0.5, 0.0], [0.0, 0.5]], 2.0)
    return qdpi, time.perf_counter() - start


def probe_set_up(n: int) -> list:
    """Set-up time of ``n`` fresh processes, run one after another."""
    samples = []
    for _ in range(n):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--setup-probe"],
                              cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode or 1)
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def plain_op(label, fn, *args):
    return fn(*args)


def measure(workload, seconds: float, op, min_rounds: int):
    """Whole rounds until ``seconds`` have passed and at least ``min_rounds`` ran."""
    times, rounds = [], []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        rounds.append(workload.run_round(op))
        end = time.perf_counter()
        times.append(end - start)
        if end - begin >= seconds and len(times) >= min_rounds:
            return times, rounds


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    setup_samples = probe_set_up(SETUP_PROBES)
    qdpi, _ = set_up()
    import tracing
    import workloads

    out_dir = OUT / f"{name}-seed{seed}"
    workload = workloads.WORKLOADS[name](seed, out_dir, size)
    workload.prepare()

    if not trace:
        times, rounds = measure(workload, seconds, plain_op, MIN_ROUNDS)
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "wall_s": (statistics.median(times), "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
        detail = {"rounds": len(times), "round_s": times, "setup_samples_s": setup_samples}
    else:
        untraced, rounds_a = measure(workload, seconds / 2, plain_op, 2)
        tracer = tracing.Tracer()
        tracer.install(qdpi)
        try:
            traced, rounds_b = measure(workload, seconds / 2, tracer.op, 2)
        finally:
            tracer.uninstall()
        rounds = rounds_a + rounds_b
        metrics = tracer.metrics(len(traced), rounds_b[0].attempted,
                                 statistics.fmean(traced), statistics.fmean(untraced))
        trace_path = out_dir / "spans.npz"
        tracer.write(trace_path)
        detail = {"untraced_rounds": len(untraced), "traced_rounds": len(traced), "spans": str(trace_path)}

    problems = workload.check(rounds)
    for problem in problems[:20]:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    detail["workload"] = name
    print(json.dumps(detail))
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        _, seconds = set_up()
        print(json.dumps({"setup_s": seconds}))
        return 0

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)))
        return 0

    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = proc.returncode
            continue
        print(json.dumps({"workload": name, **json.loads(proc.stdout.strip().splitlines()[-1])}))
    return status


if __name__ == "__main__":
    sys.exit(main())
