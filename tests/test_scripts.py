"""The runner scripts at tiny sizes: they write what they say, and exit as they say."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

from qdpi.harness import replay_witness, report_from_dict
from qdpi.serialize import load_json

ROOT = pathlib.Path(__file__).resolve().parents[1]
BATTERY_REPORTS = (
    "counterexample", "dpi_tp", "dpi_tni", "dpi_trace_match", "contraction",
    "step2", "auxiliary", "alpha_limit", "violation",
)


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, str(ROOT / "scripts" / name), *map(str, args)]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def import_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a violation search of 0 trials is inconclusive, which fails that suite
@pytest.mark.parametrize("violation_trials", [20, 0])
def test_full_battery_writes_one_report_per_suite(tmp_path, violation_trials):
    proc = run_script(
        "run_full_battery.py", "--seed", 1, "--out-dir", tmp_path, "--dpi-trials", 5,
        "--trace-match-trials", 5, "--contraction-instances", 1, "--contraction-trials", 2,
        "--step2-dim", 4, "--auxiliary-trials", 3, "--limit-pairs", 2,
        "--violation-trials", violation_trials,
    )
    assert sorted(p.stem for p in tmp_path.glob("*.json")) == sorted(BATTERY_REPORTS)
    reports = {name: report_from_dict(load_json(tmp_path / f"{name}.json")) for name in BATTERY_REPORTS}
    passed = all(r.passed for r in reports.values())
    assert passed == (violation_trials > 0)
    assert proc.returncode == (0 if passed else 1), proc.stderr


def test_violation_search_witnesses_replay_to_their_stored_gap(tmp_path):
    proc = run_script(
        "search_violations.py", "--alphas", "0.2,0.3", "--dims", 2, "--trials", 100,
        "--hill-steps", 200, "--seed", 1, "--out-dir", tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    paths = sorted(tmp_path.glob("violation_alpha_*.json"))
    assert [p.name for p in paths] == ["violation_alpha_0.2.json", "violation_alpha_0.3.json"]
    for path in paths:
        w = report_from_dict(load_json(path)).best_witness
        assert w is not None and w.gap < 0.0
        assert replay_witness(w).gap == w.gap


def test_violation_search_bad_alpha_is_one_line_error(tmp_path):
    proc = run_script("search_violations.py", "--alphas", "0.7", "--trials", 2, "--out-dir", tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("precondition error:") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not list(tmp_path.glob("*.json"))


def test_report_digests_are_stable_across_runs():
    commands = ("counterexample", "dpi --trials 5 --dims 2,3 --seed 2", "auxiliary --dims 1 --trials 2")
    runs = [run_script("report_digests.py", *commands) for _ in range(2)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    lines = runs[0].stdout.splitlines()
    assert runs[1].stdout.splitlines() == lines
    assert [line.split(" ", 2)[2] for line in lines] == list(commands)
    # exit code and digest; a suite that stops on a precondition writes no report
    assert [line.split()[0] for line in lines] == ["0", "0", "3"]
    assert len(lines[0].split()[1]) == 64 and lines[2].split()[1] == "-"


def test_check_map_digests_are_stable_across_runs(tmp_path):
    script = import_script("report_digests")
    out = tmp_path / "report.json"
    reports = {}
    for label, argv in script.file_commands(tmp_path):
        code, sha = script.digest(argv, out)
        assert code == 0 and len(sha) == 64, label
        assert script.digest(argv, out) == (code, sha), label
        reports[label] = load_json(out)
    assert len(reports) == len(script.check_map_inputs()) + 2 * len(script.COMPUTE_FAMILIES)
    # the probes falsify one map; every probe of the held transpose map stays positive
    assert reports["check-map superop-falsified-d5"]["certificate"] == "falsified"
    assert reports["check-map superop-transpose-d3"]["certificate"] == "unverified"
    # the rank-deficient pair keeps rho within the support of sigma
    values = [r["value"] for label, r in reports.items() if label.startswith("compute")]
    assert all(isinstance(v, float) and v > 0.0 for v in values)
