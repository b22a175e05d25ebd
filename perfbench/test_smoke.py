"""Smoke test of the benchmark itself, at tiny sizes; not a timing gate.

    python3 -m pytest perfbench/test_smoke.py

Checks the output schema against BENCHMARK.json, the traced run's self-time
accounting, the refusal to run without qdpi sources, and that each
workload's check rejects a deliberately wrong reference value.
"""

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_output_schema(workload, trace):
    result = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                                 "--trace", str(trace), "--size", "tiny"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if workload == "replay":
        w = workloads.Replay(3, HERE / "out" / "smoke", "tiny")
        w.prepare()
        defects = sum(kind == "defect" for _, kind, _, _ in w.ops)
        assert result["failed"] * len(w.ops) == result["attempted"] * defects
    else:
        assert result["failed"] == 0
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["trace.self_sum_s"] <= metrics["trace.wall_s"]
        assert metrics["linalg.eigensolver_calls"] > 0 and metrics["cli.commands"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "replay", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def plain_op(label, fn, *args):
    return fn(*args)


def offset(fn, delta):
    return lambda *args: fn(*args) + delta


WRONG_REFERENCES = {
    "battery": ("COUNTEREXAMPLE_AFTER", lambda v: v + 1e-3),
    "step2-large": ("relative_entropy", lambda f: offset(f, 1e-3)),
    "violation": ("sandwiched_renyi", lambda f: lambda *a: f(*a) * (1 + 1e-3)),
    "replay": ("classical_kl", lambda f: offset(f, 1e-3)),
}


@pytest.mark.parametrize("name", sorted(WRONG_REFERENCES))
def test_check_rejects_wrong_reference(name, monkeypatch, tmp_path):
    def checked_round():
        w = workloads.WORKLOADS[name](5, tmp_path, "tiny")
        w.prepare()
        return w.check([w.run_round(plain_op)])

    assert checked_round() == []
    attr, corrupt = WRONG_REFERENCES[name]
    monkeypatch.setattr(oracles, attr, corrupt(getattr(oracles, attr)))
    assert checked_round() != []
