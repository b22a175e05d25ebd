import dataclasses
import inspect
import json
import math
import sys
import warnings

import numpy as np
import pytest

from qdpi import channels, cli, harness, serialize
from qdpi.channels import choi, counterexample_map, from_kraus, from_matrix, random_cptp, transpose_map
from qdpi.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NUMERICAL_ERROR,
    EXIT_PASS,
    EXIT_PRECONDITION_ERROR,
    EXIT_SUITE_FAILURE,
    SUITES,
    main,
)
from qdpi.divergences import sandwiched_renyi
from qdpi.harness import report_from_dict
from qdpi.linalg import ToleranceConfig
from qdpi.sampling import random_density, rng_for_trial


@pytest.fixture
def state_files(tmp_path):
    rho = np.diag([1 / 3, 2 / 3]).astype(complex)
    sigma = np.diag([2 / 3, 1 / 3]).astype(complex)
    rho_path = tmp_path / "rho.json"
    sigma_path = tmp_path / "sigma.json"
    serialize.save_json(rho_path, serialize.matrix_to_dict(rho, "density"))
    serialize.save_json(sigma_path, serialize.matrix_to_dict(sigma, "density"))
    return str(rho_path), str(sigma_path)


def test_compute_umegaki(state_files, capsys):
    rho_path, sigma_path = state_files
    assert main(["compute", "--rho", rho_path, "--sigma", sigma_path]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["family"] == "umegaki"
    assert payload["value"] == pytest.approx(math.log(2) / 3, abs=1e-12)


def test_compute_sandwiched_with_alpha(state_files, capsys):
    rho_path, sigma_path = state_files
    rc = main(["compute", "--family", "sandwiched", "--alpha", "2", "--rho", rho_path, "--sigma", sigma_path])
    assert rc == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["alpha"] == 2.0
    assert payload["value"] == pytest.approx(math.log(1.5), abs=1e-12)


def test_compute_infinite_value_encoding(tmp_path, capsys):
    pure = tmp_path / "pure.json"
    low = tmp_path / "low.json"
    serialize.save_json(pure, serialize.matrix_to_dict(np.diag([1.0, 0.0]), "density"))
    serialize.save_json(low, serialize.matrix_to_dict(np.diag([0.0, 1.0]), "density"))
    assert main(["compute", "--rho", str(pure), "--sigma", str(low)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == "+inf"


def test_compute_writes_out_file(state_files, tmp_path, capsys):
    rho_path, sigma_path = state_files
    out = tmp_path / "result.json"
    assert main(["compute", "--rho", rho_path, "--sigma", sigma_path, "--out", str(out)]) == EXIT_PASS
    stdout = capsys.readouterr().out.strip()
    assert out.read_text().strip() == stdout


def test_compute_missing_file_is_input_error(state_files, capsys):
    _, sigma_path = state_files
    rc = main(["compute", "--rho", "/nonexistent/rho.json", "--sigma", sigma_path])
    assert rc == EXIT_INPUT_ERROR
    assert "input error" in capsys.readouterr().err


def test_compute_missing_alpha_is_precondition_error(state_files, capsys):
    rho_path, sigma_path = state_files
    rc = main(["compute", "--family", "sandwiched", "--rho", rho_path, "--sigma", sigma_path])
    assert rc == EXIT_PRECONDITION_ERROR
    assert "precondition error" in capsys.readouterr().err


def test_compute_on_equal_states_prints_a_float_zero(state_files, capsys):
    rho_path, _ = state_files
    assert main(["compute", "--rho", rho_path, "--sigma", rho_path]) == EXIT_PASS
    out = capsys.readouterr().out
    assert '"value": 0.0' in out
    assert isinstance(json.loads(out)["value"], float)


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "dpi", "--mode", "tni", "--alpha", "inf", "--trials", "3"],
        ["suite", "contraction", "--alpha", "inf", "--instances", "1", "--trials", "2"],
        ["compute", "--family", "sandwiched", "--alpha", "inf"],
        ["compute", "--family", "old", "--alpha", "inf"],
        ["compute", "--family", "umegaki", "--alpha", "2"],
    ],
    ids=["dpi-tni", "contraction", "compute-sandwiched", "compute-old", "compute-umegaki"],
)
def test_out_of_domain_alpha_is_precondition_error(state_files, tmp_path, capsys, argv):
    # a non-finite alpha, or one given to relative entropy, is rejected before any evaluation
    out = tmp_path / "out.json"
    if argv[0] == "compute":
        argv = argv + ["--rho", state_files[0], "--sigma", state_files[1]]
    assert main(argv + ["--out", str(out)]) == EXIT_PRECONDITION_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition error:") and captured.err.count("\n") == 1
    assert not out.exists()


def test_check_map_reports_certificate_and_trace_behavior(tmp_path, capsys):
    path = tmp_path / "map.json"
    serialize.save_json(path, serialize.channel_to_dict(counterexample_map()))
    assert main(["check-map", "--map", str(path)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] == "completely_positive"
    assert payload["trace_behavior"] == "nonincreasing"
    assert payload["one_to_one_norm"] == pytest.approx(1.0, abs=1e-10)
    assert sorted(payload["adjoint_unit_spectrum"]) == pytest.approx([0.5, 1.0], abs=1e-10)


def test_check_map_on_non_cp_positive_map(tmp_path, capsys):
    path = tmp_path / "map.json"
    serialize.save_json(path, serialize.channel_to_dict(transpose_map(2)))
    assert main(["check-map", "--map", str(path)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] == "positive_by_construction"
    assert payload["choi_min_eigenvalue"] == pytest.approx(-1.0, abs=1e-10)


def test_check_map_certifies_cp_map_stored_as_superop_matrix(tmp_path, capsys):
    p = 0.3
    phase_flip = from_kraus([np.sqrt(1 - p) * np.eye(2), np.sqrt(p) * np.diag([1.0, -1.0])])
    path = tmp_path / "phase-flip.json"
    serialize.save_json(path, serialize.channel_to_dict(from_matrix(phase_flip.matrix)))
    assert main(["check-map", "--map", str(path)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] == "completely_positive"
    assert payload["trace_behavior"] == "preserving"
    assert payload["one_to_one_norm"] == pytest.approx(1.0, abs=1e-12)


def test_compute_rejects_nan_entries(tmp_path, state_files, capsys):
    _, sigma_path = state_files
    path = tmp_path / "nan.json"
    payload = serialize.matrix_to_dict(np.eye(2) / 2, "psd")
    payload["re"][0][0] = math.nan
    path.write_text(json.dumps(payload))
    assert "NaN" in path.read_text()
    assert main(["compute", "--rho", str(path), "--sigma", sigma_path]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert "input error" in captured.err
    assert captured.out == ""


def test_suite_out_to_missing_directory_is_input_error(tmp_path, capsys):
    out = tmp_path / "missing" / "report.json"
    assert main(["suite", "counterexample", "--out", str(out)]) == EXIT_INPUT_ERROR
    assert "cannot write" in capsys.readouterr().err
    assert not out.exists()


def test_suite_counterexample_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["suite", "counterexample", "--out", str(out)]) == EXIT_PASS
    assert "counterexample: PASS" in capsys.readouterr().out
    report = report_from_dict(serialize.load_json(out))
    assert report.passed
    assert report.min_gap == pytest.approx(-math.log(2) / 6, abs=1e-12)


def test_suite_dpi_modes_run(capsys):
    assert main(["suite", "dpi", "--mode", "tp", "--trials", "20", "--seed", "3"]) == EXIT_PASS
    assert main(["suite", "dpi", "--mode", "tni", "--trials", "20", "--seed", "3"]) == EXIT_PASS
    assert main(["suite", "dpi", "--mode", "trace-match", "--trials", "20", "--seed", "3"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_suite_contraction_small(capsys):
    rc = main(["suite", "contraction", "--instances", "2", "--trials", "10", "--seed", "5"])
    assert rc == EXIT_PASS
    assert "norm-contraction: PASS" in capsys.readouterr().out


def test_suite_step2_small(capsys):
    rc = main(["suite", "step2", "--dims", "6", "--n-sequence", "2,4,6", "--seed", "5"])
    assert rc == EXIT_PASS
    assert "step2: PASS" in capsys.readouterr().out


def test_suite_auxiliary_and_alpha_limit(capsys):
    assert main(["suite", "auxiliary", "--trials", "25", "--seed", "5"]) == EXIT_PASS
    assert main(["suite", "alpha-limit", "--trials", "8", "--seed", "5"]) == EXIT_PASS


def test_suite_violation_exit_codes(capsys):
    # inconclusive without the flag fails, with it passes
    args = ["suite", "violation", "--trials", "2", "--seed", "12345", "--alpha", "0.3", "--hill-steps", "0"]
    assert main(args) == EXIT_SUITE_FAILURE
    assert "FAIL" in capsys.readouterr().out
    assert main(args + ["--allow-inconclusive"]) == EXIT_PASS
    assert "PASS" in capsys.readouterr().out


def test_suite_violation_found_witness_exits_zero(tmp_path, capsys):
    out = tmp_path / "violation.json"
    args = [
        "suite", "violation", "--trials", "300", "--seed", "1", "--alpha", "0.3",
        "--hill-steps", "200", "--out", str(out),
    ]
    assert main(args) == EXIT_PASS
    report = report_from_dict(serialize.load_json(out))
    assert report.outcome == "violation_found"
    assert report.best_witness is not None


def test_suite_violation_alpha_out_of_range(capsys):
    rc = main(["suite", "violation", "--trials", "2", "--alpha", "0.7"])
    assert rc == EXIT_PRECONDITION_ERROR


@pytest.mark.parametrize("alpha", ["0.5", "inf"])
def test_contraction_alpha_is_checked_with_no_instance(tmp_path, capsys, alpha):
    out = tmp_path / "report.json"
    argv = ["suite", "contraction", "--instances", "0", "--alpha", alpha, "--out", str(out)]
    assert main(argv) == EXIT_PRECONDITION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("precondition error: weighted norms need") and captured.err.count("\n") == 1


SUITE_ENTRY_POINTS = {
    "dpi": "randomized_dpi_suite",
    "counterexample": "counterexample_suite",
    "contraction": "contraction_battery",
    "step2": "step2_battery",
    "auxiliary": "auxiliary_inequality_suite",
    "alpha-limit": "alpha_limit_battery",
    "violation": "violation_search",
}


class _Called(Exception):
    pass


# a value for every suite flag (None for a switch); the test below patches
# the harness, so the values are only parsed
SUITE_FLAG_VALUES = {
    "mode": "tni", "dims": "3", "trials": "4", "seed": "5", "alpha": "0.3", "instances": "2",
    "n_sequence": "1,2", "hill_steps": "6", "allow_inconclusive": None,
    **{dest: "1e-9" for dest in cli._TOLERANCE_FLAGS},
}


@pytest.mark.parametrize("name", sorted(SUITE_ENTRY_POINTS))
def test_flagless_suite_leaves_defaults_to_the_harness(monkeypatch, name):
    entry = getattr(harness, SUITE_ENTRY_POINTS[name])

    def record(*args, **kwargs):
        raise _Called(inspect.signature(entry).bind(*args, **kwargs).arguments)

    monkeypatch.setattr(harness, SUITE_ENTRY_POINTS[name], record)
    # one parser serves every command of a process: neither a command giving
    # every flag nor one that argparse rejects may leave a value behind
    given = [word for dest in SUITES[name][1]
             for word in ("--" + dest.replace("_", "-"), SUITE_FLAG_VALUES[dest]) if word is not None]
    with pytest.raises(_Called) as called:
        main(["suite", name, *given])
    assert "cfg" in called.value.args[0]
    with pytest.raises(SystemExit) as rejected:
        main(["suite", name, "--no-such-flag"])
    assert rejected.value.code == EXIT_INPUT_ERROR
    with pytest.raises(_Called) as called:
        main(["suite", name])
    params = inspect.signature(entry).parameters
    restated = [k for k in called.value.args[0] if params[k].default is not inspect.Parameter.empty]
    assert restated == []


@pytest.mark.parametrize("mode, alpha", [("tp", "0.5"), ("trace-match", "0.5,7")])
def test_dpi_alpha_outside_tni_mode_is_precondition_error(tmp_path, capsys, mode, alpha):
    out = tmp_path / "report.json"
    argv = ["suite", "dpi", "--mode", mode, "--alpha", alpha, "--trials", "3", "--out", str(out)]
    assert main(argv) == EXIT_PRECONDITION_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("precondition error: alpha applies in tni mode only")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def _fail_if_called(*args, **kwargs):
    raise _Called(args, kwargs)


@pytest.mark.parametrize(
    "argv",
    [
        "step2 --dims 8,12",
        "violation --alpha 0.3,0.4",
        "step2 --trials 1000",
        "counterexample --seed 3",
        "auxiliary --mode tni",
        "dpi --hill-steps 0",
        "contraction --allow-inconclusive",
        # the tolerance flags of fields the suite never reads
        "counterexample --tolerance-slack 1e-9",
        "step2 --tolerance-slack 1e-9",
        "auxiliary --tolerance-slack 1e-9",
        "alpha-limit --tolerance-slack 1e-9",
        "alpha-limit --tolerance-projector 1e-9",
        "contraction --tolerance-slack 1e-9",
        "contraction --tolerance-containment 1e-9",
        "contraction --tolerance-projector 1e-9",
        "violation --tolerance-slack 1e-9",
        "violation --tolerance-containment 1e-9",
        "violation --tolerance-projector 1e-9",
    ],
)
def test_suite_rejects_flags_it_does_not_read(monkeypatch, capsys, argv):
    for entry in SUITE_ENTRY_POINTS.values():
        monkeypatch.setattr(harness, entry, _fail_if_called)
    assert main(["suite", *argv.split()]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    flag = argv.split()[1]
    assert captured.err.startswith("input error:") and flag in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "suite dpi --seed -1",
        "suite dpi --trials -3",
        "suite contraction --instances -1",
        "suite violation --hill-steps -1",
        "check-map --map transpose.json --seed -1",
        "check-map --map transpose.json --samples -1",
    ],
)
def test_negative_counts_and_seeds_are_input_errors(tmp_path, monkeypatch, capsys, argv):
    for entry in SUITE_ENTRY_POINTS.values():
        monkeypatch.setattr(harness, entry, _fail_if_called)
    serialize.save_json(tmp_path / "transpose.json", serialize.channel_to_dict(transpose_map(2)))
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and argv.split()[-2] in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("mode", ["tp", "tni"])
def test_dpi_trial_domain_error_is_precondition_error(monkeypatch, tmp_path, capsys, mode):
    # reduction maps drawn with no positivity certificate: at seed 5 the first
    # is trial 7 (tp) or 13 (tni) of the first chunk, and fails the preconditions of its group
    family = channels.FAMILY_TABLE["reduction"]
    build = family.build
    monkeypatch.setitem(channels.FAMILY_TABLE, "reduction", dataclasses.replace(
        family, build=lambda takes, d, cfg: [from_matrix(phi.matrix) for phi in build(takes, d, cfg)]))
    out = tmp_path / "report.json"
    argv = ["suite", "dpi", "--mode", mode, "--dims", "2,3", "--trials", "40", "--seed", "5", "--out", str(out)]
    assert main(argv) == EXIT_PRECONDITION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("precondition error: monotonicity preconditions need a positive map; "
                            "certificate tag is 'unverified'\n")


@pytest.mark.parametrize("draw, message", [
    # certified completely positive, with Phi*(1) = 2
    (lambda d: from_kraus([np.eye(d) * math.sqrt(2.0)]), "norm contraction needs a trace-nonincreasing map"),
    (lambda d: from_matrix(np.eye(d * d)), "norm contraction needs a certified positive map"),
], ids=["not-tni", "uncertified"])
def test_contraction_map_outside_the_lemma_is_precondition_error(monkeypatch, tmp_path, capsys, draw, message):
    # instance 0 draws the contraction role's first family
    name = channels.families("contraction")[0]
    monkeypatch.setitem(channels.FAMILY_TABLE, name, dataclasses.replace(
        channels.FAMILY_TABLE[name], build=lambda takes, d, cfg: [draw(d) for _ in takes]))
    out = tmp_path / "report.json"
    argv = ["suite", "contraction", "--instances", "3", "--trials", "2", "--out", str(out)]
    assert main(argv) == EXIT_PRECONDITION_ERROR
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == f"precondition error: {message}\n"


@pytest.mark.parametrize("name", ["dpi", "auxiliary", "violation", "contraction", "alpha-limit", "step2"])
def test_dimension_one_is_precondition_error(capsys, name):
    # 1x1 states are all equal: every suite rejects them instead of passing vacuously
    assert main(["suite", name, "--dims", "1"]) == EXIT_PRECONDITION_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "precondition error: suite dimensions must be >= 2\n"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_tolerance_is_precondition_error(capsys, value):
    assert main(["suite", "dpi", "--trials", "2", "--tolerance-slack", value]) == EXIT_PRECONDITION_ERROR
    err = capsys.readouterr().err
    assert err.startswith("precondition error: monotonicity_slack") and err.count("\n") == 1


# the ToleranceConfig fields each command reads, so the --tolerance-* flags it takes
COMMAND_TOLERANCES = {
    "compute": ("support_cutoff", "psd_tolerance", "hermiticity_tolerance", "containment_tolerance",
                "projector_tolerance"),
    "check-map": ("psd_tolerance", "hermiticity_tolerance"),
    "suite": ("support_cutoff", "psd_tolerance", "monotonicity_slack", "hermiticity_tolerance",
              "containment_tolerance", "projector_tolerance"),
}
COMMAND_ARGV = {
    "compute": ["compute", "--rho", "rho.json", "--sigma", "sigma.json"],
    "check-map": ["check-map", "--map", "map.json"],
    # dpi reads every field; the next test checks what each other suite takes
    "suite": ["suite", "dpi"],
}


@pytest.mark.parametrize("command", sorted(COMMAND_TOLERANCES))
def test_each_command_takes_only_the_tolerance_flags_it_reads(monkeypatch, capsys, command):
    assert sum(map(len, COMMAND_TOLERANCES.values())) == 13
    config_from_args = cli._config_from_args

    def record(args):
        raise _Called(config_from_args(args))

    # the command stops at its config, before it opens a file
    monkeypatch.setattr(cli, "_config_from_args", record)
    for dest, (field, _) in cli._TOLERANCE_FLAGS.items():
        argv = COMMAND_ARGV[command] + ["--" + dest.replace("_", "-"), "0.125"]
        if field in COMMAND_TOLERANCES[command]:
            with pytest.raises(_Called) as called:
                main(argv)
            assert getattr(called.value.args[0], field) == 0.125
        else:
            with pytest.raises(SystemExit) as rejected:
                main(argv)
            assert rejected.value.code == EXIT_INPUT_ERROR
            assert "unrecognized arguments: --" + dest.replace("_", "-") in capsys.readouterr().err


# each suite at an acceptance size (scripts/report_digests.py), which reaches
# every branch that reads a tolerance
READ_SET_RUNS = {
    "dpi-tp": ("dpi", {"mode": "tp", "dims": (2, 3, 4, 5, 6), "trials": 300, "seed": 44}),
    "dpi-tni": ("dpi", {"mode": "tni", "dims": (2, 3, 4, 5, 6), "trials": 300, "seed": 44}),
    "dpi-trace-match": ("dpi", {"mode": "trace_match", "dims": (2, 3, 4, 5, 6), "trials": 300, "seed": 44}),
    "counterexample": ("counterexample", {}),
    "contraction": ("contraction", {"instances": 6, "dims": (2, 3, 4, 5, 6), "trials": 20, "seed": 44}),
    "step2": ("step2", {"d": 16, "seed": 44}),
    "auxiliary": ("auxiliary", {"trials": 50, "seed": 44}),
    "alpha-limit": ("alpha-limit", {"trials": 20, "seed": 44}),
    "violation": ("violation", {"alpha": 0.3, "dims": (2,), "trials": 2000, "hill_steps": 1500, "seed": 44}),
}
TOLERANCE_FIELDS = {field for field, _ in cli._TOLERANCE_FLAGS.values()}


@pytest.mark.parametrize("run", sorted(READ_SET_RUNS))
def test_each_suite_takes_the_tolerance_flags_of_the_fields_it_reads(run):
    name, options = READ_SET_RUNS[run]
    read = set()

    class Logged(ToleranceConfig):
        def __getattribute__(self, attr):
            # the reads dataclasses makes itself (validation, asdict, replace, ==) are not the suite's
            code = sys._getframe(1).f_code
            if (attr in TOLERANCE_FIELDS and code.co_filename != dataclasses.__file__
                    and code.co_name not in ("__post_init__", "__eq__", "__hash__", "__repr__")):
                read.add(attr)
            return object.__getattribute__(self, attr)

    getattr(harness, SUITES[name][0])(**options, cfg=Logged())
    taken = {cli._TOLERANCE_FLAGS[dest][0] for dest in SUITES[name][1] if dest in cli._TOLERANCE_FLAGS}
    assert read == taken
    assert sum(dest in cli._TOLERANCE_FLAGS for _, flags in SUITES.values() for dest in flags) == 31


def test_tolerance_flags_propagate_to_report_config(tmp_path):
    out = tmp_path / "report.json"
    rc = main([
        "suite", "dpi", "--mode", "tp", "--trials", "5", "--seed", "3",
        "--tolerance-slack", "1e-6", "--out", str(out),
    ])
    assert rc == EXIT_PASS
    payload = serialize.load_json(out)
    assert payload["config"]["tolerances"]["monotonicity_slack"] == 1e-6


@pytest.mark.parametrize("argv, message", [
    (["dpi", "--trials", "2", "--dims", "two,three"], "bad --dims value"),
    (["dpi", "--trials", "2", "--dims", ","], "--dims needs at least one value"),
    # an empty value is given, so it is read, not dropped for the default
    (["alpha-limit", "--trials", "2", "--dims", ""], "--dims needs at least one value"),
    (["violation", "--trials", "2", "--hill-steps", "0", "--allow-inconclusive", "--alpha", ""],
     "--alpha needs at least one value"),
    (["step2", "--dims", "4", "--n-sequence", ""], "--n-sequence needs at least one value"),
], ids=["dims-not-integer", "dims-comma", "dims-empty", "alpha-empty", "n-sequence-empty"])
def test_bad_list_value_is_input_error(argv, message, capsys):
    assert main(["suite", *argv]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: {message}")
    assert captured.err.count("\n") == 1


def test_suite_failure_exit_code(tmp_path):
    # an impossibly tight slack turns rounding noise into failures
    rc = main([
        "suite", "dpi", "--mode", "tp", "--trials", "120", "--seed", "29",
        "--tolerance-slack", "1e-18",
    ])
    assert rc == EXIT_SUITE_FAILURE


def test_check_map_falsified_for_negative_map(tmp_path, capsys):
    from qdpi.channels import from_matrix, identity_map

    negate = from_matrix(-identity_map(2).matrix)
    path = tmp_path / "neg.json"
    serialize.save_json(path, serialize.channel_to_dict(negate))
    assert main(["check-map", "--map", str(path)]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"] == "falsified"
    assert payload["one_to_one_norm"] is None


def test_compute_equal_states_is_zero(state_files, capsys):
    rho_path, _ = state_files
    assert main(["compute", "--rho", rho_path, "--sigma", rho_path]) == EXIT_PASS
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.0, abs=1e-12)


def test_check_map_solves_each_spectrum_once(tmp_path, capsys, eig_sizes):
    phi = random_cptp(4, seed=6)
    # a choi payload is solved when loaded; classify reuses that spectrum
    for representation, M in (("superop_matrix", phi.matrix), ("choi", choi(phi))):
        payload = {"schema_version": serialize.SCHEMA_VERSION, "dim_in": 4, "dim_out": 4,
                   "representation": representation, "re": M.real.tolist(), "im": M.imag.tolist()}
        path = tmp_path / f"{representation}.json"
        path.write_text(json.dumps(payload))
        eig_sizes.clear()
        assert main(["check-map", "--map", str(path), "--samples", "0"]) == EXIT_PASS
        # one Choi spectrum (16 x 16) and one Phi*(1) spectrum (4 x 4)
        assert sorted(eig_sizes) == [4, 16], representation
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"] == "completely_positive"
        assert payload["one_to_one_norm"] == pytest.approx(1.0, abs=1e-12)
        assert payload["one_to_one_norm"] == max(payload["adjoint_unit_spectrum"])


def test_check_map_with_non_hermitian_choi_is_precondition_error(tmp_path, capsys):
    A = np.array([[1.0, 1.0], [0.0, 1.0]])
    left_multiply = from_matrix(np.kron(np.eye(2), A))  # X -> A X
    path = tmp_path / "left.json"
    serialize.save_json(path, serialize.channel_to_dict(left_multiply))
    assert main(["check-map", "--map", str(path), "--samples", "0"]) == EXIT_PRECONDITION_ERROR
    assert "not Hermitian" in capsys.readouterr().err


def test_eigensolver_failure_is_numerical_error(state_files, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    rho_path, sigma_path = state_files
    assert main(["compute", "--rho", rho_path, "--sigma", sigma_path]) == EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal numerical error:")
    assert captured.err.count("\n") == 1


def _unconverged(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@pytest.mark.parametrize("matrix, stubbed, code, err", [
    # finite entries whose Choi spectrum lies beyond the float range
    (-1e308 * np.eye(4), False, EXIT_PRECONDITION_ERROR, "precondition error: spectrum overflows the float range"),
    (random_cptp(2, seed=1).matrix, True, EXIT_NUMERICAL_ERROR,
     "internal numerical error: hermitian eigensolver failed to converge (dim=4)"),
], ids=["overflow", "unconverged"])
def test_check_map_spectrum_failure_is_one_line(tmp_path, capsys, monkeypatch, matrix, stubbed, code, err):
    if stubbed:
        monkeypatch.setattr(np.linalg, "eigvalsh", _unconverged)
    path = tmp_path / "map.json"
    serialize.save_json(path, serialize.channel_to_dict(from_matrix(matrix)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check-map", "--map", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err + "\n"


def test_compute_on_entries_beyond_the_float_range_apart_is_one_line(tmp_path, state_files, capsys):
    # 1e308 - (-1e308) overflows: the defect is inf, with no numpy warning
    rho = np.array([[1.0, 1e308], [-1e308, 1.0]], dtype=complex)
    path = tmp_path / "far-apart.json"
    serialize.save_json(path, serialize._checked_matrix_dict(rho, "psd"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compute", "--rho", str(path), "--sigma", state_files[1]]) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "input error: matrix does not satisfy declared kind 'psd': matrix is not Hermitian (defect inf)\n"
    )


def test_replay_mismatch_is_numerical_error(capsys, monkeypatch):
    real_replay = harness.replay_witness

    def drifting_replay(w, *args, **kwargs):
        replayed = real_replay(w, *args, **kwargs)
        return dataclasses.replace(replayed, rhs=replayed.rhs + 1e-3)

    monkeypatch.setattr(harness, "replay_witness", drifting_replay)
    args = ["suite", "violation", "--trials", "300", "--seed", "1", "--alpha", "0.3", "--hill-steps", "200"]
    assert main(args) == EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.err == "internal numerical error: stored witness did not replay to the identical gap\n"


def test_drift_in_the_stacked_search_is_numerical_error(capsys, monkeypatch):
    exact = harness._isometry_images
    monkeypatch.setattr(harness, "_isometry_images",
                        lambda *args: [np.nextafter(v, math.inf) for v in exact(*args)])
    args = ["suite", "violation", "--trials", "300", "--seed", "1", "--alpha", "0.3", "--hill-steps", "20"]
    assert main(args) == EXIT_NUMERICAL_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal numerical error: stored witness did not replay to the identical gap\n"


@pytest.mark.parametrize("family, alpha, solves", [("umegaki", None, 2), ("sandwiched", "2", 3)])
def test_compute_diagonalizes_each_operator_once(tmp_path, capsys, eig_sizes, family, alpha, solves):
    rng = rng_for_trial(17, 0)
    paths = []
    for name in ("rho", "sigma"):
        path = tmp_path / f"{name}.json"
        serialize.save_json(path, serialize.matrix_to_dict(random_density(rng, 3), "density"))
        paths.append(str(path))
    argv = ["compute", "--family", family, "--rho", paths[0], "--sigma", paths[1]]
    if alpha is not None:
        argv += ["--alpha", alpha]
    eig_sizes.clear()  # writing the files validated them
    assert main(argv) == EXIT_PASS
    # one eigh per operator, plus the sandwiched product's
    assert eig_sizes == [3] * solves


@pytest.mark.parametrize(
    "dim, family, params, seed",
    [
        (3, "reduction", {"d": "3"}, None),
        (3, "reduction", {"d": 2.5}, None),
        (1, "random_cptp", {"d": True}, 1),
        (3, "random_cptp", {"d": 3}, "x"),
        (3, "random_cptp", {"d": 3}, -1),
        (2, "depolarizing", {"d": 2, "lam": "x"}, None),
        (3, "reduction", {"d": 3, "lam": 0.5, "typo": 1}, 9),
        (3, "random_cptp", {"d": 3, "kraus_rnak": 2}, 1),
        (3, "random_cptp", {}, 1),
        (3, "reduction", {"d": 3}, 9),
        (3, "reduction", {"d": 3, "lam": 0.5}, None),
        (3, "random_cptp", {"d": 3, "rng": 1}, 1),
        (2, "counterexample", False, None),
        # families built from operators have no recipe, and a family name is a string
        (2, "pinching", {"d": 2}, None),
        (3, "truncation", {"d": 3}, None),
        (2, ["random_cptp"], {"d": 2}, 1),
    ],
)
def test_check_map_rejects_malformed_family_recipe(tmp_path, capsys, dim, family, params, seed):
    path = tmp_path / "recipe.json"
    payload = {"schema_version": serialize.SCHEMA_VERSION, "dim_in": dim, "dim_out": dim,
               "representation": "family", "family": family, "params": params, "seed": seed}
    path.write_text(json.dumps(payload))
    assert main(["check-map", "--map", str(path)]) == EXIT_INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("input error:") and err.count("\n") == 1


@pytest.mark.parametrize("alpha", ["5", "10"])
def test_compute_sandwiched_on_nearly_singular_sigma(tmp_path, capsys, alpha):
    dft = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2
    sigma = (dft * np.array([1e-10, 0.2, 0.3, 0.5 - 1e-10])) @ dft.conj().T
    sigma = (sigma + sigma.conj().T) / 2
    rho_path, sigma_path = tmp_path / "rho.json", tmp_path / "sigma.json"
    serialize.save_json(rho_path, serialize.matrix_to_dict(np.diag([0.4, 0.3, 0.2, 0.1]), "psd"))
    serialize.save_json(sigma_path, serialize.matrix_to_dict(sigma, "psd"))
    argv = ["compute", "--family", "sandwiched", "--alpha", alpha, "--rho", str(rho_path), "--sigma", str(sigma_path)]
    assert main(argv) == EXIT_PASS
    # the library value is pinned to an independent reference in test_divergences
    want = sandwiched_renyi(np.diag([0.4, 0.3, 0.2, 0.1]), sigma, float(alpha))
    assert json.loads(capsys.readouterr().out)["value"] == want


_MATRIX_FILE = {"schema_version": serialize.SCHEMA_VERSION, "kind": "density", "dim": 2,
                "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.0], [0.0, 0.0]]}
_MAP_FILE = {"schema_version": serialize.SCHEMA_VERSION, "dim_in": 2, "dim_out": 2, "representation": "kraus",
             "kraus": [{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}]}


@pytest.mark.parametrize(
    "command, payload, message",
    [
        ("compute", "{not json", "not valid JSON"),
        ("compute", [1, 2], "matrix payload must be an object"),
        ("compute", {**_MATRIX_FILE, "schema_version": "0"}, "unsupported schema_version"),
        ("compute", {**_MATRIX_FILE, "kind": "unitary"}, "unknown matrix kind"),
        ("compute", {**_MATRIX_FILE, "dim": 0}, "dim must be a positive integer"),
        ("compute", {k: v for k, v in _MATRIX_FILE.items() if k != "re"}, "malformed re/im arrays"),
        ("check-map", [], "channel payload must be an object"),
        ("check-map", {**_MAP_FILE, "dim_in": 0}, "dim_in must be a positive integer"),
        ("check-map", {**_MAP_FILE, "kraus": []}, "kraus payload must be a nonempty list"),
        ("check-map", {**_MAP_FILE, "representation": "stinespring"}, "unknown channel representation"),
        ("check-map", {**_MAP_FILE, "representation": "family"}, "missing field 'family'"),
        ("compute", '{"kind": "caf\u00e9"}', "not an ASCII file"),
        ("compute", {**_MATRIX_FILE, "kind": "general", "dim": True, "re": [[1.0]], "im": [[0.0]]},
         "dim must be a positive integer"),
        ("check-map", {**_MAP_FILE, "dim_in": True, "dim_out": True, "kraus": [{"re": [[1.0]], "im": [[0.0]]}]},
         "dim_in must be a positive integer"),
    ],
    ids=[
        "not-json", "matrix-not-object", "matrix-schema", "matrix-kind", "matrix-dim", "matrix-no-re",
        "map-not-object", "map-dim-in", "map-empty-kraus", "map-representation", "map-no-family",
        "non-ascii", "matrix-dim-bool", "map-dims-bool",
    ],
)
def test_malformed_input_file_is_input_error(tmp_path, state_files, capsys, command, payload, message):
    # each reader check that guards a file from outside the program exits 2 with one line
    path = tmp_path / "input.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    if command == "compute":
        argv = ["compute", "--rho", str(path), "--sigma", state_files[1]]
    else:
        argv = ["check-map", "--map", str(path)]
    assert main(argv) == EXIT_INPUT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and message in captured.err
    assert captured.err.count("\n") == 1
