"""The benchmark's workloads: inputs made from a seed, one round of fixed
work, and the correctness check of that round's outputs.

A round is the unit that ``run.py`` times. Every round of a run repeats the
same operations on the same inputs, so the share of failed operations is the
same in every run. Checks compare against ``oracles`` only within
tolerances; the one exact comparison is qdpi's own guarantee that a witness
loaded from its file replays to the identical gap.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
from dataclasses import dataclass, field

import numpy as np

import qdpi
from qdpi import cli, harness, serialize

import oracles

# Sizes of one round. "tiny" exists for the smoke test.
SIZES = {
    "full": {
        "battery": {"dims": (2, 3, 4, 5, 6), "dpi_trials": 60, "trace_match_trials": 30,
                    "contraction_instances": 3, "contraction_trials": 20,
                    "auxiliary_trials": 20, "reference_pairs": 10},
        "step2-large": {"d": 32},
        "violation": {"trials": 2000, "hill_steps": 1500},
        "replay": {"pair_dims": (2, 3, 4, 6, 8), "pairs_per_dim": 2, "commuting_dims": (2, 4, 8),
                   "max_map_dim": 16, "witnesses": 4},
    },
    "tiny": {
        "battery": {"dims": (2, 3), "dpi_trials": 4, "trace_match_trials": 3,
                    "contraction_instances": 1, "contraction_trials": 2,
                    "auxiliary_trials": 2, "reference_pairs": 2},
        "step2-large": {"d": 8},
        "violation": {"trials": 1000, "hill_steps": 50},
        "replay": {"pair_dims": (2, 3), "pairs_per_dim": 1, "commuting_dims": (2,),
                   "max_map_dim": 4, "witnesses": 2},
    },
}

CONTRACTION_ALPHAS = 3  # the CLI's default --alpha list for contraction has three values


def run_cli(argv):
    """qdpi.cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@dataclass
class Round:
    """What one round did: operations attempted and failed, and raw outputs."""

    attempted: int = 0
    failed: int = 0
    outputs: list = field(default_factory=list)


class Workload:
    name = ""

    def __init__(self, seed: int, out_dir: pathlib.Path, size: str = "full"):
        self.seed = int(seed)
        self.out_dir = pathlib.Path(out_dir)
        self.params = SIZES[size][self.name]

    def prepare(self) -> None:
        """Make the inputs from the seed; not timed."""

    def run_round(self, op) -> Round:
        """One round of fixed work; ``op(label, fn, *args)`` runs one operation."""
        raise NotImplementedError

    def check(self, rounds) -> list[str]:
        """Problems found in the rounds' outputs; empty when all are correct."""
        raise NotImplementedError


def _suite_op(argv, path):
    code, _, err = run_cli(list(argv) + ["--out", path])
    if code != 0:
        return code, None, err
    return code, harness.report_from_dict(serialize.load_json(path)), err


class Battery(Workload):
    """The small-dimension suites of scripts/run_full_battery.py, one command per dimension.

    alpha-limit is left out: its fixed 1e-3 bound on |D_{1+eps} - D| fails
    for some seeds' ill-conditioned pairs, and an operation that fails on
    some seeds only would make the failed share differ between runs.
    """

    name = "battery"

    def prepare(self):
        p, s = self.params, self.seed
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.commands = [(["suite", "counterexample"], 5, "counterexample")]
        for d in p["dims"]:
            common = ["--dims", d, "--seed", s]
            self.commands += [
                (["suite", "dpi", "--mode", "tp", "--trials", p["dpi_trials"]] + common,
                 p["dpi_trials"], f"dpi-tp d={d}"),
                (["suite", "dpi", "--mode", "tni", "--trials", p["dpi_trials"]] + common,
                 p["dpi_trials"], f"dpi-tni d={d}"),
                (["suite", "dpi", "--mode", "trace-match", "--trials", p["trace_match_trials"]]
                 + common, p["trace_match_trials"], f"dpi-trace-match d={d}"),
                (["suite", "contraction", "--instances", p["contraction_instances"],
                  "--trials", p["contraction_trials"]] + common,
                 p["contraction_instances"] * (CONTRACTION_ALPHAS * p["contraction_trials"] + 2),
                 f"contraction d={d}"),
                (["suite", "auxiliary", "--trials", p["auxiliary_trials"]] + common,
                 p["auxiliary_trials"], f"auxiliary d={d}"),
            ]
        self.report_path = str(self.out_dir / "battery-report.json")

    def run_round(self, op):
        r = Round()
        for argv, expected, label in self.commands:
            code, report, err = op("suite", _suite_op, argv, self.report_path)
            r.attempted += expected
            r.failed += expected if report is None else report.trials - report.passes
            r.outputs.append((label, expected, code, report, err))
        return r

    def check(self, rounds):
        problems = []
        for r in rounds:
            for label, expected, code, report, err in r.outputs:
                if report is None:
                    problems.append(f"{label}: exit {code}: {err.strip()[-200:]}")
                    continue
                if report.trials != expected or report.passes != report.trials or report.failures:
                    problems.append(f"{label}: {report.passes}/{report.trials} passed, expected {expected}")
                if label == "counterexample":
                    want = oracles.COUNTEREXAMPLE_BEFORE - oracles.COUNTEREXAMPLE_AFTER
                    if report.min_gap is None or not oracles.close(report.min_gap, want, 1e-10):
                        problems.append(f"counterexample min gap {report.min_gap} != {want}")
        problems += self._check_values()
        return problems

    def _check_values(self):
        """qdpi's divergences against the closed forms and the eigh references."""
        problems = []
        rho = np.diag([1 / 3, 2 / 3]).astype(complex)
        sigma = np.diag([2 / 3, 1 / 3]).astype(complex)
        phi = qdpi.counterexample_map()
        before = qdpi.relative_entropy(rho, sigma)
        after = qdpi.relative_entropy(phi.apply(rho), phi.apply(sigma))
        if not oracles.close(before, oracles.COUNTEREXAMPLE_BEFORE, 1e-12):
            problems.append(f"counterexample D before {before!r}")
        if not oracles.close(after, oracles.COUNTEREXAMPLE_AFTER, 1e-12):
            problems.append(f"counterexample D after {after!r}")
        pairs = harness.sample_state_pairs(self.params["reference_pairs"], self.params["dims"], self.seed)
        for k, (rho, sigma) in enumerate(pairs):
            for family, alpha in (("umegaki", None), ("sandwiched", 1.5), ("old", 0.5)):
                got = _program_divergence(family, rho, sigma, alpha)
                want = oracles.divergence(family, rho, sigma, alpha)
                if not oracles.close(got, want):
                    problems.append(f"pair {k} {family}: {got!r} != {want!r}")
        return problems


def _program_divergence(family, rho, sigma, alpha):
    if family == "umegaki":
        return qdpi.relative_entropy(rho, sigma)
    if family == "sandwiched":
        return qdpi.sandwiched_renyi(rho, sigma, alpha)
    return qdpi.old_renyi(rho, sigma, alpha)


class Step2Large(Workload):
    """step2_battery at a dimension where d^2 x d^2 superoperator work dominates."""

    name = "step2-large"

    def prepare(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        d = self.params["d"]
        self.argv = ["suite", "step2", "--dims", d, "--seed", self.seed]
        self.n_checks = 7 * len({max(1, d // 8), max(1, d // 4), max(1, d // 2), max(1, 3 * d // 4), d})
        self.report_path = str(self.out_dir / "step2-report.json")

    def run_round(self, op):
        r = Round()
        code, report, err = op("suite", _suite_op, self.argv, self.report_path)
        r.attempted = self.n_checks
        r.failed = self.n_checks if report is None else report.trials - report.passes
        r.outputs.append((code, report, err))
        return r

    def check(self, rounds):
        problems = []
        for r in rounds:
            code, report, err = r.outputs[0]
            if report is None:
                problems.append(f"step2: exit {code}: {err.strip()[-200:]}")
            elif report.trials != self.n_checks or report.passes != report.trials or report.failures:
                problems.append(f"step2: {report.passes}/{report.trials} checks passed, expected {self.n_checks}")
        # relative entropy at the workload's dimension, before and after a CPTP map
        d = self.params["d"]
        rng = np.random.default_rng([self.seed, 2])
        rho, sigma = oracles.random_density(rng, d), oracles.random_density(rng, d)
        kraus = oracles.random_kraus(rng, d, 2)
        phi = qdpi.from_kraus(kraus)
        for label, a, b, ref_a, ref_b in (
            ("input", rho, sigma, rho, sigma),
            ("image", phi.apply(rho), phi.apply(sigma),
             oracles.apply_kraus(kraus, rho), oracles.apply_kraus(kraus, sigma)),
        ):
            got = qdpi.relative_entropy(a, b)
            want = oracles.relative_entropy(ref_a, ref_b)
            if not oracles.close(got, want):
                problems.append(f"step2 d={d} {label} relative entropy {got!r} != {want!r}")
        return problems


class Violation(Workload):
    """qdpi suite violation at alpha = 0.3, d = 2; the best witness is saved, loaded and replayed."""

    name = "violation"
    alpha = 0.3

    def prepare(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        p = self.params
        self.argv = ["suite", "violation", "--alpha", self.alpha, "--dims", 2, "--trials", p["trials"],
                     "--hill-steps", p["hill_steps"], "--seed", self.seed]
        self.report_path = str(self.out_dir / "violation-report.json")

    @staticmethod
    def _search(argv, path):
        code, report, err = _suite_op(argv, path)
        replayed = None
        if report is not None and report.best_witness is not None:
            replayed = harness.replay_witness(report.best_witness)
        return code, report, err, replayed

    def run_round(self, op):
        r = Round()
        code, report, err, replayed = op("search", self._search, self.argv, self.report_path)
        r.attempted = self.params["trials"]
        # a violating trial is the expected finding, not a failed operation
        r.failed = 0 if report is not None else self.params["trials"]
        r.outputs.append((code, report, err, replayed))
        return r

    def check(self, rounds):
        problems = []
        for r in rounds:
            code, report, err, replayed = r.outputs[0]
            if report is None:
                problems.append(f"violation: exit {code}: {err.strip()[-200:]}")
                continue
            if report.trials != self.params["trials"] or report.outcome != "violation_found":
                problems.append(f"violation: {report.trials} trials, outcome {report.outcome}")
                continue
            problems += self._check_witness(report.best_witness, replayed)
            for w in report.failures:
                if not w.gap < -oracles.VIOLATION_MARGIN:
                    problems.append(f"violation: recorded trial with gap {w.gap!r}")
        return problems

    def _check_witness(self, w, replayed):
        problems = []
        if not w.gap < -oracles.VIOLATION_MARGIN:
            problems.append(f"best witness gap {w.gap!r} is not below -{oracles.VIOLATION_MARGIN}")
        if replayed is None or replayed.gap != w.gap:
            problems.append("best witness did not replay to the identical gap")
        if w.map_descriptor.get("representation") != "kraus":
            return problems + ["best witness map is not stored as Kraus operators"]
        kraus = [oracles.matrix_from_payload(k) for k in w.map_descriptor["kraus"]]
        if not oracles.kraus_is_cptp(kraus):
            problems.append("best witness map is not CPTP")
        rho = oracles.matrix_from_payload(w.rho)
        sigma = oracles.matrix_from_payload(w.sigma)
        image = oracles.apply_kraus(kraus, rho), oracles.apply_kraus(kraus, sigma)
        gap = oracles.sandwiched_renyi(rho, sigma, self.alpha) - oracles.sandwiched_renyi(*image, self.alpha)
        if not oracles.close(w.gap, gap):
            problems.append(f"best witness gap {w.gap!r} != reference {gap!r}")
        gap2 = oracles.sandwiched_renyi(rho, sigma, 2.0) - oracles.sandwiched_renyi(*image, 2.0)
        if gap2 < -oracles.SLACK:
            problems.append(f"best witness violates monotonicity at alpha = 2 (gap {gap2!r})")
        return problems


class Replay(Workload):
    """Short qdpi compute / check-map commands and witness replays on files made from the seed."""

    name = "replay"
    # Full-rank d = 4 sigmas with smallest eigenvalue 1e-10. sandwiched_renyi
    # rejects A @ rho @ A as "not Hermitian" at alpha = 5 and 10, so these
    # commands fail on every seed until that defect is fixed.
    DEFECT_SPECTRA = ((1e-10, 0.2, 0.3, 0.5 - 1e-10), (1e-10, 0.1, 0.4, 0.5 - 1e-10))
    DEFECT_ALPHAS = (5.0, 10.0)
    FAMILIES = (("umegaki", None), ("sandwiched", 0.7), ("sandwiched", 2.0), ("old", 0.5), ("old", 1.5))

    def _write(self, name: str, payload: dict) -> str:
        path = self.out_dir / name
        path.write_text(json.dumps(payload))
        return str(path)

    def _matrix_file(self, name: str, M: np.ndarray, kind: str) -> str:
        payload = {"schema_version": "1", "kind": kind, "dim": M.shape[0]}
        payload.update(oracles.matrix_payload(M))
        return self._write(name, payload)

    def _map_file(self, name: str, d: int, rep: str, **fields) -> str:
        payload = {"schema_version": "1", "dim_in": d, "dim_out": d, "representation": rep}
        payload.update(fields)
        return self._write(name, payload)

    def prepare(self):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        p = self.params
        rng = np.random.default_rng([self.seed, 0])
        self.ops = []  # (label, kind, payload, expectation)

        k = 0
        for d in p["pair_dims"]:
            for _ in range(p["pairs_per_dim"]):
                rho, sigma = oracles.random_density(rng, d), oracles.random_density(rng, d)
                self._compute_ops(f"pair{k}", rho, sigma, "density",
                                  lambda f, a, r=rho, s=sigma: oracles.divergence(f, r, s, a))
                k += 1
        for d in p["commuting_dims"]:
            U = oracles.random_unitary(rng, d)
            pq = rng.dirichlet(np.ones(d), size=2) * 0.9 + 0.1 / d
            rho, sigma = ((U * v) @ U.conj().T for v in pq)
            self._compute_ops(f"commuting{k}", (rho + rho.conj().T) / 2, (sigma + sigma.conj().T) / 2,
                              "psd", lambda f, a, v=pq: oracles.classical_divergence(f, v[0], v[1], a))
            k += 1
        dft = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(4)) / 4) / 2
        rho_b = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        for i, spectrum in enumerate(self.DEFECT_SPECTRA):
            sigma_b = (dft * np.array(spectrum)) @ dft.conj().T
            sigma_b = (sigma_b + sigma_b.conj().T) / 2
            rp = self._matrix_file(f"defect{i}-rho.json", rho_b, "psd")
            sp = self._matrix_file(f"defect{i}-sigma.json", sigma_b, "psd")
            for alpha in self.DEFECT_ALPHAS:
                argv = ["compute", "--family", "sandwiched", "--alpha", alpha, "--rho", rp, "--sigma", sp]
                want = oracles.sandwiched_renyi(rho_b, sigma_b, alpha)
                self.ops.append((f"defect{i} alpha={alpha}", "defect", argv, want))

        self._map_ops(rng)
        self._witness_ops(rng)

    def _compute_ops(self, label, rho, sigma, kind, reference):
        rp = self._matrix_file(f"{label}-rho.json", rho, kind)
        sp = self._matrix_file(f"{label}-sigma.json", sigma, kind)
        for family, alpha in self.FAMILIES:
            argv = ["compute", "--family", family, "--rho", rp, "--sigma", sp]
            if alpha is not None:
                argv += ["--alpha", alpha]
            self.ops.append((f"{label} {family} {alpha}", "compute", argv, reference(family, alpha)))

    def _map_ops(self, rng):
        cap = self.params["max_map_dim"]

        def dim(d):
            return min(d, cap)

        def expect(cert, behavior, choi_min, M=None, d=None, spectrum=None):
            if spectrum is None:
                spectrum = oracles.adjoint_unit_spectrum(M, d, d)
            spectrum = np.sort(np.asarray(spectrum, dtype=float))
            one_to_one = None if cert == "unverified" else float(spectrum[-1])
            return {"certificate": cert, "trace_behavior": behavior, "choi_min": choi_min,
                    "spectrum": spectrum, "one_to_one": one_to_one}

        maps = []
        d = dim(16)
        maps.append((self._map_file("family-cptp.json", d, "family", family="random_cptp",
                                    params={"d": d}, seed=self.seed),
                     expect("completely_positive", "preserving", 0.0, spectrum=np.ones(d))))
        d, lam = dim(8), float(rng.uniform(0.1, 0.9))
        maps.append((self._map_file("family-depolarizing.json", d, "family", family="depolarizing",
                                    params={"d": d, "lam": lam}),
                     expect("completely_positive", "preserving", (1.0 - lam) / d, spectrum=np.ones(d))))
        choi_min = {"reduction": oracles.CHOI_MIN_REDUCTION, "transpose": oracles.CHOI_MIN_TRANSPOSE}
        for fam, d in (("reduction", dim(16)), ("transpose", dim(8))):
            maps.append((self._map_file(f"family-{fam}.json", d, "family", family=fam, params={"d": d}),
                         expect("positive_by_construction", "preserving", choi_min[fam], spectrum=np.ones(d))))
        d = dim(4)
        # transpose composed with a CPTP map: positive, and CP only when its Choi
        # matrix, computed here from the map qdpi builds for the recipe, is PSD
        noncp = qdpi.channels.construct("random_positive_noncp", {"d": d}, self.seed)
        cmin = oracles.choi_min_eigenvalue(np.asarray(noncp.matrix), d, d)
        cert = "completely_positive" if cmin >= -oracles.PSD_TOL else "positive_by_construction"
        maps.append((self._map_file("family-noncp.json", d, "family", family="random_positive_noncp",
                                    params={"d": d}, seed=self.seed),
                     expect(cert, "preserving", cmin, spectrum=np.ones(d))))
        d = dim(6)
        rank, mu = int(rng.integers(1, d)), float(rng.uniform(0.2, 0.9))
        maps.append((self._map_file("family-damped.json", d, "family", family="damped_cptp",
                                    params={"d": d, "rank": rank, "mu": mu}, seed=self.seed),
                     expect("completely_positive", "nonincreasing", 0.0,
                            spectrum=[1.0] * rank + [mu] * (d - rank))))
        d = dim(4)
        maps.append((self._map_file("family-halving.json", d, "family", family="halving", params={"d": d}),
                     expect("completely_positive", "nonincreasing", 0.0, spectrum=np.full(d, 0.5))))

        # No CP map is stored as superop_matrix: check-map exits 3 on every
        # such map, because the 1->1 norm looks at the map's own (unverified)
        # certificate. superop_matrix is read through the transpose and
        # reduction maps below.
        for name, d, rank, scale, rep in (
            ("cptp-a", dim(8), 3, 1.0, "kraus"),
            ("cpni", dim(16), 2, 0.8, "kraus"),
            ("cptp-c", dim(6), 2, 1.0, "choi"),
        ):
            kraus = oracles.random_kraus(rng, d, rank, scale)
            M = oracles.superop_of_kraus(kraus)
            behavior = "preserving" if scale == 1.0 else "nonincreasing"
            maps.append((self._kraus_like_file(name, d, rep, M, kraus),
                         expect("completely_positive", behavior, oracles.choi_min_eigenvalue(M, d, d), M, d)))
        for name, d, M, rep in (
            ("transpose", dim(4), oracles.transpose_superop(dim(4)), "superop_matrix"),
            ("reduction", dim(6), oracles.reduction_superop(dim(6)), "superop_matrix"),
            ("reduction", dim(4), oracles.reduction_superop(dim(4)), "choi"),
            ("transpose", dim(16), oracles.transpose_superop(dim(16)), "choi"),
        ):
            maps.append((self._kraus_like_file(name, d, rep, M, None),
                         expect("unverified", "preserving", choi_min[name], M, d)))

        for path, expectation in maps:
            argv = ["check-map", "--map", path, "--seed", self.seed]
            self.ops.append((pathlib.Path(path).stem, "check-map", argv, expectation))

    def _kraus_like_file(self, name, d, rep, M, kraus):
        if rep == "kraus":
            fields = {"kraus": [oracles.matrix_payload(K) for K in kraus]}
        elif rep == "superop_matrix":
            fields = oracles.matrix_payload(M)
        else:
            fields = oracles.matrix_payload(oracles.choi_of_superop(M, d, d))
        return self._map_file(f"{rep}-{name}-d{d}.json", d, rep, **fields)

    def _witness_ops(self, rng):
        for i in range(self.params["witnesses"]):
            d = 3
            kraus = oracles.random_kraus(rng, d, 2)
            rho, sigma = oracles.random_density(rng, d), oracles.random_density(rng, d)
            alpha = (None, 2.0, None, 0.75)[i % 4]
            family = "umegaki" if alpha is None else "sandwiched"
            lhs = oracles.divergence(family, rho, sigma, alpha)
            rhs = oracles.divergence(family, oracles.apply_kraus(kraus, rho),
                                     oracles.apply_kraus(kraus, sigma), alpha)
            witness = {
                "map": {"schema_version": "1", "dim_in": d, "dim_out": d, "representation": "kraus",
                        "kraus": [oracles.matrix_payload(K) for K in kraus]},
                "rho": {"schema_version": "1", "kind": "density", "dim": d, **oracles.matrix_payload(rho)},
                "sigma": {"schema_version": "1", "kind": "density", "dim": d, **oracles.matrix_payload(sigma)},
                "alpha": alpha, "lhs": lhs, "rhs": rhs, "gap": lhs - rhs,
            }
            path = self._write(f"witness{i}.json", witness)
            self.ops.append((f"witness{i}", "witness", path, lhs - rhs))

    @staticmethod
    def _replay(path):
        try:
            return 0, harness.replay_witness(harness.witness_from_dict(serialize.load_json(path))).gap, ""
        except ValueError as exc:
            return 2, None, str(exc)

    def run_round(self, op):
        r = Round()
        for label, kind, payload, _ in self.ops:
            out = op(kind, self._replay if kind == "witness" else run_cli, payload)
            r.attempted += 1
            r.failed += out[0] != 0
            r.outputs.append(out)
        return r

    def check(self, rounds):
        problems = []
        for r in rounds:
            for (label, kind, _, want), (code, out, err) in zip(self.ops, r.outputs):
                problem = self._check_op(kind, want, code, out, err)
                if problem:
                    problems.append(f"{label}: {problem}")
        return problems

    @staticmethod
    def _check_op(kind, want, code, out, err):
        if kind == "witness" and code == 0:
            return None if oracles.close(out, want) else f"replayed gap {out!r} != {want!r}"
        if kind == "defect" and code == 3 and "not Hermitian" in err:
            return None  # the known defect: counted as a failed operation
        if code != 0:
            return f"exit {code}: {err.strip()[-200:]}"
        payload = json.loads(out)
        if kind in ("compute", "defect"):
            value = payload["value"]
            tol = oracles.VALUE_TOL if kind == "compute" else 1e-6
            if not isinstance(value, float) or not oracles.close(value, want, tol):
                return f"value {value!r} != {want!r}"
            return None
        if payload["certificate"] != want["certificate"]:
            return f"certificate {payload['certificate']} != {want['certificate']}"
        if payload["trace_behavior"] != want["trace_behavior"]:
            return f"trace behavior {payload['trace_behavior']} != {want['trace_behavior']}"
        if not oracles.close(payload["choi_min_eigenvalue"], want["choi_min"]):
            return f"Choi min eigenvalue {payload['choi_min_eigenvalue']!r} != {want['choi_min']!r}"
        spectrum = np.sort(np.asarray(payload["adjoint_unit_spectrum"], dtype=float))
        if spectrum.shape != want["spectrum"].shape or np.abs(spectrum - want["spectrum"]).max() > oracles.SPECTRUM_TOL:
            return "adjoint unit spectrum differs from the reference"
        norm = payload["one_to_one_norm"]
        if (norm is None) != (want["one_to_one"] is None) or (
                norm is not None and not oracles.close(norm, want["one_to_one"])):
            return f"1->1 norm {norm!r} != {want['one_to_one']!r}"
        return None


WORKLOADS = {w.name: w for w in (Battery, Step2Large, Violation, Replay)}
