import dataclasses
import json
import os
import pathlib
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

from dynnets import cli
from dynnets.circuits import QuditRegister, circuit_covering_log_bound
from dynnets.cli import main
from dynnets.grassmann import (
    KATO_DISTANCE_LIMIT,
    KATO_RATIO_LIMIT,
    Projector,
    _basis_projectors,
    _projector_ranks,
    kato_deviation,
    kato_unitary,
    product_covering_check,
    projector_covering_bounds,
    projector_distance,
    projector_from_subspace,
    random_subspace,
)
from dynnets.linalg import (
    UnitaryMatrix,
    check_exp_lipschitz,
    matrix_exp,
    operator_norm,
    random_skew_in_ball,
)
from dynnets.logdomain import EpsilonTooSmall, LogBound, int_power
from dynnets.reports import crossover_analysis, emit_report
from dynnets.trotter import (
    CertificateViolation,
    ConstantEnvelope,
    CosineEnvelope,
    HamiltonianTerm,
    TimeDependentHamiltonian,
    evolution_covering_log_bound,
    hamiltonian_to_json,
)
from dynnets.unitary_nets import unitary_covering_bounds

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
ZZ = np.kron(SZ, SZ)


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def run_module(argv):
    """``python -m dynnets`` in a subprocess, with Python's default warnings.

    The subprocess finds the package where this process imported it from.
    """
    package_parent = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dynnets", *argv], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": path})


def write_chain(path):
    reg = QuditRegister(2, 2)
    terms = [HamiltonianTerm((0, 1), ZZ, CosineEnvelope(0.8, 2.0)),
             HamiltonianTerm((0,), SX, ConstantEnvelope(0.5))]
    h = TimeDependentHamiltonian(reg, terms)
    path.write_text(json.dumps(hamiltonian_to_json(h)), encoding="utf-8")
    return path


@pytest.fixture()
def hamiltonian_file(tmp_path):
    return write_chain(tmp_path / "chain.json")


class TestBounds:
    def test_circuit(self, capsys):
        code, out, _ = run_cli(["bounds", "circuit", "--d", "2", "--k", "2",
                                "--L", "4", "--ng", "8", "--eps", "0.3"],
                               capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload == circuit_covering_log_bound(2, 2, 4, 8, 0.3).as_dict()

    def test_tevol(self, capsys):
        code, out, _ = run_cli(
            ["bounds", "tevol", "--d", "2", "--k", "2", "--L", "4",
             "--K", "3", "--z", "3", "--h", "1.0", "--T", "1.0",
             "--eps", "0.1"], capsys)
        assert code == 0
        payload = json.loads(out)
        expect = evolution_covering_log_bound(4, 2, 2, 3, 3, 1.0, 1.0, 0.1)
        assert payload == expect.as_dict()

    def test_grassmann(self, capsys):
        code, out, _ = run_cli(["bounds", "grassmann", "--n", "2", "--m", "4",
                                "--eps", "0.01"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload == projector_covering_bounds(2, 4, 0.01).as_dict()

    def test_domain_error_exits_one(self, capsys):
        code, _, err = run_cli(["bounds", "circuit", "--d", "2", "--k", "2",
                                "--L", "4", "--ng", "8", "--eps", "3.0"],
                               capsys)
        assert code == 1
        assert "epsilon" in err

    @pytest.mark.parametrize("evaluate, eps", [
        (lambda eps: circuit_covering_log_bound(2, 2, 4, 5, eps), 1e-320),
        (lambda eps: evolution_covering_log_bound(4, 2, 2, 3, 3, 1.0, 1.0,
                                                  eps), 1e-300),
        (lambda eps: projector_covering_bounds(2, 4, eps), 1e-320),
        (lambda eps: unitary_covering_bounds(2, eps), 1e-320),
    ], ids=["circuit", "tevol", "grassmann", "unitary"])
    def test_overflowing_log_raises_epsilon_too_small(self, evaluate, eps):
        with pytest.raises(EpsilonTooSmall, match="too small") as info:
            evaluate(eps)
        assert info.value.epsilon == eps

    @pytest.mark.parametrize("evaluate, named", [
        (lambda: evolution_covering_log_bound(4, 2, 2, 3, 3, 1e150, 1e10, 0.1),
         "h_max = 1e+150, T = 10000000000.0, epsilon = 0.1"),
        (lambda: evolution_covering_log_bound(4, 2, 2, 3, 3, 1e153, 1.0, 0.1),
         "h_max = 1e+153, T = 1.0, epsilon = 0.1"),
        (lambda: evolution_covering_log_bound(4, 2, 2, 3, 3, 1e200, 1.0, 0.1),
         "h_max = 1e+200, T = 1.0, epsilon = 0.1"),
        (lambda: evolution_covering_log_bound(4, 2, 600, 3, 3, 1.0, 1.0, 0.1),
         "k = 600,"),
        (lambda: circuit_covering_log_bound(2, 510, 4, 5, 0.3),
         "d = 2, k = 510, L = 4, n_gates = 5, epsilon = 0.3"),
        (lambda: circuit_covering_log_bound(2, 600, 4, 5, 0.3), "k = 600,"),
        (lambda: projector_covering_bounds(1, 10 ** 154, 0.01),
         "n = 1, m = 1" + "0" * 154 + ", epsilon = 0.01"),
        (lambda: unitary_covering_bounds(10 ** 155, 0.01), "epsilon = 0.01"),
    ], ids=["tevol-scale", "tevol-exponent", "tevol-square", "tevol-int",
            "circuit", "circuit-int", "grassmann", "unitary"])
    def test_overflow_from_other_inputs_names_them(self, evaluate, named):
        # 1e200 ** 2 raises OverflowError, as do k = 600 and the huge n, m
        # in the int-to-float conversion
        with pytest.raises(ValueError, match="overflows float64 at") as info:
            evaluate()
        assert not isinstance(info.value, EpsilonTooSmall)
        assert named in str(info.value)

    def test_int_power_refused_before_it_is_built(self):
        # 2^(2 * 10^18) could not be built at all: only the check returns
        with pytest.raises(OverflowError):
            int_power(2, 2 * 10 ** 18)
        with pytest.raises(OverflowError):
            int_power(2, 10 ** 400)
        assert int_power(2, 1025) == 2 ** 1025
        assert int_power(3, 40) == 3 ** 40

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_log_bound_refuses_a_non_finite_value(self, value):
        with pytest.raises(ValueError, match="^log-domain value must be finite$"):
            LogBound(value)

    def test_tevol_vanishing_scale_is_out_of_validity(self):
        # h_max ** 2 underflows to 0: no epsilon is small enough
        with pytest.raises(ValueError, match="need epsilon <= 0, got 0.1"):
            evolution_covering_log_bound(4, 2, 2, 3, 3, 1e-200, 1.0, 0.1)


class TestCrossover:
    def test_json_stdout(self, capsys):
        code, out, _ = run_cli(
            ["crossover", "--d", "2", "--k", "2", "--eps", "0.001",
             "--lmin", "8", "--lmax", "10", "--resource", "circuit"], capsys)
        assert code == 0
        payload = json.loads(out)
        expect = crossover_analysis(2, 2, 0.001, range(8, 11), "circuit")
        assert payload == expect.as_dict()

    def test_csv_file_output(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            ["crossover", "--d", "2", "--k", "2", "--eps", "0.001",
             "--lmin", "8", "--lmax", "9", "--resource", "circuit",
             "--out", str(target), "--format", "csv"], capsys)
        assert code == 0
        lines = target.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "L,m,lower_log,min_gates"
        assert len(lines) == 3

    def test_vacuous_epsilon_exits_one(self, capsys):
        code, _, err = run_cli(
            ["crossover", "--d", "2", "--k", "2", "--eps", "0.01",
             "--lmin", "8", "--lmax", "9", "--resource", "circuit"], capsys)
        assert code == 1
        assert "vacuous" in err


_TERM = {"support": [0], "base": [[0, 0], [1, 0], [1, 0], [0, 0]],
         "envelope": {"kind": "constant", "value": 0.5}}


def _without(entry, key):
    return {k: v for k, v in entry.items() if k != key}


def _document(term):
    return {"L": 1, "d": 2, "terms": [term]}


def _assert_refused(capsys, tmp_path, document, message):
    """verify trotter on the document exits 1 with exactly this error line."""
    path = tmp_path / "h.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    code, out, err = run_cli(
        ["verify", "trotter", "--hamiltonian", str(path),
         "--T", "1.0", "--nt", "4"], capsys)
    assert code == 1
    assert out == ""
    assert err == f"dynnets: error: {message}\n"


class TestVerifyTrotter:
    def test_pass(self, capsys, hamiltonian_file):
        code, out, _ = run_cli(
            ["verify", "trotter", "--hamiltonian", str(hamiltonian_file),
             "--T", "1.0", "--nt", "16"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["measured"] <= payload["bound"]
        assert payload["N_t"] == 16

    def test_violation_exits_two(self, capsys, hamiltonian_file, monkeypatch):
        def fake_certify(h, t_final, n_steps):
            raise CertificateViolation(1.0, 0.5)

        monkeypatch.setattr("dynnets.cli.certify_trotter", fake_certify)
        code, out, _ = run_cli(
            ["verify", "trotter", "--hamiltonian", str(hamiltonian_file),
             "--T", "1.0", "--nt", "16"], capsys)
        assert code == 2
        payload = json.loads(out)
        assert payload["passed"] is False
        assert payload["measured"] == 1.0
        assert payload["bound"] == 0.5

    def test_overflowing_sweep_prints_only_the_error(self, tmp_path):
        # finite amplitudes whose Magnus commutators overflow: the one error
        # line, with no numpy warning naming a package source line
        h = TimeDependentHamiltonian(QuditRegister(2, 2), [
            HamiltonianTerm((0,), SX, CosineEnvelope(1e300, 1.0)),
            HamiltonianTerm((0, 1), ZZ, CosineEnvelope(1.0, 2.0))])
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(hamiltonian_to_json(h)), encoding="utf-8")
        proc = run_module(["verify", "trotter", "--hamiltonian", str(path),
                           "--T", "1.0", "--nt", "4"])
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == ("dynnets: error: Magnus sweep has non-finite "
                               "entries\n")

    def test_seed_flag_rejected(self, capsys, hamiltonian_file):
        code, _, err = run_cli(
            ["verify", "trotter", "--hamiltonian", str(hamiltonian_file),
             "--T", "1.0", "--nt", "4", "--seed", "3"], capsys)
        assert code == 1
        assert "--seed" in err

    def test_missing_file_exits_one(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["verify", "trotter", "--hamiltonian", str(tmp_path / "no.json"),
             "--T", "1.0", "--nt", "4"], capsys)
        assert code == 1
        assert err

    def test_malformed_json_exits_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run_cli(
            ["verify", "trotter", "--hamiltonian", str(bad),
             "--T", "1.0", "--nt", "4"], capsys)
        assert code == 1
        assert err


    @pytest.mark.parametrize("document, message", [
        (_document(_without(_TERM, "support")),
         "Hamiltonian JSON item in 'terms' missing key 'support'"),
        (_document(_without(_TERM, "base")),
         "Hamiltonian JSON item in 'terms' missing key 'base'"),
        (_document(_without(_TERM, "envelope")),
         "Hamiltonian JSON item in 'terms' missing key 'envelope'"),
        (_document({**_TERM, "envelope": {"kind": "constant"}}),
         "constant envelope missing key 'value'"),
        (_document({**_TERM, "envelope": {"kind": "cosine", "omega": 2.0}}),
         "cosine envelope missing key 'amplitude'"),
        (_document({**_TERM, "envelope": {"kind": "cosine", "amplitude": 0.8}}),
         "cosine envelope missing key 'omega'"),
        (_document({**_TERM, "envelope": {"kind": "pwl", "values": [0, 1]}}),
         "pwl envelope missing key 'times'"),
        (_document({**_TERM, "envelope": {"kind": "pwl", "times": [0, 1]}}),
         "pwl envelope missing key 'values'"),
        ([_document(_TERM)], "Hamiltonian JSON must be an object, got list"),
    ])
    def test_missing_field_exits_one(self, capsys, tmp_path, document, message):
        _assert_refused(capsys, tmp_path, document, message)

    @pytest.mark.parametrize("document, message", [
        ({**_document(_TERM), "L": None},
         "Hamiltonian JSON 'L' and 'd' must be integers"),
        ({**_document(_TERM), "L": [1]},
         "Hamiltonian JSON 'L' and 'd' must be integers"),
        ({**_document(_TERM), "terms": 5},
         "Hamiltonian JSON 'terms' must be a list, got int"),
        ({**_document(_TERM), "terms": [5]},
         "Hamiltonian JSON item in 'terms' must be an object, got int"),
        (_document({**_TERM, "support": 3}),
         "Hamiltonian JSON item in 'terms': 'support' must be a list of "
         "integers"),
        (_document({**_TERM, "envelope": 5}),
         "envelope must be an object, got int"),
        (_document({**_TERM, "envelope": {"kind": "cosine", "amplitude": None,
                                          "omega": 2.0}}),
         "cosine envelope parameters must be numbers"),
        # a non-integer L or site used to be truncated and certified
        ({**_document(_TERM), "L": 1.5},
         "Hamiltonian JSON 'L' and 'd' must be integers"),
        ({**_document(_TERM), "L": True},
         "Hamiltonian JSON 'L' and 'd' must be integers"),
        (_document({**_TERM, "support": [0.0]}),
         "term support site must be an integer, got 0.0"),
    ])
    def test_mistyped_field_exits_one(self, capsys, tmp_path, document,
                                      message):
        _assert_refused(capsys, tmp_path, document, message)


class TestVerifyGeometry:
    def test_lipschitz(self, capsys):
        code, out, _ = run_cli(["verify", "lipschitz", "--n", "2",
                                "--radius", "0.4", "--trials", "25",
                                "--seed", "3"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["trials"] == 25

    def test_lipschitz_blocks_match_one_stack(self, capsys, monkeypatch):
        argv = ["verify", "lipschitz", "--n", "3", "--radius", "3.0",
                "--trials", "23", "--seed", "4"]
        _, whole, _ = run_cli(argv, capsys)
        # 5 pairs of 3 x 3 matrices per block
        monkeypatch.setattr("dynnets.cli._LIPSCHITZ_ENTRIES", 5 * 9)
        _, blocked, _ = run_cli(argv, capsys)
        assert blocked == whole

    def test_kato(self, capsys):
        code, out, _ = run_cli(["verify", "kato", "--n", "2", "--m", "5",
                                "--trials", "20", "--seed", "9"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["worst_deviation_ratio"] <= 5.0 / np.sqrt(2.0)

    def test_kato_off_closed_form_exits_two(self, capsys, monkeypatch):
        # V exp(i s P) is unitary, still maps P to Q and stays within
        # 5/sqrt(2) ||P - Q||, so only the closed-form check can see it
        kato = cli._kato_unitary

        def shifted(ps, qs, dists):
            vs = kato(ps, qs, dists)
            return np.stack([UnitaryMatrix(v @ matrix_exp(1j * 1e-6 * p)).array
                             for v, p in zip(vs, ps)])

        monkeypatch.setattr("dynnets.cli._kato_unitary", shifted)
        code, out, err = run_cli(["verify", "kato", "--n", "2", "--m", "5",
                                  "--trials", "8", "--seed", "9"], capsys)
        assert code == 2
        assert err == ""
        payload = json.loads(out)
        assert payload["failures"] == 8
        assert payload["worst_conjugation_defect"] <= 1e-8
        assert payload["worst_deviation_ratio"] <= payload["ratio_limit"]

    def test_nets(self, capsys):
        code, out, _ = run_cli(["verify", "nets", "--n", "1", "--eps", "0.3",
                                "--samples", "200", "--seed", "11"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["max_gap"] <= 0.3

    def test_nets_huge_epsilon_is_one_element(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(["verify", "nets", "--n", "1", "--eps",
                                      "1e308", "--samples", "4", "--seed",
                                      "1"], capsys)
        assert code == 0
        assert err == ""
        assert json.loads(out)["elements"] == 1

    @pytest.mark.parametrize("which", ["product", "quotient", "sandwich"])
    def test_lemmas(self, which, capsys):
        code, out, _ = run_cli(["verify", "lemmas", "--which", which], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(case["passed"] for case in payload["cases"])


def _trial_seeds(seed, trials):
    return np.random.SeedSequence(seed).generate_state(2 * trials,
                                                       dtype=np.uint64)


def lipschitz_pair_by_pair(n, radius, trials, seed):
    """verify lipschitz's report, one pair of one-matrix draws at a time."""
    seeds = _trial_seeds(seed, trials)
    violations = 0
    worst = None
    for i in range(trials):
        x = random_skew_in_ball(n, radius, int(seeds[2 * i]))
        y = random_skew_in_ball(n, radius, int(seeds[2 * i + 1]))
        lower, mid, upper = check_exp_lipschitz(x, y)
        slack = min(mid - lower, upper - mid)
        if worst is None or slack < worst["slack"]:
            worst = {"lower": lower, "mid": mid, "upper": upper,
                     "slack": slack}
        violations += lower > mid + 1e-10 or mid > upper + 1e-10
    return {"n": n, "radius": radius, "trials": trials, "seed": seed,
            "violations": violations, "worst_triple": worst,
            "passed": violations == 0}


def kato_pair_by_pair(n, m, trials, seed):
    """verify kato's report, one projector pair at a time.

    Also returns how many rotations were drawn (one per trial, plus one per
    rotation too large for the Kato distance limit) and each trial's
    (P, Q, ||P - Q||).
    """
    rng = np.random.default_rng(seed)
    seeds = _trial_seeds(seed, trials)
    slack = 16 * m * np.finfo(float).eps
    failures = draws = 0
    worst_ratio = worst_conj = 0.0
    pairs = []
    for i in range(trials):
        theta = float(rng.uniform(0.05, 1.2))
        p = projector_from_subspace(random_subspace(n, m, int(seeds[2 * i])))
        while True:
            draws += 1
            rot = matrix_exp(
                random_skew_in_ball(m, theta, int(seeds[2 * i + 1])).array)
            q_mat = rot @ p.matrix @ rot.conj().T
            q = Projector(0.5 * (q_mat + q_mat.conj().T))
            dist = projector_distance(p, q)
            if dist <= KATO_DISTANCE_LIMIT:
                break
            theta *= 0.5
        pairs.append((p.matrix, q.matrix, dist))
        v = kato_unitary(p, q).array
        conj = operator_norm(v @ p.matrix @ v.conj().T - q.matrix)
        dev = operator_norm(np.eye(m) - v)
        worst_ratio = max(worst_ratio, dev / dist if dist > 1e-14 else 0.0)
        worst_conj = max(worst_conj, conj)
        failures += bool(conj > 1e-8 or dev > KATO_RATIO_LIMIT * dist + 1e-9
                         or abs(dev - kato_deviation(dist)) > slack)
    report = {"n": n, "m": m, "trials": trials, "seed": seed,
              "failures": failures, "worst_deviation_ratio": worst_ratio,
              "ratio_limit": KATO_RATIO_LIMIT,
              "worst_conjugation_defect": worst_conj,
              "passed": failures == 0}
    return report, draws, pairs


class TestStackedHandlersMatchPairByPair:
    """The stacked verify handlers print what a loop over pairs prints."""

    @pytest.mark.parametrize("n, radius, trials, seed", [
        (1, 0.4, 24, 1), (2, 0.2, 24, 5), (2, 3.0, 24, 6), (4, 0.6, 24, 7),
        (8, 0.4, 24, 8), (16, 3.0, 24, 9),
        # 16 pairs per block at n = 128: two blocks
        (128, 0.4, 17, 2),
    ])
    def test_lipschitz(self, capsys, n, radius, trials, seed):
        if n == 128:
            assert trials > cli._LIPSCHITZ_ENTRIES // (n * n)
        code, out, _ = run_cli(["verify", "lipschitz", "--n", str(n),
                                "--radius", repr(radius), "--trials",
                                str(trials), "--seed", str(seed)], capsys)
        assert code == 0
        expect = lipschitz_pair_by_pair(n, radius, trials, seed)
        assert out == emit_report(expect)

    @pytest.mark.parametrize("n, m, trials, seed, block", [
        (1, 4, 16, 1, None), (1, 4, 16, 2, None), (2, 5, 16, 1, None),
        (3, 8, 16, 4, None), (4, 16, 16, 5, None), (2, 2, 6, 1, None),
        (1, 1, 4, 2, None),
        # 17 rotations for 16 trials: the last pair is redrawn at half the
        # angle, in one block of 16 and alone in the last block of 3
        (1, 2, 16, 3, None), (1, 2, 16, 3, 3), (2, 5, 10, 9, 4),
    ])
    def test_kato(self, capsys, monkeypatch, n, m, trials, seed, block):
        if block is not None:
            monkeypatch.setattr("dynnets.cli._LIPSCHITZ_ENTRIES",
                                block * m * m)
        code, out, _ = run_cli(["verify", "kato", "--n", str(n), "--m",
                                str(m), "--trials", str(trials), "--seed",
                                str(seed)], capsys)
        assert code == 0
        expect, draws, _ = kato_pair_by_pair(n, m, trials, seed)
        assert out == emit_report(expect)
        if (n, m, seed) == (1, 2, 3):
            assert draws == trials + 1

    def test_kato_projectors_pass_the_skipped_check(self, capsys,
                                                    monkeypatch):
        # P comes from checked bases without the projector check; running
        # that check on every P passes, and stdout stays byte for byte
        argv = ["verify", "kato", "--n", "4", "--m", "16", "--trials", "200",
                "--seed", "1"]
        code, out, _ = run_cli(argv, capsys)
        checked = []

        def basis_projectors(bases):
            ps = _basis_projectors(bases)
            np.testing.assert_array_equal(_projector_ranks(ps), 4)
            checked.append(len(ps))
            return ps

        monkeypatch.setattr(cli, "_basis_projectors", basis_projectors)
        assert run_cli(argv, capsys) == (code, out, "")
        assert code == 0 and sum(checked) == 200

    @pytest.mark.parametrize("n, m, seed", [(1, 2, 3), (2, 5, 9)])
    def test_kato_pairs(self, n, m, seed):
        # the report keeps only maxima, which a wrong redraw may not move
        trials = 16
        seeds = _trial_seeds(seed, trials)
        thetas = np.random.default_rng(seed).uniform(0.05, 1.2, size=trials)
        ps, qs, dists = cli._random_projector_pairs(n, m, seeds[0::2],
                                                    seeds[1::2], thetas)
        _, _, pairs = kato_pair_by_pair(n, m, trials, seed)
        for got, expect in zip((ps, qs, dists), zip(*pairs)):
            assert np.array_equal(got, np.array(expect))


def _fake_lipschitz_stack(xs, ys):
    mid = np.ones(len(xs))
    return mid + 1.0, mid, mid + 2.0


def _failing_product_check(s1, s2, eps):
    return dataclasses.replace(product_covering_check(s1, s2, eps),
                               passed=False)


class TestViolationExitsTwo:
    """A completed check that finds a violation still prints its report."""

    @pytest.mark.parametrize("name, fake, argv, keys, counts", [
        ("_exp_lipschitz_stack", _fake_lipschitz_stack,
         ["lipschitz", "--n", "2", "--radius", "0.4", "--trials", "5",
          "--seed", "3"],
         ["n", "radius", "trials", "seed", "violations", "worst_triple",
          "passed"], {"violations": 5}),
        ("_kato_unitary",
         lambda ps, qs, dists: np.broadcast_to(-np.eye(len(ps[0])), ps.shape),
         ["kato", "--n", "2", "--m", "5", "--trials", "4", "--seed", "9"],
         ["n", "m", "trials", "seed", "failures", "worst_deviation_ratio",
          "ratio_limit", "worst_conjugation_defect", "passed"],
         {"failures": 4}),
        ("empirical_covering_check", lambda net, samples, seed: (1.0, False),
         ["nets", "--n", "1", "--eps", "0.3", "--samples", "10",
          "--seed", "11"],
         ["n", "epsilon", "elements", "samples", "seed", "max_gap",
          "passed"], {"max_gap": 1.0}),
        ("product_covering_check", _failing_product_check,
         ["lemmas", "--which", "product"],
         ["which", "cases", "passed"], {}),
    ])
    def test_report_printed(self, capsys, monkeypatch, name, fake, argv,
                            keys, counts):
        monkeypatch.setattr(f"dynnets.cli.{name}", fake)
        code, out, err = run_cli(["verify"] + argv, capsys)
        assert code == 2
        assert err == ""
        payload = json.loads(out)
        assert list(payload) == keys
        assert payload["passed"] is False
        assert {key: payload[key] for key in counts} == counts


# a 401-digit integer, past the float64 range
_HUGE = "1" + "0" * 400


def _forbid_draws(monkeypatch):
    """Make every matrix sampler of verify kato and lipschitz raise."""
    def no_draw(*args):
        raise AssertionError("matrix drawn before the flags were checked")

    # the stacked samplers the handlers call, and the public one-matrix ones
    for name in ("dynnets.cli._skew_ball_stack", "dynnets.cli._random_bases",
                 "dynnets.linalg.random_skew_in_ball",
                 "dynnets.grassmann.random_subspace"):
        monkeypatch.setattr(name, no_draw)


class TestUsageErrors:
    def test_missing_flag(self, capsys):
        code, _, err = run_cli(["bounds", "circuit", "--d", "2"], capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_subcommand(self, capsys):
        code, _, err = run_cli(["frobnicate"], capsys)
        assert code == 1
        assert err

    def test_bad_choice(self, capsys):
        code, _, err = run_cli(["verify", "lemmas", "--which", "magic"],
                               capsys)
        assert code == 1
        assert err

    def test_no_arguments(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["bounds", "grassmann", "--n", "2", "--m", "4", "--eps", "0.01",
         "--out", "x.json"],
        ["verify", "nets", "--n", "1", "--eps", "0.3", "--samples", "10",
         "--seed", "1", "--format", "json"],
        ["verify", "lemmas", "--which", "product", "--format", "csv"],
    ])
    def test_out_and_format_only_on_crossover(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("argv, flag", [
        (["verify", "nets", "--n", "1", "--eps", "nan", "--samples", "10",
          "--seed", "1"], "--eps"),
        (["bounds", "grassmann", "--n", "2", "--m", "4", "--eps", "nan"],
         "--eps"),
        (["bounds", "tevol", "--d", "2", "--k", "2", "--L", "4", "--K", "3",
          "--z", "3", "--h", "inf", "--T", "1", "--eps", "0.1"], "--h"),
        (["verify", "lipschitz", "--n", "2", "--trials", "3", "--seed", "1",
          "--radius", "NaN"], "--radius"),
        (["verify", "trotter", "--hamiltonian", "chain.json", "--T=-inf",
          "--nt", "4"], "--T"),
        (["verify", "nets", "--n", "1", "--eps", "abc", "--samples", "10",
          "--seed", "1"], "--eps"),
    ])
    def test_non_finite_float_names_flag(self, capsys, argv, flag):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert f"error: argument {flag}: expected a finite number" in err

    @pytest.mark.parametrize("argv", [
        ["bounds", "tevol", "--d", "2", "--k", "2", "--L", "4", "--K", "3",
         "--z", "3", "--h", "1.0", "--T", "1.0", "--eps", "1e-300"],
        ["bounds", "grassmann", "--n", "2", "--m", "4", "--eps", "1e-320"],
        ["bounds", "circuit", "--d", "2", "--k", "2", "--L", "4", "--ng", "5",
         "--eps", "1e-320"],
    ])
    def test_tiny_epsilon_names_flag(self, capsys, argv):
        # 1e-300 ** 2 underflows to 0 and 9 / (5 * 1e-320) overflows
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "error: argument --eps: epsilon" in err
        assert "too small" in err

    @pytest.mark.parametrize("argv, named", [
        (["bounds", "tevol", "--d", "2", "--k", "2", "--L", "4", "--K", "3",
          "--z", "3", "--h", "1e153", "--T", "1.0", "--eps", "0.1"],
         "h_max = 1e+153"),
        (["bounds", "circuit", "--d", "2", "--k", "510", "--L", "4", "--ng",
          "5", "--eps", "0.3"], "k = 510"),
        (["bounds", "circuit", "--d", "2", "--k", "600", "--L", "4", "--ng",
          "5", "--eps", "0.3"], "k = 600"),
        (["bounds", "tevol", "--d", "2", "--k", "2", "--L", "4", "--K", "3",
          "--z", "3", "--h", "1e200", "--T", "1.0", "--eps", "0.1"],
         "h_max = 1e+200"),
        # integers past the float range, and d^(2k) far past it
        pytest.param(["bounds", "circuit", "--d", "2", "--k", "2", "--L",
                      "4", "--ng", _HUGE, "--eps", "0.3"],
                     f"n_gates = {_HUGE}", id="ng-401-digits"),
        pytest.param(["bounds", "circuit", "--d", "2", "--k", _HUGE, "--L",
                      "4", "--ng", "5", "--eps", "0.3"],
                     f"k = {_HUGE}", id="k-401-digits"),
        (["bounds", "circuit", "--d", "2", "--k", "1000000000", "--L", "4",
          "--ng", "5", "--eps", "0.3"], "k = 1000000000"),
        (["bounds", "tevol", "--d", "2", "--k", "1000000000", "--L", "4",
          "--K", "3", "--z", "3", "--h", "1.0", "--T", "1.0", "--eps", "0.1"],
         "k = 1000000000"),
        (["crossover", "--d", "2", "--k", "1000000000", "--lmin", "2",
          "--lmax", "4", "--eps", "0.002", "--resource", "time"],
         "k = 1000000000"),
        (["crossover", "--d", "2", "--k", "1000000000", "--lmin", "2",
          "--lmax", "4", "--eps", "0.002", "--resource", "circuit"],
         "k = 1000000000"),
    ])
    def test_overflow_from_other_flags_is_not_blamed_on_eps(self, capsys,
                                                            argv, named):
        # epsilon is moderate here: the exponent d^(2k) ... overflows
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "argument --eps" not in err
        assert "dynnets: error: the log of the bound overflows float64" in err
        assert named in err

    @pytest.mark.parametrize("argv, message", [
        (["verify", "lipschitz", "--n", "0", "--radius", "0.4", "--trials",
          "3", "--seed", "1"], "argument --n: must be at least 1, got 0"),
        (["verify", "lipschitz", "--n", "-2", "--radius", "0.4", "--trials",
          "3", "--seed", "1"], "argument --n: must be at least 1, got -2"),
        (["verify", "kato", "--n", "0", "--m", "4", "--trials", "3", "--seed",
          "1"], "arguments --n and --m: need 1 <= n <= m, got n = 0, m = 4"),
        (["verify", "kato", "--n", "5", "--m", "4", "--trials", "3", "--seed",
          "1"], "arguments --n and --m: need 1 <= n <= m, got n = 5, m = 4"),
        (["verify", "kato", "--n", "1", "--m", "0", "--trials", "3", "--seed",
          "1"], "arguments --n and --m: need 1 <= n <= m, got n = 1, m = 0"),
        (["verify", "kato", "--n", "1", "--m", "2", "--trials", "0", "--seed",
          "1"], "argument --trials: must be at least 1, got 0"),
        (["verify", "lipschitz", "--n", "1", "--radius", "0.4", "--trials",
          "0", "--seed", "1"], "argument --trials: must be at least 1, got 0"),
        (["verify", "lipschitz", "--n", "1", "--radius", "0", "--trials",
          "3", "--seed", "1"], "argument --radius: must be positive, got 0.0"),
        (["verify", "lipschitz", "--n", "2", "--radius", "0.4", "--trials",
          "3", "--seed", "-1"],
         "argument --seed: must be non-negative, got -1"),
        (["verify", "kato", "--n", "1", "--m", "2", "--trials", "3", "--seed",
          "-1"], "argument --seed: must be non-negative, got -1"),
        # the file does not exist: the flags are checked before it is read
        (["verify", "trotter", "--hamiltonian", "missing.json", "--T", "1.0",
          "--nt", "0"], "argument --nt: must be at least 1, got 0"),
        (["verify", "trotter", "--hamiltonian", "missing.json", "--T", "-1",
          "--nt", "4"], "argument --T: must be non-negative, got -1.0"),
        # past the dense cap: refused before any matrix is drawn
        (["verify", "lipschitz", "--n", "4097", "--radius", "0.4", "--trials",
          "1", "--seed", "1"], "argument --n: must be at most 4096, got 4097"),
        (["verify", "kato", "--n", "1", "--m", "4097", "--trials", "1",
          "--seed", "1"], "argument --m: must be at most 4096, got 4097"),
        # a range type still reports a value that is not an int as argparse
        # does, under the name of the type it is built on
        (["verify", "kato", "--n", "1", "--m", "2", "--trials", "x", "--seed",
          "1"], "argument --trials: invalid int value: 'x'"),
        (["verify", "lipschitz", "--n", "x", "--radius", "0.4", "--trials",
          "1", "--seed", "1"], "argument --n: invalid int value: 'x'"),
        # the seeds of every trial are drawn up front: refused before that
        (["verify", "kato", "--n", "1", "--m", "2", "--trials",
          "10000000000", "--seed", "1"],
         "argument --trials: must be at most 1000000, got 10000000000"),
        (["verify", "lipschitz", "--n", "1", "--radius", "0.4", "--trials",
          "1000001", "--seed", "1"],
         "argument --trials: must be at most 1000000, got 1000001"),
    ])
    def test_bad_dimension_names_flag(self, capsys, monkeypatch, argv,
                                      message):
        _forbid_draws(monkeypatch)
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.endswith(f"dynnets: error: {message}\n")
        # only kato's n <= m is checked after parsing, without a usage line
        if message.startswith("arguments --n and --m"):
            assert err == f"dynnets: error: {message}\n"
        else:
            assert err.startswith(f"usage: dynnets verify {argv[1]} ")

    @pytest.mark.parametrize("argv", [
        ["verify", "kato", "--n", "1", "--m", "2", "--trials", "1",
         "--seed", "1"],
        ["verify", "lipschitz", "--n", "1", "--radius", "0.4", "--trials",
         "1", "--seed", "1"],
    ])
    def test_draw_guard_sees_the_handlers_draws(self, capsys, monkeypatch,
                                                argv):
        # the guard of test_bad_dimension_names_flag patches what the
        # handlers really call: with valid flags it trips
        _forbid_draws(monkeypatch)
        with pytest.raises(AssertionError, match="matrix drawn"):
            main(argv)

    @pytest.mark.parametrize("argv, message", [
        (["--n", "0", "--eps", "0.5", "--samples", "10"],
         "argument --n: must be 1 or 2, got 0"),
        (["--n", "3", "--eps", "3.5", "--samples", "10"],
         "argument --n: must be 1 or 2, got 3"),
        (["--n", "2", "--eps", "0.12", "--samples", "0"],
         "argument --samples: must be at least 1, got 0"),
        (["--n", "1", "--eps", "0.5", "--samples", "10", "--seed", "-1"],
         "argument --seed: must be non-negative, got -1"),
    ])
    def test_nets_flags_checked_before_build(self, capsys, monkeypatch,
                                             argv, message):
        def no_build(n, epsilon):
            raise AssertionError("net built before the flags were checked")

        monkeypatch.setattr("dynnets.cli.build_unitary_net", no_build)
        # a --seed in argv comes later and overrides this one
        code, out, err = run_cli(["verify", "nets", "--seed", "1", *argv],
                                 capsys)
        assert code == 1
        assert out == ""
        # the flag types refuse every flag while parsing, with the usage line
        assert err.startswith("usage: dynnets verify nets ")
        assert err.splitlines()[-1] == f"dynnets: error: {message}"

    def test_nets_tiny_epsilon_is_refused(self, capsys):
        code, out, err = run_cli(["verify", "nets", "--n", "2", "--eps",
                                  "1e-300", "--samples", "1", "--seed", "1"],
                                 capsys)
        assert code == 1
        assert out == ""
        assert "dynnets: error: net too large" in err

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()


def _readme_commands():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text(encoding="utf-8").split("## Command line")[1]
    block = block.split("```sh")[1].split("```")[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.startswith("dynnets ")]


def test_readme_commands_exit_zero(capsys, tmp_path, monkeypatch):
    commands = _readme_commands()
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)
    write_chain(tmp_path / "chain.json")
    for argv in commands:
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, ""), argv
        if "--out" not in argv:
            assert json.loads(out)


def test_module_entry_point():
    proc = run_module(["bounds", "grassmann", "--n", "2", "--m", "4",
                       "--eps", "0.01"])
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload == projector_covering_bounds(2, 4, 0.01).as_dict()
