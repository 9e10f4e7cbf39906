"""Byte-identity of the CLI reports and the JSON wire formats.

``tests/golden/outputs.json`` pins the exact stdout of the CLI's bound,
crossover and lemma-check commands, which draw no random matrices, plus
the ``circuit_to_json`` / ``hamiltonian_to_json`` text of one fixed
circuit and one fixed Hamiltonian. A format change that is meant to alter
these bytes regenerates the file with ``python tests/test_golden.py``.
"""

import contextlib
import io
import json
import math
import pathlib
import sys

import numpy as np
import pytest

from dynnets.circuits import Circuit, Gate, QuditRegister, circuit_to_json
from dynnets.cli import main
from dynnets.trotter import (
    ConstantEnvelope,
    CosineEnvelope,
    HamiltonianTerm,
    PiecewiseLinearEnvelope,
    TimeDependentHamiltonian,
    hamiltonian_to_json,
)

GOLDEN = pathlib.Path(__file__).parent / "golden" / "outputs.json"

_CROSSOVER = ["crossover", "--d", "2", "--k", "2", "--eps", "0.001",
              "--lmin", "8", "--lmax", "12"]

CLI_CASES = [
    ["bounds", "circuit", "--d", "2", "--k", "2", "--L", "4", "--ng", "8",
     "--eps", "0.3"],
    ["bounds", "tevol", "--d", "2", "--k", "2", "--L", "4", "--K", "3",
     "--z", "3", "--h", "1.0", "--T", "1.0", "--eps", "0.1"],
    ["bounds", "grassmann", "--n", "8", "--m", "16", "--eps", "0.002"],
    _CROSSOVER + ["--resource", "circuit"],
    _CROSSOVER + ["--resource", "circuit", "--format", "csv"],
    _CROSSOVER + ["--resource", "time"],
    _CROSSOVER + ["--resource", "time", "--format", "csv"],
    ["verify", "lemmas", "--which", "product"],
    ["verify", "lemmas", "--which", "quotient"],
    ["verify", "lemmas", "--which", "sandwich"],
]

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1j], [1j, 0.0]])
_ZZ = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0])).astype(complex)


def fixed_circuit() -> Circuit:
    h = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)
    c, s = math.cos(0.3), math.sin(0.3)
    phase = np.diag([1.0, complex(c, s)])
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    return Circuit(QuditRegister(3, 2), [
        Gate((0,), h), Gate((0, 1), cnot), Gate((2,), phase),
        Gate((1, 2), np.kron(h, phase)),
    ])


def fixed_hamiltonian() -> TimeDependentHamiltonian:
    return TimeDependentHamiltonian(QuditRegister(3, 2), [
        HamiltonianTerm((0, 1), _ZZ, CosineEnvelope(0.8, 2.0, 0.25)),
        HamiltonianTerm((1,), _SY, ConstantEnvelope(-0.5)),
        HamiltonianTerm((2,), _SX,
                        PiecewiseLinearEnvelope([0.0, 0.5, 2.0],
                                                [0.1, -1.0 / 3.0, 1.5])),
    ])


def _cli_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return buf.getvalue()


def render_all() -> dict:
    outputs = {" ".join(argv): _cli_stdout(argv) for argv in CLI_CASES}
    outputs["circuit_to_json"] = json.dumps(circuit_to_json(fixed_circuit()))
    outputs["hamiltonian_to_json"] = json.dumps(
        hamiltonian_to_json(fixed_hamiltonian()))
    return outputs


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", CLI_CASES, ids=" ".join)
def test_cli_stdout(argv, golden):
    assert _cli_stdout(argv) == golden[" ".join(argv)]


def test_circuit_json_text(golden):
    text = json.dumps(circuit_to_json(fixed_circuit()))
    assert text == golden["circuit_to_json"]


def test_hamiltonian_json_text(golden):
    text = json.dumps(hamiltonian_to_json(fixed_hamiltonian()))
    assert text == golden["hamiltonian_to_json"]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(render_all(), indent=1) + "\n",
                      encoding="utf-8")
    print(f"wrote {GOLDEN}", file=sys.stderr)
