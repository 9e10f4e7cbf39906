import json
import math
import tracemalloc

import numpy as np
import pytest

import dynnets
from dynnets import circuits
from dynnets.circuits import (
    Circuit,
    Gate,
    QuditRegister,
    _apply_gate,
    _pad_gate,
    circuit_covering_log_bound,
    circuit_from_json,
    circuit_to_json,
    circuit_unitary,
    conjugate_observable,
    discretize_circuit,
    topology_count_log,
)
from dynnets import linalg
from dynnets.linalg import (
    UnitaryMatrix,
    _hermitian_part,
    haar_unitary,
    operator_norm,
    spectral_width,
)
from dynnets.trotter import (
    ConstantEnvelope,
    HamiltonianTerm,
    TimeDependentHamiltonian,
    hamiltonian_from_json,
)
from dynnets.unitary_nets import ImplicitGridNet, UnitaryNet, build_unitary_net

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def random_circuit(rng, L, n_gates, k):
    reg = QuditRegister(L, 2)
    gates = []
    for _ in range(n_gates):
        size = int(rng.integers(1, k + 1))
        support = tuple(sorted(rng.choice(L, size=size, replace=False)))
        gates.append(Gate(support, haar_unitary(2 ** size,
                                                seed=int(rng.integers(2 ** 31)))))
    return Circuit(reg, gates)


class TestRegisterAndGate:
    def test_register_dimension_cap(self):
        QuditRegister(12, 2)  # 4096 allowed
        with pytest.raises(ValueError):
            QuditRegister(13, 2)

    def test_huge_register_refused_before_its_power(self):
        # computing 2^(10^8) before refusing it peaks at about 45 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"dense dimension 2\^100000000 "
                               r"exceeds the limit 4096"):
                QuditRegister(10 ** 8, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_gate_support_sorted_and_distinct(self):
        g = Gate((0, 1), haar_unitary(4, seed=0))
        assert g.support == (0, 1)
        with pytest.raises(ValueError):
            Gate((1, 0), haar_unitary(4, seed=0))
        with pytest.raises(ValueError):
            Gate((0, 0), haar_unitary(4, seed=0))

    def test_gate_dimension_must_match_support(self):
        with pytest.raises(ValueError):
            Circuit(QuditRegister(2, 2), [Gate((0, 1), haar_unitary(2, seed=0))])

    def test_gates_must_be_gate_instances(self):
        with pytest.raises(ValueError, match="^circuit gates must be Gate "
                                             "instances$"):
            Circuit(QuditRegister(2, 2), [np.eye(2)])

    def test_support_out_of_range(self):
        with pytest.raises(ValueError):
            Circuit(QuditRegister(2, 2), [Gate((5,), haar_unitary(2, seed=0))])

    @pytest.mark.parametrize("L, d, message", [
        (1.5, 2, "L must be an integer, got 1.5"),
        (True, 2, "L must be an integer, got True"),
        ("3", 2, "L must be an integer, got '3'"),
        (2, 2.0, "d must be an integer, got 2.0"),
        (2, np.True_, "d must be an integer, got np.True_"),
        (0, 2, "register needs at least one site"),
        (2, 1, "local dimension must be at least 2"),
    ])
    def test_register_refuses_non_integers(self, L, d, message):
        with pytest.raises(ValueError) as exc:
            QuditRegister(L, d)
        assert str(exc.value) == message

    def test_register_takes_numpy_integers(self):
        reg = QuditRegister(np.int64(3), np.uint8(2))
        assert (reg.L, reg.d) == (3, 2) and type(reg.L) is type(reg.d) is int


def _one_site_hamiltonian():
    return TimeDependentHamiltonian(
        QuditRegister(1, 2), [HamiltonianTerm((0,), SZ, ConstantEnvelope(1.0))])


@pytest.mark.parametrize("call, message", [
    (lambda: dynnets.certify_trotter(_one_site_hamiltonian(), 1.0, 4.0),
     "n_steps must be an integer, got 4.0"),
    (lambda: dynnets.certify_trotter(_one_site_hamiltonian(), 1.0, True),
     "n_steps must be an integer, got True"),
    (lambda: dynnets.trotter_propagator(_one_site_hamiltonian(), 1.0, 2.0),
     "n_steps must be an integer, got 2.0"),
    (lambda: dynnets.quotient_covering_check(8, 2.0, 1.0),
     "subgroup_order must be an integer, got 2.0"),
    (lambda: dynnets.quotient_covering_check(True, True, 1.0),
     "order must be an integer, got True"),
    (lambda: dynnets.degeneracy_profile_extensive_z(2.5),
     "L must be an integer, got 2.5"),
    (lambda: dynnets.FiniteMetricSpace.cycle(2.0),
     "n must be an integer, got 2.0"),
    (lambda: dynnets.haar_unitary(2.0, 0), "n must be an integer, got 2.0"),
    (lambda: dynnets.skew_basis(2.0), "n must be an integer, got 2.0"),
    (lambda: dynnets.random_subspace(1, 2.0, 0),
     "m must be an integer, got 2.0"),
    (lambda: dynnets.random_skew_in_ball(2.0, 0.5, 0),
     "n must be an integer, got 2.0"),
], ids=["certify-float", "certify-bool", "trotter-float", "quotient-float",
        "quotient-bool", "degeneracy", "cycle", "haar", "skew-basis",
        "subspace", "skew-ball"])
def test_sizes_refuse_non_integers(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


_REPRS = [
    (lambda: QuditRegister(2, 3), "QuditRegister(L=2, d=3)"),
    (lambda: Gate((0, 1), np.eye(4)), "Gate(support=(0, 1), dim=4)"),
    (lambda: Circuit(QuditRegister(2, 2), [Gate((1,), SX)] * 3),
     "Circuit(register=QuditRegister(L=2, d=2), n_gates=3)"),
    (lambda: dynnets.random_subspace(1, 3, 0), "Subspace(n=1, m=3)"),
    (lambda: dynnets.Projector(np.diag([1.0, 0.0, 1.0])),
     "Projector(rank=2, m=3)"),
    (lambda: haar_unitary(2, 0), "UnitaryMatrix(dim=2)"),
    (lambda: dynnets.random_skew_in_ball(3, 0.5, 0), "SkewHermitian(dim=3)"),
    (_one_site_hamiltonian,
     "TimeDependentHamiltonian(register=QuditRegister(L=1, d=2), n_terms=1)"),
    (lambda: build_unitary_net(1, 0.5),
     "UnitaryNet(n=1, epsilon=0.5, count=7)"),
    (lambda: ImplicitGridNet(2, 0.25), "ImplicitGridNet(n=2, epsilon=0.25)"),
]


@pytest.mark.parametrize("build, text", _REPRS,
                         ids=[text.split("(")[0] for _, text in _REPRS])
def test_repr(build, text):
    assert repr(build()) == text


def _gate_on(register, support, dim):
    return Circuit(register, [Gate(support, np.eye(dim))])


def _term_on(register, support, dim):
    term = HamiltonianTerm(support, np.eye(dim), ConstantEnvelope(1.0))
    return TimeDependentHamiltonian(register, [term])


class TestSupportChecks:
    """Gates and Hamiltonian terms share one support rule and its messages."""

    @pytest.mark.parametrize("what, build", [("gate", _gate_on),
                                             ("term", _term_on)],
                             ids=["gate", "term"])
    @pytest.mark.parametrize("support, dim, message", [
        ((), 1, "support must be non-empty"),
        ((0, 0), 4, "support sites must be distinct"),
        ((1, 0), 4, "support must be sorted ascending"),
        ((-1,), 2, "support sites must be non-negative"),
        ((2,), 2, "support (2,) exceeds register size 2"),
        ((0, 1), 2, "on 2 site(s) must be 4-dimensional, got 2"),
    ], ids=["empty", "repeated", "unsorted", "negative", "outside",
            "dimension"])
    def test_bad_support(self, what, build, support, dim, message):
        with pytest.raises(ValueError) as exc:
            build(QuditRegister(2, 2), support, dim)
        assert str(exc.value) == f"{what} {message}"

    @pytest.mark.parametrize("what, build", [("gate", _gate_on),
                                             ("term", _term_on)],
                             ids=["gate", "term"])
    @pytest.mark.parametrize("site", [1.7, 0.0, True, "0"])
    def test_non_integer_site(self, what, build, site):
        with pytest.raises(ValueError) as exc:
            build(QuditRegister(2, 2), (site,), 2)
        assert str(exc.value) == (
            f"{what} support site must be an integer, got {site!r}")

    @pytest.mark.parametrize("build", [_gate_on, _term_on],
                             ids=["gate", "term"])
    def test_numpy_integer_sites(self, build):
        system = build(QuditRegister(2, 2), (np.int64(0), np.int32(1)), 4)
        items = system.gates if isinstance(system, Circuit) else system.terms
        assert items[0].support == (0, 1)
        assert all(type(s) is int for s in items[0].support)


def _kron_embedding(matrix, support, L, d):
    """matrix on support, identity elsewhere: np.kron on the sites ordered
    support first, then permuted back to the register's site order."""
    others = [s for s in range(L) if s not in support]
    grouped = np.kron(matrix, np.eye(d ** len(others)))
    digits = np.indices((d,) * L).reshape(L, -1)
    index = np.ravel_multi_index(digits[list(support) + others], (d,) * L)
    return grouped[np.ix_(index, index)]


def _random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


class TestApplyGate:
    CASES = [(3, 2, (0, 2)), (4, 2, (0, 3)), (4, 2, (1, 3)),
             (4, 2, (0, 2, 3)), (3, 3, (0, 2)), (3, 2, (1, 2))]
    IDS = [f"L{L}-d{d}-sites{''.join(map(str, s))}" for L, d, s in CASES]

    @pytest.mark.parametrize("L, d, support", CASES, ids=IDS)
    def test_matches_kron_embedding(self, L, d, support):
        rng = np.random.default_rng(L + 10 * d + sum(support))
        gate = _random_complex(rng, (d ** len(support),) * 2)
        state = _random_complex(rng, (d ** L,) * 2)
        embedded = _kron_embedding(gate, support, L, d)
        np.testing.assert_allclose(
            _apply_gate(gate, support, np.eye(d ** L), L, d), embedded,
            rtol=0, atol=1e-14)
        np.testing.assert_allclose(_apply_gate(gate, support, state, L, d),
                                   embedded @ state, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("L, d, support", CASES, ids=IDS)
    def test_stack_matches_single_applications(self, L, d, support):
        rng = np.random.default_rng(7)
        gates = _random_complex(rng, (5,) + (d ** len(support),) * 2)
        states = _random_complex(rng, (5,) + (d ** L,) * 2)
        stacked = _apply_gate(gates, support, states, L, d)
        for gate, state, out in zip(gates, states, stacked):
            assert np.array_equal(out, _apply_gate(gate, support, state, L, d))
        shared = _apply_gate(gates[0], support, states, L, d)
        for state, out in zip(states, shared):
            assert np.array_equal(out, _apply_gate(gates[0], support, state,
                                                   L, d))


class TestCircuitUnitary:
    def test_empty_circuit_is_identity(self):
        c = Circuit(QuditRegister(2, 2), [])
        np.testing.assert_array_equal(circuit_unitary(c).array, np.eye(4))

    def test_sigma_x_on_site_zero(self):
        c = Circuit(QuditRegister(2, 2), [Gate((0,), SX)])
        np.testing.assert_allclose(circuit_unitary(c).array,
                                   np.kron(SX, np.eye(2)), atol=1e-14)

    def test_sigma_x_on_site_one(self):
        c = Circuit(QuditRegister(2, 2), [Gate((1,), SX)])
        np.testing.assert_allclose(circuit_unitary(c).array,
                                   np.kron(np.eye(2), SX), atol=1e-14)

    def test_commuting_gates_order_independent(self):
        g0 = Gate((0,), haar_unitary(2, seed=4))
        g1 = Gate((1,), haar_unitary(2, seed=5))
        reg = QuditRegister(2, 2)
        u_a = circuit_unitary(Circuit(reg, [g0, g1]))
        u_b = circuit_unitary(Circuit(reg, [g1, g0]))
        np.testing.assert_allclose(u_a.array, u_b.array, atol=1e-12)

    def test_gate_zero_acts_first(self):
        a = haar_unitary(2, seed=6)
        b = haar_unitary(2, seed=7)
        c = Circuit(QuditRegister(1, 2), [Gate((0,), a), Gate((0,), b)])
        np.testing.assert_allclose(circuit_unitary(c).array,
                                   b.array @ a.array, atol=1e-12)

    def test_composition(self):
        rng = np.random.default_rng(12)
        c1 = random_circuit(rng, 3, 3, 2)
        c2 = Circuit(c1.register, random_circuit(rng, 3, 2, 2).gates)
        whole = Circuit(c1.register, list(c1.gates) + list(c2.gates))
        np.testing.assert_allclose(
            circuit_unitary(whole).array,
            circuit_unitary(c2).array @ circuit_unitary(c1).array,
            atol=1e-10)

    def test_two_site_gate_embedding(self):
        cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
        c = Circuit(QuditRegister(3, 2), [Gate((1, 2), cnot)])
        np.testing.assert_allclose(circuit_unitary(c).array,
                                   np.kron(np.eye(2), cnot), atol=1e-14)


class TestConjugateObservable:
    def test_identity_circuit(self):
        c = Circuit(QuditRegister(1, 2), [])
        np.testing.assert_array_equal(conjugate_observable(c, SZ), SZ)

    def test_hadamard_maps_z_to_x(self):
        c = Circuit(QuditRegister(1, 2), [Gate((0,), HADAMARD)])
        np.testing.assert_allclose(conjugate_observable(c, SZ), SX, atol=1e-12)

    def test_spectrum_preserved(self):
        rng = np.random.default_rng(3)
        c = random_circuit(rng, 3, 4, 2)
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        obs = 0.5 * (g + g.conj().T)
        out = conjugate_observable(c, obs)
        np.testing.assert_allclose(np.linalg.eigvalsh(out),
                                   np.linalg.eigvalsh(obs), atol=1e-10)

    def test_rejects_nonhermitian(self):
        c = Circuit(QuditRegister(1, 2), [])
        with pytest.raises(ValueError):
            conjugate_observable(c, np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("L", [3, 7])
    def test_exactly_hermitian_and_the_product(self, L):
        rng = np.random.default_rng(L)
        c = random_circuit(rng, L, 2 * L, 2)
        g = rng.normal(size=(2, 2 ** L, 2 ** L))
        obs = 0.5 * (g[0] + 1j * g[1] + (g[0] + 1j * g[1]).conj().T)
        out = conjugate_observable(c, obs)
        assert np.array_equal(out, out.conj().T)
        u = circuit_unitary(c).array
        assert np.abs(out - u.conj().T @ obs @ u).max() <= 1e-12

    def test_rejects_dimension_mismatch(self):
        c = Circuit(QuditRegister(2, 2), [])
        with pytest.raises(ValueError):
            conjugate_observable(c, SZ)


class TestExactlyHermitianObservable:
    """Above dimension 64 an exactly Hermitian observable skips the defect test."""

    @staticmethod
    def _setup(monkeypatch, L, defect):
        # a circuit, its unitary, an observable off Hermitian by an
        # anti-Hermitian term with ||O - O^dag|| = defect (-0.0 on the
        # imaginary diagonal when exact), and the _norm_within calls
        rng = np.random.default_rng(L)
        c = random_circuit(rng, L, 2 * L, 2)
        m = 2 ** L
        g = rng.normal(size=(4, m, m))
        obs = _hermitian_part(g[0] + 1j * g[1])
        if defect:
            r = _hermitian_part(g[2] + 1j * g[3])
            obs += (0.5j * defect / operator_norm(r)) * r
        else:
            obs.imag[np.diag_indices(m)] = -0.0
        u = circuit_unitary(c).array
        calls = []
        norm_within = linalg._norm_within

        def spy(stack, tol):
            calls.append(stack.shape)
            return norm_within(stack, tol)

        monkeypatch.setattr(linalg, "_norm_within", spy)
        return c, u, obs, calls

    @staticmethod
    def _assert_bits_equal(a, b):
        assert np.array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("L, defect", [(7, 0.0), (7, 5e-11), (6, 0.0)])
    def test_image_is_the_one_through_the_hermitian_part(
            self, monkeypatch, L, defect):
        c, u, obs, calls = self._setup(monkeypatch, L, defect)
        exact = L == 7 and not defect
        assert np.array_equal(obs, obs.conj().T) == (not defect)
        if not defect:
            assert np.signbit(obs.imag.diagonal()).all()
        else:
            assert 0.9 * defect < operator_norm(obs - obs.conj().T) <= defect
        expect = _hermitian_part(u.conj().T @ _hermitian_part(obs) @ u)
        self._assert_bits_equal(conjugate_observable(c, obs), expect)
        # the defect test runs unless the observable is exactly Hermitian
        # above dimension 64, which then enters the product uncopied
        assert calls == ([] if exact else [obs.shape])
        assert (linalg._require_hermitian(obs) is obs) == exact

    def test_refuses_a_defect_past_the_tolerance(self, monkeypatch):
        c, _, obs, calls = self._setup(monkeypatch, 7, 2e-10)
        with pytest.raises(ValueError,
                           match=r"^matrix is not Hermitian within 1e-10$"):
            conjugate_observable(c, obs)
        assert calls == [obs.shape]


class TestUnitaryCache:
    def test_each_gate_applied_once(self, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args[1])
            return _apply_gate(*args)

        monkeypatch.setattr(circuits, "_apply_gate", counted)
        rng = np.random.default_rng(5)
        c = random_circuit(rng, 4, 6, 2)
        obs = np.diag(rng.normal(size=16)).astype(complex)
        u = circuit_unitary(c)
        conjugate_observable(c, obs)
        conjugate_observable(c, obs)
        assert circuit_unitary(c) is u
        assert calls == [g.support for g in c.gates]

    def test_cached_array_is_read_only(self):
        c = random_circuit(np.random.default_rng(6), 3, 4, 2)
        conjugate_observable(c, np.eye(8))
        u = circuit_unitary(c)
        with pytest.raises(ValueError):
            u.array[0, 0] = 2.0
        assert circuit_unitary(c).array is u.array


class TestDiscretizeCircuit:
    def test_gates_already_in_net_give_zero_bound(self):
        net = build_unitary_net(2, 0.5)
        gate_matrix = UnitaryMatrix(net.matrices[137])
        c = Circuit(QuditRegister(2, 2), [Gate((0,), gate_matrix),
                                          Gate((1,), gate_matrix)])
        c_net, bound = discretize_circuit(c, net)
        assert bound <= 1e-12
        np.testing.assert_allclose(
            circuit_unitary(c_net).array, circuit_unitary(c).array, atol=1e-10)

    def test_random_circuit_deviation_within_bound(self):
        net = build_unitary_net(2, 0.3)
        rng = np.random.default_rng(21)
        reg = QuditRegister(3, 2)
        gates = [Gate((int(rng.integers(3)),),
                      haar_unitary(2, seed=100 + i)) for i in range(4)]
        c = Circuit(reg, gates)
        c_net, bound = discretize_circuit(c, net)
        deviation = operator_norm(circuit_unitary(c_net).array
                                  - circuit_unitary(c).array)
        assert deviation <= bound + 1e-10
        assert bound <= 4 * 0.3 + 1e-12

    def test_conjugation_error_bound(self):
        net = build_unitary_net(2, 0.3)
        rng = np.random.default_rng(33)
        reg = QuditRegister(2, 2)
        gates = [Gate((i % 2,), haar_unitary(2, seed=200 + i))
                 for i in range(3)]
        c = Circuit(reg, gates)
        c_net, bound = discretize_circuit(c, net)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        obs = 0.5 * (g + g.conj().T)
        err = operator_norm(conjugate_observable(c_net, obs)
                            - conjugate_observable(c, obs))
        assert err <= 2.0 * bound * spectral_width(obs) + 1e-10

    def test_mixed_supports_pad_to_net_dimension(self):
        net = ImplicitGridNet(4, 0.4)
        reg = QuditRegister(3, 2)
        gates = [Gate((1,), haar_unitary(2, seed=1)),
                 Gate((0, 2), haar_unitary(4, seed=2))]
        c = Circuit(reg, gates)
        c_net, bound = discretize_circuit(c, net)
        assert all(len(g.support) == 2 for g in c_net.gates)
        deviation = operator_norm(circuit_unitary(c_net).array
                                  - circuit_unitary(c).array)
        assert deviation <= bound + 1e-10
        assert bound <= 2 * 0.4 + 1e-12

    @pytest.mark.parametrize("n, L, grid", [(2, 3, False), (4, 4, False),
                                            (4, 4, True)],
                             ids=["2-3", "4-4", "grid-4-4"])
    def test_stacked_search_is_per_gate_nearest(self, n, L, grid):
        # one- and two-site gates; on the U(4) nets every one-site gate is
        # padded to two sites first
        if grid:
            net = ImplicitGridNet(4, 0.4)
        elif n == 2:
            net = build_unitary_net(2, 0.5)
        else:
            net = UnitaryNet(4, 2.0, np.array(
                [haar_unitary(4, seed=300 + i).array for i in range(500)]))
        one_gate = net.round if grid else net.nearest
        rng = np.random.default_rng(n)
        gates = []
        for i in range(3 * L):
            if n == 4 and i % 2:
                support = tuple(sorted(rng.choice(L, 2, replace=False).tolist()))
                gates.append(Gate(support, haar_unitary(4, seed=400 + i)))
            else:
                gates.append(Gate((int(rng.integers(L)),),
                                  haar_unitary(2, seed=400 + i)))
        c = Circuit(QuditRegister(L, 2), gates)
        c_net, bound = discretize_circuit(c, net)
        total = 0.0
        for gate, snapped in zip(c.gates, c_net.gates):
            padded = _pad_gate(gate, n.bit_length() - 1, L, 2)
            element, dist = one_gate(padded.matrix)
            assert snapped.support == padded.support
            assert np.array_equal(snapped.matrix.array, element.array)
            total += dist
        assert bound == total
        assert len(c_net.gates) == len(c.gates)

    def test_empty_circuit(self):
        # scipy's batched Schur form, behind ImplicitGridNet, refuses an
        # empty stack
        for net in (build_unitary_net(2, 0.8), ImplicitGridNet(4, 0.4)):
            c_net, bound = discretize_circuit(Circuit(QuditRegister(2, 2), []),
                                              net)
            assert c_net.gates == () and bound == 0.0

    def test_net_dimension_must_be_power_of_d(self):
        from dynnets.unitary_nets import UnitaryNet

        net = UnitaryNet(3, 0.9, np.eye(3)[None].astype(complex))
        c = Circuit(QuditRegister(2, 2), [Gate((0,), haar_unitary(2, seed=3))])
        with pytest.raises(ValueError):
            discretize_circuit(c, net)

    @pytest.mark.parametrize("net, message", [
        (UnitaryNet(2, 0.5, np.eye(2)[None]),
         "^gate on 2 sites exceeds the net's 1 sites$"),
        (ImplicitGridNet(8, 0.3), "^net acts on 3 sites but the register has 2$"),
    ], ids=["two-site-gate-on-U2", "U8-on-two-qubits"])
    def test_net_wider_or_narrower_than_the_gates_refused(self, net, message):
        c = Circuit(QuditRegister(2, 2), [Gate((0, 1), np.eye(4))])
        with pytest.raises(ValueError, match=message):
            discretize_circuit(c, net)


class TestCircuitCoveringLogBound:
    def test_frozen_value(self):
        # cross-checked against 50-digit evaluation of the formula
        bound = circuit_covering_log_bound(2, 2, 4, 5, 0.1)
        np.testing.assert_allclose(bound.ln_value, 537.9493704146713,
                                   rtol=1e-12)
        np.testing.assert_allclose(bound.log10_value, 233.62844311442017,
                                   rtol=1e-12)

    def test_symbolic_identity(self):
        d, k, L, ng, eps = 2, 1, 5, 7, 0.2
        bound = circuit_covering_log_bound(d, k, L, ng, eps)
        expect = k * ng * math.log(L) + d ** (2 * k) * ng * math.log(
            14.0 * ng / eps)
        np.testing.assert_allclose(bound.ln_value, expect, rtol=1e-14)

    def test_doubling_gates_more_than_doubles(self):
        base = circuit_covering_log_bound(2, 2, 4, 5, 0.1).ln_value
        doubled = circuit_covering_log_bound(2, 2, 4, 10, 0.1).ln_value
        assert doubled > 2.0 * base

    def test_validity_window(self):
        with pytest.raises(ValueError, match="epsilon"):
            circuit_covering_log_bound(2, 2, 4, 5, 1.5)  # needs eps <= ng/5

    def test_rejects_nan_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be positive"):
            circuit_covering_log_bound(2, 2, 4, 5, math.nan)

    @pytest.mark.parametrize("position", [0, 1, 2, 3])
    def test_rejects_sizes_below_their_minimum(self, position):
        args = [2, 2, 4, 5, 0.1]
        args[position] = 1 if position == 0 else 0
        with pytest.raises(ValueError, match="^d >= 2, k >= 1, L >= 1, and "
                                             "n_gates >= 1 required$"):
            circuit_covering_log_bound(*args)

    def test_gates_exceed_sites_flag(self):
        assert circuit_covering_log_bound(
            2, 1, 4, 5, 0.1).context["hypothesis_gates_exceed_sites"]
        assert not circuit_covering_log_bound(
            2, 1, 8, 5, 0.1).context["hypothesis_gates_exceed_sites"]


class TestTopologyCountLog:
    def test_single_site_register(self):
        assert topology_count_log(1, 2, 5) == 0.0

    def test_example_value(self):
        np.testing.assert_allclose(topology_count_log(4, 2, 5),
                                   10.0 * math.log(4.0), rtol=1e-14)

    @pytest.mark.parametrize("L, k, n_gates", [(0, 2, 5), (4, 0, 5), (4, 2, -1)])
    def test_rejects_sizes_below_their_minimum(self, L, k, n_gates):
        with pytest.raises(ValueError, match="^L >= 1, k >= 1, n_gates >= 0 "
                                             "required$"):
            topology_count_log(L, k, n_gates)

    def test_monotone(self):
        base = topology_count_log(4, 2, 5)
        assert topology_count_log(5, 2, 5) > base
        assert topology_count_log(4, 3, 5) > base
        assert topology_count_log(4, 2, 6) > base


_JSON_FORMATS = {
    "circuit": (circuit_from_json, "gates", "gate",
                {"support": [0], "matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]}),
    "Hamiltonian": (hamiltonian_from_json, "terms", "term",
                    {"support": [0], "base": [[1, 0], [0, 0], [0, 0], [1, 0]],
                     "envelope": {"kind": "constant", "value": 1.0}}),
}


class TestJsonIntegers:
    """Both JSON formats refuse a non-integer L, d or site instead of
    truncating it, through the same checks as the API."""

    @pytest.mark.parametrize("kind", list(_JSON_FORMATS))
    @pytest.mark.parametrize("field, value", [
        ("L", 1.5), ("L", True), ("L", "3"), ("d", 2.5), ("d", False)])
    def test_register_field(self, kind, field, value):
        parse, items, _, item = _JSON_FORMATS[kind]
        data = {"L": 2, "d": 2, items: [item], field: value}
        with pytest.raises(ValueError) as exc:
            parse(data)
        assert str(exc.value) == f"{kind} JSON 'L' and 'd' must be integers"

    @pytest.mark.parametrize("kind", list(_JSON_FORMATS))
    @pytest.mark.parametrize("site", [1.7, 1.0, True, "1"])
    def test_support_site(self, kind, site):
        parse, items, what, item = _JSON_FORMATS[kind]
        data = {"L": 2, "d": 2, items: [{**item, "support": [site]}]}
        with pytest.raises(ValueError) as exc:
            parse(data)
        assert str(exc.value) == (
            f"{what} support site must be an integer, got {site!r}")

    @pytest.mark.parametrize("kind", list(_JSON_FORMATS))
    def test_integers_still_parse(self, kind):
        parse, items, _, item = _JSON_FORMATS[kind]
        parsed = parse(json.dumps({"L": 2, "d": 2,
                                   items: [{**item, "support": [1]}]}))
        assert (parsed.register.L, parsed.register.d) == (2, 2)
        assert getattr(parsed, items)[0].support == (1,)


class TestCircuitJson:
    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        c = random_circuit(rng, 3, 4, 2)
        data = circuit_to_json(c)
        back = circuit_from_json(data)
        assert back.register == c.register
        assert len(back.gates) == len(c.gates)
        for g1, g2 in zip(back.gates, c.gates):
            assert g1.support == g2.support
            np.testing.assert_allclose(g1.matrix.array, g2.matrix.array,
                                       atol=1e-15)
        np.testing.assert_allclose(circuit_unitary(back).array,
                                   circuit_unitary(c).array, atol=1e-12)

    def test_json_is_plain_data(self):
        import json

        rng = np.random.default_rng(10)
        c = random_circuit(rng, 2, 2, 1)
        text = json.dumps(circuit_to_json(c))
        back = circuit_from_json(json.loads(text))
        np.testing.assert_allclose(circuit_unitary(back).array,
                                   circuit_unitary(c).array, atol=1e-12)

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            circuit_from_json({"L": 2, "gates": []})

    @pytest.mark.parametrize("data, message", [
        ({"d": 2, "gates": []}, "circuit JSON missing key 'L'"),
        ({"L": 2, "gates": []}, "circuit JSON missing key 'd'"),
        ({"L": 2, "d": 2}, "circuit JSON missing key 'gates'"),
        ({"L": 1, "d": 2, "gates": [{"support": [0], "matrix": [1, 0, 0, 1]}]},
         "gate matrix must be a list of [re, im] pairs"),
        ({"L": 1, "d": 2, "gates": [{"support": [0],
                                     "matrix": [[1, 0, 0]] * 4}]},
         "gate matrix must be a list of [re, im] pairs"),
        ({"L": 1, "d": 2, "gates": [{"support": [0],
                                     "matrix": [[1, 0], [0, 0], [0, 0]]}]},
         "gate matrix has 3 entries, expected 4"),
        ({"L": 1, "d": 2, "gates": [{"matrix": [[1, 0], [0, 0], [0, 0], [1, 0]]}]},
         "circuit JSON item in 'gates' missing key 'support'"),
        ({"L": 1, "d": 2, "gates": [{"support": [0]}]},
         "circuit JSON item in 'gates' missing key 'matrix'"),
        ([], "circuit JSON must be an object, got list"),
        ({"L": None, "d": 2, "gates": []},
         "circuit JSON 'L' and 'd' must be integers"),
        ({"L": 1, "d": [2], "gates": []},
         "circuit JSON 'L' and 'd' must be integers"),
        ({"L": 1, "d": 2, "gates": {}},
         "circuit JSON 'gates' must be a list, got dict"),
        ({"L": 1, "d": 2, "gates": [[0]]},
         "circuit JSON item in 'gates' must be an object, got list"),
        ({"L": 1, "d": 2, "gates": [{"support": 0, "matrix": []}]},
         "circuit JSON item in 'gates': 'support' must be a list of integers"),
    ])
    def test_error_messages(self, data, message):
        with pytest.raises(ValueError) as exc:
            circuit_from_json(data)
        assert str(exc.value) == message
