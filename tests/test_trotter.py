import json
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, strategies as st

import dynnets.trotter as trotter_module
from dynnets.circuits import QuditRegister, _apply_gate
from dynnets.cli import main as cli_main
from dynnets.linalg import _exp_skew_stack, operator_norm
from dynnets.trotter import (
    CertificateViolation,
    ConstantEnvelope,
    CosineEnvelope,
    HamiltonianTerm,
    PiecewiseLinearEnvelope,
    TimeDependentHamiltonian,
    certify_trotter,
    commutation_degree,
    envelope_from_json,
    evolution_covering_log_bound,
    exact_propagator,
    hamiltonian_from_json,
    hamiltonian_to_json,
    term_norm_sup,
    trotter_propagator,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SY = np.array([[0.0, -1j], [1j, 0.0]])
SZ = np.diag([1.0, -1.0]).astype(complex)
ZZ = np.kron(SZ, SZ)


def qubit_pair_hamiltonian():
    """Two non-commuting cosine-modulated terms on one qubit pair."""
    reg = QuditRegister(2, 2)
    terms = [
        HamiltonianTerm((0, 1), ZZ, CosineEnvelope(0.9, 2.0)),
        HamiltonianTerm((0,), SX, CosineEnvelope(0.7, 3.0, 0.5)),
    ]
    return TimeDependentHamiltonian(reg, terms)


def random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def mixed_envelope_chain(t_final=1.0):
    """3-site chain with cosine, piecewise-linear and constant envelopes."""
    rng = np.random.default_rng(31)
    reg = QuditRegister(3, 2)
    terms = [
        HamiltonianTerm((0, 1), random_hermitian(rng, 4),
                        CosineEnvelope(0.8, 2.5, 0.3)),
        HamiltonianTerm((1, 2), random_hermitian(rng, 4),
                        PiecewiseLinearEnvelope([0.0, 0.45 * t_final, t_final],
                                                [0.6, -0.9, 0.4])),
        HamiltonianTerm((2,), SX, ConstantEnvelope(-0.7)),
    ]
    return TimeDependentHamiltonian(reg, terms)


class TestEnvelopes:
    def test_constant(self):
        env = ConstantEnvelope(0.4)
        np.testing.assert_allclose(env(np.linspace(0, 5, 7)), 0.4)
        assert env.sup_abs(0.0, 5.0) == 0.4
        assert env.breakpoints() == ()

    def test_cosine_values(self):
        env = CosineEnvelope(2.0, 3.0, 0.25)
        t = np.linspace(0, 2, 9)
        np.testing.assert_allclose(env(t), 2.0 * np.cos(3.0 * t + 0.25))

    def test_cosine_sup_hits_peak(self):
        env = CosineEnvelope(1.5, 2.0)
        # peak at t = pi/2 lies inside [1, 2]
        assert env.sup_abs(1.0, 2.0) == pytest.approx(1.5)

    def test_cosine_sup_endpoint_window(self):
        env = CosineEnvelope(1.0, 1.0)
        # no extremum of cos inside [0.1, 0.8]: sup is at the left endpoint
        assert env.sup_abs(0.1, 0.8) == pytest.approx(math.cos(0.1))

    def test_pwl_interpolation_and_sup(self):
        env = PiecewiseLinearEnvelope([0.0, 1.0, 2.0], [0.0, -3.0, 1.0])
        assert env(0.5) == pytest.approx(-1.5)
        assert env.sup_abs(0.0, 2.0) == pytest.approx(3.0)
        assert env.breakpoints() == (0.0, 1.0, 2.0)

    def test_pwl_domain_error(self):
        env = PiecewiseLinearEnvelope([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="domain"):
            env(2.0)

    def test_pwl_requires_increasing_times(self):
        with pytest.raises(ValueError):
            PiecewiseLinearEnvelope([0.0, 0.0], [1.0, 2.0])

    def test_json_roundtrip_all_kinds(self):
        envelopes = [ConstantEnvelope(0.3),
                     CosineEnvelope(1.0, 2.0, 0.1),
                     PiecewiseLinearEnvelope([0.0, 0.5, 1.0], [1.0, 0.0, 2.0])]
        t = np.linspace(0, 1, 11)
        for env in envelopes:
            back = envelope_from_json(json.loads(json.dumps(env.to_json())))
            np.testing.assert_allclose(back(t), env(t), atol=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            envelope_from_json({"kind": "spline"})


class TestTermNormSup:
    def test_constant_zz(self):
        term = HamiltonianTerm((0, 1), ZZ, ConstantEnvelope(1.0))
        assert term_norm_sup(term, 2.0) == pytest.approx(1.0)

    def test_cosine_scales_base_norm(self):
        base = 2.0 * ZZ  # norm 2
        term = HamiltonianTerm((0, 1), base, CosineEnvelope(0.7, 5.0))
        assert term_norm_sup(term, 3.0) == pytest.approx(1.4)

    def test_zero_base(self):
        term = HamiltonianTerm((0,), np.zeros((2, 2)), CosineEnvelope(1.0, 1.0))
        assert term_norm_sup(term, 1.0) == 0.0


_coef = st.floats(-5.0, 5.0)


@st.composite
def envelope_and_window(draw):
    """An envelope of each kind, a window [t0, t1] and a Lipschitz constant."""
    kind = draw(st.sampled_from(["constant", "cosine", "pwl"]))
    if kind == "pwl":
        steps = draw(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=7))
        times = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0],
                                                            np.cumsum(steps)])
        values = draw(st.lists(_coef, min_size=len(times),
                               max_size=len(times)))
        env = PiecewiseLinearEnvelope(times, values)
        lo, hi = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2,
                                      max_size=2)))
        span = times[-1] - times[0]
        t0, t1 = times[0] + lo * span, times[0] + hi * span
        lipschitz = float(np.max(np.abs(np.diff(values) / np.diff(times))))
        return env, t0, t1, lipschitz
    t0 = draw(st.floats(-10.0, 10.0))
    t1 = t0 + draw(st.floats(0.0, 10.0))
    if kind == "constant":
        return ConstantEnvelope(draw(_coef)), t0, t1, 0.0
    amplitude, omega = draw(_coef), draw(st.floats(-20.0, 20.0))
    env = CosineEnvelope(amplitude, omega, draw(st.floats(-10.0, 10.0)))
    return env, t0, t1, abs(amplitude * omega)


class TestSupAbs:
    @given(envelope_and_window())
    def test_matches_dense_sampling(self, case):
        env, t0, t1, lipschitz = case
        n_samples = 10_000
        sampled = float(np.max(np.abs(env(np.linspace(t0, t1, n_samples)))))
        sup = env.sup_abs(t0, t1)
        # a few ulps cover np.cos against math.cos at the window endpoints
        rounding = 8 * np.finfo(float).eps * max(sampled, 1.0)
        assert sup >= sampled - rounding
        # every point lies within half a sample spacing of a sample
        missable = lipschitz * 0.5 * (t1 - t0) / (n_samples - 1)
        assert sup <= sampled + missable + rounding


class TestIntegral:
    @given(envelope_and_window())
    def test_matches_dense_quadrature(self, case):
        env, t0, t1, lipschitz = case
        n_samples = 10_001
        t = np.linspace(t0, t1, n_samples)
        quad = float(np.trapezoid(env(t), t))
        # the trapezoid rule misses at most L * h^2 / 4 per panel on an
        # L-Lipschitz integrand
        spacing = (t1 - t0) / (n_samples - 1)
        missable = lipschitz * spacing * (t1 - t0) / 4.0
        rounding = 1e-11 * (1.0 + env.sup_abs(t0, t1) * (t1 - t0))
        assert abs(env.integral(t0, t1) - quad) <= missable + rounding

    @given(envelope_and_window())
    def test_reversed_window(self, case):
        env, t0, t1, _ = case
        assert env.integral(t1, t0) == -env.integral(t0, t1)
        assert env.sup_abs(t1, t0) == env.sup_abs(t0, t1)

    @pytest.mark.parametrize("omega", [0.0, 1e-9, -1e-9, 5e-324])
    def test_cosine_small_frequency(self, omega):
        # a / omega * (sin(b) - sin(a)) divides by zero at omega = 0, loses
        # eps / omega at 1e-9 and overflows at 5e-324
        env = CosineEnvelope(1.3, omega, 0.7)
        t = np.linspace(-0.5, 2.5, 10_001)
        quad = float(np.trapezoid(env(t), t))
        assert env.integral(-0.5, 2.5) == pytest.approx(quad, rel=1e-12)

    def test_pwl_exact_on_breakpoints(self):
        env = PiecewiseLinearEnvelope([0.0, 1.0, 2.0], [0.0, -3.0, 1.0])
        assert env.integral(0.0, 2.0) == pytest.approx(-2.5, rel=1e-15)
        assert env.integral(0.5, 1.5) == pytest.approx(-2.125, rel=1e-15)
        assert env.integral(2.0, 0.0) == pytest.approx(2.5, rel=1e-15)
        assert env.sup_abs(2.0, 0.0) == 3.0

    def test_pwl_domain_error(self):
        env = PiecewiseLinearEnvelope([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="domain"):
            env.integral(0.5, 2.0)
        with pytest.raises(ValueError, match="domain"):
            env.integral(-1.0, 0.5)


class TestConstantEnvelope:
    """A constant is the cosine of frequency and phase 0, exactly."""

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
    def test_exact_values(self, v, t0, t1):
        env = ConstantEnvelope(v)
        assert env(t0) == v
        assert np.all(env(np.array([t0, t1])) == v)
        assert env.integral(t0, t1) == v * (t1 - t0)
        assert env.sup_abs(t0, t1) == abs(v)

    def test_is_zero_frequency_cosine(self):
        env = ConstantEnvelope(-0.7)
        assert isinstance(env, CosineEnvelope)
        assert (env.omega, env.phase, env.value) == (0.0, 0.0, -0.7)
        assert env.to_json() == {"kind": "constant", "value": -0.7}
        with pytest.raises(AttributeError):
            env.value = 1.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="envelope value must be finite"):
            ConstantEnvelope(float("nan"))


class TestCommutationDegree:
    def test_single_term(self):
        reg = QuditRegister(2, 2)
        h = TimeDependentHamiltonian(
            reg, [HamiltonianTerm((0, 1), ZZ, ConstantEnvelope(1.0))])
        assert commutation_degree(h) == 1

    def test_open_chain_of_four(self):
        reg = QuditRegister(4, 2)
        terms = [HamiltonianTerm((i, i + 1), ZZ, ConstantEnvelope(1.0))
                 for i in range(3)]
        h = TimeDependentHamiltonian(reg, terms)
        assert commutation_degree(h) == 3  # middle term meets both neighbors

    def test_disjoint_single_sites(self):
        reg = QuditRegister(3, 2)
        terms = [HamiltonianTerm((i,), SX, ConstantEnvelope(1.0))
                 for i in range(3)]
        h = TimeDependentHamiltonian(reg, terms)
        assert commutation_degree(h) == 1


class TestExactPropagator:
    def test_zero_hamiltonian(self):
        reg = QuditRegister(2, 2)
        h = TimeDependentHamiltonian(
            reg, [HamiltonianTerm((0, 1), np.zeros((4, 4)),
                                  ConstantEnvelope(1.0))])
        u = exact_propagator(h, 1.0)
        np.testing.assert_allclose(u.array, np.eye(4), atol=1e-11)

    def test_qubit_x_rotation(self):
        reg = QuditRegister(1, 2)
        h = TimeDependentHamiltonian(
            reg, [HamiltonianTerm((0,), SX, ConstantEnvelope(1.0))])
        u = exact_propagator(h, math.pi / 2)
        import scipy.linalg

        expect = scipy.linalg.expm(-1j * (math.pi / 2) * SX)
        assert operator_norm(u.array - expect) <= 1e-9

    def test_time_independent_matches_eigensolution(self):
        rng = np.random.default_rng(14)
        reg = QuditRegister(2, 2)
        base = random_hermitian(rng, 4)
        h = TimeDependentHamiltonian(
            reg, [HamiltonianTerm((0, 1), base, ConstantEnvelope(1.0))])
        u = exact_propagator(h, 1.3, tol=1e-11)
        w, v = np.linalg.eigh(base)
        expect = (v * np.exp(-1j * w * 1.3)) @ v.conj().T
        assert operator_norm(u.array - expect) <= 1e-10

    def test_tolerance_self_consistency(self):
        h = qubit_pair_hamiltonian()
        u1 = exact_propagator(h, 1.7, tol=1e-8)
        u2 = exact_propagator(h, 1.7, tol=1e-10)
        assert operator_norm(u1.array - u2.array) <= 1e-7

    def test_piecewise_envelope_kinks_handled(self):
        reg = QuditRegister(1, 2)
        env = PiecewiseLinearEnvelope([0.0, 1.0, 2.0], [1.0, -1.0, 0.5])
        h = TimeDependentHamiltonian(reg, [HamiltonianTerm((0,), SX, env)])
        u1 = exact_propagator(h, 2.0, tol=1e-8)
        u2 = exact_propagator(h, 2.0, tol=1e-11)
        assert operator_norm(u1.array - u2.array) <= 1e-7

    def test_tolerance_floor(self):
        h = qubit_pair_hamiltonian()
        with pytest.raises(ValueError):
            exact_propagator(h, 1.0, tol=1e-13)

    def test_dimension_limit(self):
        reg = QuditRegister(7, 2)
        h = TimeDependentHamiltonian(
            reg, [HamiltonianTerm((0,), SX, ConstantEnvelope(1.0))])
        with pytest.raises(ValueError):
            exact_propagator(h, 1.0)


def runaway_chain():
    """3-site cosine chain: about 214 attempted steps over [0, 1] when sound."""
    reg = QuditRegister(3, 2)
    return TimeDependentHamiltonian(reg, [
        HamiltonianTerm((0, 1), ZZ, CosineEnvelope(0.9, 2.0)),
        HamiltonianTerm((1,), SX, CosineEnvelope(0.7, 1.3, 0.4)),
        HamiltonianTerm((1, 2), ZZ, CosineEnvelope(0.5, 2.5)),
    ])


def break_step_control(monkeypatch):
    # Both half steps on the first half's nodes: the doubling estimate never
    # falls under its budget for a time-dependent chain.
    monkeypatch.setattr(trotter_module, "_ATTEMPT_STARTS", np.zeros(6))
    monkeypatch.setattr(trotter_module, "_MAX_ATTEMPTS", 2000)


class TestStepBudget:
    def test_sound_controller_within_budget(self, monkeypatch):
        monkeypatch.setattr(trotter_module, "_MAX_ATTEMPTS", 2000)
        exact_propagator(runaway_chain(), 1.0)

    def test_runaway_controller_raises(self, monkeypatch):
        break_step_control(monkeypatch)
        with pytest.raises(ValueError, match="exceeded 2000 attempted steps"):
            exact_propagator(runaway_chain(), 1.0)

    def test_runaway_cli_exits_one(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(hamiltonian_to_json(runaway_chain())),
                        encoding="utf-8")
        break_step_control(monkeypatch)
        code = cli_main(["verify", "trotter", "--hamiltonian", str(path),
                         "--T", "1.0", "--nt", "4"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err.startswith("dynnets: error: adaptive propagator exceeded")


class TestBatchedAttempt:
    """The six-node attempt against three textbook CF4 steps."""

    @staticmethod
    def textbook_cf4(hamiltonian, t, h):
        # Blanes-Moan CF4: nodes t + (1/2 -+ sqrt(3)/6) h, weights
        # 1/4 +- sqrt(3)/6; exp(-i h (a1 H1 + a2 H2)) acts first.
        a1, a2 = 0.25 + math.sqrt(3) / 6, 0.25 - math.sqrt(3) / 6
        h1 = hamiltonian(t + (0.5 - math.sqrt(3) / 6) * h)
        h2 = hamiltonian(t + (0.5 + math.sqrt(3) / 6) * h)
        return (scipy.linalg.expm(-1j * h * (a2 * h1 + a1 * h2))
                @ scipy.linalg.expm(-1j * h * (a1 * h1 + a2 * h2)))

    def test_matches_three_textbook_steps(self):
        h = mixed_envelope_chain()
        eye = np.eye(2)
        dense = [np.kron(h.terms[0].base, eye), np.kron(eye, h.terms[1].base),
                 np.kron(np.eye(4), h.terms[2].base)]

        def hamiltonian(t):
            return sum(float(term.envelope(t)) * b
                       for term, b in zip(h.terms, dense))

        envelopes = [term.envelope for term in h.terms]
        bases = trotter_module._embedded_bases(h)
        for t, step in ((0.0, 0.3), (0.21, 0.37), (0.5, 0.5)):
            coarse, fine = trotter_module._cf4_attempt(envelopes, bases, t, step)
            half = 0.5 * step
            expect_coarse = self.textbook_cf4(hamiltonian, t, step)
            expect_fine = (self.textbook_cf4(hamiltonian, t + half, half)
                           @ self.textbook_cf4(hamiltonian, t, half))
            assert operator_norm(coarse - expect_coarse) <= 1e-13
            assert operator_norm(fine - expect_fine) <= 1e-13

    def test_one_exponential_and_one_norm_per_attempt(self, monkeypatch):
        counts = {"attempt": 0, "exp": 0, "norm": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(trotter_module, "_cf4_attempt",
                            counted("attempt", trotter_module._cf4_attempt))
        monkeypatch.setattr(trotter_module, "_exp_skew_stack",
                            counted("exp", trotter_module._exp_skew_stack))
        monkeypatch.setattr(trotter_module, "operator_norm",
                            counted("norm", trotter_module.operator_norm))
        exact_propagator(mixed_envelope_chain(), 1.0)
        assert counts["attempt"] > 0
        assert counts["exp"] == counts["norm"] == counts["attempt"]


class TestTrotterPropagator:
    @pytest.mark.parametrize("n_steps", [1, 7, 64])
    @pytest.mark.parametrize("kind", [0, 1, 2])
    def test_matches_slice_by_slice_loop(self, kind, n_steps):
        full = mixed_envelope_chain(1.3)
        # Every term gets the same envelope kind, so each kind is pinned alone.
        h = TimeDependentHamiltonian(full.register, [
            HamiltonianTerm(term.support, term.base, full.terms[kind].envelope)
            for term in full.terms])
        reg = h.register
        u = np.eye(reg.dim, dtype=complex)
        delta = 1.3 / n_steps
        for step in range(n_steps):
            t0, t1 = step * delta, (step + 1) * delta
            for term in h.terms:
                local = _exp_skew_stack(
                    -1j * term.envelope.integral(t0, t1) * term.base[None])[0]
                u = _apply_gate(local, term.support, u, reg.L, reg.d)
        assert np.array_equal(trotter_propagator(h, 1.3, n_steps).array, u)

    def test_single_term_matches_exact(self):
        reg = QuditRegister(2, 2)
        for env in (CosineEnvelope(1.0, 2.0),
                    PiecewiseLinearEnvelope([0.0, 0.4, 1.0], [0.5, -1.0, 0.8]),
                    ConstantEnvelope(0.7)):
            h = TimeDependentHamiltonian(
                reg, [HamiltonianTerm((0, 1), ZZ, env)])
            exact = exact_propagator(h, 1.0, tol=1e-11)
            for n_steps in (1, 3, 8):
                approx = trotter_propagator(h, 1.0, n_steps)
                assert operator_norm(approx.array - exact.array) <= 1e-9

    def test_commuting_terms_exact_for_any_steps(self):
        reg = QuditRegister(3, 2)
        terms = [HamiltonianTerm((0, 1), ZZ, ConstantEnvelope(0.7)),
                 HamiltonianTerm((1, 2), ZZ, ConstantEnvelope(0.4)),
                 HamiltonianTerm((1,), SZ, ConstantEnvelope(1.1))]
        h = TimeDependentHamiltonian(reg, terms)
        exact = exact_propagator(h, 1.5, tol=1e-11)
        approx = trotter_propagator(h, 1.5, 2)
        assert operator_norm(approx.array - exact.array) <= 1e-9

    def test_first_order_convergence_slope(self):
        h = qubit_pair_hamiltonian()
        exact = exact_propagator(h, 1.0, tol=1e-11)
        steps = np.array([4, 8, 16, 32, 64])
        errors = np.array([
            operator_norm(trotter_propagator(h, 1.0, int(n)).array
                          - exact.array)
            for n in steps
        ])
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert -1.15 <= slope <= -0.85

    def test_output_unitary(self):
        h = qubit_pair_hamiltonian()
        u = trotter_propagator(h, 1.0, 5)
        defect = operator_norm(u.array.conj().T @ u.array - np.eye(4))
        assert defect <= 1e-9


class TestCertifyTrotter:
    def test_commuting_case(self):
        reg = QuditRegister(2, 2)
        terms = [HamiltonianTerm((0,), SZ, ConstantEnvelope(1.0)),
                 HamiltonianTerm((1,), SZ, ConstantEnvelope(0.5))]
        h = TimeDependentHamiltonian(reg, terms)
        cert = certify_trotter(h, 1.0, 4)
        assert cert.measured <= 1e-9
        assert cert.measured <= cert.bound

    def test_three_qubit_chain(self):
        rng = np.random.default_rng(55)
        reg = QuditRegister(3, 2)
        terms = [
            HamiltonianTerm((i, i + 1), random_hermitian(rng, 4),
                            CosineEnvelope(0.5, float(rng.uniform(1, 3))))
            for i in range(2)
        ]
        terms.append(HamiltonianTerm((0,), SX, CosineEnvelope(0.4, 2.0)))
        h = TimeDependentHamiltonian(reg, terms)
        cert = certify_trotter(h, 1.0, 16)
        assert cert.measured <= cert.bound
        assert cert.K == 3

    def test_bound_formula_exact(self):
        h = qubit_pair_hamiltonian()
        cert = certify_trotter(h, 1.0, 8)
        h_max = max(term_norm_sup(t, 1.0) for t in h.terms)
        expect = (1.0 / 8) * 1.0 * 2 * commutation_degree(h) * h_max ** 2
        assert cert.bound == pytest.approx(expect, rel=1e-12)
        assert cert.delta_t == pytest.approx(1.0 / 8)

    def test_violation_type_carries_numbers(self):
        exc = CertificateViolation(1.5, 0.2)
        assert exc.measured == 1.5
        assert exc.bound == 0.2
        assert isinstance(exc, RuntimeError)

    def test_certificate_dict_keys(self):
        h = qubit_pair_hamiltonian()
        d = certify_trotter(h, 0.5, 4).as_dict()
        assert set(d) == {"T", "N_t", "delta_t", "K", "z", "h_max", "bound",
                          "measured"}


class TestTwoTermSplittingBound:
    def test_single_window_split(self):
        # splitting one window of length dt into per-term factors costs at
        # most dt^2 * K * z * h_max^2 with K = 2 overlapping terms
        rng = np.random.default_rng(31)
        reg = QuditRegister(2, 2)
        for trial in range(6):
            terms = [
                HamiltonianTerm((0, 1), random_hermitian(rng, 4),
                                CosineEnvelope(0.8, float(rng.uniform(1, 4)))),
                HamiltonianTerm((0,), random_hermitian(rng, 2),
                                CosineEnvelope(0.6, float(rng.uniform(1, 4)))),
            ]
            h_both = TimeDependentHamiltonian(reg, terms)
            h_max = max(term_norm_sup(t, 0.4) for t in terms)
            z = commutation_degree(h_both)
            for dt in (0.1, 0.2, 0.4):
                u_both = exact_propagator(h_both, dt, tol=1e-11)
                split = trotter_propagator(h_both, dt, 1)
                err = operator_norm(u_both.array - split.array)
                assert err <= dt ** 2 * 2 * z * h_max ** 2 + 1e-9


class TestEvolutionCoveringLogBound:
    def test_frozen_value(self):
        # cross-checked against 50-digit evaluation of the formula
        bound = evolution_covering_log_bound(4, 2, 2, 3, 3, 1.0, 1.0, 0.1)
        np.testing.assert_allclose(bound.ln_value, 218073.38012057498,
                                   rtol=1e-12)
        np.testing.assert_allclose(bound.log10_value, 94708.065636356,
                                   rtol=1e-12)

    def test_symbolic_identity(self):
        L, d, k, K, z, h, T, eps = 4, 2, 2, 3, 3, 1.0, 1.0, 0.1
        scale = T ** 2 * K ** 2 * z * h ** 2
        exponent = 4 * d ** (2 * k) * scale / eps
        assert exponent == 17280.0
        expect = k * K * math.log(L) + exponent * math.log(112 * scale / eps ** 2)
        bound = evolution_covering_log_bound(L, d, k, K, z, h, T, eps)
        np.testing.assert_allclose(bound.ln_value, expect, rtol=1e-14)

    def test_quadratic_growth_in_time(self):
        base = evolution_covering_log_bound(4, 2, 1, 2, 2, 1.0, 1.0, 0.1)
        doubled = evolution_covering_log_bound(4, 2, 1, 2, 2, 1.0, 2.0, 0.1)
        ratio = doubled.ln_value / base.ln_value
        assert 4.0 <= ratio <= 5.0  # T^2 scaling plus the growing log factor

    def test_validity_window(self):
        with pytest.raises(ValueError, match="epsilon"):
            evolution_covering_log_bound(4, 2, 2, 1, 1, 0.1, 0.1, 0.5)

    def test_implied_step_count_in_context(self):
        bound = evolution_covering_log_bound(4, 2, 2, 3, 3, 1.0, 1.0, 0.1)
        assert bound.context["n_steps_implied"] == pytest.approx(360.0)


class TestHamiltonianJson:
    def test_roundtrip(self):
        h = qubit_pair_hamiltonian()
        data = json.loads(json.dumps(hamiltonian_to_json(h)))
        back = hamiltonian_from_json(data)
        assert back.register == h.register
        assert back.n_terms == h.n_terms
        exact1 = exact_propagator(h, 0.7, tol=1e-10)
        exact2 = exact_propagator(back, 0.7, tol=1e-10)
        assert operator_norm(exact1.array - exact2.array) <= 1e-9

    def test_accepts_json_text(self):
        h = qubit_pair_hamiltonian()
        back = hamiltonian_from_json(json.dumps(hamiltonian_to_json(h)))
        assert back.n_terms == 2

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError):
            hamiltonian_from_json({"L": 2, "d": 2})

    @pytest.mark.parametrize("data, message", [
        ({"d": 2, "terms": []}, "Hamiltonian JSON missing key 'L'"),
        ({"L": 2, "terms": []}, "Hamiltonian JSON missing key 'd'"),
        ({"L": 2, "d": 2}, "Hamiltonian JSON missing key 'terms'"),
        ('{"L": 1, "d": 2}', "Hamiltonian JSON missing key 'terms'"),
        ({"L": 1, "d": 2, "terms": [{"support": [0], "base": [1, 0, 0, 1],
                                     "envelope": {"kind": "constant",
                                                  "value": 1.0}}]},
         "term base must be a list of [re, im] pairs"),
        ({"L": 2, "d": 2, "terms": [{"support": [0, 1], "base": [[0, 0]] * 5,
                                     "envelope": {"kind": "constant",
                                                  "value": 1.0}}]},
         "term base has 5 entries, expected 16"),
    ])
    def test_error_messages(self, data, message):
        with pytest.raises(ValueError) as exc:
            hamiltonian_from_json(data)
        assert str(exc.value) == message

    def test_rejects_nonhermitian_base(self):
        data = {
            "L": 1, "d": 2,
            "terms": [{
                "support": [0],
                "base": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                "envelope": {"kind": "constant", "value": 1.0},
            }],
        }
        with pytest.raises(ValueError):
            hamiltonian_from_json(data)
