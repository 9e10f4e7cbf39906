import json
import math
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, strategies as st

import dynnets.trotter as trotter_module
from dynnets.circuits import QuditRegister, _apply_gate
from dynnets.cli import main as cli_main
from dynnets.linalg import operator_norm
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

    @pytest.mark.parametrize("build, message", [
        (lambda: CosineEnvelope(math.inf, 1.0),
         "^envelope parameters must be finite$"),
        (lambda: PiecewiseLinearEnvelope([0.0], [1.0]),
         "^need matching 1-d times/values with >= 2 breakpoints$"),
        (lambda: PiecewiseLinearEnvelope([0.0, math.nan], [1.0, 1.0]),
         "^breakpoints must be finite$"),
        (lambda: TimeDependentHamiltonian(QuditRegister(1, 2), []),
         "^Hamiltonian needs at least one term$"),
        (lambda: TimeDependentHamiltonian(QuditRegister(1, 2), [SX]),
         "^terms must be HamiltonianTerm instances$"),
    ], ids=["cosine-inf", "pwl-one-point", "pwl-nan", "no-terms", "not-a-term"])
    def test_malformed_input_refused(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


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

    def test_exactly_hermitian_base_above_64_is_copied(self):
        # such a base passes the Hermitian check as given; the term freezes
        # a copy, not the caller's array
        base = np.diag(np.linspace(-1.0, 1.0, 128)).astype(complex)
        term = HamiltonianTerm(tuple(range(7)), base, ConstantEnvelope(1.0))
        assert base.flags.writeable and not term.base.flags.writeable
        assert np.array_equal(term.base, base)
        assert term_norm_sup(term, 1.0) == operator_norm(base)


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

    @staticmethod
    def window_trapezoid(env, t0, t1):
        """The trapezoid sum over one window's breakpoints, by np.sum."""
        nodes = np.array([t0] + [t for t in env.times if t0 < t < t1] + [t1])
        v = np.interp(nodes, env.times, env.values)
        return float(0.5 * np.sum(np.diff(nodes) * (v[1:] + v[:-1])))

    @pytest.mark.parametrize("env, t_final, n", [
        (CosineEnvelope(0.8, 2.5, 0.3), 1.3, 7),
        (CosineEnvelope(1.3, 1e-9, 0.7), 0.9, 7),
        (ConstantEnvelope(-0.7), 0.9, 5),
        # 13 breakpoints on [0, 0.9]: three slices of four or five pieces
        (PiecewiseLinearEnvelope(np.linspace(0.0, 0.9, 13),
                                 np.cos(7.0 * np.arange(13))), 0.9, 3),
        # the breakpoint 0.5 is the slice edge 2 * (1 / 4)
        (PiecewiseLinearEnvelope([0.0, 0.5, 1.0], [0.6, -0.9, 0.4]), 1.0, 4),
        # the last edge 7 * (0.9 / 7) lies above 0.9, so the breakpoint 0.9
        # splits the last slice
        (PiecewiseLinearEnvelope([0.0, 0.4, 0.9], [0.6, -0.9, 0.4]), 0.9, 7),
        # the last edge 3 * (0.9 / 3) lies below 0.9
        (PiecewiseLinearEnvelope([0.0, 0.4, 0.9], [0.6, -0.9, 0.4]), 0.9, 3),
    ], ids=["cosine", "slow-cosine", "constant", "pwl-many-pieces",
            "pwl-breakpoint-on-edge", "pwl-last-edge-above-T",
            "pwl-last-edge-below-T"])
    def test_integrals_are_the_per_slice_integrals(self, env, t_final, n):
        edges = np.arange(n + 1) * (t_final / n)
        per_slice = [env.integral(a, b) for a, b in zip(edges[:-1], edges[1:])]
        assert np.array_equal(env.integrals(edges), per_slice)
        if isinstance(env, PiecewiseLinearEnvelope):
            assert per_slice == [self.window_trapezoid(env, a, b)
                                 for a, b in zip(edges[:-1], edges[1:])]

    def test_integrals_edge_cases_hold(self):
        # the premises of the edge cases above
        assert 7 * (0.9 / 7) > 0.9 > 3 * (0.9 / 3)
        assert 2 * (1.0 / 4) == 0.5

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

    def test_zero_time_is_the_identity(self):
        u = exact_propagator(qubit_pair_hamiltonian(), 0.0)
        assert np.array_equal(u.array, np.eye(4))

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
    """3-site cosine chain whose sound sweeps stay far below 2000 steps."""
    reg = QuditRegister(3, 2)
    return TimeDependentHamiltonian(reg, [
        HamiltonianTerm((0, 1), ZZ, CosineEnvelope(0.9, 2.0)),
        HamiltonianTerm((1,), SX, CosineEnvelope(0.7, 1.3, 0.4)),
        HamiltonianTerm((1, 2), ZZ, CosineEnvelope(0.5, 2.5)),
    ])


def break_step_control(monkeypatch):
    # All three Gauss nodes at the first make every step exp(-i h H(t + c1 h)),
    # a first-order rule: the doubling estimate falls as 1/n, not n^-6, so it
    # never reaches its budget for a time-dependent chain within the cap.
    first = trotter_module._GAUSS_NODES[0]
    monkeypatch.setattr(trotter_module, "_GAUSS_NODES", (first,) * 3)
    monkeypatch.setattr(trotter_module, "_MAX_STEPS", 2000)


class TestStepBudget:
    def test_sound_controller_within_budget(self, monkeypatch):
        monkeypatch.setattr(trotter_module, "_MAX_STEPS", 2000)
        exact_propagator(runaway_chain(), 1.0)

    def test_runaway_controller_raises(self, monkeypatch):
        break_step_control(monkeypatch)
        with pytest.raises(ValueError, match="exceeded 2000 steps"):
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


def one_grid_sweep(h, t0, t1, n):
    """The Magnus sweep of n uniform steps over [t0, t1]."""
    skew = -1j * trotter_module._embedded_bases(h)
    return trotter_module._magnus_sweeps(
        [term.envelope for term in h.terms], skew,
        [np.linspace(t0, t1, n + 1)])[0]


def kinked_chain(times, values):
    """mixed_envelope_chain(times[-1]) with the given piecewise-linear envelope."""
    full = mixed_envelope_chain(times[-1])
    terms = list(full.terms)
    terms[1] = HamiltonianTerm(terms[1].support, terms[1].base,
                               PiecewiseLinearEnvelope(times, values))
    return TimeDependentHamiltonian(full.register, terms)


def short_piece_chain():
    """A 1e-9-long piece between breakpoints at 0.4 and 0.4 + 1e-9."""
    return kinked_chain([0.0, 0.4, 0.4 + 1e-9, 1.0], [0.6, -0.9, 0.5, 0.4])


def many_piece_chain():
    """49 interior breakpoints, evenly spaced over [0, 1]."""
    values = np.random.default_rng(49).uniform(-0.9, 0.9, size=51)
    return kinked_chain(np.linspace(0.0, 1.0, 51), values)


def recorded_grids(monkeypatch):
    """Every list of grids exact_propagator passes to _magnus_sweeps."""
    rounds = []
    sweeps = trotter_module._magnus_sweeps

    def recorded_sweeps(envelopes, skew, grids):
        rounds.append([np.array(g) for g in grids])
        return sweeps(envelopes, skew, grids)

    monkeypatch.setattr(trotter_module, "_magnus_sweeps", recorded_sweeps)
    return rounds


def piece_counts(grid, cuts):
    """Steps of grid on each piece between consecutive cuts."""
    return np.diff(np.searchsorted(grid, cuts))


class TestSweep:
    """Stacked Magnus sweeps against textbook Magnus steps."""

    @staticmethod
    def textbook_magnus(hamiltonian, t, h):
        # Sixth-order Magnus with Gauss nodes t + (1/2 -+ sqrt(15)/10) h and
        # t + h/2 (Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 2009).
        def comm(x, y):
            return x @ y - y @ x

        r = math.sqrt(15) / 10
        a1, a2, a3 = (-1j * hamiltonian(t + c * h)
                      for c in (0.5 - r, 0.5, 0.5 + r))
        alpha1 = h * a2
        alpha2 = math.sqrt(15) * h / 3 * (a3 - a1)
        alpha3 = 10 * h / 3 * (a3 - 2 * a2 + a1)
        c1 = comm(alpha1, alpha2)
        c2 = -comm(alpha1, 2 * alpha3 + c1) / 60
        omega = (alpha1 + alpha3 / 12
                 + comm(-20 * alpha1 - alpha3 + c1, alpha2 + c2) / 240)
        return scipy.linalg.expm(omega)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_matches_textbook_steps(self, n):
        h = mixed_envelope_chain()
        eye = np.eye(2)
        dense = [np.kron(h.terms[0].base, eye), np.kron(eye, h.terms[1].base),
                 np.kron(np.eye(4), h.terms[2].base)]

        def hamiltonian(t):
            return sum(float(term.envelope(t)) * b
                       for term, b in zip(h.terms, dense))

        t0, t1 = 0.21, 0.93
        step = (t1 - t0) / n
        expect = np.eye(8, dtype=complex)
        for i in range(n):
            expect = (self.textbook_magnus(hamiltonian, t0 + i * step, step)
                      @ expect)
        sweep = one_grid_sweep(h, t0, t1, n)
        assert operator_norm(sweep - expect) <= 1e-13

    def test_sixth_order_convergence(self):
        # The chain's only breakpoint is at 0.9, so [1, 2] is smooth; a wrong
        # coefficient in the exponent leaves a lower-order error term.
        h = mixed_envelope_chain(2.0)
        reference = one_grid_sweep(h, 1.0, 2.0, 1024)
        steps = np.array([4, 8, 16, 32])
        errors = [operator_norm(one_grid_sweep(h, 1.0, 2.0, int(n))
                                - reference) for n in steps]
        slope = np.polyfit(np.log(steps), np.log(errors), 1)[0]
        assert -6.3 <= slope <= -5.7

    def test_chunked_matches_unchunked(self, monkeypatch):
        h = mixed_envelope_chain()
        whole = one_grid_sweep(h, 0.0, 1.0, 37)
        # dim 8: three steps (nine 64-entry node matrices) per chunk, so 37
        # steps take 13 chunks, the last one a single step
        monkeypatch.setattr(trotter_module, "_SWEEP_ENTRIES", 9 * 64)
        chunked = one_grid_sweep(h, 0.0, 1.0, 37)
        assert operator_norm(chunked - whole) <= 1e-14

    def test_stacked_requests_match_single_sweeps(self, monkeypatch):
        # Stacked grids match one-grid sweeps, with chunks straddling the
        # grid boundaries.
        h = mixed_envelope_chain()
        envelopes = [term.envelope for term in h.terms]
        skew = -1j * trotter_module._embedded_bases(h)
        cuts = np.array([0.0, 0.45, 1.0])
        grids = [trotter_module._step_edges(cuts, np.array([2, 3])),
                 trotter_module._step_edges(cuts, np.array([4, 6])),
                 np.sort(np.random.default_rng(3).uniform(0.0, 1.0, 8))]
        # three steps per chunk: the grids' 5, 10 and 7 steps start at steps
        # 0, 5 and 15, so chunks straddle both grid boundaries
        monkeypatch.setattr(trotter_module, "_SWEEP_ENTRIES", 9 * 64)
        stacked = trotter_module._magnus_sweeps(envelopes, skew, grids)
        assert stacked.shape == (3, 8, 8)
        for got, grid in zip(stacked, grids):
            single = trotter_module._magnus_sweeps(envelopes, skew, [grid])[0]
            assert operator_norm(got - single) <= 1e-14

    def test_one_norm_per_round_one_exponential_per_chunk(self, monkeypatch):
        monkeypatch.setattr(trotter_module, "_SWEEP_ENTRIES", 9 * 64)
        per_chunk = 3
        events, exps = [], []

        def recorded_sweeps(envelopes, skew, grids):
            events.append(("sweep", [np.array(g) for g in grids]))
            exps.append([])
            return sweeps(envelopes, skew, grids)

        def recorded_norm(stack):
            events.append(("norm", len(stack)))
            return norm(stack)

        def recorded_exp(stack):
            exps[-1].append(len(stack))
            return exp(stack)

        sweeps, norm = trotter_module._magnus_sweeps, trotter_module._opnorm_stack
        exp = trotter_module._exp_skew_series
        monkeypatch.setattr(trotter_module, "_magnus_sweeps", recorded_sweeps)
        monkeypatch.setattr(trotter_module, "_opnorm_stack", recorded_norm)
        monkeypatch.setattr(trotter_module, "_exp_skew_series", recorded_exp)
        exact_propagator(mixed_envelope_chain(), 1.0)
        # Each round is one sweep call over a fresh [coarse, fine] pair, and
        # then one norm of the one difference.
        assert [kind for kind, _ in events] == ["sweep", "norm"] * (
            len(events) // 2)
        assert all(size == 1 for kind, size in events if kind == "norm")
        rounds = [grids for kind, grids in events if kind == "sweep"]
        cuts = np.array([0.0, 0.45, 1.0])
        for grids in rounds:
            assert len(grids) == 2
            coarse, fine = (piece_counts(g, cuts) for g in grids)
            np.testing.assert_array_equal(fine, 2 * coarse)
        assert [[len(g) - 1 for g in grids] for grids in rounds] == [
            [9, 18], [34, 68]]
        # one exponent per step, at most a chunk's worth per stack, and one
        # stack per chunk of the round's steps laid end to end
        for grids, stacks in zip(rounds, exps):
            swept = sum(len(g) - 1 for g in grids)
            assert sum(stacks) == swept
            assert max(stacks) <= per_chunk
            assert len(stacks) == -(-swept // per_chunk)
        assert max(max(stacks) for stacks in exps) == per_chunk

    def test_step_count_guard(self, monkeypatch):
        # Total steps swept for this chain at tol 1e-11 are 129 (9 and 18,
        # then 34 and 68, over both pieces) with sixth-order steps, the fine
        # sweep budgeted to tol / 2 and 4 steps per piece's share to start;
        # a halved budget (141), a lower order or a start at 8 per share
        # (153) shows here.
        rounds = recorded_grids(monkeypatch)
        exact_propagator(mixed_envelope_chain(), 1.0, tol=1e-11)
        steps = sum(len(g) - 1 for grids in rounds for g in grids)
        assert steps <= 1.05 * 129

    @pytest.mark.parametrize("chain", [mixed_envelope_chain, short_piece_chain,
                                       many_piece_chain])
    def test_no_step_straddles_a_breakpoint(self, chain, monkeypatch):
        h = chain()
        rounds = recorded_grids(monkeypatch)
        exact_propagator(h, 1.0, tol=1e-10)
        inner = sorted({b for term in h.terms
                        for b in term.envelope.breakpoints() if 0.0 < b < 1.0})
        assert inner
        for grid in (g for grids in rounds for g in grids):
            assert grid[0] == 0.0 and grid[-1] == 1.0
            assert np.all(np.diff(grid) > 0.0)
            assert np.isin(inner, grid).all()

    def test_breakpoint_free_steps_pinned(self, monkeypatch):
        # A chain with no breakpoint sweeps one piece: 4 and 8 steps, then
        # the predicted 15 and 30.
        rounds = recorded_grids(monkeypatch)
        exact_propagator(runaway_chain(), 1.0)
        assert [[len(g) - 1 for g in grids] for grids in rounds] == [
            [4, 8], [15, 30]]

    def test_every_piece_gains_a_step_per_round(self, monkeypatch):
        # Round 1's estimate one ulp over its budget predicts a growth of
        # (1 + 2^-52)^(1/6), which rounds to 1: without the one-step floor
        # the counts would not move and the round would repeat forever.
        tol = 1e-11
        dim = 8
        floor = 32.0 * np.finfo(float).eps * math.sqrt(dim)

        def scripted_norm(stack):
            budget = 31.5 * tol + floor * 2 * (len(rounds[-1][0]) - 1)
            return np.array([np.nextafter(budget, np.inf)
                             if len(rounds) == 1 else 0.0])

        rounds = recorded_grids(monkeypatch)
        monkeypatch.setattr(trotter_module, "_opnorm_stack", scripted_norm)
        h = mixed_envelope_chain()
        assert h.register.dim == dim
        exact_propagator(h, 1.0, tol=tol)
        cuts = np.array([0.0, 0.45, 1.0])
        counts = [piece_counts(grids[0], cuts) for grids in rounds]
        assert len(counts) == 2
        np.testing.assert_array_equal(counts[0], [4, 5])
        assert np.all(counts[1] >= counts[0] + 1)


class TestAgainstODESolver:
    """The reference propagator's error stays within tol against DOP853.

    On this chain at T = 2, returning the coarse sweep errs by 0.58 tol at
    1e-6 and 10.6 tol at 1e-8, so the 1e-8 case fails. Returning the fine
    sweep without Richardson under a 63x looser budget errs by 0.009 and
    0.91 tol there, but by 10.3 tol at T = 4 and tol 1e-10, so that case
    fails (its tol 1e-12 run, 1.2e-11 off, fails the agreement check in
    every case). The Richardson result errs by 1.0e-4 and 2.5e-3 tol at
    T = 2 and by 2.7e-3 tol at T = 4.
    """

    @staticmethod
    def dop853(h, t_final):
        # One solve per smooth piece, cut at the envelope breakpoints.
        bases = trotter_module._embedded_bases(h)
        dim = bases.shape[-1]

        def rhs(t, y):
            values = np.array([float(term.envelope(t)) for term in h.terms])
            return (-1j * np.tensordot(values, bases, 1)
                    @ y.reshape(dim, dim)).reshape(-1)

        cuts = sorted({0.0, t_final} | {b for term in h.terms
                                         for b in term.envelope.breakpoints()
                                         if 0.0 < b < t_final})
        u = np.eye(dim, dtype=complex)
        for a, b in zip(cuts, cuts[1:]):
            sol = scipy.integrate.solve_ivp(rhs, (a, b), u.reshape(-1),
                                            method="DOP853", rtol=1e-13,
                                            atol=1e-13)
            u = sol.y[:, -1].reshape(dim, dim)
        return u

    @pytest.mark.parametrize("t_final, tol", [(2.0, 1e-6), (2.0, 1e-8),
                                              (4.0, 1e-10)],
                             ids=["1e-06", "1e-08", "T4-1e-10"])
    def test_within_tolerance(self, t_final, tol):
        h = mixed_envelope_chain(t_final)
        reference = self.dop853(h, t_final)
        # the solver's own error is far below the tolerances checked
        tightest = exact_propagator(h, t_final, tol=1e-12)
        assert operator_norm(tightest.array - reference) <= 1e-12
        u = exact_propagator(h, t_final, tol=tol)
        assert operator_norm(u.array - reference) <= tol

    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    @pytest.mark.parametrize("chain", [short_piece_chain, many_piece_chain])
    def test_kinked_chains_within_tolerance(self, chain, tol):
        # a piece 1e-9 long, and 50 pieces, each its own start count
        h = chain()
        reference = self.dop853(h, 1.0)
        u = exact_propagator(h, 1.0, tol=tol)
        assert operator_norm(u.array - reference) <= tol


class TestNonFiniteArguments:
    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_exact_rejects_tol(self, tol):
        with pytest.raises(ValueError, match="tol must be finite"):
            exact_propagator(mixed_envelope_chain(), 1.0, tol=tol)

    @pytest.mark.filterwarnings("error")
    def test_exact_refuses_an_overflowing_sweep(self):
        # finite inputs whose Magnus exponents overflow: the round's
        # stacked norm would meet NaN, which the SVD cannot take
        reg = QuditRegister(2, 2)
        h = TimeDependentHamiltonian(reg, [
            HamiltonianTerm((0,), SX, CosineEnvelope(1e300, 1.0)),
            HamiltonianTerm((0, 1), ZZ, CosineEnvelope(1.0, 2.0))])
        with pytest.raises(ValueError, match="non-finite entries"):
            exact_propagator(h, 1.0)

    @pytest.mark.parametrize("t_final", [math.nan, math.inf, -1.0])
    @pytest.mark.parametrize("call", [
        lambda h, t: exact_propagator(h, t),
        lambda h, t: trotter_propagator(h, t, 3),
        lambda h, t: certify_trotter(h, t, 4),
    ], ids=["exact", "trotter", "certify"])
    def test_rejects_t_final(self, call, t_final):
        with pytest.raises(ValueError, match="t_final must be finite"):
            call(mixed_envelope_chain(), t_final)


class TestClosedFormReference:
    """Constant envelopes: the exact propagator is expm(-i H T)."""

    @staticmethod
    def constant_chain(L):
        rng = np.random.default_rng(100 + L)
        reg = QuditRegister(L, 2)
        terms = [HamiltonianTerm((i, i + 1), random_hermitian(rng, 4),
                                 ConstantEnvelope(rng.uniform(-0.8, 0.8)))
                 for i in range(L - 1)]
        terms += [HamiltonianTerm((i,), random_hermitian(rng, 2),
                                  ConstantEnvelope(rng.uniform(-0.8, 0.8)))
                  for i in range(L)]
        return TimeDependentHamiltonian(reg, terms)

    @pytest.mark.parametrize("tol", [1e-8, 1e-11])
    @pytest.mark.parametrize("t_final", [0.5, 2.0])
    @pytest.mark.parametrize("L", [2, 4, 6])
    def test_within_tolerance_of_expm(self, L, t_final, tol):
        h = self.constant_chain(L)
        dense = sum(term.envelope.value * b for term, b in
                    zip(h.terms, trotter_module._embedded_bases(h)))
        expect = scipy.linalg.expm(-1j * t_final * dense)
        u = exact_propagator(h, t_final, tol=tol)
        assert operator_norm(u.array - expect) <= tol


def slice_by_slice(h, t_final, n_steps):
    """The Trotter product one term factor at a time, later factors left.

    Each factor is exp(-i theta B) = (V exp(-i theta w)) V^dag from B's
    eigendecomposition.
    """
    reg = h.register
    u = np.eye(reg.dim, dtype=complex)
    delta = t_final / n_steps
    for step in range(n_steps):
        t0, t1 = step * delta, (step + 1) * delta
        for term in h.terms:
            w, v = np.linalg.eigh(term.base)
            theta = term.envelope.integral(t0, t1)
            local = (v * np.exp(-1j * theta * w)) @ v.conj().T
            u = _apply_gate(local, term.support, u, reg.L, reg.d)
    return u


def one_envelope_chain(kind):
    """mixed_envelope_chain(1.3) with every term on term kind's envelope."""
    full = mixed_envelope_chain(1.3)
    return TimeDependentHamiltonian(full.register, [
        HamiltonianTerm(term.support, term.base, full.terms[kind].envelope)
        for term in full.terms])


class TestTrotterPropagator:
    @pytest.mark.parametrize("n_steps", [1, 7, 64])
    @pytest.mark.parametrize("kind", [0, 1, 2])
    def test_matches_slice_by_slice_loop(self, kind, n_steps):
        # Every term gets the same envelope kind, so each kind is pinned alone.
        h = one_envelope_chain(kind)
        u = slice_by_slice(h, 1.3, n_steps)
        # The propagator multiplies its slices as a pairwise tree, so it
        # rounds differently from this loop: by under eps per slice (6.2e-15
        # at 64 slices). Where slices differ (not with constant envelopes),
        # their product in reverse order misses by 6e-3 or more.
        gap = operator_norm(trotter_propagator(h, 1.3, n_steps).array - u)
        assert gap <= 4 * n_steps * np.finfo(float).eps

    def test_one_slice_chunks_are_the_loop(self, monkeypatch):
        # Below one slice per chunk (from dim 128 by default) each chunk
        # applies its factors to the product so far, so no tree and no dense
        # product is left and the loop's order is kept bit for bit.
        monkeypatch.setattr(trotter_module, "_SWEEP_ENTRIES", 1)
        h = one_envelope_chain(0)
        assert np.array_equal(trotter_propagator(h, 1.3, 7).array,
                              slice_by_slice(h, 1.3, 7))

    def test_peak_memory_flat_in_steps(self, monkeypatch):
        h = qubit_pair_hamiltonian()
        # Untraced warm-up in the default chunks: the interpreter's tuple
        # free lists fill here, and tracemalloc counts their memory as held.
        default = trotter_propagator(h, 1.0, 1024).array
        # 80 slices per chunk of this chain's 4 x 4 propagators; the slices
        # for all 1024 at once would hold 256 KB.
        monkeypatch.setattr(trotter_module, "_SWEEP_ENTRIES", 64 * 20)
        peaks = []
        for n_steps in (128, 1024):
            tracemalloc.start()
            try:
                u = trotter_propagator(h, 1.0, n_steps).array
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.25 * peaks[0]
        # the chunks' tree products round differently from one tree's
        assert operator_norm(u - default) <= 4 * 1024 * np.finfo(float).eps

    @pytest.mark.parametrize("support, base", [
        ((0, 1), ZZ),
        ((0, 1), random_hermitian(np.random.default_rng(5), 4)),
        ((1,), random_hermitian(np.random.default_rng(6), 2)),
    ], ids=["degenerate-bond", "bond", "site"])
    def test_one_slice_factor_is_expm(self, support, base):
        # One term and one slice: the propagator is that term's factor,
        # exp(-i theta B) from B's eigendecomposition.
        reg = QuditRegister(2, 2)
        embedded = _apply_gate(base, support,
                               np.eye(reg.dim, dtype=complex), reg.L, reg.d)
        for env in (CosineEnvelope(1.3, 2.0, 0.4),
                    PiecewiseLinearEnvelope([0.0, 0.4, 1.7], [0.5, -1.0, 0.8]),
                    ConstantEnvelope(-2.1)):
            h = TimeDependentHamiltonian(
                reg, [HamiltonianTerm(support, base, env)])
            expect = scipy.linalg.expm(
                -1j * env.integral(0.0, 1.7) * embedded)
            factor = trotter_propagator(h, 1.7, 1).array
            assert operator_norm(factor - expect) <= 1e-13

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

    def test_bound_is_the_paper_expression(self):
        rng = np.random.default_rng(18)
        for _ in range(12):
            t_final = float(rng.uniform(0.1, 2.0))
            n_steps = int(rng.integers(1, 65))
            for h in (qubit_pair_hamiltonian(), mixed_envelope_chain(t_final)):
                cert = certify_trotter(h, t_final, n_steps)
                assert cert.bound == ((t_final / n_steps) * t_final
                                      * (cert.K * cert.z * cert.h_max ** 2))

    def test_violation_type_carries_numbers(self):
        exc = CertificateViolation(1.5, 0.2)
        assert exc.measured == 1.5
        assert exc.bound == 0.2
        assert isinstance(exc, RuntimeError)

    def test_zero_steps_refused_before_reference(self, monkeypatch):
        def no_reference(*args, **kwargs):
            raise AssertionError("reference propagated before n_steps check")

        monkeypatch.setattr(trotter_module, "exact_propagator", no_reference)
        with pytest.raises(ValueError,
                           match="n_steps must be at least 1, got 0"):
            certify_trotter(qubit_pair_hamiltonian(), 1.0, 0)

    def test_h_max_is_the_largest_term_norm(self):
        # site and bond terms with different base norms and envelope sups:
        # each sup is its own base's norm times its envelope's, bit for bit
        rng = np.random.default_rng(8)
        reg = QuditRegister(3, 2)
        terms = [HamiltonianTerm(sup, scale * random_hermitian(rng, 2 ** len(sup)),
                                 CosineEnvelope(amp, 1.7, 0.4))
                 for sup, scale, amp in [((0, 1), 0.3, 1.1), ((1, 2), 1.4, 0.2),
                                         ((0,), 0.5, 0.9), ((2,), 2.0, 0.1)]]
        h = TimeDependentHamiltonian(reg, terms)
        sups = [operator_norm(t.base) * t.envelope.sup_abs(0.0, 0.8)
                for t in terms]
        assert [term_norm_sup(t, 0.8) for t in terms] == sups
        assert certify_trotter(h, 0.8, 4).h_max == max(sups)

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

    @pytest.mark.parametrize("position", [0, 1, 2, 3, 4])
    def test_rejects_sizes_below_their_minimum(self, position):
        args = [4, 2, 2, 3, 3, 1.0, 1.0, 0.1]
        args[position] = 1 if position == 1 else 0
        with pytest.raises(ValueError, match="^L >= 1, d >= 2, k >= 1, K >= 1, "
                                             "z >= 1 required$"):
            evolution_covering_log_bound(*args)

    @pytest.mark.parametrize("position", [5, 6, 7])
    def test_rejects_nan(self, position):
        args = [4, 2, 2, 3, 3, 1.0, 1.0, 0.1]
        args[position] = math.nan
        with pytest.raises(ValueError, match="must be positive"):
            evolution_covering_log_bound(*args)

    def test_implied_step_count_in_context(self):
        bound = evolution_covering_log_bound(4, 2, 2, 3, 3, 1.0, 1.0, 0.1)
        assert bound.context["n_steps_implied"] == pytest.approx(360.0)

    @staticmethod
    def grid():
        """Seeded (L, K, z, h_max, epsilon), z <= K, log-uniform h and eps."""
        rng = np.random.default_rng(18)
        for _ in range(500):
            K = int(rng.integers(1, 41))
            yield (int(rng.integers(1, 31)), K, int(rng.integers(1, K + 1)),
                   float(10.0 ** rng.uniform(-2, 2)),
                   float(10.0 ** rng.uniform(-6, 0)))

    def test_smallest_time_is_the_window_edge(self):
        for L, K, z, h, eps in self.grid():
            t_min = trotter_module._min_covered_time(K, z, h, eps)
            evolution_covering_log_bound(L, 2, 2, K, z, h,
                                         t_min * (1.0 + 1e-12), eps)
            with pytest.raises(ValueError, match="epsilon too large"):
                evolution_covering_log_bound(L, 2, 2, K, z, h,
                                             t_min * (1.0 - 1e-12), eps)

    def test_step_rule_is_the_paper_expression(self):
        rng = np.random.default_rng(19)
        for L, K, z, h, eps in self.grid():
            t_final = trotter_module._min_covered_time(K, z, h, eps) * float(
                rng.uniform(1.0, 10.0))
            n_steps = int(rng.integers(1, 10 ** 6))
            assert (trotter_module._trotter_error(t_final, n_steps, K, z, h)
                    == (t_final / n_steps) * t_final * (K * z * h ** 2))
            bound = evolution_covering_log_bound(L, 2, 2, K, z, h, t_final, eps)
            # the number of steps at which delta T c equals eps / 4
            assert (bound.context["n_steps_implied"]
                    == 4.0 * t_final ** 2 * (K * z * h ** 2) / eps)


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
