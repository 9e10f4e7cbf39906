import functools
import itertools
import json
import math
import time
from decimal import Decimal, localcontext

import mpmath as mp
import numpy as np
import pytest

import dynnets.reports as reports_module
import dynnets.trotter as trotter_module
from dynnets.cli import main as cli_main
from dynnets.linalg import operator_norm
from dynnets.reports import (
    CrossoverReport,
    CrossoverRow,
    SpectrumProfile,
    coarse_grain_hermitian,
    coarse_grain_spectrum,
    crossover_analysis,
    degeneracy_profile_extensive_z,
    emit_report,
)

SZ = np.diag([1.0, -1.0]).astype(complex)

# minimal gate counts for d=2, k=2, eps=0.001, L=8..14, cross-checked
# against a 50-digit bisection of the closed-form log bounds
CROSSOVER_GATES = (217, 798, 2954, 10996, 41127, 154454, 582159)

# (eps, d, k, L): five counts that a fix-up against the float bound left
# below the exact minimum, by one gate ((1e-4, 3, 2, 20): two), and one
# count past 2^53
EXACT_GATES = {
    (1e-3, 2, 1, 30): 4_975_139_285_908_955,
    (1e-3, 2, 2, 31): 5_019_592_185_309_843,
    (1e-4, 3, 1, 19): 6_047_183_372_115_836,
    (1e-4, 3, 2, 19): 706_892_247_869_939,
    (1e-4, 3, 2, 20): 6_078_262_541_455_353,
    (1e-3, 2, 1, 48): 223_521_382_987_324_172_162_725_479,
}


def magnetization_matrix(L):
    """Sum of single-site z terms on L qubits, as a dense matrix."""
    dim = 2 ** L
    total = np.zeros((dim, dim), dtype=complex)
    for site in range(L):
        ops = [SZ if i == site else np.eye(2) for i in range(L)]
        total += functools.reduce(np.kron, ops)
    return total


class TestSpectrumProfile:
    def test_basic_properties(self):
        p = SpectrumProfile((-1.0, 0.5, 2.0), (2, 1, 3))
        assert p.total == 6
        assert p.width == pytest.approx(1.5)
        d = p.as_dict()
        assert d["eigenvalues"] == [-1.0, 0.5, 2.0]
        assert d["degeneracies"] == [2, 1, 3]

    def test_single_level(self):
        p = SpectrumProfile((0.0,), (4,))
        assert p.width == 0.0

    def test_rejections(self):
        with pytest.raises(ValueError):
            SpectrumProfile((), ())
        with pytest.raises(ValueError):
            SpectrumProfile((0.0, 1.0), (1,))
        with pytest.raises(ValueError):
            SpectrumProfile((1.0, 0.0), (1, 1))
        with pytest.raises(ValueError):
            SpectrumProfile((0.0, 0.0), (1, 1))
        with pytest.raises(ValueError):
            SpectrumProfile((0.0,), (0,))
        with pytest.raises(ValueError):
            SpectrumProfile((float("nan"),), (1,))


class TestCoarseGrainSpectrum:
    def test_magnetization_four_sites(self):
        profile = degeneracy_profile_extensive_z(4)
        new, shift, deg1, deg2 = coarse_grain_spectrum(profile, 0.0, 2.0, 1.0)
        assert (deg1, deg2) == (6, 4)
        assert shift == 0.5
        # levels already sit on the centers, so nothing moves
        assert new.eigenvalues == profile.eigenvalues
        assert new.degeneracies == profile.degeneracies

    def test_merge_sums_degeneracies(self):
        p = SpectrumProfile((-0.3, 0.1, 1.8, 2.2), (2, 3, 1, 4))
        new, shift, deg1, deg2 = coarse_grain_spectrum(p, 0.0, 2.0, 1.0)
        assert new.eigenvalues == (0.0, 2.0)
        assert new.degeneracies == (5, 5)
        assert (deg1, deg2) == (5, 5)

    def test_rejects_nan_epsilon(self):
        profile = degeneracy_profile_extensive_z(4)
        with pytest.raises(ValueError, match="epsilon must be positive"):
            coarse_grain_spectrum(profile, 0.0, 2.0, float("nan"))
        with pytest.raises(ValueError, match="epsilon must be positive"):
            coarse_grain_hermitian(np.diag([0.1, 1.9]), 0.0, 2.0, float("nan"))

    def test_far_eigenvalues_untouched(self):
        p = SpectrumProfile((-5.0, 0.1, 7.0), (1, 2, 1))
        new, _, deg1, deg2 = coarse_grain_spectrum(p, 0.0, 2.0, 1.0)
        assert new.eigenvalues == (-5.0, 0.0, 7.0)
        assert (deg1, deg2) == (2, 0)

    def test_empty_window_counts_zero(self):
        p = SpectrumProfile((10.0,), (3,))
        _, _, deg1, deg2 = coarse_grain_spectrum(p, 0.0, 2.0, 1.0)
        assert (deg1, deg2) == (0, 0)

    def test_overlapping_centers_rejected(self):
        p = SpectrumProfile((0.0,), (1,))
        with pytest.raises(ValueError, match="overlap"):
            coarse_grain_spectrum(p, 0.0, 0.8, 1.0)

    def test_nonpositive_epsilon_rejected(self):
        p = SpectrumProfile((0.0,), (1,))
        with pytest.raises(ValueError):
            coarse_grain_spectrum(p, 0.0, 2.0, 0.0)


class TestCoarseGrainHermitian:
    def test_shift_bound_on_perturbed_magnetization(self):
        rng = np.random.default_rng(7)
        base = magnetization_matrix(4)
        g = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        pert = 0.5 * (g + g.conj().T)
        pert *= 0.3 / operator_norm(pert)
        obs = base + pert
        snapped, shift = coarse_grain_hermitian(obs, 0.0, 2.0, 1.0)
        assert shift == 0.5
        assert operator_norm(obs - snapped) <= shift + 1e-12
        assert operator_norm(snapped - snapped.conj().T) <= 1e-12
        w = np.linalg.eigvalsh(snapped)
        near0 = w[np.abs(w) <= 0.5]
        near2 = w[np.abs(w - 2.0) <= 0.5]
        np.testing.assert_allclose(near0, 0.0, atol=1e-9)
        np.testing.assert_allclose(near2, 2.0, atol=1e-9)
        assert near0.size == 6 and near2.size == 4

    def test_exact_magnetization_unchanged(self):
        base = magnetization_matrix(3)
        snapped, _ = coarse_grain_hermitian(base, -1.0, 1.0, 1.5)
        assert operator_norm(base - snapped) <= 1e-10

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            coarse_grain_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]),
                                   0.0, 2.0, 1.0)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            coarse_grain_hermitian(np.zeros((2, 3)), 0.0, 2.0, 1.0)

    def test_rejects_nan(self):
        obs = np.diag([1.0, np.nan])
        with pytest.raises(ValueError, match="non-finite"):
            coarse_grain_hermitian(obs, 0.0, 2.0, 1.0)

    def test_rejects_small_entries_with_large_antihermitian_norm(self):
        # every off-diagonal entry of A - A^dag is 0.9e-10 in magnitude, but
        # its operator norm is 9.1e-10: the shared 1e-10 gate must reject it
        obs = np.zeros((16, 16))
        obs[np.triu_indices(16, 1)] = 0.9e-10
        assert np.max(np.abs(obs - obs.T)) <= 1e-10 < operator_norm(obs - obs.T)
        with pytest.raises(ValueError, match="Hermitian"):
            coarse_grain_hermitian(obs, 0.0, 2.0, 1.0)


class TestDegeneracyProfile:
    def test_single_site(self):
        p = degeneracy_profile_extensive_z(1)
        assert p.eigenvalues == (-1.0, 1.0)
        assert p.degeneracies == (1, 1)

    def test_four_sites_binomials(self):
        p = degeneracy_profile_extensive_z(4)
        assert p.eigenvalues == (-4.0, -2.0, 0.0, 2.0, 4.0)
        assert p.degeneracies == (1, 4, 6, 4, 1)
        assert p.total == 16

    def test_width_equals_site_count(self):
        for L in (1, 3, 8):
            assert degeneracy_profile_extensive_z(L).width == float(L)

    def test_matches_dense_magnetization(self):
        p = degeneracy_profile_extensive_z(4)
        w = np.linalg.eigvalsh(magnetization_matrix(4))
        values, counts = np.unique(np.round(w).astype(int), return_counts=True)
        assert tuple(float(v) for v in values) == p.eigenvalues
        assert tuple(int(c) for c in counts) == p.degeneracies

    def test_central_degeneracy_roughly_doubles(self):
        for L in range(10, 29):
            a = max(degeneracy_profile_extensive_z(L).degeneracies)
            b = max(degeneracy_profile_extensive_z(L + 1).degeneracies)
            assert 1.8 <= b / a <= 2.0

    def test_rejects_empty_chain(self):
        with pytest.raises(ValueError):
            degeneracy_profile_extensive_z(0)


@pytest.fixture(scope="module")
def circuit_report():
    return crossover_analysis(2, 2, 0.001, range(8, 15), "circuit")


@pytest.fixture(scope="module")
def time_report():
    return crossover_analysis(2, 2, 0.001, range(8, 13), "time")


@pytest.fixture(scope="module")
def emit_source():
    return crossover_analysis(2, 2, 0.001, range(8, 11), "circuit")


class TestCrossoverCircuit:
    def test_minimal_gates_frozen(self, circuit_report):
        assert tuple(r.min_gates for r in circuit_report.rows) == CROSSOVER_GATES

    def test_demand_scales_with_dimension_squared(self, circuit_report):
        # half-rank split in dimension 2^L: demand proportional to 4^L
        np.testing.assert_allclose(circuit_report.rows[0].lower_log,
                                   52647.16547854748, rtol=1e-12)
        for a, b in zip(circuit_report.rows, circuit_report.rows[1:]):
            np.testing.assert_allclose(b.lower_log / a.lower_log, 4.0,
                                       rtol=1e-12)

    def test_growth_ratios(self, circuit_report):
        assert all(3.5 <= r <= 4.5 for r in circuit_report.fit["per_site_ratios"])
        assert 3.5 <= circuit_report.fit["mean_ratio"] <= 4.5

    def test_fit_quality(self, circuit_report):
        assert circuit_report.fit["r_squared"] >= 0.999

    def test_gate_counts_increase(self, circuit_report):
        gates = [r.min_gates for r in circuit_report.rows]
        assert all(a < b for a, b in zip(gates, gates[1:]))

    def test_minimality(self):
        # every row of eps x d x k x (L = 2..14), up to 6e10 gates: the
        # least count whose bound meets the demand
        from dynnets.circuits import circuit_covering_log_bound

        for epsilon, d, k in itertools.product((1e-3, 2e-3, 4e-3), (2, 3),
                                               (1, 2)):
            report = crossover_analysis(d, k, epsilon, range(2, 15),
                                        "circuit")
            assert len(report.rows) == 13
            for row in report.rows:
                def value(n_gates):
                    return circuit_covering_log_bound(d, k, row.L, n_gates,
                                                      epsilon).ln_value

                assert value(row.min_gates) >= row.lower_log
                assert (row.min_gates == 1
                        or value(row.min_gates - 1) < row.lower_log)

    def test_least_integer_by_mpmath(self):
        # the demand taken as the exact value of its float, and the bound
        # at 25 digits past the count's own: every count is the least
        # integer whose bound meets the demand
        for epsilon, (d, k) in itertools.product(
                (1e-3, 1e-4), ((2, 1), (2, 2), (3, 1), (3, 2))):
            report = crossover_analysis(d, k, epsilon, range(2, 49),
                                        "circuit")
            assert len(report.rows) == 47
            for row in report.rows:
                gates = row.min_gates
                with mp.workdps(len(str(gates)) + 25):
                    def value(n_gates):
                        n = mp.mpf(n_gates)
                        return n * (k * mp.log(row.L) + d ** (2 * k)
                                    * mp.log(14 * n / mp.mpf(epsilon)))

                    assert value(gates) >= row.lower_log, row
                    assert gates == 1 or value(gates - 1) < row.lower_log, row
                key = (epsilon, d, k, row.L)
                assert EXACT_GATES.get(key, gates) == gates, key

    def test_counts_past_two_to_the_53_reported(self, capsys):
        # counts above 2^53 were refused until the root became exact; JSON
        # and CSV carry each count as its exact integer
        gates = [row.min_gates for row in
                 crossover_analysis(2, 1, 0.001, range(31, 34),
                                    "circuit").rows]
        assert gates[0] > 2 ** 53
        argv = ["crossover", "--d", "2", "--k", "1", "--eps", "0.001",
                "--lmin", "31", "--lmax", "33", "--resource", "circuit"]
        assert cli_main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [row["min_gates"] for row in json.loads(out)["rows"]] == gates
        assert cli_main(argv + ["--format", "csv"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert [line.split(",")[3] for line in out.splitlines()[1:]] == [
            str(g) for g in gates]

    def test_root_within_its_error_of_an_integer_refused(self, monkeypatch):
        root = reports_module._root

        def near_integer(*args, offset):
            value, error = root(*args)
            with localcontext(prec=60):
                return Decimal(math.ceil(value)) + offset * error, error

        monkeypatch.setattr(reports_module, "_root", functools.partial(
            near_integer, offset=Decimal("0.5")))
        with pytest.raises(ValueError, match=r"L=10, d=2, k=2, epsilon=0\.001 "
                           r"is within \d\.\de-\d+ of an integer"):
            crossover_analysis(2, 2, 0.001, [10], "circuit")
        monkeypatch.setattr(reports_module, "_root", functools.partial(
            near_integer, offset=Decimal(2)))
        row, = crossover_analysis(2, 2, 0.001, [10], "circuit").rows
        assert row.min_gates == CROSSOVER_GATES[2] + 1

    def test_single_size_has_no_fit(self):
        rep = crossover_analysis(2, 2, 0.001, [8], "circuit")
        assert rep.fit is None
        assert len(rep.rows) == 1

    def test_vacuous_epsilon_rejected(self):
        with pytest.raises(ValueError, match="9/1805"):
            crossover_analysis(2, 2, 0.01, range(8, 10), "circuit")

    def test_epsilon_outside_lower_window_rejected(self):
        with pytest.raises(ValueError, match="1/71"):
            crossover_analysis(2, 2, 0.05, range(8, 10), "circuit")

    def test_sizes_below_one_rejected(self):
        with pytest.raises(ValueError, match=r"d\^L = 1 too small"):
            crossover_analysis(2, 2, 0.001, range(0, 3), "circuit")
        with pytest.raises(ValueError, match=r"d\^L = 0.5 too small"):
            crossover_analysis(2, 2, 0.001, [8, -1], "circuit")

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="resource"):
            crossover_analysis(2, 2, 0.001, range(8, 10), "depth")
        with pytest.raises(ValueError, match="empty"):
            crossover_analysis(2, 2, 0.001, [], "circuit")

    @pytest.mark.parametrize("d, k, epsilon, message", [
        (1, 2, 0.001, "^d >= 2 and k >= 1 required$"),
        (2, 0, 0.001, "^d >= 2 and k >= 1 required$"),
        (2, 2, 0.0, "^epsilon must be positive$"),
    ])
    def test_bad_sizes_and_epsilon_refused(self, d, k, epsilon, message):
        with pytest.raises(ValueError, match=message):
            crossover_analysis(d, k, epsilon, [8, 9], "time")

    def test_time_at_the_window_edge(self):
        # at L = 2, k = 5 the smallest covered time already meets the demand
        rep = crossover_analysis(2, 5, 1e-3, [2], "time")
        edge = trotter_module._min_covered_time(1, 3, 1.0, 1e-3) * (1 + 1e-12)
        assert rep.rows[0].min_time == edge == 4.564354645880949e-4
        with pytest.raises(ValueError, match="unknown"):
            crossover_analysis(2, 2, 0.001, [8], "circuit",
                               params={"coupling": 2.0})


class TestCrossoverTime:
    def test_first_time_frozen(self, time_report):
        # 50-digit bisection gives 0.018939796631363438
        np.testing.assert_allclose(time_report.rows[0].min_time,
                                   0.018939796631363438, rtol=1e-10)

    def test_times_increase(self, time_report):
        times = [r.min_time for r in time_report.rows]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_fit_quality(self, time_report):
        assert time_report.fit["r_squared"] >= 0.99

    def test_family_metadata(self, time_report):
        assert time_report.metadata["family"] == {"K": "L - 1", "z": 3,
                                             "h_max": 1.0}
        assert "no asymptotic claim" in time_report.metadata["scope"]

    def test_custom_interaction_parameters(self):
        rep = crossover_analysis(2, 2, 0.001, [8], "time",
                                 params={"z": 2, "h_max": 0.5})
        assert rep.metadata["family"]["z"] == 2
        # weaker couplings need more time to meet the same demand
        base = crossover_analysis(2, 2, 0.001, [8], "time")
        assert rep.rows[0].min_time > base.rows[0].min_time

    def test_each_time_evaluated_once(self, monkeypatch):
        calls = []
        bound = reports_module.evolution_covering_log_bound

        def counted(L, d, k, K, z, h_max, t_final, epsilon):
            calls.append((L, t_final))
            return bound(L, d, k, K, z, h_max, t_final, epsilon)

        monkeypatch.setattr(reports_module, "evolution_covering_log_bound",
                            counted)
        crossover_analysis(2, 2, 0.001, range(8, 13), "time")
        # one per size, at the window edge; the closed form needs no more
        # (258 calls with the bisection it replaced)
        assert len(calls) == 5
        assert len(set(calls)) == len(calls)

    def test_minimality(self, time_report):
        # the bound misses the demand a hair before min_time and meets it a
        # hair after, the time analogue of the gate count's minimality
        from dynnets.trotter import evolution_covering_log_bound

        for row in time_report.rows:
            def value(t):
                return evolution_covering_log_bound(row.L, 2, 2, row.L - 1, 3,
                                                    1.0, t, 0.001).ln_value

            assert (value(row.min_time * (1.0 - 1e-14)) < row.lower_log
                    < value(row.min_time * (1.0 + 1e-14)))

    @pytest.mark.parametrize("z, h_max", [(3, 1.0), (2, 0.7), (5, 2.0)])
    @pytest.mark.parametrize("epsilon", [1e-3, 2e-3, 4e-3])
    def test_time_is_the_exact_root_rounded_down(self, epsilon, z, h_max):
        # the reported time is a lower bound on what a measurement needs, so
        # it must not pass the root of bound = demand: it is the largest
        # float at or below it. The bisection this replaced returned times
        # up to 7.8e-13 above it.
        report = crossover_analysis(2, 2, epsilon, [8, 10, 12], "time",
                                    params={"z": z, "h_max": h_max})
        with mp.workdps(50):
            eps = mp.mpf(epsilon)
            for row in report.rows:
                K = row.L - 1
                c = K * z * mp.mpf(h_max) ** 2

                def excess(t):
                    scale = t ** 2 * K * c
                    return (2 * K * mp.log(row.L) + 64 * scale / eps
                            * mp.log(112 * scale / eps ** 2) - row.lower_log)

                root = mp.findroot(excess, mp.mpf(row.min_time))
                assert (row.min_time <= root
                        < math.nextafter(row.min_time, math.inf)), row.L

    def test_time_needs_two_sites(self):
        with pytest.raises(ValueError, match="L >= 2"):
            crossover_analysis(2, 2, 0.001, [1, 8], "time")

    @pytest.mark.parametrize("params, message", [
        ({"h_max": 0.0}, "h_max must be finite and positive"),
        ({"z": 0}, "z must be at least 1"),
        ({"h_max": 1e200}, "overflows float64 at L = 9, z = 3, h_max = 1e"),
        ({"z": 2.5}, "z must be an integer, got 2.5"),
    ], ids=["h_max-zero", "z-zero", "h_max-overflow", "z-fraction"])
    def test_bad_params_refused_up_front(self, params, message):
        # each once ended in ZeroDivisionError, OverflowError or, for
        # z = 2.5, a silent z = 2
        with pytest.raises(ValueError, match=message):
            crossover_analysis(2, 2, 0.001, [8, 9], "time", params=params)


class TestSharedRoot:
    """The one root of y ln y = b behind both resources' minima."""

    @pytest.mark.parametrize("shift", [-0.01, 0.01])
    @pytest.mark.parametrize("resource, d, k, sizes", [
        ("circuit", 2, 1, [8, 14, 30, 31, 48]),
        ("time", 2, 2, range(2, 13)),
    ], ids=["circuit", "time"])
    def test_rough_start(self, monkeypatch, resource, d, k, sizes, shift):
        # Newton's method runs until it converges, so a float start 1% off
        # gives the same counts and the same time floats
        exact = crossover_analysis(d, k, 0.001, sizes, resource)
        lambert_w = reports_module._lambert_w
        monkeypatch.setattr(reports_module, "_lambert_w",
                            lambda ln_b: lambert_w(ln_b) * (1.0 + shift))
        rough = crossover_analysis(d, k, 0.001, sizes, resource)
        assert rough.rows == exact.rows


class TestReportValidation:
    def test_nonmonotone_times_reported(self, capsys):
        # the minimal time is not monotone in L here: L = 2 needs more
        # time than L = 3
        code = cli_main(["crossover", "--d", "2", "--k", "2", "--eps", "0.001",
                         "--lmin", "2", "--lmax", "9", "--resource", "time"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        times = [row["min_time"] for row in json.loads(out)["rows"]]
        assert len(times) == 8 and times[0] > times[1]

    @pytest.mark.parametrize("resource", ["circuit", "time"])
    @pytest.mark.parametrize("d, lmin, first", [(2, 2, 512),
                                                (3, 999999990, 324)])
    def test_sizes_past_float64_refused_up_front(self, capsys, resource, d,
                                                 lmin, first):
        # the range's ends are checked before it is built; the whole range
        # once took 327 MB before the first size was refused at lmax = 3e6
        start = time.perf_counter()
        code = cli_main(["crossover", "--d", str(d), "--k", "1", "--eps",
                         "0.001", "--lmin", str(lmin), "--lmax",
                         "1000000000", "--resource", resource])
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert (f"d^(2L) overflows float64 from L = {first} on at d = {d}, "
                f"got L = 1000000000") in err
        with pytest.raises(ValueError, match=f"from L = {first} on at d = "
                           f"{d}, got L = {first}$"):
            crossover_analysis(d, 1, 0.001, [8, first], resource)

    @pytest.mark.parametrize("resource", ["circuit", "time"])
    def test_last_size_within_float64_answered(self, capsys, resource):
        # the demand at L = 511 is finite (3.61e307); the upper projector
        # bound, which overflows there, is not computed
        code = cli_main(["crossover", "--d", "2", "--k", "1", "--eps", "0.001",
                         "--lmin", "511", "--lmax", "511", "--resource",
                         resource])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        (row,) = json.loads(out)["rows"]
        assert row["L"] == 511 and row["m"] == 2 ** 511
        assert row["lower_log"] == pytest.approx(3.6104e307, rel=1e-4)
        if resource == "time":
            assert row["min_time"] == pytest.approx(2.0175e147, rel=1e-4)
            return
        gates = row["min_gates"]
        assert len(str(gates)) == 305
        with mp.workdps(330):
            def value(n_gates):
                n = mp.mpf(n_gates)
                return n * (mp.log(511) + 4 * mp.log(14 * n / mp.mpf(0.001)))

            assert value(gates - 1) < row["lower_log"] <= value(gates)

    def test_row_without_value_rejected(self):
        rows = (CrossoverRow(4, 16, 10.0, 50, None),)
        with pytest.raises(ValueError, match="lacks a time value"):
            CrossoverReport("time", 2, 2, 0.001, rows, None, {})

    def test_row_value_follows_resource(self):
        row = CrossoverRow(4, 16, 10.0, 50, 0.25)
        assert row.value("circuit") == 50
        assert row.value("time") == 0.25

    def test_unknown_resource_rejected(self):
        with pytest.raises(ValueError):
            CrossoverReport("depth", 2, 2, 0.001, (), None, {})


class TestEmitReport:
    def test_json_deterministic(self, emit_source):
        assert emit_report(emit_source) == emit_report(emit_source)

    def test_json_parses_back(self, emit_source):
        data = json.loads(emit_report(emit_source))
        assert data == emit_source.as_dict()

    def test_float_precision_roundtrip(self, emit_source):
        data = json.loads(emit_report(emit_source))
        assert data["rows"][0]["lower_log"] == emit_source.rows[0].lower_log

    def test_csv_shape(self, emit_source):
        lines = emit_report(emit_source, format="csv").strip().split("\n")
        assert len(lines) == len(emit_source.rows) + 1
        assert lines[0] == "L,m,lower_log,min_gates"
        assert lines[1].startswith("8,256,")

    def test_csv_for_time_resource(self):
        rep = crossover_analysis(2, 2, 0.001, [8, 9], "time")
        lines = emit_report(rep, format="csv").strip().split("\n")
        assert lines[0] == "L,m,lower_log,min_time"

    def test_writes_file(self, emit_source, tmp_path):
        target = tmp_path / "emit_source.json"
        text = emit_report(emit_source, path=target)
        assert target.read_text(encoding="utf-8") == text

    def test_csv_only_for_crossover(self):
        with pytest.raises(ValueError, match="crossover"):
            emit_report({"a": 1}, format="csv")

    def test_unknown_format(self, emit_source):
        with pytest.raises(ValueError, match="format"):
            emit_report(emit_source, format="yaml")

    def test_plain_dict_payload(self):
        text = emit_report({"alpha": 1, "beta": [0.5, None, True]})
        assert json.loads(text) == {"alpha": 1, "beta": [0.5, None, True]}

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            emit_report({"x": float("inf")})

    def test_strings_roundtrip(self):
        text = 'say "hi" \\ caf\u00e9 \u03b5-net \b\t\n\f\r \x00\x1f\x7f'
        report = {text: [text, "\u2028"], "plain": "ok"}
        emitted = emit_report(report)
        assert json.loads(emitted) == report
        assert "caf\u00e9" in emitted  # non-ASCII stays unescaped


class TestHighPrecisionSpotValues:
    """Log-domain evaluators vs 50-digit arithmetic on ten parameter sets."""

    def test_spot_values(self):
        from dynnets.circuits import circuit_covering_log_bound
        from dynnets.grassmann import projector_covering_bounds
        from dynnets.trotter import evolution_covering_log_bound
        from dynnets.unitary_nets import unitary_covering_bounds

        def circuit_ref(d, k, L, ng, eps):
            ng_, eps_ = mp.mpf(ng), mp.mpf(eps)
            return k * ng_ * mp.log(L) + d ** (2 * k) * ng_ * mp.log(
                14 * ng_ / eps_)

        def tevol_ref(L, d, k, K, z, h, T, eps):
            scale = mp.mpf(T) ** 2 * K ** 2 * z * mp.mpf(h) ** 2
            eps_ = mp.mpf(eps)
            return k * K * mp.log(L) + (4 * d ** (2 * k) * scale / eps_) \
                * mp.log(112 * scale / eps_ ** 2)

        def projector_lower_ref(n, m, eps):
            return 2 * n * (m - n) * mp.log(9 / (5 * mp.mpf(eps))) \
                - m * m * mp.log(19)

        def projector_upper_ref(n, m, eps):
            return 2 * n * (m - n) * mp.log(3 / (4 * mp.mpf(eps))) \
                + m * m * mp.log(38)

        def unitary_upper_ref(n, eps):
            return n * n * mp.log(7 / mp.mpf(eps))

        with mp.workdps(50):
            cases = [
                (circuit_covering_log_bound(2, 2, 4, 8, 0.3).ln_value,
                 circuit_ref(2, 2, 4, 8, 0.3)),
                (circuit_covering_log_bound(2, 1, 6, 10, 0.5).ln_value,
                 circuit_ref(2, 1, 6, 10, 0.5)),
                (circuit_covering_log_bound(3, 2, 5, 12, 1.0).ln_value,
                 circuit_ref(3, 2, 5, 12, 1.0)),
                (evolution_covering_log_bound(4, 2, 2, 3, 3, 1.0, 1.0, 0.1)
                 .ln_value, tevol_ref(4, 2, 2, 3, 3, 1.0, 1.0, 0.1)),
                (evolution_covering_log_bound(6, 2, 1, 5, 2, 0.5, 2.0, 0.2)
                 .ln_value, tevol_ref(6, 2, 1, 5, 2, 0.5, 2.0, 0.2)),
                (evolution_covering_log_bound(3, 3, 1, 2, 3, 1.0, 0.7, 0.15)
                 .ln_value, tevol_ref(3, 3, 1, 2, 3, 1.0, 0.7, 0.15)),
                (projector_covering_bounds(2, 4, 0.01).lower_log,
                 projector_lower_ref(2, 4, 0.01)),
                (projector_covering_bounds(8, 16, 0.002).lower_log,
                 projector_lower_ref(8, 16, 0.002)),
                (projector_covering_bounds(8, 16, 0.002).upper_log,
                 projector_upper_ref(8, 16, 0.002)),
                (unitary_covering_bounds(2, 0.05).upper_log,
                 unitary_upper_ref(2, 0.05)),
            ]
        assert len(cases) == 10
        for got, ref in cases:
            assert abs(got - float(ref)) <= 1e-12 * abs(float(ref))
