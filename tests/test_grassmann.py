import math

import numpy as np
import pytest

from dynnets.grassmann import (
    Projector,
    Subspace,
    _random_bases,
    empirical_grassmann_packing,
    kato_deviation,
    kato_unitary,
    principal_angles,
    product_covering_check,
    projector_covering_bounds,
    projector_distance,
    projector_from_subspace,
    quotient_covering_check,
    quotient_distance_bounds,
    random_subspace,
)
from dynnets.linalg import haar_unitary, matrix_exp, operator_norm
from dynnets.metric import FiniteMetricSpace, brute_force_covering_number

KATO_RATIO = 5.0 / math.sqrt(2.0)


def line_pair(theta):
    """Rank-1 projectors onto the x-axis and a line at angle theta."""
    p = projector_from_subspace(Subspace(np.array([[1.0], [0.0]])))
    q = projector_from_subspace(
        Subspace(np.array([[math.cos(theta)], [math.sin(theta)]])))
    return p, q


def random_projector_pair(n, m, seed, theta):
    """A projector and a rotated copy, guaranteed inside the Kato window."""
    rng = np.random.default_rng(seed)
    p = projector_from_subspace(random_subspace(n, m, seed))
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    skew = 0.5 * (g - g.conj().T)
    skew *= theta / operator_norm(skew)
    while True:
        rot = matrix_exp(skew)
        q_mat = rot @ p.matrix @ rot.conj().T
        q = Projector(0.5 * (q_mat + q_mat.conj().T))
        if projector_distance(p, q) <= 1.0 / math.sqrt(2.0):
            return p, q
        skew *= 0.5


class TestSubspaceAndProjector:
    def test_identity_columns(self):
        s = Subspace(np.eye(4)[:, :2])
        p = projector_from_subspace(s)
        np.testing.assert_allclose(p.matrix, np.diag([1.0, 1.0, 0.0, 0.0]),
                                   atol=1e-14)
        assert p.rank == 2

    def test_full_rank_is_identity(self):
        p = projector_from_subspace(Subspace(np.eye(3)))
        np.testing.assert_allclose(p.matrix, np.eye(3), atol=1e-14)

    def test_diagonal_line(self):
        s = Subspace(np.array([[1.0], [1.0]]) / math.sqrt(2.0))
        p = projector_from_subspace(s)
        np.testing.assert_allclose(p.matrix, 0.5 * np.ones((2, 2)), atol=1e-14)

    def test_rejects_nonorthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    @staticmethod
    def _basis(scales):
        # columns of a Haar unitary times sqrt(1 + d): B^dag B - 1 = diag(d)
        # up to rounding
        q = haar_unitary(2 * len(scales), 5).array[:, :len(scales)]
        return q * np.sqrt(1.0 + np.asarray(scales))

    def test_accepts_column_defects_above_tol_in_frobenius_norm(self):
        basis = self._basis(np.full(36, 0.5e-10))
        defect = basis.conj().T @ basis - np.eye(36)
        assert np.linalg.norm(defect) > 1e-10 >= operator_norm(defect)
        assert Subspace(basis).n == 36

    def test_rejects_column_defect_just_above_tol(self):
        scales = np.zeros(36)
        scales[7] = 1.05e-10
        with pytest.raises(ValueError, match=r"not unitary \(defect 1\.05\de-10\)"):
            Subspace(self._basis(scales))

    @pytest.mark.filterwarnings("error")
    def test_refuses_overflowing_gram_as_not_unitary(self):
        # a finite basis whose Gram matrix overflows to inf
        with pytest.raises(ValueError,
                           match=r"^matrix is not unitary \(defect overflows\)$"):
            Subspace(np.array([[1e200], [0.0]]))

    @pytest.mark.parametrize("m", [5, 128])
    def test_projector_stores_the_exactly_hermitian_part(self, m):
        s = random_subspace(m // 2, m, 3)
        raw = s.basis @ s.basis.conj().T
        raw += 1e-13j * haar_unitary(m, 4).array  # off Hermitian by 1e-13
        p = Projector(raw)
        assert np.array_equal(p.matrix, p.matrix.conj().T)
        assert p.matrix.flags.c_contiguous and not p.matrix.flags.writeable
        np.testing.assert_array_equal(p.matrix, 0.5 * (raw + raw.conj().T))
        assert p.rank == m // 2

    @pytest.mark.parametrize("layout", ["transposed", "fortran", "strided"])
    def test_projector_reads_non_contiguous_input(self, layout):
        # a layout whose last axis is not contiguous holds the same matrix
        s = random_subspace(2, 5, 3)
        raw = s.basis @ s.basis.conj().T
        wide = np.zeros((5, 10), dtype=complex)
        wide[:, ::2] = raw
        a = {"transposed": np.array(raw.T, order="C").T,
             "fortran": np.asfortranarray(raw), "strided": wide[:, ::2]}[layout]
        assert not a.flags.c_contiguous and np.array_equal(a, raw)
        p, expect = Projector(a), Projector(raw)
        assert np.array_equal(p.matrix, expect.matrix) and p.rank == 2

    def test_rejects_nan_in_basis(self):
        basis = self._basis(np.zeros(36))
        basis[3, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Subspace(basis)

    def test_rejects_nonidempotent(self):
        with pytest.raises(ValueError):
            Projector(np.diag([0.5, 0.5]))

    @staticmethod
    def _near_projector(offsets):
        # eigenvalues 1 + e (first half) and e (second half), so P^2 - P has
        # eigenvalues of modulus about |e|
        m = len(offsets)
        v = haar_unitary(m, 13).array
        eig = np.where(np.arange(m) < m // 2, 1.0, 0.0) + np.asarray(offsets)
        p = (v * eig) @ v.conj().T
        return 0.5 * (p + p.conj().T)

    def test_accepts_idempotence_defect_above_tol_in_frobenius_norm(self):
        p = self._near_projector(np.full(128, 0.5e-9))
        defect = p @ p - p
        assert np.linalg.norm(defect) > 1e-9 >= operator_norm(defect)
        assert Projector(p).rank == 64

    def test_rejects_idempotence_defect_just_above_tol(self):
        offsets = np.full(128, 0.5e-9)
        offsets[3] = 1.05e-9
        with pytest.raises(ValueError,
                           match="projector must be idempotent within 1e-9"):
            Projector(self._near_projector(offsets))

    def test_rejects_nan_entry(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        a[0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            Projector(a)

    @pytest.mark.parametrize("n, m, seed", [(1, 1, 0), (1, 2, 4), (2, 5, 8),
                                            (3, 3, 2), (36, 72, 3)])
    def test_random_subspace_is_the_stacked_draw(self, n, m, seed):
        np.testing.assert_array_equal(random_subspace(n, m, seed).basis,
                                      _random_bases(n, m, [seed])[0])

    @pytest.mark.parametrize("n, m", [(3, 2), (0, 4)])
    def test_random_subspace_refuses_bad_dimensions(self, n, m):
        with pytest.raises(ValueError, match=r"^need 1 <= n <= m$"):
            random_subspace(n, m, 1)

    def test_random_subspace_deterministic(self):
        s1 = random_subspace(2, 5, seed=8)
        s2 = random_subspace(2, 5, seed=8)
        np.testing.assert_array_equal(s1.basis, s2.basis)
        np.testing.assert_allclose(s1.basis.conj().T @ s1.basis, np.eye(2),
                                   atol=1e-12)


class TestProjectorDistance:
    def test_equal_projectors(self):
        p, _ = line_pair(0.5)
        assert projector_distance(p, p) == 0.0

    def test_orthogonal_lines(self):
        p, q = line_pair(math.pi / 2)
        assert projector_distance(p, q) == pytest.approx(1.0)

    def test_pi_over_six(self):
        p, q = line_pair(math.pi / 6)
        assert projector_distance(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_rank_mismatch_rejected(self):
        p = projector_from_subspace(Subspace(np.eye(3)[:, :1]))
        q = projector_from_subspace(Subspace(np.eye(3)[:, :2]))
        with pytest.raises(ValueError):
            projector_distance(p, q)

    def test_equals_sine_of_largest_angle(self):
        for seed in range(40):
            for n, m in ((1, 2), (2, 4), (3, 6)):
                s1 = random_subspace(n, m, seed=seed)
                s2 = random_subspace(n, m, seed=seed + 1000)
                dist = projector_distance(projector_from_subspace(s1),
                                          projector_from_subspace(s2))
                angles = principal_angles(s1, s2)
                np.testing.assert_allclose(dist, math.sin(angles[-1]),
                                           atol=1e-9)


class TestPrincipalAngles:
    def test_identical(self):
        s = random_subspace(2, 4, seed=1)
        np.testing.assert_allclose(principal_angles(s, s), 0.0, atol=1e-7)

    def test_orthogonal_lines(self):
        s1 = Subspace(np.array([[1.0], [0.0]]))
        s2 = Subspace(np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(principal_angles(s1, s2), [math.pi / 2])

    def test_pi_over_six(self):
        s1 = Subspace(np.array([[1.0], [0.0]]))
        s2 = Subspace(np.array([[math.cos(math.pi / 6)],
                                [math.sin(math.pi / 6)]]))
        np.testing.assert_allclose(principal_angles(s1, s2), [math.pi / 6],
                                   atol=1e-12)

    def test_sorted_ascending(self):
        s1 = random_subspace(3, 8, seed=2)
        s2 = random_subspace(3, 8, seed=3)
        angles = principal_angles(s1, s2)
        assert np.all(np.diff(angles) >= 0)
        assert angles[0] >= 0 and angles[-1] <= math.pi / 2 + 1e-12


class TestKatoUnitary:
    def test_equal_projectors_give_identity(self):
        p, _ = line_pair(0.3)
        v = kato_unitary(p, p)
        np.testing.assert_allclose(v.array, np.eye(2), atol=1e-12)

    def test_pi_over_six_rotation(self):
        theta = math.pi / 6
        p, q = line_pair(theta)
        v = kato_unitary(p, q)
        rotation = np.array([[math.cos(theta), -math.sin(theta)],
                             [math.sin(theta), math.cos(theta)]])
        np.testing.assert_allclose(v.array.real, rotation, atol=1e-12)
        np.testing.assert_allclose(v.array.imag, 0.0, atol=1e-12)
        dev = operator_norm(np.eye(2) - v.array)
        np.testing.assert_allclose(dev, 2 * math.sin(math.pi / 12), rtol=1e-12)

    def test_conjugation_on_random_pairs(self):
        for seed in range(60):
            p, q = random_projector_pair(2, 6, seed, theta=0.6)
            v = kato_unitary(p, q)
            defect = operator_norm(v.array @ p.matrix @ v.array.conj().T
                                   - q.matrix)
            assert defect <= 1e-8
            dev = operator_norm(np.eye(6) - v.array)
            assert dev <= KATO_RATIO * projector_distance(p, q) + 1e-9

    @pytest.mark.parametrize("theta", [1e-9, 1e-3, 0.3, math.pi / 6,
                                       math.pi / 4])
    def test_deviation_closed_form(self, theta):
        closed = 2.0 * math.sin(0.5 * theta)
        assert kato_deviation(math.sin(theta)) == pytest.approx(closed,
                                                               rel=1e-15)
        if theta > 0.1:  # the textbook form cancels at small angles
            d = math.sin(theta)
            assert kato_deviation(d) == pytest.approx(
                math.sqrt(2.0 * (1.0 - math.sqrt(1.0 - d * d))), rel=1e-14)

    def test_distance_precondition(self):
        p, q = line_pair(math.pi / 2)  # distance 1 > 1/sqrt(2)
        with pytest.raises(ValueError, match="Kato"):
            kato_unitary(p, q)

    def test_any_range_mapping_unitary_bounds_distance(self):
        # ||P - Q|| <= 2 ||1 - V|| for every unitary carrying range(P) onto
        # range(Q), not only the Kato one: compose with rotations that fix
        # the subspace and its complement
        rng = np.random.default_rng(17)
        for seed in range(20):
            p, q = random_projector_pair(2, 5, seed, theta=0.5)
            v = kato_unitary(p, q).array
            a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            a = 0.5 * (a - a.conj().T)
            pm = p.matrix
            block = pm @ a @ pm + (np.eye(5) - pm) @ a @ (np.eye(5) - pm)
            w = v @ matrix_exp(block)
            q_image = w @ pm @ w.conj().T
            np.testing.assert_allclose(q_image, q.matrix, atol=1e-9)
            dist = projector_distance(p, q)
            assert dist <= 2.0 * operator_norm(np.eye(5) - w) + 1e-9


class TestQuotientDistanceBounds:
    def test_equal_projectors(self):
        p, _ = line_pair(0.2)
        lower, upper = quotient_distance_bounds(p, p)
        assert lower == 0.0
        assert upper <= 1e-12

    def test_pi_over_six_values(self):
        p, q = line_pair(math.pi / 6)
        lower, upper = quotient_distance_bounds(p, q)
        np.testing.assert_allclose(lower, 0.25, atol=1e-12)
        np.testing.assert_allclose(upper, 2 * math.sin(math.pi / 12),
                                   rtol=1e-12)

    @pytest.mark.parametrize("n, m, count", [(1, 2, 10), (1, 4, 10), (2, 5, 10),
                                             (3, 8, 10), (36, 72, 3)])
    def test_one_distance_is_the_two_call_form(self, n, m, count):
        # the distance is taken once and V built directly; the values are
        # those of projector_distance and kato_unitary called separately
        for seed in range(count):
            p, q = random_projector_pair(n, m, seed, theta=0.5)
            lower, upper = quotient_distance_bounds(p, q)
            assert lower == 0.5 * projector_distance(p, q)
            assert upper == operator_norm(np.eye(m) - kato_unitary(p, q).array)

    def test_sandwich_on_random_pairs(self):
        for seed in range(30):
            p, q = random_projector_pair(1, 4, seed, theta=0.5)
            lower, upper = quotient_distance_bounds(p, q)
            dist = projector_distance(p, q)
            assert lower <= upper + 1e-12
            assert upper <= KATO_RATIO * dist + 1e-9


class TestProjectorCoveringBounds:
    def test_m4_n2_example(self):
        b = projector_covering_bounds(2, 4, 0.01)
        expect = -16.0 * math.log(19.0) + 8.0 * math.log(180.0)
        np.testing.assert_allclose(b.lower_log, expect, rtol=1e-12)
        assert not b.lower_nontrivial
        assert b.lower_valid and b.upper_valid

    def test_half_rank_nontriviality_threshold(self):
        # positive demand needs 9/(5 eps) > 361, i.e. eps < 9/1805
        below = projector_covering_bounds(4, 8, 0.004)
        above = projector_covering_bounds(4, 8, 0.006)
        assert below.lower_nontrivial
        assert not above.lower_nontrivial

    def test_validity_flags(self):
        b = projector_covering_bounds(2, 4, 0.2)
        assert not b.lower_valid and not b.upper_valid
        b = projector_covering_bounds(2, 4, 0.05)
        assert not b.lower_valid and b.upper_valid  # 1/71 < 0.05 <= 1/10

    def test_lower_below_upper_when_valid(self):
        for n, m in ((1, 2), (2, 4), (3, 8), (4, 9)):
            b = projector_covering_bounds(n, m, 0.01)
            assert b.lower_log < b.upper_log

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError):
            projector_covering_bounds(4, 4, 0.01)
        with pytest.raises(ValueError):
            projector_covering_bounds(0, 4, 0.01)

    def test_as_dict_keys(self):
        d = projector_covering_bounds(2, 4, 0.01).as_dict()
        assert set(d) == {"n", "m", "epsilon", "lower_log", "upper_log",
                          "lower_valid", "upper_valid", "lower_nontrivial"}


class TestProductCoveringCheck:
    def test_single_point_factors(self):
        s = FiniteMetricSpace([0], lambda x, y: 0.0)
        report = product_covering_check(s, s, 0.5)
        assert report.product_cover_eps == 1
        assert report.passed

    def test_identity_factor(self):
        point = FiniteMetricSpace([0], lambda x, y: 0.0)
        cyc = FiniteMetricSpace.cycle(5)
        report = product_covering_check(cyc, point, 1.0)
        assert report.product_cover_eps == brute_force_covering_number(cyc, 1.0)
        assert report.passed

    def test_two_four_cycles(self):
        cyc = FiniteMetricSpace.cycle(4)
        report = product_covering_check(cyc, cyc, 1.0)
        assert report.lower_ok and report.upper_ok and report.passed

    def test_several_epsilons(self):
        s1 = FiniteMetricSpace.cycle(6)
        s2 = FiniteMetricSpace.cycle(5)
        for eps in (0.6, 1.0, 1.5, 2.0):
            assert product_covering_check(s1, s2, eps).passed

    def test_size_limit(self, monkeypatch):
        # an oversized factor is refused before the product is built
        def refuse(*args):
            raise AssertionError("product built before the factor limit check")

        monkeypatch.setattr("dynnets.metric.product_space", refuse)
        small, big = FiniteMetricSpace.cycle(3), FiniteMetricSpace.cycle(16)
        for pair in ((big, big), (big, small), (small, big)):
            with pytest.raises(ValueError, match="limit"):
                product_covering_check(*pair, 1.0)


class TestQuotientCoveringCheck:
    def test_trivial_subgroup(self):
        report = quotient_covering_check(6, 1, 1.0)
        group_cover = brute_force_covering_number(FiniteMetricSpace.cycle(6),
                                                  1.0)
        assert report.quotient_cover_eps == group_cover
        assert report.passed

    def test_full_subgroup_quotient_is_point(self):
        report = quotient_covering_check(6, 6, 1.0)
        assert report.quotient_cover_eps == 1
        assert report.passed

    def test_z8_mod_z2(self):
        report = quotient_covering_check(8, 2, 1.0)
        assert report.passed
        # quotient of Z_8 by {0, 4} behaves like Z_4
        z4_cover = brute_force_covering_number(FiniteMetricSpace.cycle(4), 1.0)
        assert report.quotient_cover_eps == z4_cover

    @pytest.mark.parametrize("order, sub", [
        (8, 2), (12, 3), (12, 4), (6, 1), (6, 6), (30, 5)])
    def test_quotient_metric_matches_loop(self, monkeypatch, order, sub):
        searched = []
        search = brute_force_covering_number

        def spy(space, epsilon, **kwargs):
            searched.append(space)
            return search(space, epsilon, **kwargs)

        monkeypatch.setattr("dynnets.metric.brute_force_covering_number", spy)
        quotient_covering_check(order, sub, 1.0)
        gmat = FiniteMetricSpace.cycle(order).matrix
        step = order // sub
        loop = [[min(gmat[a, (b + h) % order] for h in range(0, order, step))
                 for b in range(step)] for a in range(step)]
        # the searches run on G, H, G / H and G in that order
        assert np.array_equal(searched[2].matrix, loop)

    def test_spec_triples_many_epsilons(self):
        for order, sub in ((8, 2), (12, 3), (12, 4)):
            for eps in (0.6, 1.0, 1.5, 2.0):
                assert quotient_covering_check(order, sub, eps).passed

    def test_rejects_nondivisor(self):
        with pytest.raises(ValueError):
            quotient_covering_check(8, 3, 1.0)


class TestEmpiricalGrassmannPacking:
    def test_diameter_gives_one(self):
        assert empirical_grassmann_packing(1, 2, 1.0, trials=40, seed=0) == 1

    def test_bloch_sphere_lines(self):
        count = empirical_grassmann_packing(1, 2, 0.5, trials=300, seed=1)
        assert count >= 4

    def test_monotone_in_epsilon(self):
        counts = [empirical_grassmann_packing(1, 2, eps, trials=150, seed=2)
                  for eps in (0.2, 0.4, 0.6, 0.8)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize("call", [
    lambda: projector_covering_bounds(2, 4, math.nan),
    lambda: quotient_covering_check(6, 2, math.nan),
    lambda: empirical_grassmann_packing(2, 4, math.nan, 5, 1),
], ids=["projector_covering_bounds", "quotient_covering_check",
        "empirical_grassmann_packing"])
def test_nan_epsilon_rejected(call):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        call()
