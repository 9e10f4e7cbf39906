import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dynnets.metric import (
    FiniteMetricSpace,
    _row_masks,
    ball_covering_bounds,
    brute_force_covering_number,
    brute_force_packing_number,
    greedy_maximal_packing,
    product_space,
    verify_covering,
    verify_packing,
)


def random_space(rng, size, dim=3):
    coords = rng.normal(size=(size, dim))
    return FiniteMetricSpace.from_coords(coords)


def chordal_circle(n):
    angles = 2 * np.pi * np.arange(n) / n
    coords = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    return FiniteMetricSpace.from_coords(coords)


def exhaustive_covering_number(space, epsilon):
    """Reference: smallest covering subset by direct subset enumeration."""
    n = space.size
    mat = space.matrix
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(n), size):
            if np.all(mat[list(subset)].min(axis=0) <= epsilon + 1e-12):
                return size
    return n


def exhaustive_packing_number(space, epsilon):
    n = space.size
    mat = space.matrix
    best = 0
    for size in range(n, 0, -1):
        for subset in itertools.combinations(range(n), size):
            sub = mat[np.ix_(subset, subset)]
            if np.all(sub[np.triu_indices(size, 1)] > epsilon):
                return size
    return best


class TestFiniteMetricSpace:
    def test_from_coords_distances(self):
        coords = np.array([[0.0, 0.0], [3.0, 4.0]])
        space = FiniteMetricSpace.from_coords(coords)
        assert space.distance(0, 1) == pytest.approx(5.0)
        assert space.distance(0, 0) == 0.0

    def test_cycle_metric(self):
        space = FiniteMetricSpace.cycle(8)
        assert space.size == 8
        assert space.distance(0, 1) == 1.0
        assert space.distance(0, 4) == 4.0
        assert space.distance(0, 7) == 1.0  # wraps around

    def test_rejects_asymmetric(self):
        mat = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace([0, 1], mat)

    def test_rejects_nonzero_diagonal(self):
        mat = np.array([[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace([0, 1], mat)

    def test_rejects_negative(self):
        mat = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            FiniteMetricSpace([0, 1], mat)

    def test_rejects_triangle_violation(self):
        mat = np.array([
            [0.0, 1.0, 5.0],
            [1.0, 0.0, 1.0],
            [5.0, 1.0, 0.0],
        ])
        with pytest.raises(ValueError):
            FiniteMetricSpace([0, 1, 2], mat)

    @pytest.mark.parametrize("size", [2, 5, 8, 9, 12, 30])
    def test_triangle_policy(self, size):
        # every triple up to 8 points, the 512 default_rng(0) triples above
        def looped_verdict(mat):
            n = mat.shape[0]
            if n <= 8:
                triples = itertools.product(range(n), repeat=3)
            else:
                triples = np.random.default_rng(0).integers(0, n, size=(512, 3))
            return all(mat[i, k] <= mat[i, j] + mat[j, k] + 1e-12
                       for i, j, k in triples)

        rng = np.random.default_rng(size)
        verdicts = []
        for _ in range(40):
            mat = random_space(rng, size).matrix.copy()
            a, b = rng.choice(size, 2, replace=False)
            mat[a, b] = mat[b, a] = mat[a, b] * rng.uniform(1.0, 3.0)
            try:
                FiniteMetricSpace(range(size), mat)
                verdicts.append(True)
            except ValueError as exc:
                assert str(exc) == "triangle inequality violated"
                verdicts.append(False)
            assert verdicts[-1] == looped_verdict(mat)
        if size > 2:
            assert not all(verdicts)

    def test_rejects_duplicate_points(self):
        with pytest.raises(ValueError):
            FiniteMetricSpace([0, 0], np.zeros((2, 2)))

    def test_callable_distance(self):
        space = FiniteMetricSpace([0, 1, 2], lambda x, y: abs(x - y))
        assert space.distance(0, 2) == 2.0


class TestProductSpace:
    def test_max_metric(self):
        s1 = FiniteMetricSpace.cycle(3)
        s2 = FiniteMetricSpace.cycle(4)
        prod = product_space(s1, s2)
        assert prod.size == 12
        d = prod.distance((0, 0), (1, 2))
        assert d == max(s1.distance(0, 1), s2.distance(0, 2))

    def test_all_pairs_max(self):
        rng = np.random.default_rng(5)
        s1 = random_space(rng, 4)
        s2 = random_space(rng, 5)
        prod = product_space(s1, s2)
        for (a1, a2) in prod.points:
            for (b1, b2) in prod.points:
                expect = max(s1.distance(a1, b1), s2.distance(a2, b2))
                assert prod.distance((a1, a2), (b1, b2)) == pytest.approx(expect)


class TestGreedyMaximalPacking:
    def test_certified_both_ways(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            space = random_space(rng, int(rng.integers(3, 12)))
            scale = float(np.median(space.matrix[space.matrix > 0]))
            result = greedy_maximal_packing(space, 0.7 * scale, seed=trial)
            assert result.is_covering
            assert result.is_packing
            assert verify_covering(space, result.selected, result.epsilon)
            assert verify_packing(space, result.selected, result.epsilon)

    def test_circle8_chordal_seed0_selects_four(self):
        # adjacent chord 2 sin(pi/8) ~ 0.765 < 0.8, next-nearest ~ 1.414 > 0.8.
        # Insertion order 0 yields the maximum-size packing (4 alternating
        # points); other orders legitimately stop at maximal sets of 3.
        space = chordal_circle(8)
        result = greedy_maximal_packing(space, 0.8, seed=0)
        assert len(result.selected) == 4
        sizes = {len(greedy_maximal_packing(space, 0.8, seed=s).selected)
                 for s in range(8)}
        assert sizes == {3, 4}

    def test_two_points_far_apart_both_selected(self):
        space = FiniteMetricSpace([0.0, 1.0], lambda x, y: abs(x - y))
        result = greedy_maximal_packing(space, 0.5, seed=0)
        assert len(result.selected) == 2

    def test_single_point_space(self):
        space = FiniteMetricSpace([42], lambda x, y: 0.0)
        result = greedy_maximal_packing(space, 0.1, seed=0)
        assert result.selected == (42,)

    def test_large_epsilon_single_point(self):
        space = FiniteMetricSpace.cycle(5)
        result = greedy_maximal_packing(space, 10.0, seed=3)
        assert len(result.selected) == 1


class TestVerifiers:
    def test_covering_closed_at_epsilon(self):
        space = FiniteMetricSpace([0.0, 1.0], lambda x, y: abs(x - y))
        assert verify_covering(space, [0.0], 1.0)  # boundary counts as covered
        assert not verify_covering(space, [0.0], 0.999)

    def test_packing_strict_at_epsilon(self):
        space = FiniteMetricSpace([0.0, 1.0], lambda x, y: abs(x - y))
        assert not verify_packing(space, [0.0, 1.0], 1.0)  # needs > epsilon
        assert verify_packing(space, [0.0, 1.0], 0.999)

    def test_unknown_point_rejected(self):
        space = FiniteMetricSpace.cycle(4)
        with pytest.raises(ValueError):
            verify_covering(space, [99], 1.0)


class TestBruteForce:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(11)
        for trial in range(25):
            space = random_space(rng, int(rng.integers(3, 9)))
            scale = float(np.median(space.matrix[space.matrix > 0]))
            for frac in (0.3, 0.7, 1.2):
                eps = frac * scale
                assert (brute_force_covering_number(space, eps)
                        == exhaustive_covering_number(space, eps))
                assert (brute_force_packing_number(space, eps)
                        == exhaustive_packing_number(space, eps))

    def test_sandwich_inequality(self):
        rng = np.random.default_rng(23)
        for trial in range(30):
            space = random_space(rng, int(rng.integers(3, 13)))
            scale = float(np.median(space.matrix[space.matrix > 0]))
            for frac in (0.25, 0.5, 1.0):
                eps = frac * scale
                cover = brute_force_covering_number(space, eps)
                assert (brute_force_packing_number(space, 2 * eps)
                        <= cover
                        <= brute_force_packing_number(space, eps))

    def test_circle8_chordal_exact_numbers(self):
        # three balls at positions 0, 3, 6 already cover all eight points,
        # so the minimum covering is 3; the maximum packing is the four
        # alternating points (min pairwise chord ~ 1.414)
        space = chordal_circle(8)
        assert brute_force_covering_number(space, 0.8) == 3
        assert brute_force_packing_number(space, 0.8) == 4
        assert brute_force_packing_number(space, 1.2) == 4
        assert verify_covering(space, [0, 2, 4, 6], 0.8)
        assert verify_packing(space, [0, 2, 4, 6], 0.8)

    def test_three_equidistant_points(self):
        mat = np.ones((3, 3)) - np.eye(3)
        space = FiniteMetricSpace([0, 1, 2], mat)
        assert brute_force_covering_number(space, 0.5) == 3
        assert brute_force_covering_number(space, 1.0) == 1
        assert brute_force_packing_number(space, 0.5) == 3
        assert brute_force_packing_number(space, 1.0) == 1  # strict

    def test_tiny_epsilon_needs_all_points(self):
        space = FiniteMetricSpace.cycle(6)
        assert brute_force_covering_number(space, 1e-6) == 6
        assert brute_force_packing_number(space, 0.5) == 6

    def test_huge_epsilon_single_point(self):
        space = FiniteMetricSpace.cycle(6)
        assert brute_force_covering_number(space, 100.0) == 1
        assert brute_force_packing_number(space, 100.0) == 1

    def test_limit_guard(self):
        space = FiniteMetricSpace.cycle(16)
        with pytest.raises(ValueError):
            brute_force_covering_number(space, 1.0)
        assert brute_force_covering_number(space, 1.0, limit=16) == 6

    @pytest.mark.parametrize("search", [brute_force_covering_number,
                                        brute_force_packing_number])
    def test_prologue_order(self, search):
        # limit first, then 0 for an empty space, then epsilon > 0
        empty = FiniteMetricSpace([], np.zeros((0, 0)))
        assert search(empty, 0.0) == 0
        assert search(empty, -1.0) == 0
        big = FiniteMetricSpace.cycle(16)
        with pytest.raises(ValueError, match="limit"):
            search(big, 0.0)
        with pytest.raises(ValueError, match="positive"):
            search(FiniteMetricSpace.cycle(3), 0.0)

    @pytest.mark.parametrize("search", [brute_force_covering_number,
                                        brute_force_packing_number])
    def test_nan_epsilon_rejected(self, search):
        # a NaN radius empties every ball, and the greedy cover never ends
        with pytest.raises(ValueError, match="positive"):
            search(FiniteMetricSpace.cycle(4), float("nan"))

    @given(st.integers(3, 10), st.floats(0.3, 3.0))
    def test_cycle_covering_closed_form(self, n, eps):
        # on a cycle each point covers floor(eps) hops to each side; the
        # covering check allows 1e-12 of slack, so floor with the same slack
        space = FiniteMetricSpace.cycle(n)
        reach = 2 * int(np.floor(eps + 1e-12)) + 1
        expect = max(1, -(-n // reach))
        assert brute_force_covering_number(space, eps) == expect


def test_row_masks_match_bit_loop():
    # sizes cross byte boundaries and the 64-bit word boundary
    rng = np.random.default_rng(5)
    for n in range(1, 71):
        within = rng.random((n, n)) < 0.4
        expect = []
        for row in within:
            mask = 0
            for j in np.nonzero(row)[0]:
                mask |= 1 << int(j)
            expect.append(mask)
        assert _row_masks(within) == expect, n


class TestBallCoveringBounds:
    def test_frozen_values(self):
        # reference values recomputed with 50-digit arithmetic
        lower, upper = ball_covering_bounds(np.pi, 4, 0.1)
        np.testing.assert_allclose(lower, 974090.9103400243, rtol=1e-12)
        np.testing.assert_allclose(upper, 16601594.797184886, rtol=1e-12)

    def test_unit_example(self):
        lower, upper = ball_covering_bounds(1.0, 2, 0.5)
        np.testing.assert_allclose(lower, 4.0, rtol=1e-14)
        np.testing.assert_allclose(upper, 25.0, rtol=1e-14)

    def test_radius_equals_epsilon(self):
        lower, _ = ball_covering_bounds(0.7, 5, 0.7)
        np.testing.assert_allclose(lower, 1.0, rtol=1e-14)

    def test_ordering(self):
        lower, upper = ball_covering_bounds(2.0, 3, 0.25)
        assert 0 < lower < upper

    def test_epsilon_above_radius_lower_below_one(self):
        lower, _ = ball_covering_bounds(1.0, 2, 2.0)
        assert lower < 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ball_covering_bounds(-1.0, 3, 0.1)
        with pytest.raises(ValueError):
            ball_covering_bounds(1.0, 0, 0.1)
        with pytest.raises(ValueError):
            ball_covering_bounds(1.0, 3, 0.0)
