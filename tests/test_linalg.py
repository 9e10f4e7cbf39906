import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dynnets import linalg
from dynnets.linalg import (
    UNITARY_TOL,
    SkewHermitian,
    UnitaryMatrix,
    _TAYLOR_THETA,
    _bracket_slack,
    _exp_lipschitz_stack,
    _exp_skew_series,
    _exp_skew_stack,
    _greedy_packing,
    _haar_qr,
    _hermitian_part,
    _log_unitary_stack,
    _nearest,
    _norm_within,
    _opnorm_stack,
    _search_rows,
    _skew_ball_stack,
    _target_rows,
    check_exp_lipschitz,
    haar_unitary,
    matrix_exp,
    operator_norm,
    principal_log,
    random_skew_in_ball,
    skew_basis,
    spectral_width,
)
from dynnets.grassmann import (
    Subspace,
    empirical_grassmann_packing,
    projector_from_subspace,
)
from dynnets.unitary_nets import (
    UnitaryNet,
    build_unitary_net,
    empirical_covering_check,
    empirical_packing_lower_bound,
)


def nearest(targets, elements, rank):
    """_nearest against a stack whose search rows are built here."""
    return _nearest(targets, _search_rows(elements), rank)


def haar_stack(n, count, rng):
    """count Haar unitaries: every real part drawn, then every imaginary part."""
    g = rng.standard_normal((2, count, n, n))
    return _haar_qr(g[0], g[1])


class TestOperatorNorm:
    def test_matches_svd(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
            np.testing.assert_allclose(operator_norm(a),
                                       np.linalg.svd(a, compute_uv=False)[0],
                                       rtol=1e-12)

    def test_diagonal(self):
        assert operator_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0)

    def test_zero(self):
        assert operator_norm(np.zeros((4, 4))) == 0.0

    def test_empty_matrix(self):
        assert operator_norm(np.zeros((0, 0))) == 0.0

    def test_large_matrix_power_iteration(self):
        # a dimension above 64, with a well-separated top singular value
        rng = np.random.default_rng(2)
        a = rng.normal(size=(80, 80))
        np.testing.assert_allclose(operator_norm(a),
                                   np.linalg.svd(a, compute_uv=False)[0],
                                   rtol=1e-9)

    def test_clustered_spectrum_not_under_estimated(self):
        # singular values packed into [0.999, 1]: an iterative estimate that
        # stops when it stagnates lands below the true norm here
        n = 128
        u, v = haar_stack(n, 2, np.random.default_rng(7))
        a = (u * np.linspace(0.999, 1.0, n)) @ v
        svd_max = np.linalg.svd(a, compute_uv=False)[0]
        eps = np.finfo(float).eps
        assert operator_norm(a) >= svd_max - 2 * n * eps * svd_max

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            operator_norm(np.zeros((2, 3)))


def hermitian_corpus(m):
    """Exactly Hermitian m x m matrices of the kinds whose norms meet eigvalsh.

    P - Q is built as the dense benchmark builds it: half-rank bases B and
    B cos(theta) + C sin(theta), theta the clustered principal angles of a
    random pair. -P has its norm at lambda_min, not lambda_max.
    """
    rng = np.random.default_rng(m)
    g = rng.standard_normal((2, m, m))
    u = _haar_qr(*rng.standard_normal((2, 2, m, m)))
    k = m // 2
    cosines = np.linalg.svd(u[0, :, :k].conj().T @ u[1, :, :k], compute_uv=False)
    theta = np.sort(np.arccos(np.clip(cosines, 0.0, 1.0)))
    first, rest = u[0, :, :k], u[0, :, k:2 * k]
    p, q = (projector_from_subspace(Subspace(b)).matrix
            for b in (first, first * np.cos(theta) + rest * np.sin(theta)))
    v = u[1, :, :1]
    return {"random": _hermitian_part(g[0] + 1j * g[1]),
            "p_minus_q": p - q,
            "minus_p": -p,
            "rank_one": _hermitian_part(3.0 * v @ v.conj().T),
            "zero": np.zeros((m, m), dtype=complex),
            "diagonal": np.diag(np.linspace(-2.0, 1.5, m)).astype(complex)}


class TestHermitianNorm:
    @pytest.mark.parametrize("m", [65, 72, 128, 256])
    def test_corpus_between_svd_and_svd_plus_1e12(self, m):
        for name, a in hermitian_corpus(m).items():
            assert np.array_equal(a, a.conj().T), name
            svd = np.linalg.svd(a, compute_uv=False)[0]
            norm = operator_norm(a)
            assert svd <= norm <= svd * (1.0 + 1e-12), name

    @pytest.mark.parametrize("m", [65, 128])
    def test_hermitian_stack_takes_eigvalsh(self, m, monkeypatch):
        stack = np.array(list(hermitian_corpus(m).values()))
        expected = np.linalg.svd(stack, compute_uv=False)[:, 0]

        def no_svd(*args, **kwargs):
            raise AssertionError("SVD called on an exactly Hermitian stack")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        norms = _opnorm_stack(stack)
        assert np.all(expected <= norms)
        assert np.all(norms <= expected * (1.0 + 1e-12))

    @pytest.mark.parametrize("m", [2, 16, 63, 64])
    def test_hermitian_up_to_64_is_the_svd(self, m):
        rng = np.random.default_rng(m)
        g = rng.standard_normal((2, 5, m, m))
        stack = _hermitian_part(g[0] + 1j * g[1])
        stack[1] = -stack[1] @ stack[1]  # norm at lambda_min
        np.testing.assert_array_equal(
            _opnorm_stack(stack), np.linalg.svd(stack, compute_uv=False)[:, 0])
        for a in stack:
            assert operator_norm(a) == np.linalg.svd(a, compute_uv=False)[0]

    @pytest.mark.parametrize("m", [65, 128])
    def test_non_hermitian_above_64_is_the_svd(self, m):
        rng = np.random.default_rng(m)
        g = rng.standard_normal((2, 3, m, m))
        stack = _hermitian_part(g[0] + 1j * g[1])
        stack[1, 0, 1] *= 1.0 + 1e-12  # off Hermitian in one entry
        stack[2] = g[0, 2] + 1j * g[1, 2]
        expected = np.linalg.svd(stack, compute_uv=False)[:, 0]
        np.testing.assert_array_equal(_opnorm_stack(stack), expected)
        np.testing.assert_array_equal(_opnorm_stack(stack[1:]), expected[1:])

    @pytest.mark.parametrize("m", [2, 128])
    def test_hermitian_part_of_entries_near_overflow(self, m):
        # (X + X^dag) / 2 overflows here; numpy's warnings are errors in
        # this suite
        g = np.random.default_rng(m).uniform(-1.0, 1.0, size=(2, m, m))
        x = 1.7e308 * (g[0] + 1j * g[1])
        h = _hermitian_part(x)
        assert np.isfinite(h.view(float)).all()
        assert np.array_equal(h, h.conj().T)
        # at a quarter of the scale the old formula stays finite, and
        # scaling by 4 is exact on normal floats
        y = x / 4
        np.testing.assert_array_equal(h, 4 * (0.5 * (y + y.conj().T)))

    def test_hermitian_part_is_exact(self):
        g = np.random.default_rng(3).standard_normal((2, 4, 9, 9))
        x = g[0] + 1j * g[1]
        h = _hermitian_part(x)
        assert np.array_equal(h, np.conj(np.swapaxes(h, -1, -2)))
        np.testing.assert_array_equal(h[2], 0.5 * (x[2] + x[2].conj().T))


class TestMatrixClasses:
    def test_unitary_accepts_unitary(self):
        u = UnitaryMatrix(np.eye(3))
        assert u.dim == 3

    def test_unitary_rejects_nonunitary(self):
        with pytest.raises(ValueError):
            UnitaryMatrix(np.eye(3) * 1.5)

    def test_unitary_accepts_empty_matrix(self):
        assert UnitaryMatrix(np.zeros((0, 0))).dim == 0

    def test_unitary_array_readonly(self):
        u = UnitaryMatrix(np.eye(2))
        with pytest.raises(ValueError):
            u.array[0, 0] = 5.0

    def test_skew_accepts_skew(self):
        x = SkewHermitian(np.array([[1j, 2.0], [-2.0, -3j]]))
        assert x.dim == 2

    def test_skew_rejects_hermitian(self):
        with pytest.raises(ValueError):
            SkewHermitian(np.array([[1.0, 0.0], [0.0, 2.0]]))

    @staticmethod
    def _near_unitary(defects):
        # U = Q diag(sqrt(1 + d)) has U^dag U - 1 = diag(d) up to rounding
        q = haar_stack(len(defects), 1, np.random.default_rng(11))[0]
        return q * np.sqrt(1.0 + np.asarray(defects))

    def test_unitary_accepts_defect_above_tol_in_frobenius_norm(self):
        u = self._near_unitary(np.full(128, 0.5e-10))
        defect = u.conj().T @ u - np.eye(128)
        assert np.linalg.norm(defect) > UNITARY_TOL >= operator_norm(defect)
        assert UnitaryMatrix(u).dim == 128

    def test_unitary_rejects_defect_just_above_tol(self):
        defects = np.full(128, 0.5e-10)
        defects[5] = 1.05e-10
        with pytest.raises(ValueError,
                           match=r"matrix is not unitary \(defect 1\.05\de-10\)"):
            UnitaryMatrix(self._near_unitary(defects))

    @pytest.mark.filterwarnings("error")
    def test_unitary_refuses_overflowing_gram_as_not_unitary(self):
        # every entry is finite, but U^dag U overflows to inf
        with pytest.raises(ValueError,
                           match=r"^matrix is not unitary \(defect overflows\)$"):
            UnitaryMatrix(1e200 * np.eye(2))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_stack_past_the_outer_product_threshold(self):
        stack = np.broadcast_to(np.eye(2, dtype=complex), (40, 2, 2)).copy()
        stack[33] *= 1e200
        with pytest.raises(ValueError, match=r"not unitary \(defect overflows\)"):
            linalg._check_unitary(stack)

    @pytest.mark.parametrize("build", [UnitaryMatrix, SkewHermitian,
                                       matrix_exp, spectral_width])
    def test_nan_entry_raises(self, build):
        a = np.zeros((3, 3), dtype=complex)
        a[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            build(a)


_DEFECT = 1.05e-10
_PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_PAULI_Y = np.array([[0.0, -1j], [1j, 0.0]])
# I + d P for each Gram term that the m <= 2 check sums on its own
_DEFECT_TERMS = {"g11": np.diag([0.0, 1.0]).astype(complex),
                 "re_g01": _PAULI_X, "im_g01": _PAULI_Y}


class TestSmallGramCheck:
    """The m <= 2 unitarity check on stacks of 32 or more matrices."""

    @staticmethod
    def _with_defect(u, term):
        # U sqrt(1 + d P) has U^dag U - 1 = d P: for P = diag(0, 1), sigma_x
        # or sigma_y the defect sits in g11, Re g01 or Im g01 alone
        w, v = np.linalg.eigh(np.eye(2) + _DEFECT * _DEFECT_TERMS[term])
        return u @ ((v * np.sqrt(w)) @ v.conj().T)

    @pytest.mark.parametrize("term", sorted(_DEFECT_TERMS))
    def test_refuses_a_defect_in_one_gram_term(self, term):
        mats = haar_stack(2, 40, np.random.default_rng(5))
        linalg._check_unitary(mats)
        mats[37] = self._with_defect(mats[37], term)
        gram = mats[37].conj().T @ mats[37] - np.eye(2)
        assert np.abs(gram - _DEFECT * _DEFECT_TERMS[term]).max() < 1e-15
        with pytest.raises(ValueError,
                           match=r"^matrix is not unitary \(defect 1\.05\de-10\)$"):
            linalg._check_unitary(mats)

    @pytest.mark.parametrize("entry, message", [
        (complex(0.5, np.nan), "non-finite"),
        (complex(np.inf, 0.0), "non-finite"),
        (complex(0.0, -np.inf), "non-finite"),
    ], ids=["nan-imaginary", "inf-real", "inf-imaginary"])
    def test_refuses_a_non_finite_entry(self, entry, message):
        mats = haar_stack(2, 40, np.random.default_rng(6))
        mats[37, 0, 1] = entry
        with pytest.raises(ValueError, match=message):
            linalg._check_unitary(mats)

    @pytest.mark.filterwarnings("error")
    def test_refuses_an_overflowing_defect(self):
        mats = haar_stack(2, 40, np.random.default_rng(7))
        mats[37] *= 1e200
        with pytest.raises(ValueError,
                           match=r"^matrix is not unitary \(defect overflows\)$"):
            linalg._check_unitary(mats)

    def test_refuses_a_two_by_one_basis_with_a_defect(self):
        bases = np.ascontiguousarray(
            haar_stack(2, 40, np.random.default_rng(8))[..., :1])
        linalg._check_unitary(bases)
        bases[37] *= math.sqrt(1.0 + _DEFECT)
        with pytest.raises(ValueError,
                           match=r"^matrix is not unitary \(defect 1\.05\de-10\)$"):
            linalg._check_unitary(bases)

    @pytest.mark.parametrize("first", [0, 39, 40, 79, 80, 99])
    def test_names_the_first_defect_across_chunk_edges(self, monkeypatch, first):
        # chunks of 40, 40 and 20 U(2): the last one is below 32 and takes
        # the batched matmul
        monkeypatch.setattr(linalg, "_GRAM_BLOCK", 160)
        mats = haar_stack(2, 100, np.random.default_rng(9))
        mats[first, :, 1] *= math.sqrt(1.0 + _DEFECT)
        if first < 99:
            # a larger defect further on is not the one named
            mats[99, :, 1] *= math.sqrt(1.0 + 4e-10)
        with pytest.raises(ValueError,
                           match=r"^matrix is not unitary \(defect 1\.05\de-10\)$"):
            linalg._check_unitary(mats)


def non_c_layouts(m):
    """m itself, held as a transposed view, in Fortran order and as a strided view."""
    wide = np.zeros((m.shape[0], 2 * m.shape[1]), dtype=m.dtype)
    wide[:, ::2] = m
    layouts = {"transposed": np.array(m.T, order="C").T,
               "fortran": np.asfortranarray(m), "strided": wide[:, ::2]}
    for a in layouts.values():
        assert not a.flags.c_contiguous and np.array_equal(a, m, equal_nan=True)
    return layouts


LAYOUTS = ["transposed", "fortran", "strided"]


class TestNonContiguousInput:
    """Inputs whose last axis is not contiguous are read, not refused."""

    def test_transposed_literals(self):
        m = np.arange(9.0).reshape(3, 3) + 0j
        assert operator_norm(m.T) == operator_norm(np.array(m.T, order="C"))
        assert np.array_equal(UnitaryMatrix(np.eye(3).T).array, np.eye(3))

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_operator_norm(self, layout):
        rng = np.random.default_rng(3)
        for n in (3, 72):
            m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for a in (m, _hermitian_part(m)):
                assert operator_norm(non_c_layouts(a)[layout]) == operator_norm(a)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_unitary(self, layout):
        u = haar_unitary(4, 7).array
        got = UnitaryMatrix(non_c_layouts(u)[layout]).array
        assert got.flags.c_contiguous and np.array_equal(got, u)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_skew_hermitian(self, layout):
        x = random_skew_in_ball(4, 0.8, 7).array
        got = SkewHermitian(non_c_layouts(x)[layout]).array
        assert got.flags.c_contiguous and np.array_equal(got, x)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_nan_entry_still_raises(self, layout):
        a = np.zeros((3, 3), dtype=complex)
        a[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            operator_norm(non_c_layouts(a)[layout])


class TestNormWithin:
    def test_stack_verdicts(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[0] = np.diag([0.5e-10, 0.5e-10])  # Frobenius 0.71e-10
        stack[1] = np.diag([0.8e-10, 0.8e-10])  # Frobenius 1.13e-10, norm 0.8e-10
        stack[2] = np.diag([1.2e-10, 0.0])
        np.testing.assert_array_equal(_norm_within(stack, 1e-10),
                                      [True, True, False])

    def test_nan_in_stack_raises(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[1, 0, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _norm_within(stack, 1e-10)


class TestNearest:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_cluster_matches_svd_argmin(self, n):
        # 64 elements 1e-12 to 1e-7 from the target: their squared Frobenius
        # distances are below the rounding of |T|^2 + |E|^2 - 2 Re<T, E>,
        # so only the bracket's slack keeps the nearest one alive
        rng = np.random.default_rng(30 + n)
        basis = skew_basis(n)
        for _ in range(200):
            target = haar_stack(n, 1, rng)[0]
            coeffs = rng.standard_normal((64, n * n))
            radii = 10.0 ** rng.uniform(-12.0, -7.0, 64)
            coeffs *= (radii / np.linalg.norm(coeffs, axis=1))[:, None]
            elements = target @ _exp_skew_stack(
                np.einsum("cd,dij->cij", coeffs, basis))
            svd = np.linalg.svd(target - elements, compute_uv=False)[:, 0]
            idx, dist = nearest(target[None], elements, n)
            assert idx[0] == np.argmin(svd)
            assert dist[0] == svd.min()

    @pytest.mark.parametrize("n", [2, 3])
    def test_haar_targets_match_svd_argmin(self, n):
        # the operator-norm nearest is often not the Frobenius nearest, so
        # this fails if the bracket's sqrt(rank) factor is dropped
        rng = np.random.default_rng(40 + n)
        targets = haar_stack(n, 64, rng)
        elements = haar_stack(n, 500, rng)
        svd = np.linalg.svd(targets[:, None] - elements[None],
                            compute_uv=False)[..., 0]
        idx, dist = nearest(targets, elements, n)
        np.testing.assert_array_equal(idx, np.argmin(svd, axis=1))
        np.testing.assert_array_equal(dist, svd.min(axis=1))

    def test_near_degenerate_pairs_never_under_svd(self):
        # V = U Q diag(e^{i theta}, e^{-i theta (1 + delta)}) Q^dag gives
        # U - V two nearly equal singular values
        rng = np.random.default_rng(20)
        count = 2000
        u = haar_stack(2, count, rng)
        q = haar_stack(2, count, rng)
        theta = rng.uniform(0.05, 3.0, count)
        delta = 10.0 ** rng.uniform(-16.0, -4.0, count)
        phases = np.stack([np.exp(1j * theta),
                           np.exp(-1j * theta * (1.0 + delta))], axis=-1)
        v = u @ (q * phases[:, None, :]) @ np.conj(np.swapaxes(q, -1, -2))
        svd_max = np.linalg.svd(u - v, compute_uv=False)[:, 0]
        dist = np.array([nearest(u[i:i + 1], v[i:i + 1], 2)[1][0]
                         for i in range(count)])
        eps = np.finfo(float).eps
        assert np.all(dist >= svd_max * (1.0 - 4.0 * eps))
        assert np.all(dist <= svd_max * (1.0 + 1e-7))

    @pytest.mark.parametrize("n, eps", [(1, 0.05), (1, 0.1), (1, 0.2),
                                        (2, 0.5), (2, 0.8)])
    def test_net_sweep_matches_svd_argmin(self, n, eps):
        # Haar targets, the net's own elements, and targets equidistant from
        # several elements up to rounding: U(1) midpoints of neighbouring
        # phases and their conjugates; for U(2), targets that the grid's
        # symmetries (X -> -X, transposition, diagonal swaps) tie
        net = build_unitary_net(n, eps)
        rng = np.random.default_rng(round(100 * eps) + n)
        elements = net.matrices
        if n == 1:
            angles = np.sort(np.angle(elements[:, 0, 0]))
            mid = np.exp(0.5j * (angles[1:] + angles[:-1]))[:, None, None]
            targets = np.concatenate([haar_stack(1, 256, rng), mid,
                                      np.conj(mid), elements])
        else:
            sym = np.array([np.eye(2), -np.eye(2), 1j * np.eye(2),
                            np.diag([1, -1]), np.diag([1j, -1j]),
                            [[0, 1], [1, 0]], [[0, 1], [-1, 0]]], dtype=complex)
            haar = haar_stack(2, 8 if len(elements) > 10_000 else 32, rng)
            targets = np.concatenate([haar, sym, elements[::len(elements) // 4]])
        svd = np.linalg.svd(targets[:, None] - elements[None],
                            compute_uv=False)[..., 0]
        snapped, dist = net._snap(targets)
        # the net's elements are distinct, so equal elements mean equal indices
        np.testing.assert_array_equal(snapped, elements[np.argmin(svd, axis=1)])
        np.testing.assert_array_equal(dist, svd.min(axis=1))

    def test_duplicated_elements_give_the_first_index(self):
        net = build_unitary_net(1, 0.1)
        count = len(net)
        stack = np.concatenate([net.matrices, net.matrices[::-1], net.matrices])
        targets = np.concatenate([haar_stack(1, 64, np.random.default_rng(9)),
                                  net.matrices])
        svd = np.linalg.svd(targets[:, None] - stack[None],
                            compute_uv=False)[..., 0]
        idx, dist = nearest(targets, stack, 1)
        np.testing.assert_array_equal(idx, np.argmin(svd, axis=1))
        np.testing.assert_array_equal(dist, svd.min(axis=1))
        assert idx.max() < count

    def test_small_target_blocks_match_one_block_and_svd(self, monkeypatch):
        # blocks of 1 and 3 targets, the last one short: each survivor's
        # flat index in its block's mask must map back to the right target
        # and element, and each block must land at its own offset
        net = build_unitary_net(2, 0.5)
        rng = np.random.default_rng(25)
        targets = np.concatenate([haar_stack(2, 4, rng),
                                  net.matrices[::len(net) // 3]])
        once = np.linalg.svd(targets[:, None] - net.matrices[None],
                             compute_uv=False)[..., 0]
        # the duplicated stack's differences repeat, and so do their norms
        for stack, svd in ((net.matrices, once),
                           (np.concatenate([net.matrices] * 2),
                            np.hstack([once, once]))):
            idx, dist = nearest(targets, stack, 2)
            np.testing.assert_array_equal(idx, np.argmin(svd, axis=1))
            np.testing.assert_array_equal(dist, svd.min(axis=1))
            for block in (1, 3):
                monkeypatch.setattr(linalg, "_PAIR_BLOCK", block * len(stack))
                small_idx, small_dist = nearest(targets, stack, 2)
                np.testing.assert_array_equal(small_idx, idx)
                np.testing.assert_array_equal(small_dist, dist)
            monkeypatch.undo()


def _exact_bracket_gap(t, e):
    """up2 - ||T - E||_F^2 and S = |T|^2 + |E|^2 in exact rational arithmetic."""
    up2 = (_target_rows(_search_rows(t[None])) @ _search_rows(e[None]).T)[0, 0]
    tf = [Fraction(x) for x in t.reshape(-1).view(float)]
    ef = [Fraction(x) for x in e.reshape(-1).view(float)]
    fro2 = sum((a - b) ** 2 for a, b in zip(tf, ef))
    return Fraction(float(up2)) - fro2, sum(a * a for a in tf + ef)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_bracket_encloses_the_exact_distance(n):
    # ||T - E||_F^2 <= up2 <= ||T - E||_F^2 + 2c S, so lo2 = up2 - 2c S sits
    # below it. Adversarial rows: one entry 1, then k - 1 entries whose
    # squares lie just below half an ulp of 1, so sums that add them to a
    # large partial sum lose them; T against -T, T and a near copy of T.
    # Then Haar pairs, and Haar T against -T turned by a small phase. Without
    # the slack, up2 falls short of the distance by 3.9, 7.7 and 36.7 eps S
    # on T against -T at n = 2, 4 and 8.
    k = 2 * n * n
    c = Fraction(_bracket_slack(k))
    flat = np.full(k, math.sqrt(0.99 * np.finfo(float).eps / 2))
    flat[0] = 1.0
    t = flat.view(complex).reshape(n, n)
    near = t.copy()
    near[0, 0] += 1e-9
    rng = np.random.default_rng(50 + n)
    haar = haar_stack(n, 8, rng)
    pairs = [(t, -t), (t, near), (-t, t), *zip(haar[:4], haar[4:]),
             *((a, -a * np.exp(1e-3j)) for a in haar)]
    for a, b in pairs:
        gap, s = _exact_bracket_gap(a, b)
        assert 0 <= gap <= 2 * c * s


def _svd_greedy_count(candidates, epsilon):
    """Greedy packing size with an SVD of every candidate-kept difference."""
    kept = []
    for c in candidates:
        if kept and np.linalg.svd(np.array(kept) - c,
                                  compute_uv=False)[:, 0].min() <= epsilon:
            continue
        kept.append(c)
    return len(kept)


class TestGreedyPacking:
    @pytest.mark.parametrize("seed", range(10))
    def test_unitary_packing_matches_svd_greedy(self, seed):
        rng = np.random.default_rng(seed)
        draws = [haar_stack(2, 1, rng)[0] for _ in range(300)]
        assert (empirical_packing_lower_bound(2, 0.5, 300, seed)
                == _svd_greedy_count(draws, 0.5))

    # rank-1 lines in C^2 and rank-2 planes in C^3 bound rank(P - Q) by m
    @pytest.mark.parametrize("n, m", [(2, 4), (1, 2), (2, 3)])
    @pytest.mark.parametrize("seed", range(10))
    def test_grassmann_packing_matches_svd_greedy(self, n, m, seed):
        rng = np.random.default_rng(seed)
        bases = [haar_stack(m, 1, rng)[0][:, :n] for _ in range(200)]
        expected = _svd_greedy_count([b @ b.conj().T for b in bases], 0.5)
        assert empirical_grassmann_packing(n, m, 0.5, 200, seed) == expected

    @pytest.mark.parametrize("n, eps", [(1, 0.05), (1, 0.2), (2, 0.5),
                                        (2, 0.8), (3, 1.0)])
    def test_matches_svd_greedy_count(self, n, eps):
        draws = haar_stack(n, 200, np.random.default_rng(round(100 * eps) + n))
        assert _greedy_packing(draws, n, eps) == _svd_greedy_count(draws, eps)

    @pytest.mark.parametrize("m", [5, 12, 31])
    def test_lattice_ties_match_svd_greedy_count(self, m):
        # m-th roots of unity and their half-step rotations, with epsilon at
        # the SVD's own distances between lattice points: every decision is
        # a tie up to rounding
        roots = np.exp(2j * np.pi * np.arange(m) / m)
        stack = np.concatenate([roots, roots * np.exp(1j * np.pi / m)])
        stack = stack[np.random.default_rng(m).permutation(2 * m)][:, None, None]
        for step in (1, 2, 3):
            for eps in np.linalg.svd(stack[step:] - stack[:-step],
                                     compute_uv=False)[:6, 0]:
                assert (_greedy_packing(stack, 1, eps)
                        == _svd_greedy_count(stack, eps))

    def test_exact_duplicate_rejected(self):
        u = haar_unitary(3, seed=8).array
        for epsilon in (0.5, 1e-12):
            assert _greedy_packing(np.stack([u, u]), 3, epsilon) == 1

    @pytest.mark.parametrize("block", [2, 64])
    def test_conflict_with_rejected_predecessor_decides_nothing(
            self, monkeypatch, block):
        # Diagonal U(2) at epsilon 0.5; chords |1 - e^{ia}| = 0.45 and
        # |1 - e^{ic}| = 0.6. k = 1 is kept. p = diag(e^{ia}, 1) and
        # q = diag(1, e^{-ia}) are sure conflicts of k (Frobenius 0.45), so
        # both are rejected. Then j = diag(e^{ia}, e^{ia}) and
        # h = diag(1, e^{-ic}) each have a sure conflict only with p or q,
        # and sit in k's undecided band (Frobenius 0.64 and 0.6, between 0.5
        # and 0.5 sqrt(2)). The SVD against k rejects j (0.45) and keeps h
        # (0.6): a sure conflict with a rejected predecessor must neither skip
        # that SVD nor reject. f = -1 is far from all. At block 2, k is kept
        # in the block before p and j; at block 64 all six share one block.
        a, c = 2 * math.asin(0.225), 2 * math.asin(0.3)
        phases = np.exp(1j * np.array([[math.pi, math.pi], [0, 0], [a, 0],
                                       [a, a], [0, -a], [0, -c]]))
        stack = phases[:, :, None] * np.eye(2)
        monkeypatch.setattr(linalg, "_PACK_BLOCK", block)
        assert _greedy_packing(stack, 2, 0.5) == _svd_greedy_count(stack, 0.5) == 3

    @pytest.mark.parametrize("block", [1, 2, 7, 64, 1000])
    def test_block_size_does_not_change_count(self, monkeypatch, block):
        # lattice ties, Haar U(2) and Grassmann(2, 4) draws: with 200 draws
        # at epsilon 0.5 the conflicts straddle every block edge
        monkeypatch.setattr(linalg, "_PACK_BLOCK", block)
        for m in (5, 12, 31):
            roots = np.exp(2j * np.pi * np.arange(m) / m)
            stack = np.concatenate([roots, roots * np.exp(1j * np.pi / m)])
            stack = stack[np.random.default_rng(m).permutation(2 * m)][:, None, None]
            for step in (1, 2, 3):
                for eps in np.linalg.svd(stack[step:] - stack[:-step],
                                         compute_uv=False)[:6, 0]:
                    assert (_greedy_packing(stack, 1, eps)
                            == _svd_greedy_count(stack, eps))
        rng = np.random.default_rng(block)
        unitaries = haar_stack(2, 200, rng)
        bases = haar_stack(4, 200, rng)[..., :2]
        projectors = bases @ np.conj(np.swapaxes(bases, -1, -2))
        for stack, rank in ((unitaries, 2), (projectors, 4)):
            assert (_greedy_packing(stack, rank, 0.5)
                    == _svd_greedy_count(stack, 0.5))


class TestMatrixExp:
    def test_skew_gives_unitary(self):
        rng = np.random.default_rng(3)
        for n in (2, 3, 5):
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            x = 0.5 * (g - g.conj().T)
            u = matrix_exp(x)
            np.testing.assert_allclose(u @ u.conj().T, np.eye(n), atol=1e-12)

    def test_matches_scipy(self):
        import scipy.linalg

        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))
        np.testing.assert_allclose(matrix_exp(a), scipy.linalg.expm(a),
                                   atol=1e-12)

    def test_zero_gives_identity(self):
        np.testing.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_checked_skew_input_takes_the_same_path(self):
        x = np.array([[0.3j, 0.2 + 0.1j], [-0.2 + 0.1j, -0.1j]])
        u = matrix_exp(SkewHermitian(x))
        np.testing.assert_array_equal(u, matrix_exp(x))
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)


def skew_stack(rng, n, norm1, count=6):
    """count skew-Hermitian n x n matrices with largest 1-norm norm1."""
    g = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    x = 0.5 * (g - np.conj(np.swapaxes(g, -1, -2)))
    x *= rng.uniform(0.1, 1.0, size=(count, 1, 1))
    return x * (norm1 / np.abs(x).sum(axis=-2).max())


SERIES_NORMS = [0.0, 1e-9, 1e-4, 3.3e-3, 0.12, 0.5, 1.083, 1.2, 3.0, 10.0, 50.0]


class TestExpSkewSeries:
    # Rounding-level agreement: c n eps max(1, ||X||) with c = 8, per matrix.
    @staticmethod
    def rounding_bound(n, x):
        norms = np.linalg.svd(x, compute_uv=False)[:, 0]
        return 8 * n * np.finfo(float).eps * np.maximum(1.0, norms)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_matches_eigendecomposition(self, n):
        rng = np.random.default_rng(100 + n)
        for norm1 in SERIES_NORMS:
            x = skew_stack(rng, n, norm1)
            diff = np.linalg.svd(_exp_skew_series(x) - _exp_skew_stack(x),
                                 compute_uv=False)[:, 0]
            assert np.all(diff <= self.rounding_bound(n, x)), (norm1, diff)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 16, 32, 64])
    def test_unitary_to_rounding(self, n):
        rng = np.random.default_rng(200 + n)
        for norm1 in SERIES_NORMS:
            x = skew_stack(rng, n, norm1)
            u = _exp_skew_series(x)
            defect = np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(n)
            norms = np.linalg.svd(defect, compute_uv=False)[:, 0]
            assert np.all(norms <= self.rounding_bound(n, x)), (norm1, norms)

    @pytest.mark.parametrize("n", [1, 2, 8, 64])
    def test_above_table_is_eigendecomposition(self, n):
        rng = np.random.default_rng(300 + n)
        for norm1 in [1.0831, 1.2, 3.0, 50.0]:
            x = skew_stack(rng, n, norm1)
            assert np.array_equal(_exp_skew_series(x), _exp_skew_stack(x))

    @pytest.mark.parametrize("n", [1, 4, 64])
    def test_zero_stack_gives_identity(self, n):
        u = _exp_skew_series(np.zeros((6, n, n), dtype=complex))
        np.testing.assert_array_equal(u, np.broadcast_to(np.eye(n), (6, n, n)))

    def test_threshold_table_from_remainder_bound(self):
        # Entry m - 1 is the remainder bound's largest admissible 1-norm for
        # degree m, rounded down to four significant digits.
        def remainder(theta, m):
            return theta ** (m + 1) / math.factorial(m + 1) * math.exp(theta)

        assert len(_TAYLOR_THETA) == 18
        for m, theta in enumerate(_TAYLOR_THETA, start=1):
            digit = 10.0 ** (math.floor(math.log10(theta)) - 3)
            assert remainder(theta, m) <= 2.0 ** -53, m
            assert remainder(theta + digit, m) > 2.0 ** -53, m


class TestHaarUnitary:
    def test_unitarity_and_determinism(self):
        u1 = haar_unitary(4, seed=9)
        u2 = haar_unitary(4, seed=9)
        np.testing.assert_array_equal(u1.array, u2.array)
        np.testing.assert_allclose(u1.array @ u1.array.conj().T, np.eye(4),
                                   atol=1e-12)

    def test_different_seeds_differ(self):
        u1 = haar_unitary(3, seed=1)
        u2 = haar_unitary(3, seed=2)
        assert operator_norm(u1.array - u2.array) > 1e-3

    def test_eigenphase_uniformity(self):
        # Haar eigenphases are uniform on the circle; a crude histogram check
        samples = np.concatenate([
            np.angle(np.linalg.eigvals(haar_unitary(4, seed=s).array))
            for s in range(500)
        ])
        counts, _ = np.histogram(samples, bins=8, range=(-np.pi, np.pi))
        assert counts.min() > 0.7 * counts.mean()
        assert counts.max() < 1.3 * counts.mean()


class TestRandomSkewInBall:
    def test_norm_within_radius(self):
        for seed in range(30):
            x = random_skew_in_ball(3, 0.7, seed=seed)
            assert operator_norm(x.array) <= 0.7 + 1e-12

    def test_norms_spread_through_ball(self):
        norms = [operator_norm(random_skew_in_ball(2, 1.0, seed=s).array)
                 for s in range(200)]
        assert min(norms) < 0.5
        assert max(norms) > 0.9

    def test_rejects_nan_radius(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            random_skew_in_ball(2, float("nan"), seed=0)

    @pytest.mark.parametrize("n, radius, seed", [(1, 0.4, 0), (3, np.pi, 7),
                                                 (6, 0.4, 123)])
    def test_draw_order(self, n, radius, seed):
        # the benchmark's verify lipschitz/kato references are built from
        # these draws: real normals, imaginary normals, then one uniform
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = 0.5 * (g - g.conj().T)
        scale = (1.0 - rng.random()) * radius
        expect = x * (scale / np.linalg.norm(x, 2))
        got = random_skew_in_ball(n, radius, seed).array
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0)


def skew_draw_alone(n, radius, seed):
    """random_skew_in_ball's draw, written out for one matrix."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = 0.5 * (g - g.conj().T)
    norm = float(np.linalg.svd(x, compute_uv=False)[0]) or 1.0
    u = 1.0 - rng.random()
    return x * (u * radius / norm)


class TestStackedDraws:
    """The stacked samplers draw what one-matrix draws give, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 4, 16])
    def test_packing_draw_is_the_per_trial_loop(self, n):
        # both empirical packings draw (trials, 2, n, n) in one call
        g = np.random.default_rng(21).standard_normal((9, 2, n, n))
        rng = np.random.default_rng(21)
        loop = np.concatenate([haar_stack(n, 1, rng) for _ in range(9)])
        assert np.array_equal(_haar_qr(g[:, 0], g[:, 1]), loop)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_haar_batch_draws_real_then_imaginary_parts(self, n):
        # the covering check behind verify nets draws each batch this way,
        # as does the benchmark's covering reference
        rng = np.random.default_rng(4)
        re = rng.standard_normal((6, n, n))
        im = rng.standard_normal((6, n, n))
        expect = []
        for z in (re + 1j * im) / np.sqrt(2.0):
            q, r = np.linalg.qr(z)
            d = np.diagonal(r)
            expect.append(q * (d / np.abs(d)))
        expect = np.array(expect)
        assert np.array_equal(haar_stack(n, 6, np.random.default_rng(4)), expect)
        net = UnitaryNet(n, 2.0, np.eye(n, dtype=complex)[None])
        gap = nearest(expect, net.matrices, n)[1].max()
        assert empirical_covering_check(net, 6, seed=4) == (gap, True)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_skew_ball_rows_are_one_matrix_draws(self, n):
        seeds = np.random.SeedSequence(n).generate_state(6, dtype=np.uint64)
        radii = np.array([0.05, 0.4, 1.0, np.pi, 2.5, 0.4])
        for radius in (0.4, radii):
            stack = _skew_ball_stack(n, radius, seeds)
            assert stack.shape == (6, n, n)
            for row, r, seed in zip(stack, np.broadcast_to(radius, 6), seeds):
                alone = random_skew_in_ball(n, r, int(seed)).array
                assert np.array_equal(row, alone)
                assert np.array_equal(row, skew_draw_alone(n, r, int(seed)))

    def test_skew_ball_rejects_a_bad_row_radius(self):
        with pytest.raises(ValueError, match="radius must be positive"):
            _skew_ball_stack(2, [0.4, float("nan")], [1, 2])


class TestSkewBasis:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_orthonormal_and_complete(self, n):
        basis = skew_basis(n)
        assert basis.shape == (n * n, n, n)
        flat = basis.reshape(n * n, -1)
        gram = flat.conj() @ flat.T
        np.testing.assert_allclose(gram.real, np.eye(n * n), atol=1e-12)
        np.testing.assert_allclose(gram.imag, 0.0, atol=1e-12)
        # each element is skew-Hermitian
        np.testing.assert_allclose(basis, -np.swapaxes(basis, 1, 2).conj(),
                                   atol=1e-15)

    def test_expands_arbitrary_skew(self):
        rng = np.random.default_rng(8)
        n = 3
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        x = 0.5 * (g - g.conj().T)
        basis = skew_basis(n)
        coeffs = np.einsum("kij,ij->k", basis.conj(), x)
        np.testing.assert_allclose(coeffs.imag, 0.0, atol=1e-12)
        rebuilt = np.tensordot(coeffs.real, basis, axes=1)
        np.testing.assert_allclose(rebuilt, x, atol=1e-12)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ValueError, match="^dimension must be at least 1$"):
            skew_basis(0)


class TestPrincipalLog:
    def test_roundtrip(self):
        for seed in range(10):
            u = haar_unitary(4, seed=seed)
            x = principal_log(u)
            np.testing.assert_allclose(matrix_exp(x.array), u.array,
                                       atol=1e-10)

    def test_norm_at_most_pi(self):
        for seed in range(10):
            u = haar_unitary(3, seed=seed + 50)
            assert operator_norm(principal_log(u).array) <= np.pi + 1e-10

    def test_identity_logs_to_zero(self):
        x = principal_log(np.eye(4))
        np.testing.assert_allclose(x.array, 0.0, atol=1e-12)

    def test_minus_identity_uses_plus_pi(self):
        x = principal_log(-np.eye(2))
        w = np.linalg.eigvalsh(1j * x.array)
        np.testing.assert_allclose(np.abs(w), np.pi, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_stack_matches_one_at_a_time(self, n):
        # Haar rows, then -I and a diagonal with the phase pi among others
        special = [-np.eye(n), np.diag(np.exp(1j * np.pi * np.arange(n) / 2))]
        stack = np.concatenate([haar_stack(n, 12, np.random.default_rng(n)),
                                np.array(special, dtype=complex)])
        logs = _log_unitary_stack(stack)
        assert logs.shape == stack.shape
        for u, x in zip(stack, logs):
            np.testing.assert_array_equal(x, principal_log(u).array)
        np.testing.assert_allclose(_exp_skew_stack(logs), stack, atol=1e-10)
        # -I logs to i pi I: +pi, never -pi
        np.testing.assert_allclose(logs[-2], 1j * np.pi * np.eye(n), atol=1e-12)

    def test_empty_stack(self):
        logs = _log_unitary_stack(np.zeros((0, 3, 3), dtype=complex))
        assert logs.shape == (0, 3, 3) and logs.dtype == complex


class TestExpLipschitz:
    def test_upper_bound_up_to_pi(self):
        for seed in range(40):
            x = random_skew_in_ball(3, np.pi, seed=2 * seed)
            y = random_skew_in_ball(3, np.pi, seed=2 * seed + 1)
            lower, mid, upper = check_exp_lipschitz(x, y)
            assert mid <= upper + 1e-10

    def test_lower_bound_small_radius(self):
        for seed in range(40):
            x = random_skew_in_ball(3, 0.4, seed=2 * seed)
            y = random_skew_in_ball(3, 0.4, seed=2 * seed + 1)
            lower, mid, upper = check_exp_lipschitz(x, y)
            assert lower <= mid + 1e-10
            assert mid <= upper + 1e-10

    def test_identical_inputs_give_zeros(self):
        x = random_skew_in_ball(2, 0.3, seed=0)
        lower, mid, upper = check_exp_lipschitz(x, x)
        assert lower == mid == upper == 0.0

    def test_commuting_diagonal_case_is_tight(self):
        # diagonal skew matrices: the exp map acts per phase, and for small
        # angles |e^{ia} - e^{ib}| ~ |a - b|
        x = SkewHermitian(np.diag([0.2j, -0.1j]))
        y = SkewHermitian(np.diag([0.1j, 0.05j]))
        lower, mid, upper = check_exp_lipschitz(x, y)
        assert lower <= mid <= upper
        np.testing.assert_allclose(mid, 2 * np.sin(0.15 / 2), rtol=1e-12)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            check_exp_lipschitz(np.zeros((2, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("n, radius", [(1, 0.4), (3, 0.4), (4, np.pi),
                                           (8, 0.6)])
    def test_stack_matches_pairwise(self, n, radius):
        xs = np.stack([random_skew_in_ball(n, radius, seed=s).array
                       for s in range(12)])
        ys = np.stack([random_skew_in_ball(n, radius, seed=100 + s).array
                       for s in range(12)])
        ys[3] = xs[3]  # an identical pair gives exact zeros
        stacked = np.stack(_exp_lipschitz_stack(xs, ys), axis=1)
        pairwise = np.array([check_exp_lipschitz(x, y) for x, y in zip(xs, ys)])
        np.testing.assert_array_equal(stacked, pairwise)
        np.testing.assert_array_equal(stacked[3], 0.0)

    @given(st.integers(0, 10_000))
    def test_lower_never_exceeds_mid_at_small_radius(self, seed):
        x = random_skew_in_ball(2, 0.4, seed=seed)
        y = random_skew_in_ball(2, 0.4, seed=seed + 1_000_000)
        lower, mid, _ = check_exp_lipschitz(x, y)
        assert lower <= mid + 1e-10


class TestSpectrum:
    def test_spectral_width_unsorted_diagonal(self):
        assert spectral_width(np.diag([3.0, -1.0, 1.0])) == pytest.approx(2.0)

    def test_spectral_width_pauli_z(self):
        assert spectral_width(np.diag([1.0, -1.0])) == pytest.approx(1.0)

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            spectral_width(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_empty_spectrum_refused(self):
        with pytest.raises(ValueError, match="^empty spectrum has no width$"):
            spectral_width(np.zeros((0, 0)))

    @pytest.mark.parametrize("m", [2, 128])
    def test_spectral_width_of_entries_near_overflow(self, m):
        # eigenvalues +-sqrt(2) 1e308: both the Hermitian part and the
        # spread overflowed, to nan after numpy warnings
        x = np.zeros((m, m))
        x[:2, :2] = [[1e308, 1e308], [1e308, -1e308]]
        assert spectral_width(x) == pytest.approx(math.sqrt(2.0) * 1e308,
                                                  rel=1e-12)
