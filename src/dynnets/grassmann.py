"""Geometry of rank-n projectors in C^m: distances, intertwiners, and bounds.

The projector (operator-norm) distance equals the sine of the largest
principal angle between the ranges. Two-sided covering-number bounds for the
set of rank-n projectors are evaluated in log domain. Product and quotient
covering inequalities are checked exactly on small structured spaces.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any

import numpy as np

from . import metric
from .linalg import (
    HERMITIAN_TOL,
    UnitaryMatrix,
    _as_square_array,
    _check_unitary,
    _greedy_packing,
    _haar_from_seeds,
    _haar_qr,
    _hermitian_part,
    _norm_within,
    operator_norm,
)
from .logdomain import _integer, finite_log

_PROJECTOR_TOL = 1e-9
KATO_DISTANCE_LIMIT = 1.0 / math.sqrt(2.0)
# Kato's guarantee ||1 - V|| <= KATO_RATIO_LIMIT * ||P - Q|| below that limit.
KATO_RATIO_LIMIT = 5.0 / math.sqrt(2.0)


class Subspace:
    """An n-dimensional subspace of C^m; its (m, n) basis passes ``_check_unitary``."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        arr = np.array(np.asarray(basis, dtype=complex), order="C")
        if arr.ndim != 2:
            raise ValueError("basis must be a 2-d array of column vectors")
        m, n = arr.shape
        if not 1 <= n <= m:
            raise ValueError(f"need 1 <= dim <= ambient, got basis shape {arr.shape}")
        _check_unitary(arr[None])
        arr.setflags(write=False)
        self.basis = arr

    @property
    def m(self) -> int:
        return self.basis.shape[0]

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    def __repr__(self) -> str:
        return f"Subspace(n={self.n}, m={self.m})"


class Projector:
    """A Hermitian idempotent matrix with a well-defined integer rank.

    The input is checked (``_projector_ranks``), then stored as its
    Hermitian part (X + X^dag) / 2, which is exactly Hermitian, as every
    matrix ``_require_hermitian`` returns is. The difference of two
    projectors is then exactly Hermitian too, and above dimension 64
    ``projector_distance`` takes its norm by eigvalsh. A projector built
    from a checked basis (``projector_from_subspace``) skips the check and
    passes ``_rank``: ``_basis_projectors`` derives that it would pass.
    """

    __slots__ = ("matrix", "rank")

    def __init__(self, matrix, *, _rank: int | None = None):
        if _rank is None:
            arr = _as_square_array(matrix, "projector")
            self.rank = int(_projector_ranks(arr[None])[0])
            arr = _hermitian_part(arr)
        else:
            arr, self.rank = matrix, _rank
        arr.setflags(write=False)
        self.matrix = arr

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def __repr__(self) -> str:
        return f"Projector(rank={self.rank}, m={self.m})"


def _projector_ranks(stack: np.ndarray) -> np.ndarray:
    """Projector's checks over a (..., m, m) stack; returns the integer ranks.

    A non-finite entry fails the Hermitian check's Frobenius test, and
    ``_norm_within`` raises on it.
    """
    if not _norm_within(stack - np.conj(stack).swapaxes(-1, -2),
                        HERMITIAN_TOL).all():
        raise ValueError("projector must be Hermitian within 1e-10")
    if not _norm_within(stack @ stack - stack, _PROJECTOR_TOL).all():
        raise ValueError("projector must be idempotent within 1e-9")
    trace = stack.trace(axis1=-2, axis2=-1).real
    rank = np.rint(trace)
    off = abs(trace - rank) > 1e-6
    if off.any():
        raise ValueError(
            f"projector trace {float(trace[off][0])} is not near an integer")
    return rank.astype(int)


def random_subspace(n: int, m: int, seed: int) -> Subspace:
    """Haar-random n-dimensional subspace of C^m."""
    n, m = _integer(n, "n"), _integer(m, "m")
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    return Subspace(_haar_from_seeds(m, [seed])[0, :, :n])


def _random_bases(n: int, m: int, seeds) -> np.ndarray:
    """(len(seeds), m, n) stack of random_subspace's bases, one per seed.

    Each basis is the first n columns of a Haar unitary drawn from the
    seed's own generator, checked as ``Subspace`` checks it.
    """
    if not 1 <= n <= m:
        raise ValueError("need 1 <= n <= m")
    bases = np.ascontiguousarray(_haar_from_seeds(m, seeds)[..., :n])
    _check_unitary(bases)
    return bases


def _basis_projectors(bases: np.ndarray) -> np.ndarray:
    """Hermitian parts of B B^dag over a (..., m, n) stack of checked bases.

    Each B passed ``_check_unitary``, so ``_projector_ranks`` would pass
    with rank n, and is not run: ``projector_from_subspace`` at n = m / 2
    took 0.21, 0.39 and 0.79 ms with it and 0.05, 0.12 and 0.26 ms without
    at m = 72, 96 and 128 (one BLAS thread, 2-core Xeon). With
    d = ||B^dag B - 1|| <= 1e-10 and ||B||^2 = ||B^dag B|| <= 1 + d, for
    P = B B^dag:
    - P^2 - P = B (B^dag B - 1) B^dag, so ||P^2 - P|| <= d (1 + d). The
      GEMM and the Hermitian part add rounding of order m eps, so the
      stored matrix stays far inside ``_PROJECTOR_TOL`` = 1e-9.
    - The stored matrix is exactly Hermitian (``_hermitian_part``); the
      product's own Hermitian defect is of order m eps.
    - tr P - n = tr(B^dag B - 1), at most n d in magnitude: within the
      trace test's 1e-6 for every n up to 10^4 (dense dimensions stay
      within 4096), so the rank rounds to n.
    The result is bit for bit what ``Projector`` stores for B B^dag.
    """
    return _hermitian_part(bases @ np.conj(bases).swapaxes(-1, -2))


def projector_from_subspace(s: Subspace) -> Projector:
    """Orthogonal projector B B^dag onto the subspace, of rank n.

    The basis was checked by ``Subspace``, so the projector checks are not
    run again: ``_basis_projectors`` derives that they would pass.
    """
    return Projector(_basis_projectors(s.basis), _rank=s.n)


def projector_distance(p: Projector, q: Projector) -> float:
    """Operator-norm distance ||P - Q||; equals sin of the largest principal angle."""
    if p.m != q.m:
        raise ValueError("projectors act on different spaces")
    if p.rank != q.rank:
        raise ValueError("projectors must have equal rank")
    return operator_norm(p.matrix - q.matrix)


def principal_angles(s1: Subspace, s2: Subspace) -> np.ndarray:
    """Principal angles between two subspaces, ascending, in [0, pi/2]."""
    if s1.m != s2.m:
        raise ValueError("subspaces live in different ambient spaces")
    if s1.n != s2.n:
        raise ValueError("subspaces must have equal dimension")
    sigma = np.linalg.svd(s1.basis.conj().T @ s2.basis, compute_uv=False)
    return np.sort(np.arccos(np.clip(sigma, 0.0, 1.0)))


def kato_unitary(p: Projector, q: Projector) -> UnitaryMatrix:
    """Unitary V with V P V^dag = Q, defined when ||P - Q|| <= 1/sqrt(2).

    V = (1 - R)^(-1/2) (Q P + (1 - Q)(1 - P)) with R = (P - Q)^2. Satisfies
    ||1 - V|| <= (5/sqrt(2)) ||P - Q||. V is the direct rotation from P to Q:
    it rotates each principal-angle plane by its angle, so ||1 - V|| is
    exactly sqrt(2 (1 - sqrt(1 - d^2))) with d = ||P - Q|| (kato_deviation).
    """
    dist = projector_distance(p, q)
    v = _kato_unitary(p.matrix[None], q.matrix[None], np.array([dist]))
    return UnitaryMatrix(v[0], _validated=True)


def kato_deviation(dist):
    """||1 - V|| for kato_unitary's V at ||P - Q|| = dist, in closed form.

    The largest principal angle theta has sin(theta) = dist, and V turns
    its plane by theta, so ||1 - V|| = 2 sin(theta / 2). That is
    sqrt(2 (1 - sqrt(1 - dist^2))), written here without the cancellation
    of 1 - sqrt(1 - dist^2) at small dist. ``dist`` may be an array.
    """
    return dist * np.sqrt(2.0 / (1.0 + np.sqrt(1.0 - dist * dist)))


def _kato_unitary(ps: np.ndarray, qs: np.ndarray,
                  dists: np.ndarray) -> np.ndarray:
    """kato_unitary over (k, m, m) stacks of checked pairs at known distances.

    Returns the (k, m, m) stack of V, each checked as ``UnitaryMatrix``
    checks it, from one eigendecomposition call.
    """
    far = dists > KATO_DISTANCE_LIMIT + 1e-12
    if far.any():
        raise ValueError(f"Kato precondition violated: ||P - Q|| = "
                         f"{float(dists[far][0]):.6f} > 1/sqrt(2)")
    # at m in the thousands each (k, m, m) temporary takes hundreds of MB:
    # each is dropped once used
    eye = np.eye(ps.shape[-1])
    diff = ps - qs
    h = _hermitian_part(eye - diff @ diff)
    del diff
    w, v = np.linalg.eigh(h)
    del h
    if w.min() < 1e-8:
        raise ValueError("Kato inverse square root is singular")
    inv_sqrt = (v / np.sqrt(w)[..., None, :]) @ np.conj(v).swapaxes(-1, -2)
    del v
    core = qs @ ps + (eye - qs) @ (eye - ps)
    vs = inv_sqrt @ core
    del inv_sqrt, core
    _check_unitary(vs)
    return vs


def quotient_distance_bounds(p: Projector, q: Projector) -> tuple[float, float]:
    """Bounds on the quotient distance between projector orbits in U(m).

    Returns (||P - Q|| / 2, ||1 - V||) for the intertwiner V of kato_unitary;
    the true infimum over all unitaries mapping range(P) to range(Q) of
    ||1 - V|| lies between them.
    """
    dist = projector_distance(p, q)
    v = _kato_unitary(p.matrix[None], q.matrix[None], np.array([dist]))[0]
    return (0.5 * dist, operator_norm(np.eye(p.m) - v))


@dataclass(frozen=True)
class ProjectorCoveringBounds:
    """Log-domain covering bounds for rank-n projectors in C^m.

    lower_log is the log of 19^(-m^2) (9/(5 eps))^(2n(m-n)), valid for
    eps <= 1/71; upper_log is the log of 38^(m^2) (3/(4 eps))^(2n(m-n)),
    valid for eps <= 1/10. ``lower_nontrivial`` records lower_log > 0.
    """

    n: int
    m: int
    epsilon: float
    lower_log: float
    upper_log: float
    lower_valid: bool
    upper_valid: bool
    lower_nontrivial: bool

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def _projector_lower_log(n: int, m: int, epsilon: float) -> float:
    """ln of the rank-n covering lower bound 19^(-m^2) (9/(5 eps))^(2n(m-n))."""
    return finite_log(
        lambda: -float(m * m) * math.log(19.0)
        + 2.0 * n * (m - n) * math.log(9.0 / (5.0 * epsilon)),
        math.isinf(9.0 / (5.0 * epsilon)), n=n, m=m, epsilon=epsilon)


def projector_covering_bounds(n: int, m: int, epsilon: float) -> ProjectorCoveringBounds:
    """Two-sided covering-number bounds for the rank-n projector manifold."""
    n, m = _integer(n, "n"), _integer(m, "m")
    if not 1 <= n < m:
        raise ValueError("need 1 <= n < m")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    lower = _projector_lower_log(n, m, epsilon)
    # 9/(5 eps) > 3/(4 eps): the first to leave float64 range
    upper = finite_log(
        lambda: float(m * m) * math.log(38.0)
        + 2.0 * n * (m - n) * math.log(3.0 / (4.0 * epsilon)),
        math.isinf(9.0 / (5.0 * epsilon)), n=n, m=m, epsilon=epsilon)
    return ProjectorCoveringBounds(
        n=n,
        m=m,
        epsilon=float(epsilon),
        lower_log=lower,
        upper_log=upper,
        lower_valid=epsilon <= 1.0 / 71.0,
        upper_valid=epsilon <= 0.1,
        lower_nontrivial=lower > 0.0,
    )


@dataclass(frozen=True)
class ProductCoveringReport:
    """Exact covering/packing numbers for a max-metric product space."""

    epsilon: float
    size1: int
    size2: int
    cover1_eps: int
    cover2_eps: int
    cover1_2eps: int
    cover2_2eps: int
    product_cover_eps: int
    product_pack_eps: int
    lower_ok: bool
    upper_ok: bool
    passed: bool

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def product_covering_check(space1: metric.FiniteMetricSpace,
                           space2: metric.FiniteMetricSpace,
                           epsilon: float) -> ProductCoveringReport:
    """Exact check of N1(2e) N2(2e) <= N_product(e) <= N1(e) N2(e) (max metric)."""
    # the factor searches refuse an oversized factor before the product is built
    n1 = metric.brute_force_covering_number(space1, epsilon)
    n2 = metric.brute_force_covering_number(space2, epsilon)
    n1_2 = metric.brute_force_covering_number(space1, 2.0 * epsilon)
    n2_2 = metric.brute_force_covering_number(space2, 2.0 * epsilon)
    prod = metric.product_space(space1, space2)
    prod_limit = space1.size * space2.size
    np_cover = metric.brute_force_covering_number(prod, epsilon, limit=prod_limit)
    np_pack = metric.brute_force_packing_number(prod, epsilon, limit=prod_limit)
    lower_ok = n1_2 * n2_2 <= np_cover
    upper_ok = np_cover <= n1 * n2
    return ProductCoveringReport(
        epsilon=float(epsilon),
        size1=space1.size,
        size2=space2.size,
        cover1_eps=n1,
        cover2_eps=n2,
        cover1_2eps=n1_2,
        cover2_2eps=n2_2,
        product_cover_eps=np_cover,
        product_pack_eps=np_pack,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        passed=lower_ok and upper_ok,
    )


@dataclass(frozen=True)
class QuotientCoveringReport:
    """Exact covering numbers around a cyclic group quotient Z_order / H."""

    order: int
    subgroup_order: int
    epsilon: float
    group_cover_2eps: int
    subgroup_cover_eps: int
    quotient_cover_eps: int
    group_cover_half_eps: int
    lower_ok: bool
    upper_ok: bool
    passed: bool

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


def quotient_covering_check(order: int, subgroup_order: int,
                            epsilon: float) -> QuotientCoveringReport:
    """Exact check of N_G(2e) <= N_{G/H}(e) N_H(e) <= N_G(e/2) for cyclic G.

    G = Z_order with the circular hop metric, H the subgroup of the given
    order, and the quotient metric d'([x],[y]) = min_h d(x, y + h).
    """
    order = _integer(order, "order")
    subgroup_order = _integer(subgroup_order, "subgroup_order")
    if order < 1 or subgroup_order < 1 or order % subgroup_order != 0:
        raise ValueError("subgroup order must divide the group order")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    group = metric.FiniteMetricSpace.cycle(order)
    gmat = group.matrix
    step = order // subgroup_order
    members = [i * step for i in range(subgroup_order)]
    subgroup = metric.FiniteMetricSpace(
        members, gmat[np.ix_(members, members)])
    # qmat[a, b] = min over h in H of d(a, b + h)
    shifted = (np.arange(step)[:, None] + members) % order
    qmat = gmat[:step][:, shifted].min(axis=-1)
    quotient = metric.FiniteMetricSpace(range(step), qmat)

    limit = max(order, metric.EXACT_SEARCH_LIMIT)
    n_g_2 = metric.brute_force_covering_number(group, 2.0 * epsilon, limit=limit)
    n_h = metric.brute_force_covering_number(subgroup, epsilon, limit=limit)
    n_q = metric.brute_force_covering_number(quotient, epsilon, limit=limit)
    n_g_half = metric.brute_force_covering_number(group, 0.5 * epsilon, limit=limit)
    lower_ok = n_g_2 <= n_q * n_h
    upper_ok = n_q * n_h <= n_g_half
    return QuotientCoveringReport(
        order=order,
        subgroup_order=subgroup_order,
        epsilon=float(epsilon),
        group_cover_2eps=n_g_2,
        subgroup_cover_eps=n_h,
        quotient_cover_eps=n_q,
        group_cover_half_eps=n_g_half,
        lower_ok=lower_ok,
        upper_ok=upper_ok,
        passed=lower_ok and upper_ok,
    )


def empirical_grassmann_packing(n: int, m: int, epsilon: float, trials: int,
                                seed: int) -> int:
    """Greedy epsilon-packing count among Haar-random rank-n projectors.

    Refuses what ``empirical_packing_lower_bound`` refuses: non-integer
    sizes, fewer than one trial, and an epsilon not positive and finite.
    """
    n, m, trials = _integer(n, "n"), _integer(m, "m"), _integer(trials, "trials")
    if not 1 <= n < m:
        raise ValueError("need 1 <= n < m")
    if m > 16:
        raise ValueError("ambient dimension capped at 16 for the empirical packing")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if trials < 1:
        raise ValueError("need at least one trial")
    # one (trials, 2, m, m) draw: each trial's real, then imaginary part
    g = np.random.default_rng(seed).standard_normal((trials, 2, m, m))
    bases = _haar_qr(g[:, 0], g[:, 1])[..., :n]
    projectors = bases @ np.conj(np.swapaxes(bases, -1, -2))
    # P - Q has rank at most 2n, and at most m
    return _greedy_packing(projectors, min(2 * n, m), epsilon)
