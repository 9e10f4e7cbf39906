"""Finite metric spaces with exact covering/packing machinery.

Covering uses closed balls (distance <= epsilon, with a 1e-12 slack);
packing is strict (pairwise distance > epsilon, no slack). The exact
covering/packing numbers come from branch-and-bound searches over bitmask
encodings, so they are usable up to a few hundred points for structured
spaces but are capped by ``limit`` to keep worst cases bounded.

Both searches branch on the lowest open point. Some ball must cover the
lowest uncovered point, so the covering search tries each ball holding it.
Every largest packing holds the lowest candidate or a candidate within
epsilon of it, since otherwise the lowest candidate could join it; so the
packing search takes each of those in bit order and leaves it out of the
later branches (Fomin and Kratsch, *Exact Exponential Algorithms*, 2010,
ch. 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .logdomain import _integer

COVERING_SLACK = 1e-12
_METRIC_TOL = 1e-12
EXACT_SEARCH_LIMIT = 15


class FiniteMetricSpace:
    """Ordered finite point set with a validated metric.

    Points are opaque hashable identifiers. The metric is validated on
    construction: zero diagonal, symmetry, non-negativity, and the triangle
    inequality (exhaustively for up to 8 points, on 512 seeded random triples
    above that, tolerance 1e-12).
    """

    def __init__(self, points: Sequence[Hashable], dist):
        pts = tuple(points)
        if len(set(pts)) != len(pts):
            raise ValueError("points must be distinct")
        n = len(pts)
        if callable(dist):
            mat = np.zeros((n, n))
            for i in range(n):
                for j in range(i, n):
                    mat[i, j] = mat[j, i] = float(dist(pts[i], pts[j]))
        else:
            mat = np.array(dist, dtype=float)
            if mat.shape != (n, n):
                raise ValueError(f"distance matrix shape {mat.shape} does not match {n} points")
        self._validate(mat)
        mat = 0.5 * (mat + mat.T)
        np.fill_diagonal(mat, 0.0)
        mat.setflags(write=False)
        self._points = pts
        self._index = {p: i for i, p in enumerate(pts)}
        self._matrix = mat

    @staticmethod
    def _validate(mat: np.ndarray) -> None:
        n = mat.shape[0]
        if not np.all(np.isfinite(mat)):
            raise ValueError("distances must be finite")
        if np.any(mat < -_METRIC_TOL):
            raise ValueError("distances must be non-negative")
        if np.any(np.abs(np.diagonal(mat)) > _METRIC_TOL):
            raise ValueError("self-distance must be zero")
        if np.any(np.abs(mat - mat.T) > _METRIC_TOL):
            raise ValueError("metric must be symmetric")
        if n <= 8:
            i, j, k = np.indices((n, n, n)).reshape(3, -1)
        else:
            i, j, k = np.random.default_rng(0).integers(0, n, size=(512, 3)).T
        if np.any(mat[i, k] > mat[i, j] + mat[j, k] + _METRIC_TOL):
            raise ValueError("triangle inequality violated")

    @property
    def points(self) -> tuple:
        return self._points

    @property
    def size(self) -> int:
        return len(self._points)

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    def index(self, point) -> int:
        try:
            return self._index[point]
        except KeyError:
            raise ValueError(f"point {point!r} is not in the space") from None

    def distance(self, x, y) -> float:
        return float(self._matrix[self.index(x), self.index(y)])

    @classmethod
    def from_coords(cls, coords, points=None) -> "FiniteMetricSpace":
        """Euclidean metric space from an (n, d) coordinate array."""
        arr = np.atleast_2d(np.asarray(coords, dtype=float))
        diffs = arr[:, None, :] - arr[None, :, :]
        mat = np.sqrt(np.sum(diffs * diffs, axis=-1))
        if points is None:
            points = range(arr.shape[0])
        return cls(points, mat)

    @classmethod
    def cycle(cls, n: int) -> "FiniteMetricSpace":
        """Cycle graph Z_n with the circular hop metric min(|i-j|, n-|i-j|)."""
        n = _integer(n, "n")
        if n < 1:
            raise ValueError("cycle needs at least one point")
        idx = np.arange(n)
        delta = np.abs(idx[:, None] - idx[None, :])
        mat = np.minimum(delta, n - delta).astype(float)
        return cls(range(n), mat)


def product_space(space1: FiniteMetricSpace, space2: FiniteMetricSpace) -> FiniteMetricSpace:
    """Product space under the max metric; points are (p1, p2) pairs."""
    m1, m2 = space1.matrix, space2.matrix
    mat = np.maximum(m1[:, None, :, None], m2[None, :, None, :])
    n = space1.size * space2.size
    points = [(p1, p2) for p1 in space1.points for p2 in space2.points]
    return FiniteMetricSpace(points, mat.reshape(n, n))


@dataclass(frozen=True)
class NetResult:
    """A selected subset with its certification flags at one epsilon."""

    selected: tuple
    epsilon: float
    is_covering: bool
    is_packing: bool


def _subset_indices(space: FiniteMetricSpace, subset) -> list[int]:
    return [space.index(p) for p in subset]


def verify_covering(space: FiniteMetricSpace, subset, epsilon: float) -> bool:
    """True if every point lies within epsilon (closed, 1e-12 slack) of the subset."""
    idx = _subset_indices(space, subset)
    if space.size == 0:
        return True
    if not idx:
        return False
    nearest = space.matrix[:, idx].min(axis=1)
    return bool(np.all(nearest <= epsilon + COVERING_SLACK))


def verify_packing(space: FiniteMetricSpace, subset, epsilon: float) -> bool:
    """True if all pairwise distances within the subset strictly exceed epsilon."""
    idx = _subset_indices(space, subset)
    if len(set(idx)) != len(idx):
        return False
    sub = space.matrix[np.ix_(idx, idx)]
    off = sub[~np.eye(len(idx), dtype=bool)]
    return bool(np.all(off > epsilon))


def greedy_maximal_packing(space: FiniteMetricSpace, epsilon: float, seed: int) -> NetResult:
    """Greedy maximal packing in a seeded random scan order.

    The result is simultaneously an epsilon-packing and an epsilon-covering;
    both properties are certified on the result before it is returned.
    """
    if space.size == 0:
        raise ValueError("empty metric space")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    rng = np.random.default_rng(seed)
    order = rng.permutation(space.size)
    mat = space.matrix
    selected: list[int] = []
    for i in order:
        if all(mat[i, j] > epsilon for j in selected):
            selected.append(int(i))
    chosen = tuple(space.points[i] for i in selected)
    return NetResult(
        selected=chosen,
        epsilon=float(epsilon),
        is_covering=verify_covering(space, chosen, epsilon),
        is_packing=verify_packing(space, chosen, epsilon),
    )


def _row_masks(within: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as the int whose bit j is within[i, j]."""
    packed = np.packbits(within, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _search_size(space: FiniteMetricSpace, epsilon: float, limit: int) -> int:
    """Point count for an exact search: limit first, then epsilon if nonempty."""
    if space.size > limit:
        raise ValueError(
            f"exact search limit exceeded: {space.size} points > limit {limit}")
    # "not >" also rejects NaN, which empties every ball: the cover never ends
    if space.size and not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return space.size


def brute_force_covering_number(space: FiniteMetricSpace, epsilon: float, *,
                                limit: int = EXACT_SEARCH_LIMIT) -> int:
    """Exact minimum number of closed epsilon-balls covering the space."""
    n = _search_size(space, epsilon, limit)
    if n == 0:
        return 0
    # The matrix is symmetric, so row j is ball j and row i lists the balls
    # that contain point i.
    within = space.matrix <= epsilon + COVERING_SLACK
    balls = _row_masks(within)
    containing = [[balls[j] for j in np.flatnonzero(row)] for row in within]
    # Each point's own ball covers it, so n balls always suffice.
    best_count = n

    def search(uncovered: int, count: int) -> None:
        nonlocal best_count
        if uncovered == 0:
            best_count = min(best_count, count)
            return
        max_gain = max((b & uncovered).bit_count() for b in balls)
        if count + math.ceil(uncovered.bit_count() / max_gain) >= best_count:
            return
        # Some ball must cover the lowest uncovered point: branch on those.
        pivot = (uncovered & -uncovered).bit_length() - 1
        options = sorted(containing[pivot],
                         key=lambda b: -(b & uncovered).bit_count())
        for b in options:
            search(uncovered & ~b, count + 1)

    search((1 << n) - 1, 0)
    return best_count


def brute_force_packing_number(space: FiniteMetricSpace, epsilon: float, *,
                               limit: int = EXACT_SEARCH_LIMIT) -> int:
    """Exact maximum size of an epsilon-packing (pairwise distance > epsilon)."""
    n = _search_size(space, epsilon, limit)
    # Row i holds the points within epsilon of i, i itself included: the
    # points that cannot share a packing with i.
    conflicts = _row_masks(space.matrix <= epsilon)
    best = 0

    def search(candidates: int, size: int) -> None:
        nonlocal best
        if size + candidates.bit_count() <= best:
            return
        if candidates == 0:
            best = size
            return
        # Every largest packing holds a point of the lowest candidate's row;
        # stop once the candidates left cannot beat the best packing found.
        v = (candidates & -candidates).bit_length() - 1
        options = conflicts[v] & candidates
        while options:
            u = (options & -options).bit_length() - 1
            search(candidates & ~conflicts[u], size + 1)
            candidates &= ~(1 << u)
            if size + candidates.bit_count() <= best:
                return
            options &= options - 1

    search((1 << n) - 1, 0)
    return best


def ball_covering_bounds(radius: float, dim: float, epsilon: float) -> tuple[float, float]:
    """Volumetric bounds on covering a radius-R ball in R^D by epsilon-balls.

    Returns ((R/eps)^D, (1 + 2R/eps)^D); the lower bound assumes eps <= R.
    """
    if not (radius > 0 and epsilon > 0 and dim > 0):
        raise ValueError("radius, dimension, and epsilon must be positive")
    lower = (radius / epsilon) ** dim
    upper = (1.0 + 2.0 * radius / epsilon) ** dim
    return (float(lower), float(upper))
