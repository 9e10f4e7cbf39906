"""Epsilon-nets on the unitary group U(n) in operator-norm distance.

Explicit nets come from a cubic grid in the Lie algebra u(n): grid points
of operator norm at most pi + epsilon, slightly more than the image of the
principal logarithm, are exponentiated, and the exponential map's
1-Lipschitz upper bound certifies the covering radius. For n <= 2,
u(n) = u(1) + su(2), so each grid point's norm and exponential have a
closed form and the build needs no eigendecomposition. The candidates are
the grid points of the coordinate box that the norm bound implies.
Explicit nets stop at U(2): a U(3) box fits the candidate cap only above
epsilon = 3.54, and at epsilon >= 2 a single element covers U(n), since any
two unitaries lie within 2 of each other.
An implicit variant, ``ImplicitGridNet``, holds the grid's spacing and
checks for both kinds and materializes only the grid element that a
query's principal log rounds to, entry by entry, so it stores nothing
that grows with n and serves discretization at any n.
Both kinds snap a whole stack of unitaries in one call, to elements that
pass ``linalg._check_unitary``; their one-matrix methods wrap the call.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .linalg import (
    UnitaryMatrix,
    _check_unitary,
    _exp_skew_stack,
    _greedy_packing,
    _haar_qr,
    _log_unitary_stack,
    _nearest,
    _opnorm_stack,
    _row_matrices,
    _search_rows,
    skew_basis,
)
from .logdomain import _integer, finite_log
from .metric import COVERING_SLACK

_GRID_DIM_LIMIT = 2
_CANDIDATE_CAP = 20_000_000
_MAX_ELEMENTS = 5_000_000
_CHUNK = 8192
_NET_HEADER = struct.Struct("<IdQ")
_NET_ENTRY = np.dtype("<c16")


@dataclass(frozen=True)
class UnitaryCoveringBounds:
    """Two-sided covering-number bounds for U(n), stored as natural logs.

    Valid only for 0 < epsilon <= 1/10; outside that window the logs are None
    and ``valid`` is False.
    """

    n: int
    epsilon: float
    lower_log: float | None
    upper_log: float | None
    valid: bool


def unitary_covering_bounds(n: int, epsilon: float) -> UnitaryCoveringBounds:
    """ln of (3/(4 eps))^(n^2) <= N(U(n), eps) <= (7/eps)^(n^2) for eps <= 1/10."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if epsilon > 0.1:
        return UnitaryCoveringBounds(n, float(epsilon), None, None, False)
    nsq = n * n
    # 7/eps > 3/(4 eps), so the upper log overflows first
    upper = finite_log(lambda: nsq * math.log(7.0 / epsilon),
                       math.isinf(7.0 / epsilon), n=n, epsilon=epsilon)
    lower = nsq * math.log(3.0 / (4.0 * epsilon))
    return UnitaryCoveringBounds(n, float(epsilon), lower, upper, True)


def _check_net_args(n: int, epsilon: float) -> int:
    """n as an int; refuse a non-integer n or one below 1, or an epsilon
    that is not positive and finite."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("dimension must be at least 1")
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    return n


def _snap_one(net, u) -> tuple[UnitaryMatrix, float]:
    """The net's element for the unitary ``u`` and their distance, by ``_snap``."""
    target = u if isinstance(u, UnitaryMatrix) else UnitaryMatrix(u)
    if target.dim != net.n:
        raise ValueError(f"expected a {net.n}-dimensional unitary")
    elements, dists = net._snap(target.array[None])
    return UnitaryMatrix(elements[0], _validated=True), float(dists[0])


class UnitaryNet:
    """A finite set of unitaries intended as an epsilon-covering of U(n).

    The net holds one array: the read-only search rows of its elements
    (``linalg._search_rows``), built from the input once it passes
    ``linalg._check_unitary``; the input is never kept. ``matrices`` is the
    read-only (count, n, n) view of the rows' entries (``linalg._row_matrices``).
    """

    def __init__(self, n: int, epsilon: float, matrices, construction_log=None):
        n = _check_net_args(n, epsilon)
        arr = np.asarray(matrices, dtype=complex)
        if arr.ndim != 3 or arr.shape[1:] != (n, n):
            raise ValueError(f"expected a (count, {n}, {n}) stack, got {arr.shape}")
        if arr.shape[0] == 0:
            raise ValueError("net must contain at least one element")
        _check_unitary(arr)
        rows = _search_rows(arr)
        rows.setflags(write=False)
        self.n = n
        self.epsilon = float(epsilon)
        self.matrices = _row_matrices(rows, n)
        self._rows = rows
        self.construction_log = dict(construction_log or {})

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def _snap(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest element and its distance for each of a (count, n, n) stack."""
        idx, dist = _nearest(targets, self._rows, self.n)
        return self.matrices[idx], dist

    nearest = _snap_one  # the element closest to u in operator norm

    def __repr__(self) -> str:
        return f"UnitaryNet(n={self.n}, epsilon={self.epsilon}, count={len(self)})"


def _box(dim: int, m: int) -> np.ndarray:
    """Integer points of [-m, m]^dim as int64 rows, in lexicographic order."""
    side = 2 * m + 1
    return np.indices((side,) * dim).reshape(dim, side ** dim).T - m


def build_unitary_net(n: int, epsilon: float) -> UnitaryNet:
    """Explicit grid net: certified epsilon-covering of U(n) for n <= 2.

    The grid is ``ImplicitGridNet(n, epsilon)``'s: its spacing 2*eps/n in
    the Frobenius-orthonormal coordinates of ``skew_basis(n)`` on u(n) and
    its argument checks, so rounding any principal logarithm to the grid
    moves it by at most eps and every implicit snap is an element of this
    net. Grid points
    are kept when their operator norm is at most pi + eps, which retains
    every possible rounding image. The count is checked against
    ``_MAX_ELEMENTS`` and construction fails rather than degrading the radius.

    ||X|| bounds every entry of -iX, so every kept point lies in the box
    |z_k| <= (pi + eps) / spacing on the n diagonal coordinates and sqrt(2)
    times that on the others; its size is checked against
    ``_CANDIDATE_CAP`` before anything is allocated.

    Each grid point is split as -iX = a I + B with B traceless Hermitian.
    For n <= 2, B^2 = r^2 I, so ||X|| = |a| + r and
    exp(X) = e^(ia) (cos r I + i (sin r / r) B) in closed form. a, e^(ia)
    and the diagonal of B depend on the diagonal coordinates alone and the
    off-diagonal entries of B on the others, so each is formed once per grid
    row. r depends only on the integer q = n |z|^2 - tr(z)^2, so r, cos r
    and i sin r / r are tabulated once per value of q up to the box's
    largest (597 values at n = 2, eps = 0.5). |a| takes one value per
    |tr(z)|, and |a| + r[q] is nondecreasing in q, so the keep pass finds
    for each trace level the last q that passes and keeps a (diagonal row,
    off-diagonal row) pair by one integer compare of their q parts against
    it. A kept point then gathers its two rows' parts of B, its phase and
    its q's entries of the table, and each of the n^2 entries of the
    elements is one flat pass. Diagonal rows go outer, so elements keep
    grid order.
    """
    return UnitaryNet(n, epsilon, *_grid_elements(n, epsilon))


def _grid_elements(n: int, epsilon: float) -> tuple[np.ndarray, dict]:
    """build_unitary_net's elements and log; its per-row arrays die on return.

    The grid's spacing and argument checks are ``ImplicitGridNet``'s; its
    coordinates are those of ``skew_basis(n)``, built here for n <= 2 only.
    """
    if _integer(n, "n") > _GRID_DIM_LIMIT:  # before any basis is built
        raise ValueError(
            f"explicit grid construction supports n <= {_GRID_DIM_LIMIT}; "
            f"use ImplicitGridNet for n = {n}")
    grid = ImplicitGridNet(n, epsilon)
    n, spacing, scale = grid.n, grid.spacing, grid._scale
    dim = n * n
    # clamped so floor stays finite when the spacing underflows; a clamped
    # side alone exceeds the cap
    reach = min((math.pi + epsilon) / spacing, _CANDIDATE_CAP) + 1e-9
    m_diag, m_off = math.floor(reach), math.floor(math.sqrt(2.0) * reach)
    candidates = (2 * m_diag + 1) ** n * (2 * m_off + 1) ** (dim - n)
    if candidates > _CANDIDATE_CAP:
        raise ValueError(
            f"net too large: more than {_CANDIDATE_CAP} grid candidates")

    # a = spacing tr(z) / n and r = spacing sqrt(q / (2n)) with
    # q = n |z|^2 - tr(z)^2: B has eigenvalues +-r, so
    # |B|_F^2 = n r^2 = spacing^2 q / n. q is exact in int64 and is the sum
    # of a diagonal-row part and an off-diagonal-row part.
    z_diag, z_off = _box(n, m_diag), _box(dim - n, m_off)
    trace = z_diag.sum(axis=1)
    q_diag = n * np.einsum("cd,cd->c", z_diag, z_diag) - trace * trace
    q_off = n * np.einsum("cd,cd->c", z_off, z_off)
    a = scale * trace / n
    # r, cos r and i sin r / r once per q, from 0 to the box's largest
    r = scale * np.sqrt(np.arange(q_diag.max() + q_off.max() + 1) / (2 * n))
    cos_r = np.cos(r)
    i_sinc = 1j * np.divide(np.sin(r), r, out=np.ones_like(r), where=r > 0)
    # |a| is level[|tr z|] bit for bit, and level + r[q] is nondecreasing in
    # q, so |a| + r <= pi + eps holds exactly for q up to last[|tr z|]. The
    # table pairs every level with every q; a pair that no grid point has
    # may overflow to inf near eps = 9e307, which fails the test as it should.
    level = scale * np.arange(n * m_diag + 1) / n
    with np.errstate(over="ignore"):
        last = np.count_nonzero(level[:, None] + r <= math.pi + epsilon + 1e-12,
                                axis=1) - 1
    kept = np.flatnonzero(q_off <= (last[np.abs(trace)] - q_diag)[:, None])
    del level, last  # one entry per trace level: 6 MB each at (1, 2e-6)
    count = kept.size
    if count > _MAX_ELEMENTS:
        raise ValueError(
            f"net too large: retained element count exceeds {_MAX_ELEMENTS}")

    # -i times the basis as real pairs: a real GEMM of a row's coordinates
    # onto its part of the basis gives that row's share of -iX. Each entry
    # of -iX takes one coordinate, so the sum h_diag[d] + h_off[o] is exact.
    herm = (-1j * skew_basis(n).reshape(dim, dim)).view(float)
    h_diag = ((scale * z_diag) @ herm[:n]).view(complex)
    h_diag[:, ::n + 1] -= a[:, None]
    h_off = ((scale * z_off) @ herm[n:]).view(complex)
    # one contiguous row per entry of -iX: each entry is its own 1-D pass
    h_diag, h_off = h_diag.T.copy(), h_off.T.copy()
    phase = np.exp(1j * a)
    elements = np.empty((count, n, n), dtype=complex)
    entries = elements.reshape(count, dim)
    for start in range(0, count, _CHUNK):
        d, o = np.divmod(kept[start:start + _CHUNK], len(z_off))
        q = q_diag[d] + q_off[o]
        cos_q, i_sinc_q, phase_d = cos_r[q], i_sinc[q], phase[d]
        out = entries[start:start + _CHUNK]
        for e in range(dim):
            su2 = i_sinc_q * (h_diag[e, d] + h_off[e, o])
            if e % (n + 1) == 0:  # a diagonal entry
                su2 += cos_q
            np.multiply(su2, phase_d, out=out[:, e])

    log = {
        "method": "lie-algebra-grid",
        "spacing": spacing,
        "source_radius": math.pi + epsilon,
        "candidates": candidates,
        "retained": count,
    }
    return elements, log


class ImplicitGridNet:
    """The Lie-algebra grid of both nets, materialized on demand.

    This class holds the grid's one spacing rule, 2 eps / n in
    Frobenius-orthonormal coordinates of ``skew_basis(n)``, and its argument
    checks; ``build_unitary_net`` enumerates the same grid. Instead of
    enumerating every grid point, ``round`` maps a unitary to the grid
    element obtained by rounding its principal-log coordinates, which is
    guaranteed to lie within epsilon in operator norm. Each coordinate is
    one entry's part, so the rounding goes entry by entry and the net
    stores nothing that grows with n.
    """

    def __init__(self, n: int, epsilon: float):
        self.n = n = _check_net_args(n, epsilon)
        self.epsilon = float(epsilon)
        self.spacing = 2.0 * epsilon / n

    @property
    def _scale(self) -> float:
        """The spacing as the grid's arithmetic takes it.

        Past about 9e307 the spacing overflows to inf, and every point
        rounds to the origin; this finite stand-in keeps the origin's
        0 * spacing from being NaN.
        """
        return min(self.spacing, np.finfo(float).max)

    def _snap(self, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid element and its distance for each of a (count, n, n) stack."""
        n = self.n
        # In skew_basis(n) the coordinates of X are Im X_kk, and sqrt(2)
        # Re X_kl and sqrt(2) Im X_kl for k < l, so the grid rounds each
        # real part of X (as [re, im] pairs) by the spacing times its
        # weight w: 1 on the diagonal, 1/sqrt(2) off it. X is exactly
        # skew-Hermitian and round-half-even is odd, so the lower triangle
        # rounds to minus the upper one's conjugate and the diagonal's real
        # parts stay 0. Each entry part, (spacing k) w, is then the one
        # nonzero term of the rounded coordinates' basis sum.
        w = np.repeat(np.where(np.eye(n, dtype=bool), 1.0, 1.0 / np.sqrt(2.0)),
                      2, axis=1)
        x = _log_unitary_stack(targets).view(float)
        scale = self._scale
        grid = (scale * np.round(x / (scale * w)) * w).view(complex)
        elements = _exp_skew_stack(grid)
        _check_unitary(elements)
        return elements, _opnorm_stack(elements - targets)

    round = _snap_one  # the grid element within epsilon of u

    def __repr__(self) -> str:
        return f"ImplicitGridNet(n={self.n}, epsilon={self.epsilon})"


def empirical_covering_check(net: UnitaryNet, samples: int,
                             seed: int) -> tuple[float, bool]:
    """Max over Haar samples of the distance to the net, and pass/fail.

    Passes when the largest observed gap is at most the net's epsilon
    (with metric.COVERING_SLACK).
    """
    samples = _integer(samples, "samples")
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    max_gap = 0.0
    for start in range(0, samples, 2048):
        g = rng.standard_normal((2, min(samples - start, 2048), net.n, net.n))
        gaps = net._snap(_haar_qr(g[0], g[1]))[1]
        max_gap = max(max_gap, float(gaps.max()))
    return max_gap, max_gap <= net.epsilon + COVERING_SLACK


def empirical_packing_lower_bound(n: int, epsilon: float, trials: int,
                                  seed: int) -> int:
    """Size of a greedily grown epsilon-packing from Haar samples.

    A lower bound on the true packing number N_pack(U(n), epsilon); by the
    sandwich inequalities also a lower-bound witness for N_cov(epsilon/2)
    and an upper-bound check against any covering bound at epsilon/2.
    """
    n, trials = _check_net_args(n, epsilon), _integer(trials, "trials")
    if trials < 1:
        raise ValueError("need at least one trial")
    # one (trials, 2, n, n) draw: each trial's real, then imaginary part
    g = np.random.default_rng(seed).standard_normal((trials, 2, n, n))
    return _greedy_packing(_haar_qr(g[:, 0], g[:, 1]), n, epsilon)


def circle_covering_number(epsilon: float) -> int:
    """Exact minimal number of closed epsilon-balls covering U(1) (chordal)."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if epsilon >= 2.0:
        return 1
    half_arc = 2.0 * math.asin(epsilon / 2.0)
    return int(math.ceil(math.pi / half_arc - 1e-12))


def save_net(net: UnitaryNet, path) -> None:
    """Write a net in the binary interchange format.

    Header: n (uint32 LE), epsilon (float64 LE), count (uint64 LE); then each
    element row-major, each entry as two little-endian float64 (re, im).
    """
    with open(path, "wb") as fh:
        fh.write(_NET_HEADER.pack(net.n, net.epsilon, len(net)))
        fh.write(net.matrices.astype(_NET_ENTRY).tobytes())


def load_net(path) -> UnitaryNet:
    """Read a net written by save_net; the constructor re-checks every element."""
    with open(path, "rb") as fh:
        header = fh.read(_NET_HEADER.size)
        if len(header) != _NET_HEADER.size:
            raise ValueError("truncated net file header")
        n, epsilon, count = _NET_HEADER.unpack(header)
        payload = fh.read()
    expected = count * n * n * _NET_ENTRY.itemsize
    if len(payload) != expected:
        raise ValueError(
            f"net file payload has {len(payload)} bytes, expected {expected}")
    mats = np.frombuffer(payload, dtype=_NET_ENTRY).reshape(count, n, n)
    return UnitaryNet(n, epsilon, mats, {"method": "deserialized"})
