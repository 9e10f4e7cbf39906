"""Dense complex linear algebra kernels.

Operator norms, skew-Hermitian exponentials, Haar-random unitaries, principal
logarithms, the two-sided Lipschitz comparison for the exponential map, and
the Frobenius-bracket search behind nearest-element queries and greedy
packings. The search keeps one row per matrix, [e, 1, (1 + c)|E|^2] for
an element and [-2t, (1 + c)|T|^2, 1] for a target, so one GEMM of the
two gives every pair's upper bound on ||T - E||_F^2 with its rounding
slack already added. Everything here is deterministic for a fixed seed.
"""

from __future__ import annotations

import bisect
import math

import numpy as np
import scipy.linalg

UNITARY_TOL = 1e-10
SKEW_TOL = 1e-12
HERMITIAN_TOL = 1e-10
# (target, element) pairs per block of a nearest-element search: the block's
# GEMM output of up2 bounds is 8 MB of float64
_PAIR_BLOCK = 1 << 20
# Candidates per block of a greedy packing. Min of 40 calls, one BLAS thread,
# 2-core Xeon, ms per U(2) packing (300 candidates, eps 0.5) / Grassmann(2, 4)
# packing (200, eps 0.5), three draws each: 16 -> 1.43-1.50 / 2.46-2.54,
# 32 -> 1.07-1.11 / 2.33-2.41, 64 -> 0.89-0.99 / 2.23-2.34, 128 -> 1.30-1.35
# / 2.38-2.51; one candidate at a time took 3.3-3.9 / 5.1-5.4. A block's
# arrays are (kept + block) x block, within the (count, row) pool.
_PACK_BLOCK = 64
# Exactly Hermitian stacks above this dimension take their norm from eigvalsh
_EIGH_MIN_DIM = 64
# Gram entries per chunk of the unitarity check: 8192 U(2) matrices, 512 KB
_GRAM_BLOCK = 1 << 15
# Entry m - 1 is the largest 1-norm theta at which the degree-m Taylor
# polynomial of exp meets theta^(m+1) / (m+1)! * e^theta <= 2^-53, rounded
# down to four significant digits; m runs from 1 to 18.
_TAYLOR_THETA = (1.490e-08, 8.733e-06, 2.271e-04, 1.677e-03, 6.556e-03,
                 1.772e-02, 3.795e-02, 6.944e-02, 1.136e-01, 1.713e-01,
                 2.426e-01, 3.274e-01, 4.252e-01, 5.353e-01, 6.569e-01,
                 7.893e-01, 9.317e-01, 1.083)
_INV_FACTORIAL = np.array([1.0 / math.factorial(k)
                           for k in range(len(_TAYLOR_THETA) + 1)])

def _as_square_array(a, name: str = "matrix") -> np.ndarray:
    # C order (no copy for C-ordered input) lets the finiteness check read
    # the entries as floats: a view numpy refuses for a transposed array.
    arr = np.asarray(a, dtype=complex, order="C")
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def operator_norm(a) -> float:
    """Largest singular value of a square complex matrix.

    A full LAPACK SVD, except above dimension 64 for an exactly Hermitian
    matrix, whose norm is its largest eigenvalue magnitude from one eigvalsh,
    raised by a rounding allowance so that it never reads below the SVD (see
    ``_opnorm_stack``). Either way the result agrees with the true norm to
    rounding, which keeps every norm-based bound safe; dense dimensions in
    this package stay within the 4096 register cap.
    """
    return float(_opnorm_stack(_as_square_array(a)))


def _opnorm_stack(stack: np.ndarray) -> np.ndarray:
    """Operator norms over the last two axes of a (..., n, n) stack.

    Above ``_EIGH_MIN_DIM``, a stack exactly equal to its conjugate
    transpose gets max(-lambda_min, lambda_max) from one eigvalsh, raised by
    ``_eigh_allowance``; that skips the SVD's bidiagonalization (one BLAS
    thread, 2-core Xeon: 0.71 against 0.94 ms on a projector difference at
    n = 72, 2.50 against 3.52 ms at n = 128, 13.4 against 17.9 ms on a
    conjugated-observable difference at n = 256; the equality test costs
    0.03 to 0.09 ms up to n = 128). Every other stack, and every stack up to
    dimension 64, keeps the SVD bit for bit.
    """
    n = stack.shape[-1]
    if n == 0:
        return np.zeros(stack.shape[:-2])
    if n > _EIGH_MIN_DIM and np.array_equal(
            stack, np.conj(np.swapaxes(stack, -1, -2))):
        w = np.linalg.eigvalsh(stack)
        return np.maximum(-w[..., 0], w[..., -1]) * _eigh_allowance(n)
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


def _eigh_allowance(n: int) -> float:
    """The factor 1 + 2 n eps that lifts an eigvalsh norm above the SVD's.

    LAPACK's Hermitian eigensolver and its SVD are both backward stable
    (LAPACK Users' Guide, section 4.7): each computed eigenvalue or singular
    value of an n x n matrix A lies within p(n) eps ||A|| of the true one,
    with p(n) of order n. Taking p(n) = n:
    - the eigenvalue norm e and the SVD's s each lie within n eps ||A|| of
      ||A||, so s - e <= 2 n eps ||A||, and 2 n eps e covers that to first
      order in eps;
    - 2 n eps is a multiple of eps below 1, so 1 + 2 n eps is exact, and the
      product rounds by eps / 2 relative at most, far below the margin left.
    Measured, e fell at most 51 eps below s at n = 256 and 15 eps at n = 72
    on random Hermitian matrices: 0.2 to 0.37 n eps, a fifth of the factor.
    """
    return 1.0 + 2 * n * np.finfo(float).eps


def _bracket_slack(k: int) -> float:
    """The relative slack c of the bracket rows, for k real entries per row.

    One GEMM of a target row [-2t, (1 + c)|T|^2, 1] with an element row
    [e, 1, (1 + c)|E|^2] gives up2 = ||T - E||_F^2 + c S, S = |T|^2 + |E|^2,
    and lo2 = up2 - 2 c S. With u = eps / 2:
    - 1 + c is exact, c being a multiple of eps below 1, and so is -2t.
    - |T|^2 is a dot of k terms, off by at most k u |T|^2, and its product
      with 1 + c adds u: the two row entries are off by (k + 1) u S at most.
    - The GEMM's dot of k + 2 terms is off by at most (k + 2) u times the
      sum of their magnitudes, 2 |t| . |e| + (1 + c) S <= (2 + c) S.
    So up2 is off by at most about (3k + 5) u S from ||T - E||_F^2 + c S.
    c = (3k + 5) eps doubles that to cover the SVD's own rounding of the
    norms the bracket is compared with.
    """
    return (3 * k + 5) * np.finfo(float).eps


def _search_rows(stack: np.ndarray) -> np.ndarray:
    """Element rows [e, 1, (1 + c)|E|^2] of a (count, n, n) stack.

    e holds a matrix's entries as real [re, im] pairs, so Re<T, E> = t . e.
    """
    count, n, m = stack.shape
    flat = np.ascontiguousarray(stack, dtype=complex).reshape(count, n * m)
    flat = flat.view(float)
    k = flat.shape[1]
    rows = np.empty((count, k + 2))
    rows[:, :k] = flat
    rows[:, k] = 1.0
    np.einsum("ij,ij->i", flat, flat, out=rows[:, k + 1])
    rows[:, k + 1] *= 1.0 + _bracket_slack(k)
    return rows


def _row_matrices(rows: np.ndarray, n: int) -> np.ndarray:
    """The (count, n, n) complex view of a row stack's entries e, read-only."""
    view = rows[:, :2 * n * n].view(complex).reshape(-1, n, n)
    view.setflags(write=False)
    return view


def _target_rows(rows: np.ndarray) -> np.ndarray:
    """Target rows [-2t, (1 + c)|T|^2, 1] from a stack's element rows."""
    out = np.empty_like(rows)
    np.multiply(rows[:, :-2], -2.0, out=out[:, :-2])
    out[:, -2] = rows[:, -1]
    out[:, -1] = 1.0
    return out


def _nearest(targets: np.ndarray, rows: np.ndarray,
             rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Index of and operator-norm distance to each target's nearest element.

    ``rows`` are the elements' ``_search_rows``, which hold the elements
    themselves (``_row_matrices``). Every difference has rank at
    most ``rank``, so ||D||_F / sqrt(rank) <= ||D|| <= ||D||_F: an element
    whose lo2 exceeds rank times the smallest up2 of its row (the bracket of
    ``_bracket_slack``) cannot be nearest. Only the survivors get an SVD of
    their explicit difference, and ties go to the first index, as with
    argmin. Targets run in blocks of at most ``_PAIR_BLOCK`` pairs; a
    block's survivors come from one flat scan of its row-major mask, and
    divmod by the element count splits each into (target, element).
    """
    t = _target_rows(_search_rows(targets))
    c = _bracket_slack(t.shape[1] - 2)
    elements = _row_matrices(rows, targets.shape[-1])
    # lo2 = up2 - 2c (|T|^2 + |E|^2) is at least up2 - 2c (|T|^2 + max |E|^2),
    # so comparing up2 with the widened limit keeps every pair whose lo2
    # passes, with no pass over the block beyond the GEMM and the min
    widen = (2.0 * c / (1.0 + c)) * (t[:, -2] + rows[:, -1].max(initial=0.0))
    idx = np.empty(len(t), dtype=np.intp)
    dist = np.empty(len(t))
    block = max(1, _PAIR_BLOCK // len(rows))
    for start in range(0, len(t), block):
        stop = min(start + block, len(t))
        up2 = t[start:stop] @ rows.T
        limit = rank * up2.min(axis=1) + widen[start:stop]
        hits, cols = np.divmod(np.flatnonzero(up2 <= limit[:, None]),
                               len(rows))
        norms = _opnorm_stack(targets[start + hits] - elements[cols])
        order = np.lexsort((cols, norms, hits))
        ranked = hits[order]
        first = order[np.r_[True, ranked[1:] != ranked[:-1]]]
        idx[start:stop] = cols[first]
        dist[start:stop] = norms[first]
    return idx, dist


def _greedy_packing(candidates: np.ndarray, rank: int, epsilon: float) -> int:
    """Size of the epsilon-packing grown greedily from a (count, n, n) stack.

    A candidate is kept unless a kept element lies within epsilon of it in
    operator norm, every difference having rank at most ``rank``. The
    bracket of ``_bracket_slack`` rejects on up2 <= epsilon^2 and accepts on
    lo2 > rank epsilon^2; only the pairs in between get an SVD, of their
    difference (kept element minus candidate, from ``_row_matrices``).

    Candidates run in order, in blocks of ``_PACK_BLOCK``. The block's rows
    go after the kept ones, and one GEMM of its target rows against both
    brackets every pair of (block candidate, kept element or earlier block
    candidate). A candidate with a sure conflict against a kept element is
    dead. Every undecided pair whose two sides are alive gets its SVD in one
    ``_opnorm_stack`` call. A scan in block order then keeps a live
    candidate unless it conflicts with a kept element or with a block
    predecessor the scan kept; a conflict with a rejected predecessor kills
    nothing, which is why only conflicts with kept elements make a
    candidate dead before the SVD. A GEMM sums in another order than a
    row-by-row product, so a pair may move between sure and undecided, but
    its verdict cannot flip: the slack bounds the rounding of any summation
    order, and an undecided pair gets the SVD of the same difference.
    """
    rows = _search_rows(candidates)
    targets = _target_rows(rows)
    c = _bracket_slack(rows.shape[1] - 2)
    # rows end in (1 + c)|E|^2, so 2c |E|^2 is this times the row's last entry
    shrink = 2.0 * c / (1.0 + c)
    pool = np.empty_like(rows)  # the kept rows, then the current block's
    elements = _row_matrices(pool, candidates.shape[-1])
    eps2 = epsilon * epsilon
    count = 0
    for start in range(0, len(rows), _PACK_BLOCK):
        block = slice(start, min(start + _PACK_BLOCK, len(rows)))
        size = block.stop - start
        width = count + size
        pool[count:width] = rows[block]
        up2 = targets[block] @ pool[:width].T
        lo2 = up2 - shrink * (targets[block, -2, None] + pool[:width, -1])
        conflict = up2 <= eps2  # the sure ones; SVD verdicts join below
        # column count + j is block candidate j: only j < i can block i
        earlier = np.tri(size, k=-1, dtype=bool)
        conflict[:, count:] &= earlier
        alive = ~conflict[:, :count].any(axis=1)
        doubtful = (lo2 <= rank * eps2) & ~conflict & alive[:, None]
        doubtful[:, count:] &= earlier & alive
        hits, cols = np.nonzero(doubtful)
        conflict[hits, cols] = _opnorm_stack(
            elements[cols] - candidates[start + hits]) <= epsilon
        keep = alive & ~conflict[:, :count].any(axis=1)
        inner = conflict[:, count:]
        for i in np.flatnonzero(keep & inner.any(axis=1)):
            keep[i] = not (inner[i] & keep).any()
        kept = np.flatnonzero(keep)
        pool[count:count + len(kept)] = rows[start + kept]
        count += len(kept)
    return count


def _norm_within(stack: np.ndarray, tol: float) -> np.ndarray:
    """Per-matrix verdicts ||A|| <= tol over a (..., n, n) stack.

    ||A|| <= ||A||_F, so a passing Frobenius test settles acceptance; only
    the matrices that fail it get an SVD. The verdict is the spectral one
    either way. Non-finite entries fail the first test and raise.
    """
    flat = stack.reshape(stack.shape[:-2] + (stack.shape[-2] * stack.shape[-1],))
    ok = np.asarray(np.sqrt(np.vecdot(flat, flat).real) <= tol)
    if ok.all():
        return ok
    doubtful = ~ok
    rest = stack[doubtful]
    if not np.all(np.isfinite(rest)):
        raise ValueError("matrix has non-finite entries")
    ok[doubtful] = _opnorm_stack(rest) <= tol
    return ok


class UnitaryMatrix:
    """A square complex matrix validated against ||U^dag U - 1|| <= 1e-10."""

    __slots__ = ("array",)

    def __init__(self, array, *, _validated: bool = False):
        arr = np.array(_as_square_array(array, "unitary"), order="C")
        if not _validated:
            _check_unitary(arr[None])
        arr.setflags(write=False)
        self.array = arr

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


def _frobenius_defects(chunk: np.ndarray) -> np.ndarray:
    """||U^dag U - 1||_F for each of a (count, m, n) stack, n <= m <= 2.

    Real arithmetic on the [re, im] view: each column's parts down its rows
    become one contiguous (2m, count) block, and the Gram entries g00, g11
    and g01 = Re + i Im are sums of products of its rows.
    """
    count, m, n = chunk.shape
    parts = np.ascontiguousarray(chunk).view(float).reshape(count, m, n, 2)
    cols = parts.transpose(2, 1, 3, 0).reshape(n, 2 * m, count)
    a = cols[0]
    g00 = (a * a).sum(axis=0) - 1.0
    sq = g00 * g00
    if n == 2:
        b = cols[1]
        g11 = (b * b).sum(axis=0) - 1.0
        re = (a * b).sum(axis=0)
        im = (a[0::2] * b[1::2] - a[1::2] * b[0::2]).sum(axis=0)
        sq += g11 * g11 + 2.0 * (re * re + im * im)
    return np.sqrt(sq)


def _check_unitary(stack: np.ndarray) -> None:
    """Refuse a (..., m, n) stack, m >= n, unless each matrix has orthonormal columns.

    The error names the first failing matrix's defect ||U^dag U - 1|| > 1e-10.
    ``_norm_within`` refuses a non-finite Gram matrix; the error then names
    a non-finite entry if the chunk has one, and otherwise a defect that
    overflows (a finite input such as 1e200 times a unitary), with numpy's
    overflow warnings silenced. Chunks of ``_GRAM_BLOCK`` Gram entries keep
    the memory flat. At m <= 2 a chunk of 32 or more first takes the
    Frobenius test in real arithmetic (``_frobenius_defects``; one BLAS
    thread, 8192 U(2): 0.20 ms, against 1.1 ms for a complex outer-product
    Gram sum and its test and 2.6 ms by matmul), and only its doubtful
    matrices form the complex Gram matrix, for the spectral verdict and
    the error. Otherwise one batched matmul forms every Gram matrix
    (64 x 64: 0.06 against 1.2 ms by outer products).
    """
    m, n = stack.shape[-2:]
    flat = stack.reshape((math.prod(stack.shape[:-2]), m, n))
    step = max(1, _GRAM_BLOCK // max(1, n * n))
    for start in range(0, len(flat), step):
        chunk = flat[start:start + step]
        with np.errstate(over="ignore", invalid="ignore"):
            if 0 < n <= m <= 2 and len(chunk) >= 32:
                chunk = chunk[~(_frobenius_defects(chunk) <= UNITARY_TOL)]
                if not len(chunk):
                    continue
            gram = np.conj(chunk).swapaxes(-1, -2) @ chunk
            gram -= np.eye(n)
            try:
                ok = _norm_within(gram, UNITARY_TOL)
            except ValueError:
                if np.isfinite(chunk).all():
                    raise ValueError(
                        "matrix is not unitary (defect overflows)") from None
                raise
        if not ok.all():
            worst = float(_opnorm_stack(gram[~ok][0]))
            raise ValueError(f"matrix is not unitary (defect {worst:.3e})")


class SkewHermitian:
    """A square complex matrix validated against ||X + X^dag|| <= 1e-12."""

    __slots__ = ("array",)

    def __init__(self, array, *, _validated: bool = False):
        arr = np.array(_as_square_array(array, "skew-Hermitian matrix"), order="C")
        if not _validated:
            defect = arr + arr.conj().T
            if not _norm_within(defect, SKEW_TOL):
                raise ValueError("matrix is not skew-Hermitian "
                                 f"(defect {operator_norm(defect):.3e})")
        arr.setflags(write=False)
        self.array = arr

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __repr__(self) -> str:
        return f"SkewHermitian(dim={self.dim})"


def _require_hermitian(o, name: str = "observable", *,
                       as_given: bool = False) -> np.ndarray:
    """Refuse a matrix unless ||O - O^dag|| <= 1e-10; return its Hermitian part.

    Above ``_EIGH_MIN_DIM`` a matrix equal to its conjugate transpose is
    settled by that one equality test: its defect is exactly 0, so the
    verdict is the same. With ``as_given`` such a matrix comes back as it
    is, without the copy; it equals its Hermitian part in every entry, and
    bit for bit except in the sign of a zero and in subnormal entries,
    which halving rounds. At n = 256 (one BLAS thread, 2-core Xeon, min of
    15 x 50 calls, in two timing runs) the equality test took 0.29-0.36 ms,
    the defect's Frobenius test 0.40-1.04 ms and the copy 0.52-0.98 ms.
    Every other matrix, and every matrix up to dimension 64, takes the
    defect test and comes back as a new array, ``_hermitian_part``.
    """
    arr = _as_square_array(o, name)
    if arr.shape[0] > _EIGH_MIN_DIM and np.array_equal(arr, arr.conj().T):
        return arr if as_given else _hermitian_part(arr)
    if not _norm_within(arr - arr.conj().T, HERMITIAN_TOL):
        raise ValueError("matrix is not Hermitian within 1e-10")
    return _hermitian_part(arr)


def _hermitian_part(x: np.ndarray) -> np.ndarray:
    """X / 2 + X^dag / 2 over the last two axes of a (..., n, n) stack.

    Exactly Hermitian in IEEE arithmetic: entries (i, j) and (j, i) add the
    same two real parts and opposite imaginary parts. Each operand is halved
    before the sum, so a finite input gives a finite result; (X + X^dag) / 2
    overflows at entries near 1e308. Where the entries and their half-sums
    are normal floats, halving is exact and commutes with the rounding of
    the sum, so the result is bit for bit (X + X^dag) / 2. The result is
    C-contiguous: numpy lays a plain sum of x and its transpose out in
    Fortran order from n = 128 on, and that sum took 231 against 65 us at
    n = 128.
    """
    half = np.multiply(x, 0.5)
    h = np.conjugate(half.swapaxes(-1, -2), order="C")
    h += half
    return h


def spectral_width(o) -> float:
    """Half the spread of the spectrum of a Hermitian matrix."""
    eigenvalues = np.linalg.eigvalsh(_require_hermitian(o))
    if eigenvalues.size == 0:
        raise ValueError("empty spectrum has no width")
    # halved before the difference, which overflows near 1e308
    return float(0.5 * eigenvalues[-1] - 0.5 * eigenvalues[0])


def matrix_exp(x) -> np.ndarray:
    """Matrix exponential; skew-Hermitian input takes an exactly-unitary path.

    For X with ||X + X^dag|| <= 1e-12 the result is assembled from the
    eigendecomposition of the Hermitian matrix -iX, so it passes the
    UnitaryMatrix invariant. Other inputs go through scipy's expm.
    """
    if isinstance(x, SkewHermitian):
        arr = x.array
    else:
        arr = _as_square_array(x)
        if not _norm_within(arr + arr.conj().T, SKEW_TOL):
            return scipy.linalg.expm(arr)
    return _exp_skew_stack(arr[None])[0]


def _exp_skew_stack(stack: np.ndarray) -> np.ndarray:
    """Exponentials of a (..., n, n) stack of skew-Hermitian matrices."""
    w, v = np.linalg.eigh(_hermitian_part(-1j * stack))
    return (v * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def _exp_skew_series(stack: np.ndarray) -> np.ndarray:
    """Exponentials of a (k, n, n) stack of skew-Hermitian matrices of small norm.

    theta, the stack's largest 1-norm, bounds every matrix's operator norm,
    since a skew-Hermitian matrix has equal 1- and infinity-norms. The
    degree-m Taylor polynomial is then off by at most theta^(m+1) / (m+1)!
    * e^theta <= 2^-53 for the smallest m with theta <= _TAYLOR_THETA[m - 1].
    Above the table the stack goes to ``_exp_skew_stack``. The polynomial is
    evaluated by Paterson-Stockmeyer: powers up to X^q, one real GEMM for
    the blocks of q coefficients, and a Horner pass in X^q, about 2 sqrt(m)
    stacked matrix products in all. The result is unitary to rounding. One
    degree serves the whole stack, so a matrix's result depends on the
    others in its stack; callers that need it alone use ``_exp_skew_stack``.
    """
    theta = float(np.abs(stack).sum(axis=-2).max(initial=0.0))
    if theta > _TAYLOR_THETA[-1]:
        return _exp_skew_stack(stack)
    degree = bisect.bisect_left(_TAYLOR_THETA, theta) + 1
    q = math.isqrt(degree - 1) + 1
    blocks = degree // q + 1
    powers = np.empty((q + 1,) + stack.shape, dtype=complex)
    powers[0] = np.eye(stack.shape[-1])
    powers[1] = stack
    for i in range(2, q + 1):
        np.matmul(powers[i - 1], stack, out=powers[i])
    coeffs = np.zeros(blocks * q)
    coeffs[:degree + 1] = _INV_FACTORIAL[:degree + 1]
    # Block j is sum_i coeffs[j q + i] X^i over i < q: real coefficients
    # times the [re, im] rows of I, X, ..., X^(q-1).
    flat = powers[:q].reshape(q, -1).view(float)
    b = (coeffs.reshape(blocks, q) @ flat).view(complex).reshape(
        (blocks,) + stack.shape)
    result = b[-1]
    for j in range(blocks - 2, -1, -1):
        result = powers[q] @ result
        result += b[j]
    return result


def haar_unitary(n: int, seed: int) -> UnitaryMatrix:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix."""
    return UnitaryMatrix(_haar_from_seeds(n, [seed])[0], _validated=True)


def _haar_from_seeds(n: int, seeds) -> np.ndarray:
    """(len(seeds), n, n) stack of the matrices ``haar_unitary(n, seed)``."""
    g = np.empty((len(seeds), 2, n, n))
    for row, seed in zip(g, seeds):
        np.random.default_rng(int(seed)).standard_normal(out=row)
    return _haar_qr(g[:, 0], g[:, 1])


def _haar_qr(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """Haar unitaries from the real and imaginary parts of Gaussian stacks.

    QR of the complex Ginibre matrices (re + i im) / sqrt(2), then each
    column of Q times the phase of R's diagonal entry, which makes the
    distribution exactly Haar (Mezzadri, Notices AMS 54, 2007). A
    (count, 2, n, n) draw split as ``[:, 0], [:, 1]`` takes each matrix's
    real and imaginary parts in turn (``haar_unitary``, the packings); a
    (2, count, n, n) draw split as ``[0], [1]`` takes every real part first
    (the covering check).
    """
    z = re + 1j * im
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    phases = diag / np.abs(diag)
    return q * phases[..., None, :]


def random_skew_in_ball(n: int, radius: float, seed: int) -> SkewHermitian:
    """Random skew-Hermitian matrix with operator norm in (0, radius].

    Antihermitizes a complex Gaussian matrix, then rescales to u * radius
    where u is uniform on (0, 1].
    """
    return SkewHermitian(_skew_ball_stack(n, radius, [seed])[0],
                         _validated=True)


def _skew_ball_stack(n: int, radius, seeds) -> np.ndarray:
    """(len(seeds), n, n) stack of ``random_skew_in_ball`` draws, one per seed.

    ``radius`` is one value or one per seed. Each seed gets its own
    generator, which draws the real normals, the imaginary normals, then one
    uniform; all the norms come from one SVD call.
    """
    radius = np.broadcast_to(np.asarray(radius, dtype=float), (len(seeds),))
    if not np.all(radius > 0):
        raise ValueError("radius must be positive")
    g = np.empty((len(seeds), 2, n, n))
    u = np.empty(len(seeds))
    for i, seed in enumerate(seeds):
        rng = np.random.default_rng(int(seed))
        rng.standard_normal(out=g[i])
        u[i] = rng.random()
    g = g[:, 0] + 1j * g[:, 1]
    x = 0.5 * (g - np.conj(np.swapaxes(g, -1, -2)))
    norm = _opnorm_stack(x)
    norm[norm == 0.0] = 1.0
    u = 1.0 - u  # uniform on (0, 1]
    return x * (u * radius / norm)[:, None, None]


def skew_basis(n: int) -> np.ndarray:
    """Orthonormal basis of u(n) as an (n^2, n, n) stack.

    Orthonormal under the real inner product Re tr(A^dag B): the n matrices
    i E_kk, and for k < l the pairs (E_kl - E_lk)/sqrt(2) and
    i (E_kl + E_lk)/sqrt(2).
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    basis = np.zeros((n * n, n, n), dtype=complex)
    idx = 0
    for k in range(n):
        basis[idx, k, k] = 1j
        idx += 1
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for k in range(n):
        for l in range(k + 1, n):
            basis[idx, k, l] = inv_sqrt2
            basis[idx, l, k] = -inv_sqrt2
            idx += 1
            basis[idx, k, l] = 1j * inv_sqrt2
            basis[idx, l, k] = 1j * inv_sqrt2
            idx += 1
    return basis


def principal_log(u) -> SkewHermitian:
    """Principal logarithm of a unitary: skew-Hermitian X, ||X|| <= pi, e^X = U."""
    arr = u.array if isinstance(u, UnitaryMatrix) else UnitaryMatrix(u).array
    return SkewHermitian(_log_unitary_stack(arr[None])[0], _validated=True)


def _log_unitary_stack(stack: np.ndarray) -> np.ndarray:
    """``principal_log`` over a (count, n, n) stack, by one batched Schur call."""
    if not len(stack):  # scipy's batched schur refuses a zero-size batch
        return np.zeros(stack.shape, dtype=complex)
    # The complex Schur form of a unitary is diagonal; np.angle takes its
    # eigenphases in (-pi, pi], with angle(-1) = +pi.
    t, z = scipy.linalg.schur(stack, output="complex")
    theta = np.angle(np.diagonal(t, axis1=-2, axis2=-1))
    x = (z * (1j * theta)[:, None, :]) @ np.conj(np.swapaxes(z, -1, -2))
    return 0.5 * (x - np.conj(np.swapaxes(x, -1, -2)))


def check_exp_lipschitz(x, y) -> tuple[float, float, float]:
    """Two-sided comparison of exp-map distortion for skew-Hermitian X, Y.

    Returns (lower, mid, upper) where mid = ||exp(X) - exp(Y)||,
    upper = ||X - Y||, and lower = (2 - e^r) ||X - Y|| with
    r = max(||X||, ||Y||). mid <= upper always holds; lower <= mid holds
    whenever r is small enough that 2 - e^r is a valid contraction factor
    (lower is clamped at 0 when 2 - e^r < 0).
    """
    xa = x.array if isinstance(x, SkewHermitian) else SkewHermitian(x).array
    ya = y.array if isinstance(y, SkewHermitian) else SkewHermitian(y).array
    if xa.shape != ya.shape:
        raise ValueError("matrices must have matching dimensions")
    lower, mid, upper = _exp_lipschitz_stack(xa[None], ya[None])
    return (float(lower[0]), float(mid[0]), float(upper[0]))


def _exp_lipschitz_stack(xs: np.ndarray, ys: np.ndarray
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """check_exp_lipschitz over (k, n, n) stacks of validated skew pairs.

    Returns the (lower, mid, upper) arrays, one entry per pair, from one
    exponential call and one SVD call.
    """
    ex, ey = _exp_skew_stack(np.stack([xs, ys]))
    diff, mid, rx, ry = _opnorm_stack(np.stack([xs - ys, ex - ey, xs, ys]))
    factor = np.maximum(2.0 - np.exp(np.maximum(rx, ry)), 0.0)
    return factor * diff, mid, diff
