"""Dense complex linear algebra kernels.

Operator norms, skew-Hermitian exponentials, Haar-random unitaries, principal
logarithms, and the two-sided Lipschitz comparison for the exponential map.
Everything here is deterministic for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

UNITARY_TOL = 1e-10
SKEW_TOL = 1e-12
HERMITIAN_TOL = 1e-10

def _as_square_array(a, name: str = "matrix") -> np.ndarray:
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be a square 2-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def operator_norm(a) -> float:
    """Largest singular value of a square complex matrix.

    A full LAPACK SVD at every size: it agrees with the true norm to rounding,
    which keeps every norm-based bound safe, and dense dimensions in this
    package stay within the 4096 register cap.
    """
    return float(_opnorm_stack(_as_square_array(a)))


def _opnorm_stack(stack: np.ndarray) -> np.ndarray:
    """Operator norms over the last two axes of a (..., n, n) stack."""
    if stack.shape[-1] == 0:
        return np.zeros(stack.shape[:-2])
    return np.linalg.svd(stack, compute_uv=False)[..., 0]


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
            defect = arr.conj().T @ arr - np.eye(arr.shape[0])
            if not _norm_within(defect, UNITARY_TOL):
                raise ValueError("matrix is not unitary "
                                 f"(defect {operator_norm(defect):.3e})")
        arr.setflags(write=False)
        self.array = arr

    @property
    def dim(self) -> int:
        return self.array.shape[0]

    def __repr__(self) -> str:
        return f"UnitaryMatrix(dim={self.dim})"


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


@dataclass(frozen=True)
class Spectrum:
    """Real eigenvalues of a Hermitian matrix, sorted ascending."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.eigenvalues)
        if any(vals[i] > vals[i + 1] for i in range(len(vals) - 1)):
            raise ValueError("eigenvalues must be sorted ascending")
        object.__setattr__(self, "eigenvalues", vals)

    @classmethod
    def from_hermitian(cls, o) -> "Spectrum":
        arr = _require_hermitian(o)
        return cls(tuple(np.linalg.eigvalsh(arr)))

    @property
    def width(self) -> float:
        if not self.eigenvalues:
            raise ValueError("empty spectrum has no width")
        return 0.5 * (self.eigenvalues[-1] - self.eigenvalues[0])


def _require_hermitian(o) -> np.ndarray:
    arr = _as_square_array(o, "observable")
    if not _norm_within(arr - arr.conj().T, HERMITIAN_TOL):
        raise ValueError("matrix is not Hermitian within 1e-10")
    return 0.5 * (arr + arr.conj().T)


def spectral_width(o) -> float:
    """Half the spread of the spectrum of a Hermitian matrix."""
    return Spectrum.from_hermitian(o).width


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
    h = -1j * stack
    h = 0.5 * (h + np.conj(np.swapaxes(h, -1, -2)))
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)[..., None, :]) @ np.conj(np.swapaxes(v, -1, -2))


def haar_unitary(n: int, seed: int) -> UnitaryMatrix:
    """Haar-distributed random unitary via QR of a complex Ginibre matrix."""
    rng = np.random.default_rng(seed)
    return UnitaryMatrix(_haar_batch(n, 1, rng)[0], _validated=True)


def _haar_batch(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """(count, n, n) stack of independent Haar unitaries."""
    z = (rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n)))
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
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    return SkewHermitian(_skew_ball_batch(n, radius, 1, rng)[0], _validated=True)


def _skew_ball_batch(n: int, radius: float, count: int,
                     rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    x = 0.5 * (g - np.conj(np.swapaxes(g, -1, -2)))
    norms = _opnorm_stack(x)
    norms[norms == 0.0] = 1.0
    u = 1.0 - rng.random(count)  # uniform on (0, 1]
    return x * (u * radius / norms)[:, None, None]


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
    """Principal logarithm of a unitary: skew-Hermitian X with exp(X) = U.

    Eigenphases are taken in (-pi, pi], so ||X|| <= pi always. Computed from
    the complex Schur form, which is diagonal for a unitary matrix.
    """
    arr = u.array if isinstance(u, UnitaryMatrix) else UnitaryMatrix(u).array
    t, z = scipy.linalg.schur(arr, output="complex")
    diag = np.diagonal(t)
    # np.angle maps to (-pi, pi] with angle(-1) = +pi, as required.
    theta = np.angle(diag)
    x = (z * (1j * theta)) @ z.conj().T
    x = 0.5 * (x - x.conj().T)
    return SkewHermitian(x, _validated=True)


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
