"""Independent reference computations for the benchmark's output checks.

Everything here is plain numpy written from the documented mathematics, not
from dynnets' kernels, so that a check compares two different computations.
None of it runs inside a timed region.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

EPS = np.finfo(float).eps

# Relative tolerance for floats that the program and the reference compute
# by different routes with the same exact value (rounding-level agreement).
REL_TOL = 1e-9
# Absolute tolerance for a Trotter certificate's measured error. The
# reference integrator below agrees with a tol=1e-12 exact propagator to
# 5e-12 on these chains; a closed-form Trotter rewrite moves the value by
# about 6e-13.
MEASURED_ATOL = 1e-9
# The reference integrator keeps max(||H||, envelope frequency) * step below this.
_REF_STEP = 0.1

_SQRT3 = math.sqrt(3.0)


def close(a: float, b: float, rel: float = REL_TOL, atol: float = 1e-12) -> bool:
    return abs(float(a) - float(b)) <= atol + rel * max(abs(float(a)), abs(float(b)))


def opnorm(a: np.ndarray) -> np.ndarray:
    """Largest singular value by LAPACK SVD, over the last two axes."""
    return np.linalg.svd(a, compute_uv=False)[..., 0]


def norm_allowance(n: int, reference: float) -> float:
    """How far a correct norm may sit below the SVD reference.

    LAPACK bounds the error of each computed singular value by
    p(n) * eps * ||A|| with p(n) of order n. The program's value and the
    reference each carry up to that error, so two correct results can differ
    by 2 * n * eps * ||A||.
    """
    return 2.0 * n * EPS * reference


def haar_stack(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """(count, n, n) Haar unitaries: QR of a complex Ginibre stack, phase-fixed.

    Draws the real parts, then the imaginary parts, from ``rng`` in that
    order, which is the documented sampling order of dynnets' Haar samplers.
    """
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("...ii->...i", r)
    return q * (diag / np.abs(diag))[..., None, :]


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    """Hermitian part of a complex Gaussian matrix, scaled to norm 1."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = 0.5 * (g + g.conj().T)
    return h / opnorm(h)


def hermitian_with_spectrum(rng: np.random.Generator, eigenvalues) -> np.ndarray:
    """V diag(eigenvalues) V^dag with Haar-random V."""
    v = haar_stack(rng, len(eigenvalues), 1)[0]
    return (v * np.asarray(eigenvalues, dtype=float)) @ v.conj().T


# --- unitary nets and packings --------------------------------------------

def _fro_distances(targets: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """(S, N) Frobenius distances from one inner-product GEMM."""
    t2 = np.sum(np.abs(targets) ** 2, axis=(-2, -1))
    e2 = np.sum(np.abs(elements) ** 2, axis=(-2, -1))
    inner = np.real(np.einsum("sij,eij->se", targets.conj(), elements))
    return np.sqrt(np.maximum(t2[:, None] + e2[None, :] - 2.0 * inner, 0.0))


def _min_distance(target: np.ndarray, elements: np.ndarray, fro: np.ndarray) -> float:
    """Exact min of ||target - e||, by SVD only where ||D||_F allows it.

    ||D||_F / sqrt(rank) <= ||D|| <= ||D||_F, so elements whose Frobenius
    lower bound exceeds an exact distance already found cannot be nearer.
    """
    n = target.shape[-1]
    first = np.argsort(fro)[:4]
    best = float(opnorm(target - elements[first]).min())
    rest = np.nonzero(fro <= math.sqrt(n) * best * (1.0 + 1e-9))[0]
    if rest.size:
        best = min(best, float(opnorm(target - elements[rest]).min()))
    return best


def nearest_distances(targets: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Min over elements of ||t - e|| for each target."""
    out = np.empty(targets.shape[0])
    chunk = max(1, 2_000_000 // max(elements.shape[0], 1))
    for s in range(0, targets.shape[0], chunk):
        fro = _fro_distances(targets[s:s + chunk], elements)
        for k in range(fro.shape[0]):
            out[s + k] = _min_distance(targets[s + k], elements, fro[k])
    return out


def covering_max_gap(net_matrices: np.ndarray, samples: int, seed: int) -> float:
    """Largest distance from seeded Haar samples (batches of 2048) to the net."""
    rng = np.random.default_rng(seed)
    n = net_matrices.shape[-1]
    gap = 0.0
    remaining = samples
    while remaining > 0:
        batch = min(remaining, 2048)
        gap = max(gap, float(nearest_distances(haar_stack(rng, n, batch),
                                               net_matrices).max()))
        remaining -= batch
    return gap


def _greedy_packing(candidates, epsilon: float) -> int:
    """Size of the greedy packing: keep a candidate farther than epsilon from all kept."""
    stack = None
    count = 0
    for x in candidates:
        if count:
            kept = stack[:count]
            if _min_distance(x, kept, _fro_distances(x[None], kept)[0]) <= epsilon:
                continue
        else:
            stack = np.empty((len(candidates),) + x.shape, dtype=complex)
        stack[count] = x
        count += 1
    return count


def unitary_packing_count(n: int, epsilon: float, trials: int, seed: int) -> int:
    """Greedy epsilon-packing from one Haar sample per trial."""
    rng = np.random.default_rng(seed)
    return _greedy_packing([haar_stack(rng, n, 1)[0] for _ in range(trials)], epsilon)


def grassmann_packing_count(n: int, m: int, epsilon: float, trials: int,
                            seed: int) -> int:
    """Greedy epsilon-packing of rank-n projectors from Haar columns."""
    rng = np.random.default_rng(seed)
    bases = [haar_stack(rng, m, 1)[0][:, :n] for _ in range(trials)]
    return _greedy_packing([b @ b.conj().T for b in bases], epsilon)


# --- finite metric spaces ---------------------------------------------------

def exhaustive_covering_number(dist: np.ndarray, epsilon: float) -> int:
    """Fewest closed epsilon-balls (slack 1e-12) covering all points."""
    n = dist.shape[0]
    balls = [sum(1 << i for i in range(n) if dist[i, j] <= epsilon + 1e-12)
             for j in range(n)]
    full = (1 << n) - 1
    for k in range(1, n + 1):
        for combo in itertools.combinations(balls, k):
            acc = 0
            for b in combo:
                acc |= b
            if acc == full:
                return k
    return n


def exhaustive_packing_number(dist: np.ndarray, epsilon: float) -> int:
    """Largest subset with all pairwise distances strictly above epsilon."""
    n = dist.shape[0]
    best = 1
    for k in range(2, n + 1):
        found = False
        for combo in itertools.combinations(range(n), k):
            if all(dist[a, b] > epsilon for a, b in itertools.combinations(combo, 2)):
                found = True
                break
        if not found:
            break
        best = k
    return best


# --- crossover -------------------------------------------------------------

def projector_lower_log(n: int, m: int, epsilon: float) -> float:
    return (-(m * m) * math.log(19.0)
            + 2.0 * n * (m - n) * math.log(9.0 / (5.0 * epsilon)))


def circuit_log_bound(d: int, k: int, L: int, gates: int, epsilon: float) -> float:
    return (k * gates * math.log(L)
            + d ** (2 * k) * gates * math.log(14.0 * gates / epsilon))


def evolution_log_bound(L: int, d: int, k: int, K: int, z: int, h: float,
                        t: float, epsilon: float) -> float:
    scale = t * t * K * K * z * h * h
    return (k * K * math.log(L)
            + 4.0 * d ** (2 * k) * scale / epsilon
            * math.log(112.0 * scale / epsilon ** 2))


# --- Trotter ---------------------------------------------------------------

def envelope_value(env: dict, t: float) -> float:
    kind = env["kind"]
    if kind == "constant":
        return env["value"]
    if kind == "cosine":
        return env["amplitude"] * math.cos(env["omega"] * t + env["phase"])
    return float(np.interp(t, env["times"], env["values"]))


def envelope_integral(env: dict, t0: float, t1: float) -> float:
    kind = env["kind"]
    if kind == "constant":
        return env["value"] * (t1 - t0)
    if kind == "cosine":
        a, w, p = env["amplitude"], env["omega"], env["phase"]
        return a / w * (math.sin(w * t1 + p) - math.sin(w * t0 + p))
    ts = [t0] + [t for t in env["times"] if t0 < t < t1] + [t1]
    vs = np.interp(ts, env["times"], env["values"])
    return float(np.sum(0.5 * (vs[1:] + vs[:-1]) * np.diff(ts)))


def envelope_sup(env: dict, t_final: float) -> float:
    kind = env["kind"]
    if kind == "constant":
        return abs(env["value"])
    if kind == "cosine":
        a, w, p = env["amplitude"], env["omega"], env["phase"]
        lo, hi = sorted((p, w * t_final + p))
        if math.floor(hi / math.pi) * math.pi >= lo:
            return abs(a)
        return abs(a) * max(abs(math.cos(lo)), abs(math.cos(hi)))
    ts = [0.0, t_final] + [t for t in env["times"] if 0.0 < t < t_final]
    return float(np.max(np.abs(np.interp(ts, env["times"], env["values"]))))


def _embed(local: np.ndarray, support: tuple[int, ...], L: int) -> np.ndarray:
    """Operator on a contiguous qubit support, tensored with identities."""
    lo = support[0]
    return np.kron(np.kron(np.eye(2 ** lo), local),
                   np.eye(2 ** (L - lo - len(support))))


def _exp_hermitian(h: np.ndarray, tau: float) -> np.ndarray:
    """exp(-i tau H) for Hermitian H."""
    w, v = np.linalg.eigh(0.5 * (h + h.conj().T))
    return (v * np.exp(-1j * tau * w)) @ v.conj().T


def _cf4(hfun, a: float, b: float, steps: int, dim: int) -> np.ndarray:
    """Fixed-step fourth-order commutator-free propagator over [a, b]."""
    h = (b - a) / steps
    c1, c2 = 0.5 - _SQRT3 / 6.0, 0.5 + _SQRT3 / 6.0
    w1, w2 = 0.25 + _SQRT3 / 6.0, 0.25 - _SQRT3 / 6.0
    u = np.eye(dim, dtype=complex)
    for i in range(steps):
        t = a + i * h
        h1, h2 = hfun(t + c1 * h), hfun(t + c2 * h)
        u = _exp_hermitian(w2 * h1 + w1 * h2, h) @ _exp_hermitian(w1 * h1 + w2 * h2, h) @ u
    return u


def chain_propagators(chain: dict, t_final: float, n_steps: int):
    """Reference (exact, Trotter) propagators of a qubit chain.

    The exact propagator is a fixed-step fourth-order integrator with one
    Richardson extrapolation, cut at envelope breakpoints. The Trotter
    propagator uses the closed form exp(-i B * integral of e) for each
    single-term slice, which is exact because such a term commutes with
    itself at all times.
    """
    L = chain["L"]
    dim = 2 ** L
    terms = chain["terms"]
    bases = np.array([_embed(t["base"], t["support"], L) for t in terms])
    envs = [t["envelope"] for t in terms]

    def hfun(t: float) -> np.ndarray:
        weights = np.array([envelope_value(e, t) for e in envs])
        return np.tensordot(weights, bases, axes=(0, 0))

    # Steps resolve both the size of H and how fast the envelopes turn.
    rate = max([1.0, sum(envelope_sup(e, t_final) * opnorm(t["base"])
                         for e, t in zip(envs, terms))]
               + [abs(e["omega"]) for e in envs if e["kind"] == "cosine"])
    knots = sorted({float(x) for e in envs if e["kind"] == "pwl"
                    for x in e["times"] if 0.0 < x < t_final})
    cuts = [0.0] + knots + [t_final]
    exact = np.eye(dim, dtype=complex)
    for a, b in zip(cuts, cuts[1:]):
        steps = max(1, math.ceil((b - a) * rate / _REF_STEP))
        coarse = _cf4(hfun, a, b, steps, dim)
        fine = _cf4(hfun, a, b, 2 * steps, dim)
        exact = (fine + (fine - coarse) / 15.0) @ exact

    eig = [np.linalg.eigh(t["base"]) for t in terms]
    trotter = np.eye(dim, dtype=complex)
    delta = t_final / n_steps
    for step in range(n_steps):
        t0, t1 = step * delta, (step + 1) * delta
        for term, (w, v) in zip(terms, eig):
            phase = envelope_integral(term["envelope"], t0, t1)
            local = (v * np.exp(-1j * phase * w)) @ v.conj().T
            trotter = _embed(local, term["support"], L) @ trotter
    return exact, trotter


def commutation_degree(supports) -> int:
    sets = [set(s) for s in supports]
    return max(sum(1 for o in sets if s & o) for s in sets)
