"""Time-dependent lattice Hamiltonians and certified Trotterization.

The exact propagator sweeps steps of the sixth-order Magnus integrator with
three Gauss nodes (one exponential per step, whose exponent takes three
commutators; Blanes, Casas, Oteo and Ros, Phys. Rep. 470, 2009), on one
step grid whose pieces end at every envelope breakpoint, so that no step
crosses a kink. Each step-doubling round makes one stacked sweep over that
grid and the grid with every piece's count doubled, one norm of their
difference, and Richardson extrapolation once it is within budget; else
every count grows by the factor its sixth-order decay predicts. A sweep
evaluates each envelope once on all its nodes, takes each chunk's alphas
from one real GEMM onto the bases, and makes its exponentials in stacked
calls; the exponents are small in norm, so each call is a truncated Taylor
series whose degree, chosen from the stack's 1-norm, keeps the truncation
under 2^-53 (the eigendecomposition above the table). A pairwise tree
multiplies each sweep's steps in time order. Each factor is unitary to
rounding, so unitarity drifts by rounding per step, far below the requested
tolerance. Each Trotter factor is a single term, which commutes with itself
at all times, so it is the closed-form exponential of the term's base times
its envelope integral, from one eigendecomposition of the base per
propagator. One vectorized ``integrals`` call per term gives its thetas
over every slice; per chunk of slices, one product per term makes its
factors, one stacked gate application puts them on every slice, and the
same pairwise tree multiplies the slices. The first-order Trotter error is
certified against delta_t * T * K * z * |h|^2, where z counts support
overlaps (a term overlaps itself) and |h| is the largest sup-norm of a term
over [0, T].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .circuits import (QuditRegister, _apply_gate, _check_on_register,
                       _checked_support, _encode_matrix, _integer, _parse_json)
from .linalg import (
    UnitaryMatrix,
    _exp_skew_series,
    _opnorm_stack,
    _require_hermitian,
    operator_norm,
)
from .logdomain import EpsilonTooSmall, LogBound, finite_log, int_power

_SQRT15 = math.sqrt(15.0)
# A Magnus step's Gauss nodes, as fractions of the step.
_GAUSS_NODES = (0.5 - _SQRT15 / 10.0, 0.5, 0.5 + _SQRT15 / 10.0)
# Row i gives alpha_(i+1) / (-i h) from the Hamiltonian at the three nodes.
_NODE_MIX = np.array([[0.0, 1.0, 0.0],
                      [-_SQRT15 / 3.0, 0.0, _SQRT15 / 3.0],
                      [10.0 / 3.0, -20.0 / 3.0, 10.0 / 3.0]])
_MIN_TOL = 1e-12
# Matrix entries per chunk of a sweep's node matrices (three per step, so its
# exponents hold a third as many) and of the Trotter slices; 2^14 per
# exponent stack added 2 MB to the trotter workload's peak RSS at the same
# speed.
_SWEEP_ENTRIES = 1 << 14
# Steps allowed in one fine grid; criterion 1's chains take at most a few
# hundred, so a run past this is a broken integrator.
_MAX_STEPS = 1 << 17
_EXACT_DIM_LIMIT = 64


class CosineEnvelope:
    """Envelope e(t) = amplitude * cos(omega t + phase)."""

    kind = "cosine"

    def __init__(self, amplitude: float, omega: float, phase: float = 0.0):
        self.amplitude = float(amplitude)
        self.omega = float(omega)
        self.phase = float(phase)
        if not all(map(math.isfinite, (self.amplitude, self.omega, self.phase))):
            raise ValueError("envelope parameters must be finite")

    def __call__(self, t):
        return self.amplitude * np.cos(self.omega * np.asarray(t, dtype=float)
                                       + self.phase)

    def sup_abs(self, t0: float, t1: float) -> float:
        # |cos| attains 1 at integer multiples of pi; otherwise the sup over
        # an interval is at one of its endpoints.
        lo, hi = sorted((self.omega * t0 + self.phase,
                         self.omega * t1 + self.phase))
        k = math.ceil(lo / math.pi - 1e-12)
        if k * math.pi <= hi + 1e-12:
            return abs(self.amplitude)
        return abs(self.amplitude) * max(abs(math.cos(lo)), abs(math.cos(hi)))

    def integral(self, t0: float, t1: float) -> float:
        return float(self.integrals(np.array([t0, t1]))[0])

    def integrals(self, edges) -> np.ndarray:
        """Integrals over [edges[i], edges[i + 1]] for every i."""
        # a / omega * (sin(b) - sin(a)) in product form, with the 1 / omega
        # folded into sin(x) / x: nothing cancels for short windows, and
        # omega = 0 (or so small that a / omega overflows) needs no division.
        t = np.asarray(edges, dtype=float)
        t0, t1 = t[:-1], t[1:]
        x = 0.5 * self.omega * (t1 - t0)
        sinc = np.ones_like(x)
        np.divide(np.sin(x), x, out=sinc, where=x != 0.0)
        mid = 0.5 * self.omega * (t0 + t1) + self.phase
        return self.amplitude * (t1 - t0) * np.cos(mid) * sinc

    def breakpoints(self) -> tuple[float, ...]:
        return ()

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "amplitude": self.amplitude,
                "omega": self.omega, "phase": self.phase}


class ConstantEnvelope(CosineEnvelope):
    """Envelope e(t) = value: a cosine of frequency and phase 0, on which
    cos 0 = 1 and the sinc's x == 0 branch make every method exact."""

    kind = "constant"

    def __init__(self, value: float):
        if not math.isfinite(float(value)):
            raise ValueError("envelope value must be finite")
        super().__init__(value, 0.0)

    @property
    def value(self) -> float:
        return self.amplitude

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "value": self.value}


class PiecewiseLinearEnvelope:
    """Piecewise-linear envelope through (times[i], values[i]) breakpoints.

    Evaluation outside [times[0], times[-1]] is an error; the envelope must
    be defined on the whole evolution window before it is used.
    """

    kind = "pwl"

    def __init__(self, times: Sequence[float], values: Sequence[float]):
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size < 2:
            raise ValueError("need matching 1-d times/values with >= 2 breakpoints")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise ValueError("breakpoints must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoint times must be strictly increasing")
        t.setflags(write=False)
        v.setflags(write=False)
        self.times = t
        self.values = v

    def _check_domain(self, lo: float, hi: float) -> None:
        if lo < self.times[0] - 1e-9 or hi > self.times[-1] + 1e-9:
            raise ValueError(
                f"envelope evaluated outside its domain "
                f"[{self.times[0]}, {self.times[-1]}]")

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        self._check_domain(float(arr.min()), float(arr.max()))
        return np.interp(arr, self.times, self.values)

    def _window(self, t0: float, t1: float) -> tuple[np.ndarray, np.ndarray]:
        """Window endpoints and the breakpoints strictly inside, with values."""
        self._check_domain(t0, t1)
        nodes = np.array([t0] + [t for t in self.times.tolist() if t0 < t < t1]
                         + [t1])
        return nodes, np.interp(nodes, self.times, self.values)

    def sup_abs(self, t0: float, t1: float) -> float:
        # Piecewise-linear |e| peaks at window endpoints or interior breakpoints.
        _, v = self._window(*sorted((t0, t1)))
        return float(np.max(np.abs(v)))

    def integral(self, t0: float, t1: float) -> float:
        if t1 < t0:
            return -self.integral(t1, t0)
        return float(self.integrals(np.array([t0, t1]))[0])

    def integrals(self, edges) -> np.ndarray:
        """Integrals over [edges[i], edges[i + 1]] for nondecreasing edges.

        The trapezoid rule is exact on each linear piece. The pieces run
        over the edges and every breakpoint strictly inside a slice, and one
        ``np.add.reduceat`` sums each slice's pieces. A zero leads each
        slice's run, so that reduceat adds 0 and then the pieces pairwise,
        as ``np.sum`` over the slice alone does: a slice's integral is the
        same bit for bit whatever the other edges.
        """
        t = np.asarray(edges, dtype=float)
        self._check_domain(float(t[0]), float(t[-1]))
        inner = self.times[(self.times > t[0]) & (self.times < t[-1])]
        # inner[j] lies in [t[slot[j] - 1], t[slot[j]]); on an edge it
        # splits nothing.
        slot = np.searchsorted(t, inner, side="right")
        inside = t[slot - 1] < inner
        slot = slot[inside]
        nodes = np.insert(t, slot, inner[inside])
        starts = np.flatnonzero(np.insert(np.ones(t.size, dtype=bool), slot,
                                          False))[:-1]
        v = np.interp(nodes, self.times, self.values)
        pieces = np.insert(np.diff(nodes) * (v[1:] + v[:-1]), starts, 0.0)
        return 0.5 * np.add.reduceat(pieces, starts + np.arange(starts.size))

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(float(t) for t in self.times)

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "times": self.times.tolist(),
                "values": self.values.tolist()}


def envelope_from_json(obj) -> CosineEnvelope | PiecewiseLinearEnvelope:
    if not isinstance(obj, dict):
        raise ValueError(f"envelope must be an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    try:
        if kind == "constant":
            return ConstantEnvelope(obj["value"])
        if kind == "cosine":
            return CosineEnvelope(obj["amplitude"], obj["omega"],
                                  obj.get("phase", 0.0))
        if kind == "pwl":
            return PiecewiseLinearEnvelope(obj["times"], obj["values"])
    except KeyError as exc:
        raise ValueError(f"{kind} envelope missing key {exc}") from None
    except TypeError:
        raise ValueError(f"{kind} envelope parameters must be numbers") from None
    raise ValueError(f"unknown envelope kind {kind!r}")


class HamiltonianTerm:
    """One lattice term: e(t) * base acting on a sorted site tuple."""

    __slots__ = ("support", "base", "envelope")

    def __init__(self, support, base, envelope):
        self.support = _checked_support(support, "term")
        self.base = _require_hermitian(base, "term base")
        self.base.setflags(write=False)
        self.envelope = envelope


class TimeDependentHamiltonian:
    """Sum of envelope-modulated lattice terms on a qudit register."""

    def __init__(self, register: QuditRegister, terms):
        ts = tuple(terms)
        if not ts:
            raise ValueError("Hamiltonian needs at least one term")
        for term in ts:
            if not isinstance(term, HamiltonianTerm):
                raise ValueError("terms must be HamiltonianTerm instances")
            _check_on_register(register, term.support, term.base.shape[0],
                               "term")
        self.register = register
        self.terms = ts

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return (f"TimeDependentHamiltonian(register={self.register}, "
                f"n_terms={self.n_terms})")


def _check_final_time(t_final: float) -> None:
    if not 0.0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and non-negative, "
                         f"got {t_final}")


def _check_steps(n_steps: int) -> None:
    if n_steps < 1:
        raise ValueError(f"n_steps must be at least 1, got {n_steps}")


def term_norm_sup(term: HamiltonianTerm, t_final: float) -> float:
    """sup over [0, T] of ||e(t) * base||, from the envelope's exact sup_abs."""
    return _term_norm_sups([term], t_final)[0]


def _term_norm_sups(terms: Sequence[HamiltonianTerm],
                    t_final: float) -> list[float]:
    """``term_norm_sup`` of each term, from one ``_opnorm_stack`` per base dimension.

    Each base was checked finite and square on construction, so each norm is
    the one ``operator_norm`` returns for it, bit for bit: the SVD up to
    dimension 64, where the bound side's norms must stay.
    """
    _check_final_time(t_final)
    by_dim: dict[int, list[int]] = {}
    for i, term in enumerate(terms):
        by_dim.setdefault(term.base.shape[0], []).append(i)
    sups = [0.0] * len(terms)
    for idx in by_dim.values():
        norms = _opnorm_stack(np.stack([terms[i].base for i in idx]))
        for i, norm in zip(idx, norms.tolist()):
            sups[i] = norm * terms[i].envelope.sup_abs(0.0, t_final)
    return sups


def commutation_degree(h: TimeDependentHamiltonian) -> int:
    """Max over terms of the number of terms sharing a site with it (self included)."""
    best = 0
    supports = [set(t.support) for t in h.terms]
    for s in supports:
        overlaps = sum(1 for other in supports if s & other)
        best = max(best, overlaps)
    return best


def _embedded_bases(h: TimeDependentHamiltonian) -> np.ndarray:
    reg = h.register
    eye = np.eye(reg.dim, dtype=complex)
    stack = np.empty((h.n_terms, reg.dim, reg.dim), dtype=complex)
    for i, term in enumerate(h.terms):
        stack[i] = _apply_gate(term.base, term.support, eye, reg.L, reg.d)
    return stack


def _commutator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """[x, y] of skew-Hermitian stacks from one product: yx = (xy)^dagger."""
    m = x @ y
    return m - m.conj().swapaxes(-1, -2)


def _time_ordered_product(steps: np.ndarray) -> np.ndarray:
    """steps[-1] ... steps[1] steps[0] as a pairwise tree of batched products."""
    while len(steps) > 1:
        pairs = steps[1::2] @ steps[:len(steps) - 1:2]
        steps = (np.concatenate((pairs, steps[-1:])) if len(steps) % 2
                 else pairs)
    return steps[0]


def _magnus_sweeps(envelopes, skew: np.ndarray, grids) -> np.ndarray:
    """Products of sixth-order Magnus sweeps, one per array of step edges.

    ``skew`` is the C-ordered stack of the terms' -i B, and grid g's step j
    runs over [g[j], g[j + 1]].

    With A_i = -i H(t + c_i h) at the Gauss nodes c = 1/2 -+ sqrt(15)/10 and
    1/2, step j's exponent is built from alpha_1 = h A_2, alpha_2 =
    (sqrt(15) h / 3)(A_3 - A_1) and alpha_3 = (10 h / 3)(A_3 - 2 A_2 + A_1):
    C_1 = [alpha_1, alpha_2], C_2 = -[alpha_1, 2 alpha_3 + C_1] / 60 and
    Omega = alpha_1 + alpha_3 / 12 + [-20 alpha_1 - alpha_3 + C_1,
    alpha_2 + C_2] / 240. The grids' steps lie end to end: each envelope is
    evaluated once on all their nodes and mixed into real weights h
    _NODE_MIX @ W. Per chunk of at most ``_SWEEP_ENTRIES`` node matrix
    entries, which may span grids, one real GEMM of those weights onto the
    [re, im] view of ``skew`` gives every alpha, each commutator takes one
    batched product, and one Taylor-series exponential over the stack, whose
    exponents are small in norm, gives every step; a pairwise tree
    multiplies each grid's steps in the chunk onto its product, the later
    step on the left.
    """
    k, dim = skew.shape[:2]
    t0 = np.concatenate([g[:-1] for g in grids])
    h = np.concatenate([np.diff(g) for g in grids])
    # first[r] is grid r's first step in the sweep; owner each step's grid
    first = np.cumsum([0] + [len(g) - 1 for g in grids])
    owner = np.repeat(np.arange(len(grids)), np.diff(first))
    taus = t0[:, None] + np.array(_GAUSS_NODES) * h[:, None]
    nodes = np.stack([env(taus.ravel()) for env in envelopes], axis=-1)
    weights = (h[:, None, None] * _NODE_MIX) @ nodes.reshape(-1, 3, k)
    flat = skew.reshape(k, dim * dim).view(float)
    per_chunk = max(1, _SWEEP_ENTRIES // (3 * dim * dim))
    u = np.empty((len(grids), dim, dim), dtype=complex)
    u[:] = np.eye(dim)
    # finite inputs may still overflow here; the caller refuses the
    # non-finite result, so numpy's warnings would only repeat that
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, first[-1], per_chunk):
            stop = min(start + per_chunk, first[-1])
            a1, a2, a3 = (weights[start:stop].reshape(-1, k) @ flat).view(
                complex).reshape(-1, 3, dim, dim).swapaxes(0, 1)
            c1 = _commutator(a1, a2)
            c2 = _commutator(a1, 2.0 * a3 + c1) / -60.0
            x = (a1 + a3 / 12.0
                 + _commutator(c1 - 20.0 * a1 - a3, a2 + c2) / 240.0)
            steps = _exp_skew_series(x)
            for r in range(owner[start], owner[stop - 1] + 1):
                lo, hi = max(first[r], start), min(first[r + 1], stop)
                u[r] = (_time_ordered_product(steps[lo - start:hi - start])
                        @ u[r])
    return u


def _step_edges(cuts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Edges of counts[i] uniform steps on each [cuts[i], cuts[i + 1]]."""
    owner = np.repeat(np.arange(len(counts)), counts)
    step = np.arange(owner.size) - (np.cumsum(counts) - counts)[owner]
    width = np.diff(cuts) / counts
    return np.append(cuts[owner] + step * width[owner], cuts[-1])


def exact_propagator(h: TimeDependentHamiltonian, t_final: float,
                     tol: float = 1e-11) -> UnitaryMatrix:
    """Reference time-ordered propagator over [0, T] to accuracy ~tol.

    Step doubling assumes a smooth integrand, so the Magnus steps run on one
    grid whose pieces end at every interior envelope breakpoint: piece i of
    S starts at max(1, ceil(4 S len_i / T)) uniform steps, so a chain with
    no breakpoint starts at 4. Each round sweeps that grid and the grid with
    every piece's count doubled in one stacked call. The scheme is sixth
    order, so ||fine - coarse|| is about 63 times the fine sweep's error;
    the pair is Richardson-combined (weight 1/63) once that difference is
    within 31.5 tol (the fine sweep within tol / 2) plus a rounding floor;
    else every count grows by the factor (difference / budget)^(1/6) its
    n^-6 decay predicts, and by one step at least. Every factor is unitary
    to rounding and the steps multiply as a pairwise tree, so the
    unitarity defect stays within 10 * tol.
    """
    _check_final_time(t_final)
    if not _MIN_TOL <= tol < math.inf:
        raise ValueError(f"tol must be finite and at least {_MIN_TOL}, "
                         f"got {tol}")
    dim = h.register.dim
    if dim > _EXACT_DIM_LIMIT:
        raise ValueError(
            f"exact propagation capped at dimension {_EXACT_DIM_LIMIT}, "
            f"got {dim}")
    if t_final == 0.0:
        return UnitaryMatrix(np.eye(dim, dtype=complex), _validated=True)
    # -i B in place: a copy would hold another K * 64 KB at dimension 64
    skew = _embedded_bases(h)
    skew *= -1j
    envelopes = [t.envelope for t in h.terms]
    edge = 1e-12 * max(t_final, 1.0)
    interior = {b for env in envelopes for b in env.breakpoints()
                if edge < b < t_final - edge}
    cuts = np.array(sorted({0.0, float(t_final)} | interior))
    n = np.maximum(1, np.ceil(4 * (len(cuts) - 1) * np.diff(cuts) / t_final)
                   ).astype(int)
    # Rounding noise of the doubling estimator grows ~sqrt(dim) * eps per
    # step; the additive floor keeps the loop from chasing that noise when
    # tol is tiny.
    noise_floor = 32.0 * np.finfo(float).eps * math.sqrt(dim)
    while True:
        if 2 * n.sum() > _MAX_STEPS:
            raise ValueError(f"adaptive propagator exceeded {_MAX_STEPS} "
                             f"steps on [0, {t_final}]")
        coarse, fine = _magnus_sweeps(
            envelopes, skew, [_step_edges(cuts, n), _step_edges(cuts, 2 * n)])
        diff = fine - coarse
        if not np.isfinite(diff.view(float)).all():
            raise ValueError("Magnus sweep has non-finite entries")
        est = float(_opnorm_stack(diff[None])[0])
        # The fine sweep's error is about est / 63, so this holds it to
        # tol / 2; the Richardson combination kept is a higher order.
        budget = 31.5 * tol + noise_floor * 2 * n.sum()
        if est <= budget:
            return UnitaryMatrix(fine + diff / 63.0, _validated=True)
        # est falls as n^-6, so counts grown by (est / budget)^(1/6) should
        # pass; by one step at least, or an est an ulp over would loop.
        grow = min((est / budget) ** (1.0 / 6.0), _MAX_STEPS)
        n = np.maximum(np.ceil(grow * n).astype(int), n + 1)


def trotter_propagator(h: TimeDependentHamiltonian, t_final: float,
                       n_steps: int) -> UnitaryMatrix:
    """First-order term-sequential propagator with n_steps uniform slices.

    Within each slice the terms act one after another in their given order.
    A single term e(t) * B commutes with itself at all times, so its slice
    factor is the closed-form exponential exp(-i theta B), theta the
    integral of e over the slice, on its own support, and the only error is
    the term-splitting itself. Each term's B = V diag(w) V^dag is
    diagonalized once per call, and a factor is (V exp(-i theta w)) V^dag.
    One ``integrals`` call per term gives its thetas over all n_steps
    slices. Per chunk of at most ``_SWEEP_ENTRIES`` matrix entries, the
    first slice starts from the product so far and the others from the
    identity, each term's stack of factors is applied to all of them in one
    call, and a pairwise tree multiplies them, the later slice on the left.
    So the matrices' memory stays flat in n_steps; only the thetas, one
    float per term and slice, grow with it. From dim 128 a chunk is one
    slice, so this is the term-by-term loop with no dense product.
    """
    _check_steps(n_steps)
    _check_final_time(t_final)
    reg = h.register
    eye = np.eye(reg.dim, dtype=complex)
    u = eye
    delta = t_final / n_steps
    per_chunk = max(1, _SWEEP_ENTRIES // reg.dim ** 2)
    eigs = [np.linalg.eigh(term.base) for term in h.terms]
    edges = np.arange(n_steps + 1) * delta
    thetas = [term.envelope.integrals(edges) for term in h.terms]
    del edges  # only the thetas, K floats per slice, outlive this
    for start in range(0, n_steps, per_chunk):
        stop = min(start + per_chunk, n_steps)
        slices = np.concatenate(
            (u[None], np.broadcast_to(eye, (stop - start - 1,) + eye.shape)))
        for term, (w, v), theta in zip(h.terms, eigs, thetas):
            # term's exponential over each of the chunk's slices
            phases = np.exp(-1j * np.multiply.outer(theta[start:stop], w))
            factors = (v * phases[:, None, :]) @ v.conj().T
            slices = _apply_gate(factors, term.support, slices, reg.L, reg.d)
        u = _time_ordered_product(slices)
    return UnitaryMatrix(u, _validated=True)


class CertificateViolation(RuntimeError):
    """Measured Trotter error exceeded the certified bound."""

    def __init__(self, measured: float, bound: float):
        super().__init__(
            f"measured Trotter error {measured:.6e} exceeds bound {bound:.6e}")
        self.measured = measured
        self.bound = bound


@dataclass(frozen=True)
class TrotterCertificate:
    """A validated pairing of measured Trotter error and its a priori bound."""

    T: float
    n_steps: int
    delta_t: float
    K: int
    z: int
    h_max: float
    bound: float
    measured: float

    def as_dict(self) -> dict[str, Any]:
        return {
            "T": self.T,
            "N_t": self.n_steps,
            "delta_t": self.delta_t,
            "K": self.K,
            "z": self.z,
            "h_max": self.h_max,
            "bound": self.bound,
            "measured": self.measured,
        }


def _first_order_constant(K: int, z: int, h_max: float) -> float:
    """The paper's first-order Trotter constant c = K z h^2.

    Every first-order quantity derives from c alone: the error delta_t T c,
    the step count T^2 c / err, the covering bound's scale T^2 K c and its
    window edge. A float h_max past ~1e154 raises OverflowError; a Decimal
    one gives c to the context's precision.
    """
    return K * z * h_max ** 2


def _trotter_error(t_final: float, n_steps: int, K: int, z: int,
                   h_max: float) -> float:
    """The paper's first-order Trotter bound delta_t T c, delta_t = T / n."""
    return t_final / n_steps * t_final * _first_order_constant(K, z, h_max)


def _trotter_steps(t_final: float, K: int, z: int, h_max: float,
                   error: float) -> float:
    """The step count, unrounded, at which _trotter_error equals error."""
    return t_final ** 2 * _first_order_constant(K, z, h_max) / error


def _min_covered_time(K: int, z: int, h_max: float, epsilon: float) -> float:
    """eps^2 / (16 T^2 K c) <= 1/10 solved for the smallest T."""
    return epsilon * math.sqrt(10.0) / (
        4.0 * math.sqrt(K * _first_order_constant(K, z, h_max)))


def certify_trotter(h: TimeDependentHamiltonian, t_final: float,
                    n_steps: int) -> TrotterCertificate:
    """Measure ||U_trotter - U_exact|| and certify it against the a priori bound.

    The bound is delta_t * T * c with c = K z h_max^2. A measurement
    exceeding the bound by more than 1e-9 raises CertificateViolation (it
    would falsify the bound, so it must never be silently returned).
    """
    _check_steps(n_steps)
    exact = exact_propagator(h, t_final, tol=1e-11)
    approx = trotter_propagator(h, t_final, n_steps)
    measured = operator_norm(approx.array - exact.array)
    k_terms = h.n_terms
    z = commutation_degree(h)
    h_max = max(_term_norm_sups(h.terms, t_final))
    bound = _trotter_error(t_final, n_steps, k_terms, z, h_max)
    if measured > bound + 1e-9:
        raise CertificateViolation(measured, bound)
    return TrotterCertificate(
        T=float(t_final),
        n_steps=int(n_steps),
        delta_t=float(t_final / n_steps),
        K=k_terms,
        z=z,
        h_max=float(h_max),
        bound=float(bound),
        measured=float(measured),
    )


def evolution_covering_log_bound(L: int, d: int, k: int, K: int, z: int,
                                 h_max: float, t_final: float,
                                 epsilon: float) -> LogBound:
    """ln of the covering bound for time-T reachable conjugations.

    With the first-order constant c = K z h^2 and scale = T^2 K c, the
    bound is L^(k K) * (112 scale / eps^2)^(4 d^(2k) scale / eps); it
    requires eps^2 / (16 scale) <= 1/10 so the implied per-gate net scale
    stays within its validity window. Its log is k K ln L plus
    (d^(2k) eps / 28) y ln y with y = 112 scale / eps^2, which is what lets
    the crossover solve for T in closed form (Lambert W).
    """
    L, d, k = _integer(L, "L"), _integer(d, "d"), _integer(k, "k")
    K, z = _integer(K, "K"), _integer(z, "z")
    if L < 1 or d < 2 or k < 1 or K < 1 or z < 1:
        raise ValueError("L >= 1, d >= 2, k >= 1, K >= 1, z >= 1 required")
    if not (h_max > 0 and t_final > 0 and epsilon > 0):
        raise ValueError("h_max, T, and epsilon must be positive")
    try:
        scale = t_final ** 2 * K * _first_order_constant(K, z, h_max)
    except OverflowError:  # float ** raises past 1e154; finite_log reports it
        scale = math.inf
    if epsilon ** 2 == 0.0:  # underflows below about 1.5e-162
        raise EpsilonTooSmall(epsilon)
    if scale == 0.0 or epsilon ** 2 / (16.0 * scale) > 0.1:
        raise ValueError(
            f"epsilon too large for inner-net validity: need epsilon <= "
            f"{math.sqrt(1.6 * scale):.6g}, got {epsilon}")

    def ln_bound() -> float:
        exponent = 4.0 * int_power(d, 2 * k) * scale / epsilon
        return k * K * math.log(L) + exponent * math.log(
            112.0 * scale / epsilon ** 2)

    # a finite log bounds the exponent, and with it n_steps_implied
    ln_value = finite_log(ln_bound, math.isinf(1.0 / epsilon ** 2), L=L, d=d,
                          k=k, K=K, z=z, h_max=h_max, T=t_final,
                          epsilon=epsilon)
    return LogBound(ln_value, {
        "L": L,
        "d": d,
        "k": k,
        "K": K,
        "z": z,
        "h_max": float(h_max),
        "T": float(t_final),
        "epsilon": float(epsilon),
        "n_steps_implied": _trotter_steps(t_final, K, z, h_max, epsilon / 4.0),
    })


def hamiltonian_to_json(h: TimeDependentHamiltonian) -> dict[str, Any]:
    """Hamiltonian as a JSON-ready dict mirroring the circuit format."""
    terms = [{"support": list(term.support), "base": _encode_matrix(term.base),
              "envelope": term.envelope.to_json()} for term in h.terms]
    return {"L": h.register.L, "d": h.register.d, "terms": terms}


def hamiltonian_from_json(data) -> TimeDependentHamiltonian:
    """Parse the JSON Hamiltonian format; validates Hermiticity of each base."""
    reg, items = _parse_json(data, "Hamiltonian", "terms", ("base", "envelope"),
                             "term base")
    return TimeDependentHamiltonian(reg, [
        HamiltonianTerm(support, base, envelope_from_json(envelope))
        for support, base, envelope in items])
