"""Time-dependent lattice Hamiltonians and certified Trotterization.

The exact propagator uses an adaptive fourth-order commutator-free
exponential integrator (two Gauss-node exponential factors per step) with
step doubling and local Richardson extrapolation. One attempted step, the
coarse step and its two half steps, is six Gauss-node exponentials made in
one stacked call. Every factor is a true unitary from an eigendecomposition,
so unitarity never drifts beyond the requested tolerance. Each Trotter factor
is a single term, which commutes with itself at all times, so it is the
closed-form exponential of the term's base times its envelope integral; one
call per term makes its factors for every slice. The first-order Trotter
error is certified against delta_t * T * K * z * |h|^2, where z counts
support overlaps (a term overlaps itself) and |h| is the largest sup-norm of
a term over [0, T].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from .circuits import QuditRegister, _apply_gate, _encode_matrix, _parse_json
from .linalg import (
    UnitaryMatrix,
    _as_square_array,
    _exp_skew_stack,
    _require_hermitian,
    operator_norm,
)
from .logdomain import LogBound

_SQRT3 = math.sqrt(3.0)
_GAUSS_C1 = 0.5 - _SQRT3 / 6.0
_GAUSS_C2 = 0.5 + _SQRT3 / 6.0
_GAUSS_ALPHA1 = 0.25 + _SQRT3 / 6.0
_GAUSS_ALPHA2 = 0.25 - _SQRT3 / 6.0
# An attempted adaptive step is a coarse step over [t, t + h] and half steps
# over [t, t + h/2] and [t + h/2, t + h]. Node j sits at
# (t + STARTS[j] * h) + NODES[j] * h, and rows 2i, 2i + 1 of MIX give step i's
# exponents x2, x1 (in units of -i h) from the six node weights: each step of
# length s has x1 = s (a1 H(c1) + a2 H(c2)) and x2 = s (a2 H(c1) + a1 H(c2)).
_ATTEMPT_STARTS = np.array([0.0, 0.0, 0.0, 0.0, 0.5, 0.5])
_ATTEMPT_NODES = np.array([_GAUSS_C1, _GAUSS_C2] * 3) * np.repeat(
    [1.0, 0.5, 0.5], 2)
_ATTEMPT_MIX = np.kron(
    np.diag([1.0, 0.5, 0.5]),
    np.array([[_GAUSS_ALPHA2, _GAUSS_ALPHA1], [_GAUSS_ALPHA1, _GAUSS_ALPHA2]]))
_MIN_TOL = 1e-12
# Attempted steps allowed per _adaptive_unitary call; criterion 1's segments
# take at most a few hundred, so a run past this is a broken controller.
_MAX_ATTEMPTS = 100_000
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
        # a / omega * (sin(b) - sin(a)) in product form, with the 1 / omega
        # folded into sin(x) / x: nothing cancels for short windows, and
        # omega = 0 (or so small that a / omega overflows) needs no division.
        x = 0.5 * self.omega * (t1 - t0)
        sinc = math.sin(x) / x if x != 0.0 else 1.0
        mid = 0.5 * self.omega * (t0 + t1) + self.phase
        return self.amplitude * (t1 - t0) * math.cos(mid) * sinc

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
        # The trapezoid rule is exact on each linear piece.
        nodes, v = self._window(t0, t1)
        return float(0.5 * np.sum(np.diff(nodes) * (v[1:] + v[:-1])))

    def breakpoints(self) -> tuple[float, ...]:
        return tuple(float(t) for t in self.times)

    def to_json(self) -> dict[str, Any]:
        return {"kind": self.kind, "times": self.times.tolist(),
                "values": self.values.tolist()}


def envelope_from_json(obj) -> CosineEnvelope | PiecewiseLinearEnvelope:
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
    raise ValueError(f"unknown envelope kind {kind!r}")


class HamiltonianTerm:
    """One lattice term: e(t) * base acting on a sorted site tuple."""

    __slots__ = ("support", "base", "envelope")

    def __init__(self, support, base, envelope):
        sup = tuple(int(s) for s in support)
        if not sup or len(set(sup)) != len(sup) or list(sup) != sorted(sup):
            raise ValueError("support must be a sorted tuple of distinct sites")
        if min(sup) < 0:
            raise ValueError("support sites must be non-negative")
        arr = _require_hermitian(_as_square_array(base, "term base"))
        arr.setflags(write=False)
        self.support = sup
        self.base = arr
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
            if max(term.support) >= register.L:
                raise ValueError(
                    f"term support {term.support} exceeds register size")
            expected = register.d ** len(term.support)
            if term.base.shape[0] != expected:
                raise ValueError(
                    f"term base on {len(term.support)} site(s) must be "
                    f"{expected}-dimensional, got {term.base.shape[0]}")
        self.register = register
        self.terms = ts

    @property
    def n_terms(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return (f"TimeDependentHamiltonian(register={self.register}, "
                f"n_terms={self.n_terms})")


def term_norm_sup(term: HamiltonianTerm, t_final: float) -> float:
    """sup over [0, T] of ||e(t) * base||, from the envelope's exact sup_abs."""
    if t_final < 0:
        raise ValueError("final time must be non-negative")
    return operator_norm(term.base) * term.envelope.sup_abs(0.0, t_final)


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


def _cf4_attempt(envelopes, bases: np.ndarray, t: float,
                 h: float) -> tuple[np.ndarray, np.ndarray]:
    """(coarse, fine) propagators of one attempted step over [t, t + h].

    coarse is one fourth-order commutator-free step over [t, t + h], fine the
    product of two over its halves. The three steps have six Gauss nodes:
    each envelope is evaluated once on all six, a constant matrix mixes the
    node weights into the six exponents' coefficients, and one GEMM onto the
    bases and one exponential call over the stack give every factor.
    """
    taus = (t + _ATTEMPT_STARTS * h) + _ATTEMPT_NODES * h
    weights = np.array([env(taus) for env in envelopes])
    coeffs = (-1j * h) * (_ATTEMPT_MIX @ weights.T)
    k, dim = bases.shape[:2]
    x = (coeffs @ bases.reshape(k, dim * dim)).reshape(6, dim, dim)
    e = _exp_skew_stack(x)
    # Each step is exp(x2) @ exp(x1); the later half step acts last.
    steps = e[0::2] @ e[1::2]
    return steps[0], steps[2] @ steps[1]


def _adaptive_unitary(envelopes, bases: np.ndarray, t0: float, t1: float,
                      tol: float) -> np.ndarray:
    """Propagator over [t0, t1] with accumulated error budgeted to <= tol."""
    dim = bases.shape[-1]
    span = t1 - t0
    u = np.eye(dim, dtype=complex)
    if span == 0.0:
        return u
    t = t0
    h = span / 8.0
    min_h = 1e-13 * max(span, 1.0)
    # Rounding noise of the doubling estimator grows ~sqrt(dim) * eps; the
    # additive floor keeps the controller from chasing that noise on the
    # final sliver of an interval where the proportional share vanishes.
    noise_floor = 32.0 * np.finfo(float).eps * math.sqrt(dim)
    attempts = 0
    while t < t1 - 1e-15 * span:
        attempts += 1
        if attempts > _MAX_ATTEMPTS:
            raise ValueError(f"adaptive propagator exceeded {_MAX_ATTEMPTS} "
                             f"attempted steps on [{t0}, {t1}]")
        h = min(h, t1 - t)
        coarse, fine = _cf4_attempt(envelopes, bases, t, h)
        est = operator_norm(fine - coarse)
        # True local error of the extrapolated step is ~est/16, so the
        # accumulated total stays well under tol.
        budget = 0.5 * tol * (h / span) + noise_floor
        if est <= budget:
            u = (fine + (fine - coarse) / 15.0) @ u
            t += h
        elif h <= min_h:
            raise ValueError("step-size underflow in adaptive propagator")
        if est == 0.0:
            factor = 4.0
        else:
            factor = min(4.0, max(0.2, 0.9 * (budget / est) ** 0.2))
        h = max(h * factor, min_h)
    return u


def exact_propagator(h: TimeDependentHamiltonian, t_final: float,
                     tol: float = 1e-11) -> UnitaryMatrix:
    """Reference time-ordered propagator over [0, T] to accuracy ~tol.

    The result's unitarity defect stays within 10 * tol by construction.
    """
    if t_final < 0:
        raise ValueError("final time must be non-negative")
    if tol < _MIN_TOL:
        raise ValueError(f"tolerance below the supported minimum {_MIN_TOL}")
    dim = h.register.dim
    if dim > _EXACT_DIM_LIMIT:
        raise ValueError(
            f"exact propagation capped at dimension {_EXACT_DIM_LIMIT}, "
            f"got {dim}")
    bases = _embedded_bases(h)
    envelopes = [t.envelope for t in h.terms]
    # Step doubling assumes a smooth integrand, so the interval is cut at
    # every interior envelope breakpoint; each segment gets a tolerance
    # share proportional to its length. At t_final == 0 there is no segment.
    edge = 1e-12 * max(t_final, 1.0)
    interior = {b for env in envelopes for b in env.breakpoints()
                if edge < b < t_final - edge}
    cuts = sorted({0.0, float(t_final)} | interior)
    u = np.eye(dim, dtype=complex)
    for a, b in zip(cuts, cuts[1:]):
        u = _adaptive_unitary(envelopes, bases, a, b,
                              tol * (b - a) / t_final) @ u
    return UnitaryMatrix(u, _validated=True)


def trotter_propagator(h: TimeDependentHamiltonian, t_final: float,
                       n_steps: int) -> UnitaryMatrix:
    """First-order term-sequential propagator with n_steps uniform slices.

    Within each slice the terms act one after another in their given order.
    A single term e(t) * B commutes with itself at all times, so its slice
    factor is the closed-form exponential exp(-i B * integral of e over the
    slice) on its own support, and the only error is the term-splitting
    itself.
    """
    if n_steps < 1:
        raise ValueError("need at least one step")
    if t_final < 0:
        raise ValueError("final time must be non-negative")
    reg = h.register
    u = np.eye(reg.dim, dtype=complex)
    delta = t_final / n_steps
    # factors[i][step] is term i's exponential over slice step.
    factors = [_exp_skew_stack(np.array(
        [-1j * term.envelope.integral(step * delta, (step + 1) * delta)
         for step in range(n_steps)])[:, None, None] * term.base)
        for term in h.terms]
    for step in range(n_steps):
        for term, stack in zip(h.terms, factors):
            u = _apply_gate(stack[step], term.support, u, reg.L, reg.d)
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


def certify_trotter(h: TimeDependentHamiltonian, t_final: float,
                    n_steps: int) -> TrotterCertificate:
    """Measure ||U_trotter - U_exact|| and certify it against the a priori bound.

    The bound is delta_t * T * K * z * h_max^2. A measurement exceeding the
    bound by more than 1e-9 raises CertificateViolation (it would falsify
    the bound, so it must never be silently returned).
    """
    exact = exact_propagator(h, t_final, tol=1e-11)
    approx = trotter_propagator(h, t_final, n_steps)
    measured = operator_norm(approx.array - exact.array)
    k_terms = h.n_terms
    z = commutation_degree(h)
    h_max = max(term_norm_sup(term, t_final) for term in h.terms)
    delta_t = t_final / n_steps
    bound = delta_t * t_final * k_terms * z * h_max ** 2
    if measured > bound + 1e-9:
        raise CertificateViolation(measured, bound)
    return TrotterCertificate(
        T=float(t_final),
        n_steps=int(n_steps),
        delta_t=float(delta_t),
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

    The bound is L^(k K) * (112 T^2 K^2 z h^2 / eps^2)^(4 d^(2k) T^2 K^2 z
    h^2 / eps); it requires eps^2 / (16 T^2 K^2 z h^2) <= 1/10 so the
    implied per-gate net scale stays within its validity window.
    """
    if L < 1 or d < 2 or k < 1 or K < 1 or z < 1:
        raise ValueError("L >= 1, d >= 2, k >= 1, K >= 1, z >= 1 required")
    if h_max <= 0 or t_final <= 0 or epsilon <= 0:
        raise ValueError("h_max, T, and epsilon must be positive")
    scale = t_final ** 2 * K ** 2 * z * h_max ** 2
    net_scale = epsilon ** 2 / (16.0 * scale)
    if net_scale > 0.1:
        raise ValueError(
            f"epsilon too large for inner-net validity: need epsilon <= "
            f"{math.sqrt(1.6 * scale):.6g}, got {epsilon}")
    exponent = 4.0 * d ** (2 * k) * scale / epsilon
    ln_value = k * K * math.log(L) + exponent * math.log(
        112.0 * scale / epsilon ** 2)
    return LogBound(ln_value, {
        "L": L,
        "d": d,
        "k": k,
        "K": K,
        "z": z,
        "h_max": float(h_max),
        "T": float(t_final),
        "epsilon": float(epsilon),
        "n_steps_implied": 4.0 * t_final ** 2 * K * z * h_max ** 2 / epsilon,
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
