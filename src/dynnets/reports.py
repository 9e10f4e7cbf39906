"""Spectrum profiles, crossover analysis, and deterministic report output.

The crossover analysis pits the log-domain covering lower bound for half-rank
projectors in a d^L-dimensional space against the covering upper bounds of
two resource families (gate count, evolution time), returning the minimal
resource at which the upper bound first matches the geometric demand; both
solve y ln y = b with one decimal root finder. Reports serialize
byte-identically: fixed key order and 17-significant-digit floats.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, dataclass
from decimal import Context, Decimal, localcontext
from typing import Any, Callable, Sequence

import numpy as np

from .circuits import _integer, circuit_covering_log_bound
from .grassmann import _projector_lower_log
from .linalg import _hermitian_part, _require_hermitian
from .logdomain import int_power
from .trotter import (
    _first_order_constant,
    _min_covered_time,
    evolution_covering_log_bound,
)

# the CrossoverRow field that holds each resource's minimal value
_RESOURCE_FIELDS = {"circuit": "min_gates", "time": "min_time"}
_RESOURCES = tuple(_RESOURCE_FIELDS)


@dataclass(frozen=True)
class SpectrumProfile:
    """Distinct eigenvalues (strictly ascending) with positive degeneracies."""

    eigenvalues: tuple[float, ...]
    degeneracies: tuple[int, ...]

    def __post_init__(self) -> None:
        eig = tuple(float(e) for e in self.eigenvalues)
        deg = tuple(int(g) for g in self.degeneracies)
        if not eig:
            raise ValueError("profile needs at least one eigenvalue")
        if len(eig) != len(deg):
            raise ValueError("eigenvalues and degeneracies must align")
        if not all(map(math.isfinite, eig)):
            raise ValueError("eigenvalues must be finite")
        if any(a >= b for a, b in zip(eig, eig[1:])):
            raise ValueError("eigenvalues must be strictly ascending")
        if any(g < 1 for g in deg):
            raise ValueError("degeneracies must be positive")
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "degeneracies", deg)

    @property
    def total(self) -> int:
        return sum(self.degeneracies)

    @property
    def width(self) -> float:
        return 0.5 * (self.eigenvalues[-1] - self.eigenvalues[0])

    def as_dict(self) -> dict[str, Any]:
        return {
            "eigenvalues": list(self.eigenvalues),
            "degeneracies": list(self.degeneracies),
            "total": self.total,
            "width": self.width,
        }


def _snap_eigenvalue(eig: float, center1: float, center2: float,
                     half: float) -> float:
    if abs(eig - center1) <= half:
        return float(center1)
    if abs(eig - center2) <= half:
        return float(center2)
    return float(eig)


def _check_centers(center1: float, center2: float, epsilon: float) -> None:
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if center2 - center1 <= epsilon:
        raise ValueError(
            f"neighborhoods overlap: need center2 - center1 > epsilon, got "
            f"{center2} - {center1} <= {epsilon}")


def coarse_grain_spectrum(profile: SpectrumProfile, center1: float,
                          center2: float, epsilon: float
                          ) -> tuple[SpectrumProfile, float, int, int]:
    """Snap eigenvalues within eps/2 of either center onto it.

    Returns (new profile, shift bound, degeneracy at center1, degeneracy at
    center2). The shift bound eps/2 certifies that the matrix rebuilt from
    the new profile differs from the original by at most eps/2 in operator
    norm. Requires center2 - center1 > eps so the two neighborhoods stay
    disjoint.
    """
    _check_centers(center1, center2, epsilon)
    half = 0.5 * epsilon
    merged: dict[float, int] = {}
    for eig, deg in zip(profile.eigenvalues, profile.degeneracies):
        eig = _snap_eigenvalue(eig, center1, center2, half)
        merged[eig] = merged.get(eig, 0) + deg
    eigs = sorted(merged)
    new = SpectrumProfile(tuple(eigs), tuple(merged[e] for e in eigs))
    return (new, half,
            merged.get(float(center1), 0), merged.get(float(center2), 0))


def coarse_grain_hermitian(matrix: np.ndarray, center1: float,
                           center2: float, epsilon: float
                           ) -> tuple[np.ndarray, float]:
    """Apply the eigenvalue snap to an explicit Hermitian matrix.

    Same snapping rule as coarse_grain_spectrum, acting on the matrix
    itself: each eigenvalue within eps/2 of a center moves onto it while
    the eigenvectors stay fixed. Returns (snapped matrix, shift bound);
    the operator-norm distance to the input is at most the shift bound
    eps/2 because no eigenvalue moves farther than that.
    """
    _check_centers(center1, center2, epsilon)
    a = _require_hermitian(matrix)
    half = 0.5 * epsilon
    w, v = np.linalg.eigh(a)
    snapped = np.array([_snap_eigenvalue(x, center1, center2, half)
                        for x in w])
    rebuilt = (v * snapped) @ v.conj().T
    return _hermitian_part(rebuilt), half


def degeneracy_profile_extensive_z(L: int) -> SpectrumProfile:
    """Spectrum of the extensive single-site-z sum on L qubits.

    Eigenvalues -L, -L+2, ..., L with binomial degeneracies C(L, i).
    """
    if L < 1:
        raise ValueError("need at least one site")
    eig = tuple(float(-L + 2 * i) for i in range(L + 1))
    deg = tuple(math.comb(L, i) for i in range(L + 1))
    return SpectrumProfile(eig, deg)


@dataclass(frozen=True)
class CrossoverRow:
    """Per-system-size result: geometric demand and minimal matching resource."""

    L: int
    m: int
    lower_log: float
    min_gates: int | None
    min_time: float | None

    def value(self, resource: str) -> int | float | None:
        return getattr(self, _RESOURCE_FIELDS[resource])

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


@dataclass(frozen=True)
class CrossoverReport:
    """Crossover rows plus growth-fit summary; every row has its resource value.

    The values need not grow with L: the minimal time falls from L = 2 to
    L = 3 at d = k = 2, eps = 1e-3.
    """

    resource: str
    d: int
    k: int
    epsilon: float
    rows: tuple[CrossoverRow, ...]
    fit: dict[str, Any] | None
    metadata: dict[str, Any]

    def __post_init__(self) -> None:
        if self.resource not in _RESOURCES:
            raise ValueError(f"resource must be one of {_RESOURCES}")
        for row in self.rows:
            if row.value(self.resource) is None:
                raise ValueError(
                    f"row for L={row.L} lacks a {self.resource} value")

    def as_dict(self) -> dict[str, Any]:
        payload = asdict(self)
        payload["rows"] = list(payload["rows"])
        return payload


def _lambert_w(ln_b: float) -> float:
    """W(b), the root u of u + ln u = ln b, for b >= e (taken as ln b).

    Newton's method from u = ln b. The curve u + ln u is concave, so the
    first step lands at or below the root and the later ones rise to it;
    the first step that does not rise ends the search.
    """
    def step(u: float) -> float:
        return u - (u + math.log(u) - ln_b) / (1.0 + 1.0 / u)

    u = step(ln_b)
    while (rising := step(u)) > u:
        u = rising
    return u


def _root(ln_b: float, b: Callable[[], Decimal],
          resource: Callable[[Decimal, Decimal], Decimal]
          ) -> tuple[Decimal, Decimal]:
    """resource(y, ln y) at the root y of y ln y = b(), and its error.

    Newton's method on u e^u = b for u = ln y = W(b), from the float W, in
    decimal arithmetic of prec = 25 more digits than the float root b / W
    has, shared with b and resource. Each step squares the relative error,
    so the first step under 10^(-prec/2) leaves u and y = b / u good to the
    precision; the error, resource 10^(4 - prec), allows 10^4 roundings.
    """
    w = _lambert_w(ln_b)
    prec = 26 + int((ln_b - math.log(w)) / math.log(10.0))
    with localcontext(Context(prec=prec)):
        b_exact = b()
        u, last = Decimal(w), 0
        while abs(u - last) >= u.scaleb(-prec // 2):
            u, last = (u * u + b_exact / u.exp()) / (u + 1), u
        value = resource(b_exact / u, u)
        return value, value.scaleb(4 - prec)


def _minimal_gates(d: int, k: int, L: int, epsilon: float, target: float) -> int:
    # The bound at Ng gates is Ng (a + D ln Ng), with D = d^(2k) and a =
    # k ln L + D ln(14 / eps) its value at one gate (taken before int_power,
    # so that an overflow names its inputs). In x = Ng e^(a/D) that reads
    # x ln x = b = target e^(a/D) / D, so Ng = x e^(-a/D) = target / (D ln x).
    a = circuit_covering_log_bound(d, k, L, 1, epsilon).ln_value
    if a >= target:
        return 1
    D = int_power(d, 2 * k)
    demand = Decimal(target)
    root, error = _root(
        math.log(target) + a / D - math.log(D),
        lambda: demand * 14 * (k * Decimal(L).ln() / D).exp()
        / (D * Decimal(epsilon)),
        lambda x, ln_x: demand / (D * ln_x))
    if abs(root - round(root)) <= error:
        raise ValueError(f"minimal gate count at L={L}, d={d}, k={k}, epsilon="
                         f"{epsilon} is within {error:.1e} of an integer")
    return math.ceil(root)


def _minimal_time(d: int, k: int, L: int, K: int, z: int, h_max: float,
                  epsilon: float, target: float) -> float:
    edge = _min_covered_time(K, z, h_max, epsilon) * (1.0 + 1e-12)
    if evolution_covering_log_bound(L, d, k, K, z, h_max, edge,
                                    epsilon).ln_value >= target:
        return edge  # checked before int_power, as in _minimal_gates
    # value(T) = k K ln L + (D eps / 28) y ln y with D = d^(2k) and
    # y = 112 T^2 K c / eps^2, so y ln y = b = 28 (target - k K ln L) /
    # (D eps) and T^2 = y eps^2 / (112 K c), rounded down to a float.
    D = int_power(d, 2 * k)
    eps = Decimal(epsilon)
    root, _ = _root(
        math.log(28.0) + math.log(target - k * K * math.log(L))
        - math.log(D) - math.log(epsilon),
        lambda: 28 * (Decimal(target) - k * K * Decimal(L).ln()) / (D * eps),
        lambda y, _: (y * eps ** 2 / (
            112 * K * _first_order_constant(K, z, Decimal(h_max)))).sqrt())
    t = float(root)
    return t if Decimal(t) <= root else math.nextafter(t, 0.0)


def _growth_fit(l_values: Sequence[int], values: Sequence[float]) -> dict[str, Any] | None:
    if len(values) < 2:
        return None
    logs = np.log(np.asarray(values, dtype=float))
    ls = np.asarray(l_values, dtype=float)
    ratios = [float(b / a) for a, b in zip(values, values[1:])]
    slope, intercept = np.polyfit(ls, logs, 1)
    pred = slope * ls + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    mean_ratio = float(np.exp(np.mean(np.log(ratios))))
    return {
        "per_site_ratios": ratios,
        "mean_ratio": mean_ratio,
        "log_slope": float(slope),
        "r_squared": r_squared,
    }


def crossover_analysis(d: int, k: int, epsilon: float, l_range,
                       resource: str, params: dict | None = None
                       ) -> CrossoverReport:
    """Minimal resource (gates or time) meeting the projector-covering demand.

    For each L the demand is the log-domain covering lower bound for
    half-rank projectors in dimension m = d^L, taken as the exact value of
    its float; the projector upper bound is never read, so it is not
    computed. Both covering upper bounds read y ln y = b in a rescaled
    resource y, which _root solves in decimal arithmetic of 25 more digits
    than the root has. The gate count is the root's ceiling, the least
    integer whose exact bound meets the demand, refused only when the root
    lies within its own error bound, 10^(4 - prec) of it, of an integer.
    The time is the largest float at or below the root, as it is a lower
    bound on the time a measurement needs, or the validity window's edge
    when that meets the demand already. Its family is the nearest-neighbor
    chain: K = L - 1 terms, z (default 3) and h_max (default 1.0), in the
    first-order constant c = K z h_max^2. An L whose d^(2L) leaves float64
    is refused from the range's ends, before the range is built.
    Finite-size trend only; no asymptotic claim is made.
    """
    if resource not in _RESOURCES:
        raise ValueError(f"resource must be one of {_RESOURCES}")
    ls = (l_range if isinstance(l_range, range) and l_range.step > 0
          else sorted(set(_integer(x, "L") for x in l_range)))
    if not ls:
        raise ValueError("L range is empty")
    d, k = _integer(d, "d"), _integer(k, "k")
    if d < 2 or k < 1:
        raise ValueError("d >= 2 and k >= 1 required")
    params = dict(params or {})
    z = _integer(params.pop("z", 3), "z")
    h_max = float(params.pop("h_max", 1.0))
    if params:
        raise ValueError(f"unknown crossover parameters: {sorted(params)}")
    if z < 1:
        raise ValueError(f"z must be at least 1, got {z}")
    if not 0.0 < h_max < math.inf:
        raise ValueError(f"h_max must be finite and positive, got {h_max}")
    if resource == "time":
        if ls[0] < 2:
            raise ValueError("time resource needs L >= 2 (K = L - 1 terms)")
        # the window edge takes sqrt(K c), c = K z h_max^2, at every K
        try:
            kc = (ls[-1] - 1) * _first_order_constant(ls[-1] - 1, z, h_max)
        except OverflowError:
            kc = math.inf
        if not math.isfinite(kc):
            raise ValueError(f"K c = K^2 z h_max^2 overflows float64 at "
                             f"L = {ls[-1]}, z = {z}, h_max = {h_max!r}")
    if ls[0] < 1:
        # d >= 2, so every L >= 1 gives 1 <= m // 2 < m = d^L
        raise ValueError(
            f"dimension d^L = {d ** ls[0]} too small for half-rank split")
    if 2 * ls[-1] * math.log2(d) >= 1024:
        raise ValueError(
            f"the demand's d^(2L) overflows float64 from L = "
            f"{math.ceil(512 / math.log2(d))} on at d = {d}, got L = {ls[-1]}")

    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if not epsilon <= 1.0 / 71.0:
        raise ValueError(
            f"epsilon {epsilon} outside the lower bound's validity "
            f"window (needs epsilon <= 1/71)")

    rows = []
    for L in ls:
        m = d ** L
        demand = _projector_lower_log(m // 2, m, epsilon)
        if demand <= 0:
            raise ValueError(
                f"covering lower bound is vacuous at L={L}: the half-rank "
                f"demand is positive only for epsilon < 9/1805 "
                f"(~{9 / 1805:.6f}), got {epsilon}")
        if resource == "circuit":
            gates = _minimal_gates(d, k, L, epsilon, demand)
            rows.append(CrossoverRow(L, m, demand, gates, None))
        else:
            t = _minimal_time(d, k, L, L - 1, z, h_max, epsilon, demand)
            rows.append(CrossoverRow(L, m, demand, None, t))

    fit = _growth_fit(ls, [r.value(resource) for r in rows])
    metadata: dict[str, Any] = {
        "scope": "finite-size trend over the reported range; no asymptotic claim",
        "rank_split": "n = floor(d^L / 2)",
    }
    if resource == "time":
        metadata["family"] = {"K": "L - 1", "z": z, "h_max": h_max}
    return CrossoverReport(resource=resource, d=d, k=k,
                           epsilon=float(epsilon), rows=tuple(rows), fit=fit,
                           metadata=metadata)


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        x = float(value)
        if not math.isfinite(x):
            raise ValueError("reports must not contain non-finite floats")
        return f"{x:.17g}"
    if isinstance(value, str):
        return json.dumps(value, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


def _json_encode(value, indent: int) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{inner}{_json_scalar(str(k))}: {_json_encode(v, indent + 1)}"
                 for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{inner}{_json_encode(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _json_scalar(value)


def _report_payload(report) -> dict[str, Any]:
    if hasattr(report, "as_dict"):
        return report.as_dict()
    if isinstance(report, dict):
        return report
    raise TypeError("report must expose as_dict() or be a dict")


def emit_report(report, format: str = "json", path=None) -> str:
    """Serialize a report deterministically; optionally write it to a file.

    JSON output has a fixed key order and 17-significant-digit floats, so
    identical reports yield byte-identical output. CSV is supported for
    crossover reports only (header plus one row per L).
    """
    if format == "json":
        text = _json_encode(_report_payload(report), 0) + "\n"
    elif format == "csv":
        if not isinstance(report, CrossoverReport):
            raise ValueError("CSV output is only defined for crossover reports")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["L", "m", "lower_log", _RESOURCE_FIELDS[report.resource]])
        for row in report.rows:
            writer.writerow([row.L, row.m, _json_scalar(row.lower_log),
                             _json_scalar(row.value(report.resource))])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {format!r}")
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text
