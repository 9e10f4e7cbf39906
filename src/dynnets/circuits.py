"""Qudit circuits: composition, observable conjugation, and discretization.

Site 0 is the leftmost tensor factor (most significant digit of the basis
index). A gate's matrix is indexed row-major over its sorted support. Gate 0
acts first, so the circuit unitary is g_{N-1} ... g_1 g_0. Discretization
snaps all of a circuit's gates to a net in one stacked call of the net.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .linalg import UnitaryMatrix, _hermitian_part, _require_hermitian
from .logdomain import LogBound, _integer, finite_log, int_power

_DENSE_DIM_LIMIT = 4096


class QuditRegister:
    """L qudit sites of local dimension d, with dense total dimension d^L."""

    __slots__ = ("L", "d")

    def __init__(self, L: int, d: int):
        L, d = _integer(L, "L"), _integer(d, "d")
        if L < 1:
            raise ValueError("register needs at least one site")
        if d < 2:
            raise ValueError("local dimension must be at least 2")
        # d >= 2, so an L past the limit's bit length needs no power d^L
        if L >= _DENSE_DIM_LIMIT.bit_length() or d ** L > _DENSE_DIM_LIMIT:
            raise ValueError(
                f"dense dimension {d}^{L} exceeds the limit {_DENSE_DIM_LIMIT}")
        self.L, self.d = L, d

    @property
    def dim(self) -> int:
        return self.d ** self.L

    def __eq__(self, other) -> bool:
        return (isinstance(other, QuditRegister)
                and self.L == other.L and self.d == other.d)

    def __hash__(self) -> int:
        return hash((self.L, self.d))

    def __repr__(self) -> str:
        return f"QuditRegister(L={self.L}, d={self.d})"


def _checked_support(support, what: str) -> tuple[int, ...]:
    """A support as a tuple of sorted, distinct, non-negative site indices."""
    sup = tuple(_integer(s, f"{what} support site") for s in support)
    if not sup:
        raise ValueError(f"{what} support must be non-empty")
    if len(set(sup)) != len(sup):
        raise ValueError(f"{what} support sites must be distinct")
    if list(sup) != sorted(sup):
        raise ValueError(f"{what} support must be sorted ascending")
    if min(sup) < 0:
        raise ValueError(f"{what} support sites must be non-negative")
    return sup


def _check_on_register(register, support, dim: int, what: str) -> None:
    """A checked support lies on the register and fits a dim x dim matrix."""
    if max(support) >= register.L:
        raise ValueError(
            f"{what} support {support} exceeds register size {register.L}")
    expected = register.d ** len(support)
    if dim != expected:
        raise ValueError(
            f"{what} on {len(support)} site(s) must be "
            f"{expected}-dimensional, got {dim}")


class Gate:
    """A unitary acting on a sorted tuple of distinct sites."""

    __slots__ = ("support", "matrix")

    def __init__(self, support, matrix):
        self.support = _checked_support(support, "gate")
        self.matrix = (matrix if isinstance(matrix, UnitaryMatrix)
                       else UnitaryMatrix(matrix))

    def __repr__(self) -> str:
        return f"Gate(support={self.support}, dim={self.matrix.dim})"


class Circuit:
    """An ordered gate sequence on a register; validated on construction.

    ``circuit_unitary`` builds the dense unitary on first use and keeps it
    for as long as the circuit lives: d^(2L) complex entries, 268 MB at the
    4096-dimensional register cap.
    """

    __slots__ = ("register", "gates", "_unitary")

    def __init__(self, register: QuditRegister, gates):
        gs = tuple(gates)
        for g in gs:
            if not isinstance(g, Gate):
                raise ValueError("circuit gates must be Gate instances")
            _check_on_register(register, g.support, g.matrix.dim, "gate")
        self.register = register
        self.gates = gs
        self._unitary = None

    @property
    def n_gates(self) -> int:
        return len(self.gates)

    def __repr__(self) -> str:
        return f"Circuit(register={self.register}, n_gates={self.n_gates})"


def _apply_gate(matrix: np.ndarray, support: tuple[int, ...],
                state: np.ndarray, L: int, d: int) -> np.ndarray:
    """Left-multiply dense (dim, dim) matrices by a gate embedded at support.

    ``state`` is one (dim, dim) matrix or a (lead, dim, dim) stack; ``matrix``
    is one (d^k, d^k) gate for every block or a (lead, d^k, d^k) stack, one
    gate per block. Each block's rows are viewed as (d^before, d^k, rest),
    with the support's site axes in the middle and the columns in ``rest``,
    and the gates as (-1, 1, d^k, d^k), so one broadcast np.matmul applies
    one gate or a stack alike. The site axes are transposed in and out; on a
    contiguous support that permutation is the identity, so neither
    transpose copies.
    """
    dim, k, first = d ** L, len(support), support[0]
    # axes: lead, sites before the support, the support, the other sites in
    # order, columns
    perm = [0, *range(1, first + 1), *(1 + s for s in support),
            *(1 + s for s in range(first, L) if s not in support), L + 1]
    t = state.reshape((-1,) + (d,) * L + (dim,)).transpose(perm)
    t = t.reshape(-1, d ** first, d ** k, d ** (L - first - k) * dim)
    t = np.matmul(matrix.reshape(-1, 1, d ** k, d ** k), t)
    t = t.reshape((-1,) + (d,) * L + (dim,))
    inverse = sorted(range(L + 2), key=perm.__getitem__)
    return np.ascontiguousarray(t.transpose(inverse)).reshape(state.shape)


def circuit_unitary(circuit: Circuit) -> UnitaryMatrix:
    """Dense unitary implemented by the circuit (gate 0 applied first).

    Built gate by gate on the first call and cached on the circuit; later
    calls return the same read-only ``UnitaryMatrix``.
    """
    if circuit._unitary is None:
        reg = circuit.register
        u = np.eye(reg.dim, dtype=complex)
        for gate in circuit.gates:
            u = _apply_gate(gate.matrix.array, gate.support, u, reg.L, reg.d)
        circuit._unitary = UnitaryMatrix(u, _validated=True)
    return circuit._unitary


def conjugate_observable(circuit: Circuit, observable) -> np.ndarray:
    """Heisenberg image U^dag O U of a Hermitian observable under the circuit.

    U is the circuit's cached ``circuit_unitary``. The result is the
    Hermitian part of the product, so it is exactly Hermitian, and so is the
    difference of two images, whose norm above dimension 64 then comes from
    one eigvalsh (``operator_norm``). Above dimension 64 an observable equal
    to its conjugate transpose passes ``_require_hermitian`` by that one
    test and enters the product as given, with no re-symmetrized copy. It
    equals the copy in every entry, so the image is bit for bit the one
    through the copy, except possibly in the sign of a zero entry and for
    an observable with subnormal entries. Other observables enter as their
    checked Hermitian part.
    """
    obs = _require_hermitian(observable)
    if obs.shape[0] != circuit.register.dim:
        raise ValueError(
            f"observable dimension {obs.shape[0]} does not match register "
            f"dimension {circuit.register.dim}")
    u = circuit_unitary(circuit).array
    return _hermitian_part(u.conj().T @ obs @ u)


def _pad_gate(gate: Gate, k: int, L: int, d: int) -> Gate:
    """Extend a gate to exactly k <= L sites by tensoring with identity factors."""
    needed = k - len(gate.support)
    if needed < 0:
        raise ValueError(
            f"gate on {len(gate.support)} sites exceeds the net's {k} sites")
    if needed == 0:
        return gate
    extra = [s for s in range(L) if s not in gate.support]
    padded = tuple(sorted(gate.support + tuple(extra[:needed])))
    positions = tuple(padded.index(s) for s in gate.support)
    eye = np.eye(d ** k, dtype=complex)
    emb = _apply_gate(gate.matrix.array, positions, eye, k, d)
    return Gate(padded, UnitaryMatrix(emb, _validated=True))


def discretize_circuit(circuit: Circuit, net) -> tuple[Circuit, float]:
    """Replace every gate by a net element; returns the circuit and error bound.

    The net acts on d^k-dimensional gates; smaller gates are padded with
    identity factors, and the net snaps all the padded gates in one stacked
    call (``UnitaryNet`` or ``ImplicitGridNet`` alike). The bound is the sum
    of realized per-gate distances, which dominates the operator-norm
    deviation of the full circuit unitary.
    """
    reg = circuit.register
    n = net.n
    k = round(math.log(n, reg.d))
    if reg.d ** k != n:
        raise ValueError(
            f"net dimension {n} is not a power of the local dimension {reg.d}")
    if k > reg.L:
        raise ValueError(f"net acts on {k} sites but the register has {reg.L}")
    padded = [_pad_gate(gate, k, reg.L, reg.d) for gate in circuit.gates]
    targets = np.array([g.matrix.array for g in padded]).reshape(-1, n, n)
    elements, dists = net._snap(targets)
    total = 0.0
    for dist in dists:  # in gate order, one float at a time
        total += float(dist)
    return Circuit(reg, [Gate(g.support, UnitaryMatrix(e, _validated=True))
                         for g, e in zip(padded, elements)]), total


def circuit_covering_log_bound(d: int, k: int, L: int, n_gates: int,
                               epsilon: float) -> LogBound:
    """ln of the reachable-set covering bound L^(k Ng) (14 Ng / eps)^(d^(2k) Ng).

    Requires eps <= Ng/5 so that the per-gate net scale eps/(2 Ng) stays
    within the validity window of the unitary-group covering bound.
    """
    d, k = _integer(d, "d"), _integer(k, "k")
    L, n_gates = _integer(L, "L"), _integer(n_gates, "n_gates")
    if d < 2 or k < 1 or L < 1 or n_gates < 1:
        raise ValueError("d >= 2, k >= 1, L >= 1, and n_gates >= 1 required")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    # from 2^1023 on, 2.0 * n_gates is inf or raises; the scale is 0 there
    if n_gates < 2 ** 1023 and epsilon / (2.0 * n_gates) > 0.1:
        raise ValueError(
            f"epsilon too large for inner-net validity: need epsilon <= "
            f"{n_gates / 5.0} (= n_gates/5), got {epsilon}")
    ln_value = finite_log(
        lambda: topology_count_log(L, k, n_gates) + int_power(d, 2 * k)
        * n_gates * math.log(14.0 * n_gates / epsilon),
        math.isinf(1.0 / epsilon), d=d, k=k, L=L, n_gates=n_gates,
        epsilon=epsilon)
    return LogBound(ln_value, {
        "d": d,
        "k": k,
        "L": L,
        "n_gates": n_gates,
        "epsilon": float(epsilon),
        "topology_log": topology_count_log(L, k, n_gates),
        "hypothesis_gates_exceed_sites": n_gates > L,
    })


def topology_count_log(L: int, k: int, n_gates: int) -> float:
    """ln of the support-placement count L^(k Ng)."""
    L, k, n_gates = _integer(L, "L"), _integer(k, "k"), _integer(n_gates, "n_gates")
    if L < 1 or k < 1 or n_gates < 0:
        raise ValueError("L >= 1, k >= 1, n_gates >= 0 required")
    return k * n_gates * math.log(L)


def _encode_matrix(matrix: np.ndarray) -> list[list[float]]:
    """Row-major [re, im] pairs of a complex matrix."""
    pairs = np.ascontiguousarray(matrix, dtype=complex).view(float)
    return pairs.reshape(-1, 2).tolist()


def _decode_matrix(raw, dim: int, what: str) -> np.ndarray:
    """The (dim, dim) complex matrix written as row-major [re, im] pairs."""
    pairs = np.ascontiguousarray(raw, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"{what} must be a list of [re, im] pairs")
    if pairs.shape[0] != dim * dim:
        raise ValueError(
            f"{what} has {pairs.shape[0]} entries, expected {dim * dim}")
    return pairs.view(complex).reshape(dim, dim)


def _parse_json(data, kind: str, items: str, fields: tuple[str, ...], what: str):
    """Register and lazily decoded (support, matrix, *rest) items of a document.

    ``data`` is JSON text or an already parsed dict with keys ``L``, ``d`` and
    ``items``; each item carries ``support`` and the ``fields``, the first of
    them a matrix. Items are decoded one at a time, so the caller's per-item
    checks run in order. A missing key or a mistyped ``L``, ``d``, item list,
    item or support raises ``ValueError`` naming it.
    """
    if isinstance(data, (str, bytes)):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise ValueError(f"{kind} JSON must be an object, got {type(data).__name__}")
    try:
        L, d = _integer(data["L"], "L"), _integer(data["d"], "d")
        entries = data[items]
    except KeyError as exc:
        raise ValueError(f"{kind} JSON missing key {exc}") from None
    except ValueError:
        raise ValueError(f"{kind} JSON 'L' and 'd' must be integers") from None
    reg = QuditRegister(L, d)
    if not isinstance(entries, (list, tuple)):
        raise ValueError(
            f"{kind} JSON {items!r} must be a list, got {type(entries).__name__}")

    def decoded():
        for entry in entries:
            if not isinstance(entry, dict):
                raise ValueError(f"{kind} JSON item in {items!r} must be an "
                                 f"object, got {type(entry).__name__}")
            try:
                support = tuple(entry["support"])
                matrix, *rest = (entry[key] for key in fields)
            except KeyError as exc:
                raise ValueError(
                    f"{kind} JSON item in {items!r} missing key {exc}") from None
            except TypeError:
                raise ValueError(f"{kind} JSON item in {items!r}: 'support' "
                                 f"must be a list of integers") from None
            yield support, _decode_matrix(matrix, reg.d ** len(support), what), *rest

    return reg, decoded()


def circuit_to_json(circuit: Circuit) -> dict:
    """Circuit as a JSON-ready dict: {"L", "d", "gates": [{"support", "matrix"}]}.

    Matrix entries are [re, im] pairs, flattened row-major.
    """
    gates = [{"support": list(g.support), "matrix": _encode_matrix(g.matrix.array)}
             for g in circuit.gates]
    return {"L": circuit.register.L, "d": circuit.register.d, "gates": gates}


def circuit_from_json(data) -> Circuit:
    """Parse the JSON circuit format; validates unitarity of every gate."""
    reg, items = _parse_json(data, "circuit", "gates", ("matrix",), "gate matrix")
    return Circuit(reg, [Gate(support, mat) for support, mat in items])
