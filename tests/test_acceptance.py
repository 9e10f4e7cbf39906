"""End-to-end acceptance checks, one per shipped guarantee.

Each test records a single PASS/FAIL line, with the criterion's wall time,
through the ``acceptance`` fixture of ``conftest.py``; pytest lists the
lines in the "acceptance" section of its terminal summary. Tolerances are
pinned as module constants; the stated runtime budgets are asserted where
a guarantee includes one.
"""

import math
import time

import numpy as np

from dynnets.circuits import (
    Circuit,
    Gate,
    QuditRegister,
    circuit_unitary,
    conjugate_observable,
    discretize_circuit,
)
from dynnets.grassmann import (
    Projector,
    kato_unitary,
    product_covering_check,
    projector_distance,
    projector_from_subspace,
    quotient_covering_check,
    random_subspace,
)
from dynnets.linalg import (
    _exp_lipschitz_stack,
    _skew_ball_stack,
    haar_unitary,
    matrix_exp,
    operator_norm,
    spectral_width,
)
from dynnets.metric import (
    FiniteMetricSpace,
    brute_force_covering_number,
    brute_force_packing_number,
    greedy_maximal_packing,
)
from dynnets.reports import (
    coarse_grain_hermitian,
    coarse_grain_spectrum,
    crossover_analysis,
    degeneracy_profile_extensive_z,
)
from dynnets.trotter import (
    CertificateViolation,
    CosineEnvelope,
    HamiltonianTerm,
    TimeDependentHamiltonian,
    certify_trotter,
    exact_propagator,
    trotter_propagator,
)
from dynnets.unitary_nets import (
    build_unitary_net,
    circle_covering_number,
    empirical_covering_check,
)

SZ = np.diag([1.0, -1.0]).astype(complex)

LIPSCHITZ_SLACK = 1e-10
KATO_UNITARITY_TOL = 1e-10
KATO_CONJUGATION_TOL = 1e-8
KATO_NORM_SLACK = 1e-9
# per dimension m: ||1 - V|| against its closed form
KATO_CLOSED_FORM_SLACK = 16 * np.finfo(float).eps
CIRCUIT_SLACK = 1e-9
SLOPE_WINDOW = (-1.15, -0.85)


def _random_hermitian(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return 0.5 * (g + g.conj().T)


def _random_chain(rng):
    """Random nearest-neighbor qubit chain with cosine envelopes."""
    L = int(rng.integers(2, 6))
    n_terms = int(rng.integers(1, min(5, L - 1) + 1))
    supports = rng.choice(L - 1, size=n_terms, replace=False)
    terms = []
    for s in sorted(int(x) for x in supports):
        base = _random_hermitian(rng, 4)
        base *= rng.uniform(0.4, 1.2) / operator_norm(base)
        env = CosineEnvelope(float(rng.uniform(0.3, 1.0)),
                             float(rng.uniform(0.5, 3.0)),
                             float(rng.uniform(0.0, 2.0 * math.pi)))
        terms.append(HamiltonianTerm((s, s + 1), base, env))
    return TimeDependentHamiltonian(QuditRegister(L, 2), terms)


def test_criterion_1_trotter_certificate(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    violations = []
    for instance in range(50):
        h = _random_chain(rng)
        t_final = float(rng.uniform(0.5, 2.0))
        n_steps = int(rng.choice([4, 8, 16, 32, 64]))
        try:
            cert = certify_trotter(h, t_final, n_steps)
        except CertificateViolation as exc:
            violations.append((instance, exc.measured, exc.bound))
            continue
        if cert.measured > cert.bound + 1e-9:
            violations.append((instance, cert.measured, cert.bound))

    # first-order convergence on overlapping (non-commuting) chains
    slopes = []
    for seed in (101, 202, 303):
        srng = np.random.default_rng(seed)
        reg = QuditRegister(3, 2)
        terms = []
        for s in (0, 1):
            base = _random_hermitian(srng, 4)
            base *= 1.0 / operator_norm(base)
            terms.append(HamiltonianTerm(
                (s, s + 1), base,
                CosineEnvelope(0.9, float(srng.uniform(1.0, 3.0)))))
        h = TimeDependentHamiltonian(reg, terms)
        exact = exact_propagator(h, 1.5, tol=1e-11)
        steps = np.array([4, 8, 16, 32, 64])
        errors = np.array([
            operator_norm(trotter_propagator(h, 1.5, int(n)).array
                          - exact.array)
            for n in steps
        ])
        slopes.append(float(np.polyfit(np.log(steps), np.log(errors), 1)[0]))

    elapsed = time.perf_counter() - start
    slopes_ok = all(SLOPE_WINDOW[0] <= s <= SLOPE_WINDOW[1] for s in slopes)
    ok = not violations and slopes_ok and elapsed <= 300.0
    acceptance(1, "Trotter certificate soundness", ok, start)
    assert not violations, f"bound violated on instances {violations}"
    assert slopes_ok, f"log-log slopes {slopes} outside {SLOPE_WINDOW}"
    assert elapsed <= 300.0, f"runtime {elapsed:.1f}s exceeds 5 min"


def test_criterion_2_exp_map_lipschitz(acceptance):
    start = time.perf_counter()
    failures = []
    for n in (2, 3, 4, 6):
        seeds = np.random.SeedSequence(88_000 + n).generate_state(
            20_000, dtype=np.uint64)
        # 5000 pairs across the full ball: contraction upper bound only;
        # then 5000 pairs in the small ball: two-sided. Pair i is drawn
        # from seeds 2i and 2i + 1 of its half, one stack per half.
        for radius, half in ((math.pi, seeds[:10_000]), (0.4, seeds[10_000:])):
            draws = _skew_ball_stack(n, radius, half)
            lower, mid, upper = _exp_lipschitz_stack(draws[0::2], draws[1::2])
            failures += [(n, "upper", gap) for gap in
                         (mid - upper)[mid > upper + LIPSCHITZ_SLACK]]
            if radius < 1.0:
                failures += [(n, "lower", gap) for gap in
                             (lower - mid)[lower > mid + LIPSCHITZ_SLACK]]
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed <= 120.0
    acceptance(2, "Exp-map Lipschitz bounds", ok, start)
    assert not failures, f"{len(failures)} violations, first: {failures[:3]}"
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds 2 min"


def _nearby_projector_pair(n, m, seed_a, seed_b, theta):
    p = projector_from_subspace(random_subspace(n, m, seed_a))
    rng = np.random.default_rng(seed_b)
    g = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    skew = 0.5 * (g - g.conj().T)
    skew *= 1.0 / operator_norm(skew)
    while True:
        w = matrix_exp(theta * skew)
        q = Projector(w @ p.matrix @ w.conj().T)
        if projector_distance(p, q) <= 1.0 / math.sqrt(2.0):
            return p, q
        theta *= 0.5


def test_criterion_3_kato_construction(acceptance):
    start = time.perf_counter()
    failures = []
    for n, m in ((1, 2), (2, 4), (3, 8)):
        seeds = np.random.SeedSequence(55_000 + m).generate_state(
            2000, dtype=np.uint64)
        thetas = np.random.default_rng(55_500 + m).uniform(0.05, 1.2, 1000)
        for i in range(1000):
            p, q = _nearby_projector_pair(n, m, int(seeds[2 * i]),
                                          int(seeds[2 * i + 1]),
                                          float(thetas[i]))
            dist = projector_distance(p, q)
            v = kato_unitary(p, q).array
            unitarity = operator_norm(v.conj().T @ v - np.eye(m))
            conjugation = operator_norm(v @ p.matrix @ v.conj().T - q.matrix)
            deviation = operator_norm(np.eye(m) - v)
            if unitarity > KATO_UNITARITY_TOL:
                failures.append((n, m, "unitarity", unitarity))
            if conjugation > KATO_CONJUGATION_TOL:
                failures.append((n, m, "conjugation", conjugation))
            if deviation > (5.0 / math.sqrt(2.0)) * dist + KATO_NORM_SLACK:
                failures.append((n, m, "deviation", deviation, dist))
            # V rotates by the principal angles: ||1 - V|| = 2 sin(theta/2)
            closed = 2.0 * math.sin(0.5 * math.asin(dist))
            if abs(deviation - closed) > KATO_CLOSED_FORM_SLACK * m:
                failures.append((n, m, "closed form", deviation, closed))
    ok = not failures
    acceptance(3, "Kato unitary construction", ok, start)
    assert ok, f"{len(failures)} failures, first: {failures[:3]}"


def test_criterion_4_sandwich(acceptance):
    start = time.perf_counter()
    rng = np.random.default_rng(40_404)
    failures = []
    for space_id in range(200):
        size = int(rng.integers(2, 13))
        coords = rng.normal(size=(size, 3))
        space = FiniteMetricSpace.from_coords(
            [tuple(row) for row in coords])
        diam = float(space.matrix.max())
        for frac in (0.15, 0.3, 0.5, 0.75, 1.0):
            eps = frac * diam
            cover = brute_force_covering_number(space, eps, limit=size)
            pack = brute_force_packing_number(space, eps, limit=size)
            pack2 = brute_force_packing_number(space, 2.0 * eps, limit=size)
            if not pack2 <= cover <= pack:
                failures.append((space_id, eps, pack2, cover, pack))
            net = greedy_maximal_packing(space, eps, seed=space_id)
            if not (net.is_covering and net.is_packing):
                failures.append((space_id, eps, "greedy"))
    ok = not failures
    acceptance(4, "Covering/packing sandwich", ok, start)
    assert ok, f"{len(failures)} failures, first: {failures[:3]}"


def test_criterion_5_unitary_net_sanity(acceptance):
    start = time.perf_counter()
    failures = []
    for eps in (0.02, 0.05, 0.1):
        exact = circle_covering_number(eps)
        if not 3.0 / (4.0 * eps) <= exact <= 7.0 / eps:
            failures.append(("circle", eps, exact))
    net = build_unitary_net(2, 0.5)
    max_gap, covered = empirical_covering_check(net, 10_000, seed=424_242)
    if not covered or max_gap > 0.5:
        failures.append(("haar-gap", max_gap))
    ok = not failures
    acceptance(5, "Unitary net covering sanity", ok, start)
    assert ok, f"failures: {failures}"


def test_criterion_6_circuit_discretization(acceptance):
    start = time.perf_counter()
    from dynnets.unitary_nets import ImplicitGridNet

    rng = np.random.default_rng(60_606)
    net = ImplicitGridNet(4, 0.4)
    failures = []
    for circuit_id in range(100):
        L = int(rng.integers(2, 5))
        reg = QuditRegister(L, 2)
        n_gates = int(rng.integers(1, 9))
        gates = []
        for g in range(n_gates):
            k = int(rng.integers(1, 3))
            sites = tuple(sorted(
                int(x) for x in rng.choice(L, size=k, replace=False)))
            u = haar_unitary(2 ** k, seed=int(rng.integers(0, 2 ** 31)))
            gates.append(Gate(sites, u.array))
        circuit = Circuit(reg, gates)
        disc, bound = discretize_circuit(circuit, net)
        deviation = operator_norm(circuit_unitary(circuit).array
                                  - circuit_unitary(disc).array)
        if deviation > bound + CIRCUIT_SLACK:
            failures.append((circuit_id, "deviation", deviation, bound))
        if bound > n_gates * 0.4 + CIRCUIT_SLACK:
            failures.append((circuit_id, "per-gate", bound, n_gates))
        obs = _random_hermitian(rng, reg.dim)
        conj_err = operator_norm(conjugate_observable(circuit, obs)
                                 - conjugate_observable(disc, obs))
        limit = 2.0 * bound * spectral_width(obs) + CIRCUIT_SLACK
        if conj_err > limit:
            failures.append((circuit_id, "conjugation", conj_err, limit))
    ok = not failures
    acceptance(6, "Circuit discretization", ok, start)
    assert ok, f"{len(failures)} failures, first: {failures[:3]}"


def test_criterion_7_product_quotient_lemmas(acceptance):
    start = time.perf_counter()
    failures = []
    eps_values = (0.6, 1.0, 1.5, 2.0)
    for n1, n2 in ((8, 8), (6, 5), (4, 7), (8, 3)):
        c1 = FiniteMetricSpace.cycle(n1)
        c2 = FiniteMetricSpace.cycle(n2)
        for eps in eps_values:
            rep = product_covering_check(c1, c2, eps)
            if not rep.passed:
                failures.append(("product", n1, n2, eps, rep.as_dict()))
    for order, sub in ((8, 2), (12, 3), (12, 4)):
        for eps in eps_values:
            rep = quotient_covering_check(order, sub, eps)
            if not rep.passed:
                failures.append(("quotient", order, sub, eps, rep.as_dict()))
    ok = not failures
    acceptance(7, "Product and quotient covering lemmas", ok, start)
    assert ok, f"failures: {failures[:3]}"


def test_criterion_8_crossover_growth(acceptance):
    start = time.perf_counter()
    gates_report = crossover_analysis(2, 2, 0.001, range(8, 15), "circuit")
    time_report = crossover_analysis(2, 2, 0.001, range(8, 15), "time")
    elapsed = time.perf_counter() - start

    ratios = gates_report.fit["per_site_ratios"]
    ratios_ok = all(3.5 <= r <= 4.5 for r in ratios)
    times = [r.min_time for r in time_report.rows]
    growing = all(a < b for a, b in zip(times, times[1:]))
    r2_ok = time_report.fit["r_squared"] >= 0.99
    ok = ratios_ok and growing and r2_ok and elapsed <= 10.0
    acceptance(8, "Gate-count and time crossover growth", ok, start)
    assert ratios_ok, f"per-site ratios {ratios} outside [3.5, 4.5]"
    assert growing, f"minimal times not increasing: {times}"
    assert r2_ok, f"log-linear fit R^2 {time_report.fit['r_squared']}"
    assert elapsed <= 10.0, f"runtime {elapsed:.1f}s exceeds 10 s"


def test_criterion_9_coarse_graining(acceptance):
    start = time.perf_counter()
    profile = degeneracy_profile_extensive_z(4)
    _, shift, deg1, deg2 = coarse_grain_spectrum(profile, 0.0, 2.0, 1.0)

    # exact enumeration of the 16-dimensional magnetization spectrum
    dense = np.zeros((16, 16), dtype=complex)
    for site in range(4):
        ops = [SZ if i == site else np.eye(2) for i in range(4)]
        term = ops[0]
        for op in ops[1:]:
            term = np.kron(term, op)
        dense += term
    w = np.linalg.eigvalsh(dense)
    count0 = int(np.sum(np.abs(w) <= 0.5))
    count2 = int(np.sum(np.abs(w - 2.0) <= 0.5))

    snapped, _ = coarse_grain_hermitian(dense, 0.0, 2.0, 1.0)
    distance = operator_norm(dense - snapped)

    ok = ((deg1, deg2) == (6, 4) == (count0, count2)
          and shift == 0.5 and distance <= 0.5)
    acceptance(9, "Spectral coarse-graining", ok, start)
    assert (deg1, deg2) == (6, 4)
    assert (count0, count2) == (6, 4)
    assert distance <= 0.5, f"reconstruction moved by {distance}"
