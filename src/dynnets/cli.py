"""Command-line front end for the bound evaluators and verifiers.

Exit codes: 0 when the command ran and every checked property held, 2 when a
verification ran to completion but a property was violated, 1 for usage
errors (flags refused while parsing, which also print the usage line, invalid
parameter ranges, unreadable files). Each
handler returns its report; ``main`` serializes it once, to stdout as
deterministic JSON unless --out is given, and exits 2 on ``passed: false``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .circuits import _DENSE_DIM_LIMIT, circuit_covering_log_bound
from .grassmann import (
    KATO_DISTANCE_LIMIT,
    KATO_RATIO_LIMIT,
    _basis_projectors,
    _kato_unitary,
    _projector_ranks,
    _random_bases,
    kato_deviation,
    product_covering_check,
    projector_covering_bounds,
    quotient_covering_check,
)
from .linalg import (
    _exp_lipschitz_stack,
    _exp_skew_stack,
    _hermitian_part,
    _opnorm_stack,
    _skew_ball_stack,
)
from .logdomain import EpsilonTooSmall
from .metric import (
    FiniteMetricSpace,
    brute_force_covering_number,
    brute_force_packing_number,
    greedy_maximal_packing,
)
from .reports import crossover_analysis, emit_report
from .trotter import (
    CertificateViolation,
    certify_trotter,
    evolution_covering_log_bound,
    hamiltonian_from_json,
)
from .unitary_nets import build_unitary_net, empirical_covering_check

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2

_LEMMA_EPSILONS = (0.6, 1.0, 1.5, 2.0)
# matrix entries per stacked verify-lipschitz or verify-kato block (16
# pairs at n = 128, one pair from m = 513): memory stays flat in --trials,
# --n and --m
_LIPSCHITZ_ENTRIES = 1 << 18
# The lipschitz and kato handlers draw two 8-byte seeds per trial up front:
# 16 MB at this cap.
_MAX_TRIALS = 1_000_000


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits 1, not 2, with ``main``'s error prefix."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"dynnets: error: {message}\n")


def _cmd_bounds_circuit(args):
    return circuit_covering_log_bound(args.d, args.k, args.L, args.ng, args.eps)


def _cmd_bounds_tevol(args):
    return evolution_covering_log_bound(args.L, args.d, args.k, args.K,
                                        args.z, args.h, args.T, args.eps)


def _cmd_bounds_grassmann(args):
    return projector_covering_bounds(args.n, args.m, args.eps)


def _cmd_crossover(args):
    return crossover_analysis(args.d, args.k, args.eps,
                              range(args.lmin, args.lmax + 1), args.resource)


def _cmd_verify_trotter(args) -> dict:
    with open(args.hamiltonian, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    h = hamiltonian_from_json(data)
    try:
        cert = certify_trotter(h, args.T, args.nt)
    except CertificateViolation as exc:
        return {
            "passed": False,
            "T": args.T,
            "N_t": args.nt,
            "measured": exc.measured,
            "bound": exc.bound,
        }
    return {**cert.as_dict(), "passed": True}


def _cmd_verify_lipschitz(args) -> dict:
    seeds = np.random.SeedSequence(args.seed).generate_state(2 * args.trials,
                                                             dtype=np.uint64)
    pairs = max(1, _LIPSCHITZ_ENTRIES // (args.n * args.n))
    violations = 0
    worst = None
    for start in range(0, seeds.size, 2 * pairs):
        draws = _skew_ball_stack(args.n, args.radius,
                                 seeds[start:start + 2 * pairs])
        lower, mid, upper = _exp_lipschitz_stack(draws[0::2], draws[1::2])
        slack = np.minimum(mid - lower, upper - mid)
        i = int(np.argmin(slack))
        if worst is None or slack[i] < worst["slack"]:
            worst = {"lower": float(lower[i]), "mid": float(mid[i]),
                     "upper": float(upper[i]), "slack": float(slack[i])}
        violations += int(np.sum((lower > mid + 1e-10) | (mid > upper + 1e-10)))
    return {
        "n": args.n,
        "radius": args.radius,
        "trials": args.trials,
        "seed": args.seed,
        "violations": violations,
        "worst_triple": worst,
        "passed": violations == 0,
    }


def _random_projector_pairs(n: int, m: int, seeds_a: np.ndarray,
                            seeds_b: np.ndarray, thetas: np.ndarray):
    """Rank-n projectors and rotated copies within the Kato distance limit.

    Row i projects onto random_subspace(n, m, seeds_a[i]); its copy is turned
    by the exponential of random_skew_in_ball(m, thetas[i], seeds_b[i]).
    Returns the (k, m, m) stacks P and Q and the distances ||P - Q||.
    """
    # checked bases: P needs no projector check (_basis_projectors); the
    # rotation is unchecked, so Q gets one
    ps = _basis_projectors(_random_bases(n, m, seeds_a))
    qs = np.empty_like(ps)
    dists = np.empty(len(ps))
    thetas = np.array(thetas, dtype=float)
    rows = np.arange(len(ps))
    while rows.size:
        # all rows at first, then only the rejected ones (a copy)
        p = ps if rows.size == len(ps) else ps[rows]
        rot = _exp_skew_stack(_skew_ball_stack(m, thetas[rows], seeds_b[rows]))
        q = rot @ p @ np.conj(rot).swapaxes(-1, -2)
        del rot
        q = _hermitian_part(q)
        if np.any(_projector_ranks(q) != n):
            raise ValueError("projectors must have equal rank")
        dist = _opnorm_stack(p - q)
        near = dist <= KATO_DISTANCE_LIMIT
        qs[rows[near]] = q[near]
        dists[rows[near]] = dist[near]
        del p, q
        # too far apart: shrink the rotation until inside the limit
        rows = rows[~near]
        thetas[rows] *= 0.5
    return ps, qs, dists


def _cmd_verify_kato(args) -> dict:
    if not 1 <= args.n <= args.m:
        raise ValueError(f"arguments --n and --m: need 1 <= n <= m, "
                         f"got n = {args.n}, m = {args.m}")
    rng = np.random.default_rng(args.seed)
    seeds = np.random.SeedSequence(args.seed).generate_state(2 * args.trials,
                                                             dtype=np.uint64)
    # over 17,200 sampled pairs (m = 2 to 64) the largest rounding gap to
    # the closed form was 3.3 m eps
    closed_form_slack = 16 * args.m * np.finfo(float).eps
    rows = max(1, _LIPSCHITZ_ENTRIES // (args.m * args.m))
    failures = 0
    worst_ratio = 0.0
    worst_conj = 0.0
    for start in range(0, args.trials, rows):
        block = seeds[2 * start:2 * (start + rows)]
        thetas = rng.uniform(0.05, 1.2, size=block.size // 2)
        ps, qs, dists = _random_projector_pairs(args.n, args.m, block[0::2],
                                                block[1::2], thetas)
        vs = _kato_unitary(ps, qs, dists)
        conj = _opnorm_stack(vs @ ps @ np.conj(vs).swapaxes(-1, -2) - qs)
        dev = _opnorm_stack(np.eye(args.m) - vs)
        del ps, qs, vs  # before the next block is drawn
        ratio = np.divide(dev, dists, out=np.zeros_like(dev),
                          where=dists > 1e-14)
        worst_ratio = max(worst_ratio, float(ratio.max()))
        worst_conj = max(worst_conj, float(conj.max()))
        failures += int(np.count_nonzero(
            (conj > 1e-8) | (dev > KATO_RATIO_LIMIT * dists + 1e-9)
            | (np.abs(dev - kato_deviation(dists)) > closed_form_slack)))
    return {
        "n": args.n,
        "m": args.m,
        "trials": args.trials,
        "seed": args.seed,
        "failures": failures,
        "worst_deviation_ratio": worst_ratio,
        "ratio_limit": KATO_RATIO_LIMIT,
        "worst_conjugation_defect": worst_conj,
        "passed": failures == 0,
    }


def _cmd_verify_nets(args) -> dict:
    net = build_unitary_net(args.n, args.eps)
    max_gap, covered = empirical_covering_check(net, args.samples, args.seed)
    return {
        "n": args.n,
        "epsilon": args.eps,
        "elements": len(net),
        "samples": args.samples,
        "seed": args.seed,
        "max_gap": max_gap,
        "passed": covered,
    }


def _lemma_product_cases() -> list[dict]:
    pairs = ((6, 5), (4, 7), (8, 3))
    cases = []
    for n1, n2 in pairs:
        s1 = FiniteMetricSpace.cycle(n1)
        s2 = FiniteMetricSpace.cycle(n2)
        for eps in _LEMMA_EPSILONS:
            report = product_covering_check(s1, s2, eps)
            cases.append(report.as_dict())
    return cases


def _lemma_quotient_cases() -> list[dict]:
    triples = ((8, 2), (12, 3), (12, 4))
    cases = []
    for order, sub in triples:
        for eps in _LEMMA_EPSILONS:
            report = quotient_covering_check(order, sub, eps)
            cases.append(report.as_dict())
    return cases


def _lemma_sandwich_cases() -> list[dict]:
    rng = np.random.default_rng(20240801)
    cases = []
    for i in range(12):
        size = int(rng.integers(4, 11))
        coords = rng.normal(size=(size, 3))
        space = FiniteMetricSpace.from_coords(coords)
        scale = float(np.median(space.matrix[space.matrix > 0]))
        for frac in (0.25, 0.5, 1.0):
            eps = scale * frac
            cover = brute_force_covering_number(space, eps)
            pack_2eps = brute_force_packing_number(space, 2.0 * eps)
            pack_eps = brute_force_packing_number(space, eps)
            greedy = greedy_maximal_packing(space, eps, seed=i)
            cases.append({
                "space": i,
                "points": size,
                "epsilon": eps,
                "pack_2eps": pack_2eps,
                "cover_eps": cover,
                "pack_eps": pack_eps,
                "greedy_certified": greedy.is_covering and greedy.is_packing,
                "passed": (pack_2eps <= cover <= pack_eps
                           and greedy.is_covering and greedy.is_packing),
            })
    return cases


def _cmd_verify_lemmas(args) -> dict:
    runners = {
        "product": _lemma_product_cases,
        "quotient": _lemma_quotient_cases,
        "sandwich": _lemma_sandwich_cases,
    }
    cases = runners[args.which]()
    return {"which": args.which, "cases": cases,
            "passed": all(case["passed"] for case in cases)}


def _finite_float(text: str) -> float:
    """argparse type for float flags: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _checked(parse, holds, requirement: str):
    """argparse type: ``parse``, then refuse a value ``holds`` rejects."""
    def parse_checked(text: str):
        value = parse(text)
        if not holds(value):
            raise argparse.ArgumentTypeError(
                f"must be {requirement}, got {value}")
        return value

    # argparse names the type in "invalid int value: 'x'"
    parse_checked.__name__ = parse.__name__
    return parse_checked


_int_at_least_1 = _checked(int, lambda v: v >= 1, "at least 1")
_int_trials = _checked(_int_at_least_1, lambda v: v <= _MAX_TRIALS,
                       f"at most {_MAX_TRIALS}")
_int_non_negative = _checked(int, lambda v: v >= 0, "non-negative")
_int_dense_cap = _checked(int, lambda v: v <= _DENSE_DIM_LIMIT,
                          f"at most {_DENSE_DIM_LIMIT}")
_int_dense_dim = _checked(_int_dense_cap, lambda v: v >= 1, "at least 1")
_float_non_negative = _checked(_finite_float, lambda v: v >= 0,
                               "non-negative")
_float_positive = _checked(_finite_float, lambda v: v > 0, "positive")


def _command(sub, name: str, help: str, handler, **flags):
    """Add a subcommand; each keyword is a required ``--flag`` and its type."""
    parser = sub.add_parser(name, help=help)
    for flag, parse in flags.items():
        parser.add_argument(f"--{flag}", type=parse, required=True)
    parser.set_defaults(handler=handler)
    return parser


@functools.cache
def build_parser() -> _Parser:
    """The dynnets parser, built once per process and shared; do not mutate."""
    parser = _Parser(prog="dynnets", allow_abbrev=False,
                     description=__doc__.splitlines()[0])
    # only crossover declares --out/--format; every other command emits JSON
    parser.set_defaults(out=None, format="json")
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="log-domain covering bounds")
    bsub = bounds.add_subparsers(dest="target", required=True)
    _command(bsub, "circuit", "circuit covering upper bound",
             _cmd_bounds_circuit, d=int, k=int, L=int, ng=int,
             eps=_finite_float)
    _command(bsub, "tevol", "time-evolution covering upper bound",
             _cmd_bounds_tevol, d=int, k=int, L=int, K=int, z=int,
             h=_finite_float, T=_finite_float, eps=_finite_float)
    _command(bsub, "grassmann", "projector covering bounds",
             _cmd_bounds_grassmann, n=int, m=int, eps=_finite_float)

    cx = _command(sub, "crossover", "minimal resource vs system size",
                  _cmd_crossover, d=int, k=int, lmin=int, lmax=int,
                  eps=_finite_float)
    cx.add_argument("--resource", choices=("circuit", "time"), required=True)
    cx.add_argument("--out", default=None)
    cx.add_argument("--format", choices=("json", "csv"), default="json")

    verify = sub.add_parser("verify", help="property verifications")
    vsub = verify.add_subparsers(dest="check", required=True)
    _command(vsub, "trotter", "certify a Trotter run", _cmd_verify_trotter,
             hamiltonian=str, T=_float_non_negative, nt=_int_at_least_1)
    # kato's 1 <= n <= m is checked by its handler
    _command(vsub, "lipschitz", "exp-map distortion bounds",
             _cmd_verify_lipschitz, n=_int_dense_dim, trials=_int_trials,
             seed=_int_non_negative, radius=_float_positive)
    _command(vsub, "kato", "projector-pair conjugating unitary",
             _cmd_verify_kato, n=int, m=_int_dense_cap,
             trials=_int_trials, seed=_int_non_negative)
    _command(vsub, "nets", "unitary net covering check", _cmd_verify_nets,
             n=_checked(int, lambda v: v in (1, 2), "1 or 2"),
             samples=_int_at_least_1, seed=_int_non_negative, eps=_finite_float)
    vlem = _command(vsub, "lemmas", "exact small-instance lemma checks",
                    _cmd_verify_lemmas)
    vlem.add_argument("--which", choices=("product", "quotient", "sandwich"),
                      required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = args.handler(args)
        text = emit_report(report, format=args.format, path=args.out)
        if args.out is None:
            sys.stdout.write(text)
    except EpsilonTooSmall as exc:
        print(f"dynnets: error: argument --eps: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"dynnets: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    violated = isinstance(report, dict) and report["passed"] is False
    return EXIT_VIOLATION if violated else EXIT_PASS


if __name__ == "__main__":
    sys.exit(main())
