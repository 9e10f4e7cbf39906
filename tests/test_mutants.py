"""Defects injected by monkeypatch that the certified checks must refuse.

Each check runs on a deterministic worst-case family, next to the random
draws of the acceptance criteria, and each mutant records the factor from
which its check catches it. No source is edited and no production option
takes part.
"""

import itertools
import math

import numpy as np
import pytest

import dynnets.trotter as trotter_module
from dynnets.circuits import QuditRegister
from dynnets.linalg import _exp_skew_stack, skew_basis
from dynnets.trotter import (
    CertificateViolation,
    ConstantEnvelope,
    HamiltonianTerm,
    TimeDependentHamiltonian,
    certify_trotter,
)
from dynnets.unitary_nets import ImplicitGridNet, _haar_qr, build_unitary_net

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def corner_signs(n, one_per_gauge):
    """Sign patterns over the n^2 coordinates of skew_basis(n).

    Coordinate n, the real part of entry (0, 1), stays +1: X and -X give
    adjoint targets, whose snaps are adjoint and equally far. With
    one_per_gauge, both coordinates of every entry (0, l) stay +1: a
    conjugation by diag(1, i^m1, ..., i^m(n-1)) turns entry (k, l) by
    (m_k - m_l) quarter turns, a signed permutation of its two coordinates
    that the rounding commutes with, and picks one pattern per class.
    """
    fixed = range(n, 3 * n - 2) if one_per_gauge else (n,)
    free = [i for i in range(n * n) if i not in fixed]
    signs = np.ones((2 ** len(free), n * n))
    signs[:, free] = list(itertools.product((-1.0, 1.0), repeat=len(free)))
    return signs


def corner_targets(net, signs):
    """exp(X), X = +-spacing/2 (1 - 1e-6) per coordinate of the net's grid.

    Each X lies just inside the grid cell around 0, where the rounding
    error is largest.
    """
    coords = signs * (0.5 * net.spacing * (1.0 - 1e-6))
    return _exp_skew_stack(np.tensordot(coords, skew_basis(net.n), axes=1))


def corner_gaps(net, signs):
    """Snap distances of the corner targets."""
    return net._snap(corner_targets(net, signs))[1]


# (n, epsilon, worst corner gap); the gap is 0.990 and 0.956 of epsilon
CORNER_CASES = [(2, 0.5, 0.49481), (4, 0.4, 0.38241)]


@pytest.mark.parametrize("n, epsilon, worst", CORNER_CASES)
def test_implicit_grid_corners_within_epsilon(n, epsilon, worst):
    net = ImplicitGridNet(n, epsilon)
    gaps = corner_gaps(net, corner_signs(n, False))
    assert len(gaps) == 2 ** (n * n - 1)
    assert gaps.max() <= epsilon
    assert gaps.max() == pytest.approx(worst, abs=1e-5)
    # one pattern per gauge class reaches the same worst gap
    reps = corner_gaps(net, corner_signs(n, True))
    assert len(reps) == 2 ** (n * n - 2 * n + 2)
    assert reps.max() == pytest.approx(gaps.max(), abs=1e-12)


@pytest.mark.parametrize("n, epsilon, worst", CORNER_CASES)
def test_implicit_grid_wider_spacing_caught(n, epsilon, worst):
    # The corner family catches a spacing x f from f = 1.011 (n = 2) and
    # f = 1.047 (n = 4) on; at x 1.05 the worst gap reads 0.5190 and 0.4013
    net = ImplicitGridNet(n, epsilon)
    net.spacing *= 1.05
    assert corner_gaps(net, corner_signs(n, True)).max() > epsilon


def one_grid(n, epsilon, haar_count):
    """Implicit snaps of Haar and corner targets, held against the explicit net.

    Returns each image's distance to ``build_unitary_net(n, epsilon)`` and
    to its target. Both nets take one grid from ``ImplicitGridNet``, so every
    image is an explicit element, and the snap's epsilon bound is then the
    explicit net's covering certificate.
    """
    net = ImplicitGridNet(n, epsilon)
    g = np.random.default_rng(n).standard_normal((2, haar_count, n, n))
    targets = np.concatenate([_haar_qr(g[0], g[1]),
                              corner_targets(net, corner_signs(n, False))])
    images, gaps = net._snap(targets)
    return build_unitary_net(n, epsilon)._snap(images)[1], gaps


@pytest.mark.parametrize("n, epsilon", [(1, 0.1), (2, 0.5), (2, 0.8)])
def test_implicit_snaps_are_explicit_elements(n, epsilon):
    member, gaps = one_grid(n, epsilon, 2000)
    assert member.max() <= 1e-12
    assert gaps.max() <= epsilon


def test_explicit_wider_spacing_caught(monkeypatch):
    # ImplicitGridNet holds the one spacing rule, so x 1.05 on it reaches
    # the explicit build: the images stay its elements, and the corner
    # image gap reads 0.5190 > 0.5 (caught from x 1.011 on, 0.50013)
    init = ImplicitGridNet.__init__

    def wider(self, n, epsilon):
        init(self, n, epsilon)
        self.spacing *= 1.05

    monkeypatch.setattr(ImplicitGridNet, "__init__", wider)
    assert build_unitary_net(2, 0.5).construction_log["spacing"] == 0.525
    member, gaps = one_grid(2, 0.5, 0)
    assert member.max() <= 1e-12
    assert gaps.max() > 0.5


def deep_holes(spacing):
    """exp(X) at the U(2) grid's deep holes with ||X||_F < 2, each once.

    In skew_basis(2) order X has the coordinates (sigma a, sigma a, s/2,
    tau s/2), a = s sqrt(2) / 4, sigma, tau = +-1, shifted by s Z^4. Its
    trace part then lies s/2 off the grid and its traceless diagonal part
    on it, and both off-diagonal coordinates lie s/2 off it. tau = -1 is
    tau = +1 shifted by -s in the last coordinate, so the shifts of
    tau = +1 give every point once.
    """
    offset = np.array([math.sqrt(2.0) / 4.0, math.sqrt(2.0) / 4.0, 0.5, 0.5])
    reach = math.ceil(2.0 / spacing) + 1
    shifts = np.array(list(itertools.product(range(-reach, reach + 1),
                                             repeat=4)), dtype=float)
    coords = spacing * np.concatenate([shifts + offset,
                                       shifts + offset * [-1, -1, 1, 1]])
    coords = coords[np.linalg.norm(coords, axis=1) < 2.0]
    return _exp_skew_stack(np.tensordot(coords, skew_basis(2), axes=1))


def test_explicit_net_deep_holes():
    # 0.840 eps, where criterion 5's 10,000 Haar draws reach 0.376
    net = build_unitary_net(2, 0.5)
    gaps = net._snap(deep_holes(net.construction_log["spacing"]))[1]
    assert gaps.max() <= 0.5
    assert len(gaps) == 2616
    assert gaps.max() == pytest.approx(0.41993, abs=1e-5)


def test_explicit_wider_spacing_caught_by_nearest(monkeypatch):
    # The deep holes' nearest gap reads 0.5202 at x 1.25, 1.0007 eps at
    # x 1.2 (too thin to pin) and 0.961 eps at x 1.15; x 1.05 (0.880 eps)
    # is caught only by the certificate in test_explicit_wider_spacing_caught
    init = ImplicitGridNet.__init__

    def wider(self, n, epsilon):
        init(self, n, epsilon)
        self.spacing *= 1.25

    monkeypatch.setattr(ImplicitGridNet, "__init__", wider)
    net = build_unitary_net(2, 0.5)
    assert net.construction_log["spacing"] == 0.625
    assert net._snap(deep_holes(0.625))[1].max() > 0.5


def pauli_pair():
    """XX on sites (0, 1) and ZZ on (1, 2) of 3 qubits, constant 1.0.

    The two terms anticommute, so the first-order Trotter error is as
    large as their overlap allows.
    """
    return TimeDependentHamiltonian(QuditRegister(3, 2), [
        HamiltonianTerm((0, 1), np.kron(SX, SX), ConstantEnvelope(1.0)),
        HamiltonianTerm((1, 2), np.kron(SZ, SZ), ConstantEnvelope(1.0)),
    ])


def test_pauli_pair_certificate():
    cert = certify_trotter(pauli_pair(), 0.25, 8)
    assert cert.bound == 0.03125
    assert cert.measured == pytest.approx(7.6516e-3, rel=1e-4)
    # so the bound catches a constant x f for every f below 0.2449: 0.24
    # is caught and 0.245 is not
    assert 0.24 < cert.measured / cert.bound < 0.245


def test_trotter_constant_shrunk_caught(monkeypatch):
    constant = trotter_module._first_order_constant
    monkeypatch.setattr(trotter_module, "_first_order_constant",
                        lambda K, z, h_max: 0.24 * constant(K, z, h_max))
    with pytest.raises(CertificateViolation):
        certify_trotter(pauli_pair(), 0.25, 8)
