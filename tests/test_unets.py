import hashlib
import math
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from dynnets import unitary_nets
from dynnets.circuits import circuit_covering_log_bound, topology_count_log
from dynnets.grassmann import empirical_grassmann_packing, projector_covering_bounds
from dynnets.linalg import (
    _exp_skew_stack,
    _search_rows,
    haar_unitary,
    operator_norm,
    skew_basis,
)
from dynnets.unitary_nets import (
    ImplicitGridNet,
    UnitaryNet,
    build_unitary_net,
    circle_covering_number,
    empirical_covering_check,
    empirical_packing_lower_bound,
    load_net,
    save_net,
    unitary_covering_bounds,
)
from dynnets.reports import crossover_analysis
from dynnets.trotter import evolution_covering_log_bound


@pytest.fixture(scope="module")
def u2_net():
    return build_unitary_net(2, 0.5)


class TestUnitaryCoveringBounds:
    def test_n2_values(self):
        b = unitary_covering_bounds(2, 0.1)
        assert b.valid
        np.testing.assert_allclose(math.exp(b.lower_log), 7.5 ** 4, rtol=1e-12)
        np.testing.assert_allclose(math.exp(b.upper_log), 2.401e7, rtol=1e-12)

    def test_n1_values(self):
        b = unitary_covering_bounds(1, 0.1)
        np.testing.assert_allclose(math.exp(b.lower_log), 7.5, rtol=1e-12)
        np.testing.assert_allclose(math.exp(b.upper_log), 70.0, rtol=1e-12)

    def test_outside_validity_window(self):
        b = unitary_covering_bounds(2, 0.2)
        assert not b.valid
        assert b.lower_log is None and b.upper_log is None

    def test_lower_below_upper(self):
        for n in (1, 2, 3):
            for eps in (0.01, 0.05, 0.1):
                b = unitary_covering_bounds(n, eps)
                assert b.lower_log < b.upper_log

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            unitary_covering_bounds(2, 0.0)
        with pytest.raises(ValueError):
            unitary_covering_bounds(0, 0.1)


class TestCircleCoveringNumber:
    def test_frozen_values(self):
        assert circle_covering_number(0.02) == 158
        assert circle_covering_number(0.05) == 63
        assert circle_covering_number(0.1) == 32
        assert circle_covering_number(0.5) == 7

    def test_diameter_case(self):
        assert circle_covering_number(2.0) == 1
        assert circle_covering_number(5.0) == 1

    def test_within_log_domain_bounds(self):
        for eps in (0.02, 0.05, 0.1):
            b = unitary_covering_bounds(1, eps)
            count = circle_covering_number(eps)
            assert math.exp(b.lower_log) <= count <= math.exp(b.upper_log)


class TestBuildUnitaryNet:
    def test_u1_net_covers_fine_phase_grid(self):
        net = build_unitary_net(1, 0.3)
        phases = np.exp(1j * np.linspace(-np.pi, np.pi, 4001))
        elements = net.matrices[:, 0, 0]
        gaps = np.abs(phases[:, None] - elements[None, :]).min(axis=1)
        assert gaps.max() <= 0.3 + 1e-9

    def test_u2_net_frozen_size(self, u2_net):
        # grid construction is deterministic; size changes flag regressions
        assert len(u2_net) == 23789

    def test_u2_net_construction_log(self, u2_net):
        log = u2_net.construction_log
        assert log["method"] == "lie-algebra-grid"
        assert log["spacing"] == pytest.approx(2 * 0.5 / 2)
        assert log["retained"] == 23789

    def test_u2_nearest_within_epsilon(self, u2_net):
        for seed in range(25):
            u = haar_unitary(2, seed=seed)
            _, dist = u2_net.nearest(u)
            assert dist <= 0.5 + 1e-12

    def test_nearest_returns_closest_element(self, u2_net):
        u = haar_unitary(2, seed=77)
        element, dist = u2_net.nearest(u)
        assert operator_norm(element.array - u.array) == pytest.approx(dist)

    def test_rejects_large_dimension(self):
        with pytest.raises(ValueError):
            build_unitary_net(4, 0.5)

    def test_too_small_epsilon_fails_fast(self):
        with pytest.raises(ValueError, match="net too large"):
            build_unitary_net(2, 0.02)

    def test_long_axis_fails_before_allocating(self):
        # the single axis of U(1) at 1e-9 alone holds 3.1e9 grid points
        with pytest.raises(ValueError, match="more than 20000000 grid"):
            build_unitary_net(1, 1e-9)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("eps", [1e-160, 1e-300, 1e-320, 5e-324])
    def test_tiny_epsilon_fails_cleanly(self, n, eps):
        # (pi + eps) / spacing is far past the cap, and inf once the
        # spacing is subnormal
        with pytest.raises(ValueError, match="net too large"):
            build_unitary_net(n, eps)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("eps", [1e308, 1.7e308])
    def test_huge_epsilon_gives_identity(self, n, eps):
        # 2 eps / n overflows to inf and the box holds only the origin, whose
        # coordinates times an inf spacing would be NaN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            net = build_unitary_net(n, eps)
        assert len(net) == 1
        assert np.array_equal(net.matrices[0], np.eye(n))

    def test_spacing_near_overflow(self):
        # the keep pass's table pairs trace level 2 with every q, and some
        # of those sums (not of any grid point) overflow to inf
        net = build_unitary_net(2, 8.9e307)
        assert len(net) == 17
        assert net.construction_log["candidates"] == 81

    @pytest.mark.parametrize("n, eps", [(2, 0.02), (1, 1e-9)])
    def test_refused_before_any_box(self, monkeypatch, n, eps):
        calls = []

        def recording_box(dim, m):
            calls.append((dim, m))
            raise AssertionError("box built before the size check")

        monkeypatch.setattr(unitary_nets, "_box", recording_box)
        with pytest.raises(ValueError, match="more than 20000000 grid"):
            build_unitary_net(n, eps)
        assert calls == []

    @pytest.mark.parametrize("n", [3, 67, 10 ** 9])
    def test_refused_before_any_basis(self, monkeypatch, n):
        calls = _record_basis_calls(monkeypatch)
        with pytest.raises(ValueError, match=f"use ImplicitGridNet for n = {n}$"):
            build_unitary_net(n, 0.5)
        assert calls == []

    def test_u3_fails_projected_count(self):
        # U(3) grids fit the candidate cap only where one element already
        # covers, so explicit nets stop at n = 2 whatever the epsilon
        for eps in (0.5, 3.5):
            with pytest.raises(ValueError,
                               match="use ImplicitGridNet for n = 3"):
                build_unitary_net(3, eps)


def _grid_points(n, eps):
    """Integer grid coordinates within the net's search ball, in grid order."""
    spacing = 2.0 * eps / n
    radius = math.sqrt(n) * (math.pi + eps)
    m = int(math.floor(radius / spacing + 1e-9))
    vals = spacing * np.arange(-m, m + 1)
    z = np.indices((2 * m + 1,) * (n * n)).reshape(n * n, -1).T
    sq = np.zeros(len(z))
    for column in z.T:
        sq = sq + vals[column] ** 2
    return z[sq <= radius * radius + 1e-12] - m


def _per_candidate_net(n, eps):
    """The net point by point: an eigvalsh norm filter, then the exponential."""
    x = np.einsum("cd,dij->cij", 2.0 * eps / n * _grid_points(n, eps),
                  skew_basis(n))
    norms = np.abs(np.linalg.eigvalsh(-1j * x)).max(axis=1)
    return _exp_skew_stack(x[norms <= math.pi + eps + 1e-12])


class TestPhaseLineBuild:
    @pytest.mark.parametrize("n, eps, count", [
        (2, 0.2, 653_845), (2, 0.3, 145_373), (2, 0.5, 23_789),
        (2, 0.8, 4_897), (1, 2e-6, 1_570_797),
        (1, 0.05, 63), (1, 0.1, 33), (1, 0.2, 17),
    ])
    def test_element_counts(self, n, eps, count):
        assert len(build_unitary_net(n, eps)) == count

    @pytest.mark.parametrize("n, eps", [(2, 0.5), (2, 0.8), (1, 0.1)])
    def test_matches_per_candidate_reference(self, n, eps):
        reference = _per_candidate_net(n, eps)
        net = build_unitary_net(n, eps)
        assert net.matrices.shape == reference.shape
        assert np.abs(net.matrices - reference).max() <= 1e-13

    def test_no_eigensolver_call(self, monkeypatch):
        calls = _record_eigensolver_calls(monkeypatch)
        net = build_unitary_net(2, 0.5)
        assert calls == []
        assert "lines" not in net.construction_log

    @pytest.mark.parametrize("n, eps, digest", [
        (2, 0.5, "04ab68728c2332c3b6492a0dd6ff259ee82061037daf6c43546ca52e23d6f725"),
        (2, 0.8, "e09c95830a12225d2680ceecda4e75fded631f603e34a55fff7d23c2096fb8fd"),
        (1, 0.05, "e49a21b4950b78fa698913198157f720881d4dccba1e6cc592e2d789714d5894"),
        (1, 0.1, "e38cca3e566d6c3261c383dfcb0d046e09de4c15606a835d652a5ecdc344b3f6"),
        (1, 0.2, "7fa3ff4a5d8f6ba45bc177146b154329def8d8c4ca9a8ea113f5a003222a7841"),
    ])
    def test_matrices_bit_identical_to_per_element_build(self, n, eps, digest):
        # SHA-256 of the bytes that the per-element build (a GEMM of every
        # kept point's coordinates, then a complex exp of its phase) gave;
        # a platform whose sin, cos or exp round differently moves them
        data = build_unitary_net(n, eps).matrices.tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_retained_count_over_the_cap_refused(self, monkeypatch):
        # U(1) at 0.05 keeps 63 elements of its 63 candidates
        monkeypatch.setattr(unitary_nets, "_MAX_ELEMENTS", 50)
        with pytest.raises(ValueError, match="retained element count exceeds 50$"):
            build_unitary_net(1, 0.05)

    def test_chunked_lines_give_the_same_net(self, monkeypatch, u2_net):
        monkeypatch.setattr(unitary_nets, "_CHUNK", 1000)
        net = build_unitary_net(2, 0.5)
        np.testing.assert_array_equal(net.matrices, u2_net.matrices)


def _record_basis_calls(monkeypatch):
    """List of the n of each skew_basis(n) call, which raises instead."""
    calls = []

    def recording_basis(n):
        calls.append(n)
        raise AssertionError("basis built")

    monkeypatch.setattr(unitary_nets, "skew_basis", recording_basis)
    return calls


def _record_eigensolver_calls(monkeypatch):
    """List that collects (name, input shape) of each eigh / eigvalsh call."""
    calls = []

    def counting(name, real):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return real(a, *args, **kwargs)
        return wrapper

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            counting(name, getattr(np.linalg, name)))
    return calls


class TestUnitaryNetType:
    def test_rejects_nonunitary_element(self):
        bad = np.stack([np.eye(2), np.eye(2) * 1.1]).astype(complex)
        with pytest.raises(ValueError, match="not unitary"):
            UnitaryNet(2, 0.5, bad)

    def test_rejects_bad_element_past_first_chunk(self):
        mats = np.broadcast_to(np.eye(2, dtype=complex), (70_000, 2, 2)).copy()
        mats[66_000] *= 1.1
        with pytest.raises(ValueError, match=r"not unitary \(defect 2\.100e-01\)"):
            UnitaryNet(2, 0.5, mats)

    @staticmethod
    def _haar_elements(n, count):
        # 40,000 of them run past the check's first chunk at n = 1 (32,768
        # matrices) and at n = 2 (8,192)
        g = np.random.default_rng(n).standard_normal((2, count, n, n))
        return unitary_nets._haar_qr(g[0], g[1])

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_small_defect_past_first_chunk(self, n):
        mats = self._haar_elements(n, 40_000)
        # row 0 times sqrt(1 + d): U^dag U - 1 has the single eigenvalue d
        mats[36_000, 0] *= math.sqrt(1.0 + 1.05e-10)
        with pytest.raises(ValueError, match=r"not unitary \(defect 1\.05\de-10\)"):
            UnitaryNet(n, 0.5, mats)

    def test_rejects_nan_past_first_chunk(self):
        mats = self._haar_elements(2, 40_000)
        mats[36_000, 1, 0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            UnitaryNet(2, 0.5, mats)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            UnitaryNet(2, 0.5, np.zeros((0, 2, 2)))

    def test_copies_the_callers_array(self, u2_net):
        base = np.array(u2_net.matrices[:50])
        kept = base.copy()
        net = UnitaryNet(2, 2.0, base[:])
        base[0] = 5.0
        assert np.array_equal(net.matrices, kept)
        assert not net.matrices.flags.writeable
        assert not net._rows.flags.writeable
        assert np.array_equal(net._rows, _search_rows(kept))
        element, dist = net.nearest(kept[0])
        assert dist == 0.0
        assert np.array_equal(element.array, kept[0])

    def test_matrices_are_a_view_of_the_rows(self, u2_net, tmp_path):
        path = tmp_path / "net.bin"
        save_net(u2_net, path)
        for net in (u2_net, UnitaryNet(2, 0.5, np.array(u2_net.matrices)),
                    load_net(path)):
            assert np.shares_memory(net.matrices, net._rows)
            assert not net.matrices.flags.writeable
            with pytest.raises(ValueError):
                net.matrices.setflags(write=True)

    def test_net_holds_only_its_rows(self):
        # Untraced warm-up: what the first build caches is not the net's.
        build_unitary_net(2, 0.5)
        tracemalloc.start()
        try:
            net = build_unitary_net(2, 0.5)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # 1.90 MB of rows; a second copy of the matrices would add 1.45 MB
        assert held <= net._rows.nbytes + 64 * 1024

    def test_build_peak_is_the_rows_and_their_input(self):
        build_unitary_net(2, 0.3)  # untraced warm-up, as above
        tracemalloc.start()
        try:
            net = build_unitary_net(2, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the constructor holds the elements and their rows at once; the
        # build's per-row arrays (3 MB at this epsilon) must be gone by then
        assert peak <= net._rows.nbytes + net.matrices.nbytes + (1 << 20)


_DIMENSION = r"^dimension must be at least 1$"
_EPSILON = r"^epsilon must be positive and finite$"
_INTEGER = r"^(n|m|trials|samples) must be an integer, got "


def _net_file(path, n, epsilon, count):
    """A save_net file with the given header and all-ones entries."""
    path.write_bytes(struct.pack("<IdQ", n, epsilon, count)
                     + np.ones(count * n * n, dtype="<c16").tobytes())
    return path


@pytest.mark.parametrize("call, message", [
    (lambda p: UnitaryNet(0, 0.5, np.zeros((1, 0, 0))), _DIMENSION),
    (lambda p: build_unitary_net(0, 0.5), _DIMENSION),
    (lambda p: build_unitary_net(-1, 0.5), _DIMENSION),
    (lambda p: ImplicitGridNet(0, 0.5), _DIMENSION),
    (lambda p: load_net(_net_file(p, 0, 0.5, 1)), _DIMENSION),
    (lambda p: UnitaryNet(1, math.inf, np.ones((1, 1, 1))), _EPSILON),
    (lambda p: UnitaryNet(1, 0.0, np.ones((1, 1, 1))), _EPSILON),
    (lambda p: build_unitary_net(1, math.inf), _EPSILON),
    (lambda p: build_unitary_net(2, -math.inf), _EPSILON),
    (lambda p: ImplicitGridNet(2, math.inf), _EPSILON),
    (lambda p: load_net(_net_file(p, 1, math.inf, 1)), _EPSILON),
    (lambda p: empirical_packing_lower_bound(0, 0.5, 5, 1), _DIMENSION),
    (lambda p: empirical_packing_lower_bound(2, math.inf, 5, 1), _EPSILON),
    (lambda p: empirical_packing_lower_bound(2.0, 0.5, 10, 1), _INTEGER),
    (lambda p: empirical_packing_lower_bound(2, 0.5, 10.5, 1), _INTEGER),
    (lambda p: empirical_packing_lower_bound(2, 0.5, True, 1), _INTEGER),
    (lambda p: empirical_grassmann_packing(2, 4, math.inf, 5, 1), _EPSILON),
    (lambda p: empirical_grassmann_packing(2, 4, 0.0, 5, 1), _EPSILON),
    (lambda p: empirical_grassmann_packing(1.5, 4, 0.5, 10, 1), _INTEGER),
    (lambda p: empirical_grassmann_packing(1, 4.0, 0.5, 10, 1), _INTEGER),
    (lambda p: empirical_grassmann_packing(1, 4, 0.5, 10.5, 1), _INTEGER),
    (lambda p: empirical_grassmann_packing(1, 4, 0.5, True, 1), _INTEGER),
    (lambda p: build_unitary_net(1.0, 0.5), _INTEGER),
    (lambda p: build_unitary_net(True, 0.5), _INTEGER),
    (lambda p: ImplicitGridNet(2.5, 0.4), _INTEGER),
    (lambda p: UnitaryNet(1.0, 0.5, np.ones((1, 1, 1))), _INTEGER),
    (lambda p: empirical_covering_check(
        UnitaryNet(1, 2.0, np.ones((1, 1, 1))), 10.5, 1), _INTEGER),
    (lambda p: empirical_covering_check(
        UnitaryNet(1, 2.0, np.ones((1, 1, 1))), True, 1), _INTEGER),
    (lambda p: unitary_covering_bounds(2.5, 0.05), _INTEGER),
    (lambda p: unitary_covering_bounds(True, 0.05), _INTEGER),
    (lambda p: projector_covering_bounds(1.5, 4, 0.01), _INTEGER),
    (lambda p: projector_covering_bounds(1, 4.0, 0.01), _INTEGER),
    (lambda p: projector_covering_bounds(1, True, 0.01), _INTEGER),
    (lambda p: circuit_covering_log_bound(2, 1, 3, 2.5, 0.01),
     r"^n_gates must be an integer, got 2\.5$"),
    (lambda p: circuit_covering_log_bound(2, 1, 3, True, 0.01),
     r"^n_gates must be an integer, got True$"),
    (lambda p: circuit_covering_log_bound(2.5, 1, 3, 2, 0.01),
     r"^d must be an integer, got 2\.5$"),
    (lambda p: circuit_covering_log_bound(2, 1, 3.7, 2, 0.01),
     r"^L must be an integer, got 3\.7$"),
    (lambda p: evolution_covering_log_bound(4, 2, 2, 2.5, 3, 1.0, 1.0, 0.01),
     r"^K must be an integer, got 2\.5$"),
    (lambda p: evolution_covering_log_bound(4, 2, 2, 3, 2.5, 1.0, 1.0, 0.01),
     r"^z must be an integer, got 2\.5$"),
    (lambda p: evolution_covering_log_bound(4, 2.5, 2, 3, 3, 1.0, 1.0, 0.01),
     r"^d must be an integer, got 2\.5$"),
    (lambda p: topology_count_log(3, 1, 2.5),
     r"^n_gates must be an integer, got 2\.5$"),
    (lambda p: crossover_analysis(2, 2, 1e-3, [8.5, 9], "time"),
     r"^L must be an integer, got 8\.5$"),
    (lambda p: crossover_analysis(2.5, 2, 1e-3, [8, 9], "time"),
     r"^d must be an integer, got 2\.5$"),
    (lambda p: crossover_analysis(2, 1.5, 1e-3, [8, 9], "circuit"),
     r"^k must be an integer, got 1\.5$"),
    (lambda p: UnitaryNet(2, 0.5, np.eye(2)[None]).nearest(np.eye(3)),
     r"^expected a 2-dimensional unitary$"),
    (lambda p: UnitaryNet(2, 0.5, np.eye(3)[None]),
     r"^expected a \(count, 2, 2\) stack, got \(1, 3, 3\)$"),
    (lambda p: empirical_covering_check(
        UnitaryNet(1, 2.0, np.ones((1, 1, 1))), 0, 1),
     r"^need at least one sample$"),
    (lambda p: empirical_packing_lower_bound(2, 0.5, 0, 1),
     r"^need at least one trial$"),
    (lambda p: empirical_grassmann_packing(4, 4, 0.5, 10, 1),
     r"^need 1 <= n < m$"),
    (lambda p: empirical_grassmann_packing(1, 17, 0.5, 10, 1),
     r"^ambient dimension capped at 16 for the empirical packing$"),
    (lambda p: empirical_grassmann_packing(1, 4, 0.5, 0, 1),
     r"^need at least one trial$"),
], ids=["UnitaryNet-n0", "build-n0", "build-n-1", "ImplicitGridNet-n0",
        "load_net-n0", "UnitaryNet-inf", "UnitaryNet-zero", "build-inf",
        "build-minus-inf", "ImplicitGridNet-inf", "load_net-inf",
        "packing-n0", "packing-inf", "packing-float-n", "packing-float-trials",
        "packing-bool-trials", "grassmann-packing-inf", "grassmann-packing-zero",
        "grassmann-packing-float-n", "grassmann-packing-float-m",
        "grassmann-packing-float-trials", "grassmann-packing-bool-trials",
        "build-float-n", "build-bool-n", "ImplicitGridNet-float-n",
        "UnitaryNet-float-n", "covering-float-samples", "covering-bool-samples",
        "unitary-bounds-float-n", "unitary-bounds-bool-n",
        "projector-bounds-float-n", "projector-bounds-float-m",
        "projector-bounds-bool-m", "circuit-bound-float-gates",
        "circuit-bound-bool-gates", "circuit-bound-float-d",
        "circuit-bound-float-L", "evolution-bound-float-K",
        "evolution-bound-float-z", "evolution-bound-float-d",
        "topology-float-gates", "crossover-float-L", "crossover-float-d",
        "crossover-float-k", "nearest-wrong-dimension",
        "UnitaryNet-wrong-shape", "covering-zero-samples", "packing-zero-trials",
        "grassmann-packing-full-rank", "grassmann-packing-m17",
        "grassmann-packing-zero-trials"])
def test_net_constructors_refuse_bad_dimension_or_epsilon(tmp_path, call, message):
    with pytest.raises(ValueError, match=message):
        call(tmp_path / "net.bin")


class TestEmpiricalCoveringCheck:
    def test_single_element_u1_diameter(self):
        net = UnitaryNet(1, 2.0, np.ones((1, 1, 1), dtype=complex))
        max_gap, ok = empirical_covering_check(net, 500, seed=0)
        assert ok
        assert max_gap <= 2.0

    def test_plus_minus_one_at_sqrt2(self):
        mats = np.array([[[1.0]], [[-1.0]]], dtype=complex)
        net = UnitaryNet(1, math.sqrt(2.0), mats)
        max_gap, ok = empirical_covering_check(net, 2000, seed=1)
        assert ok
        # worst phases +-i sit at chordal distance sqrt(2) exactly
        assert max_gap <= math.sqrt(2.0) + 1e-12

    def test_undersized_net_fails(self):
        net = UnitaryNet(2, 0.1, np.eye(2)[None].astype(complex))
        max_gap, ok = empirical_covering_check(net, 200, seed=2)
        assert not ok
        assert max_gap > 0.1

    def test_deterministic_per_seed(self, u2_net):
        gap1, _ = empirical_covering_check(u2_net, 100, seed=5)
        gap2, _ = empirical_covering_check(u2_net, 100, seed=5)
        assert gap1 == gap2


class TestEmpiricalPackingLowerBound:
    def test_diameter_gives_one(self):
        assert empirical_packing_lower_bound(1, 2.0, trials=50, seed=0) == 1
        assert empirical_packing_lower_bound(2, 2.5, trials=50, seed=0) == 1

    def test_u1_three_phases(self):
        count = empirical_packing_lower_bound(1, 1.0, trials=300, seed=3)
        assert count >= 3

    def test_packing_at_double_epsilon_below_net_size(self, u2_net):
        # packing at 2 eps never exceeds the covering count at eps
        count = empirical_packing_lower_bound(2, 1.0, trials=300, seed=4)
        assert count <= len(u2_net)

    def test_packing_below_log_bound(self):
        count = empirical_packing_lower_bound(1, 0.2, trials=300, seed=5)
        upper = math.exp(unitary_covering_bounds(1, 0.1).upper_log)
        assert count <= upper


class TestImplicitGridNet:
    def test_round_within_epsilon(self):
        net = ImplicitGridNet(4, 0.3)
        for seed in range(15):
            u = haar_unitary(4, seed=seed)
            element, dist = net.round(u)
            assert dist <= 0.3 + 1e-12
            assert operator_norm(element.array - u.array) == pytest.approx(dist)

    def test_round_is_idempotent(self):
        net = ImplicitGridNet(4, 0.3)
        element, _ = net.round(haar_unitary(4, seed=99))
        again, dist = net.round(element)
        assert dist <= 1e-9
        np.testing.assert_allclose(again.array, element.array, atol=1e-9)

    def test_large_dimension_rounds_without_a_basis(self, monkeypatch):
        # the snap rounds the log entry by entry, so no n^4 basis is built
        # and nothing caps n
        calls = _record_basis_calls(monkeypatch)
        net = ImplicitGridNet(128, 0.3)
        targets = np.array([haar_unitary(128, seed=s).array for s in (1, 2)])
        elements, dists = net._snap(targets)
        assert calls == []
        assert dists.max() <= 0.3
        assert np.abs(np.linalg.norm(elements - targets, ord=2, axis=(1, 2))
                      - dists).max() <= 1e-12
    def test_identity_rounds_to_identity(self):
        net = ImplicitGridNet(3, 0.4)
        element, dist = net.round(np.eye(3).astype(complex))
        np.testing.assert_allclose(element.array, np.eye(3), atol=1e-12)
        assert dist <= 1e-12


class TestNetSerialization:
    def test_roundtrip(self, tmp_path, u2_net):
        path = tmp_path / "net.bin"
        save_net(u2_net, path)
        loaded = load_net(path)
        assert loaded.n == u2_net.n
        assert loaded.epsilon == u2_net.epsilon
        np.testing.assert_array_equal(loaded.matrices, u2_net.matrices)

    def test_small_net_roundtrip_bytes(self, tmp_path):
        mats = np.array([[[1.0]], [[-1.0]]], dtype=complex)
        net = UnitaryNet(1, 0.9, mats, {"method": "manual"})
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_net(net, p1)
        save_net(load_net(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "u1.bin"
        save_net(UnitaryNet(1, 0.5, np.ones((1, 1, 1), dtype=complex)), path)
        # n = 1 (uint32), epsilon = 0.5 (float64), count = 1 (uint64), then 1 + 0i
        assert path.read_bytes().hex() == (
            "01000000" "000000000000e03f" "0100000000000000"
            "000000000000f03f" "0000000000000000")

    def test_signed_zero_roundtrip(self, tmp_path):
        mats = np.array([[[complex(-1.0, -0.0)]], [[complex(-0.0, 1.0)]],
                         [[complex(0.0, -1.0)]], [[complex(1.0, -0.0)]]])
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_net(UnitaryNet(1, 0.25, mats), p1)
        loaded = load_net(p1)
        np.testing.assert_array_equal(np.signbit(loaded.matrices.view(float)),
                                      np.signbit(mats.view(float)))
        save_net(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_load_rejects_a_scaled_element(self, tmp_path, u2_net):
        path = tmp_path / "net.bin"
        save_net(u2_net, path)
        data = path.read_bytes()
        header = struct.calcsize("<IdQ")
        mats = np.frombuffer(data, "<c16", offset=header).copy()
        mats[4 * 9_000:4 * 9_001] *= 1.1
        path.write_bytes(data[:header] + mats.tobytes())
        with pytest.raises(ValueError, match=r"not unitary \(defect 2\.100e-01\)"):
            load_net(path)

    def test_load_rejects_a_cut_payload(self, tmp_path):
        path = tmp_path / "net.bin"
        save_net(build_unitary_net(1, 0.1), path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(ValueError, match="^net file payload has 512 bytes, "
                                             "expected 528$"):
            load_net(path)

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00" * 10)
        with pytest.raises(ValueError):
            load_net(path)


@pytest.mark.parametrize("call", [
    lambda: unitary_covering_bounds(2, math.nan),
    lambda: UnitaryNet(1, math.nan, np.ones((1, 1, 1))),
    lambda: build_unitary_net(1, math.nan),
    lambda: ImplicitGridNet(2, math.nan),
    lambda: empirical_packing_lower_bound(2, math.nan, 5, 1),
    lambda: circle_covering_number(math.nan),
], ids=["unitary_covering_bounds", "UnitaryNet", "build_unitary_net",
        "ImplicitGridNet", "empirical_packing_lower_bound",
        "circle_covering_number"])
def test_nan_epsilon_rejected(call):
    with pytest.raises(ValueError, match="epsilon must be positive"):
        call()
