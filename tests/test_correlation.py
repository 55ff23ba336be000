import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modesim.analyzer import intensity_split_operator
from modesim.correlation import (
    ChshAngles,
    DelayPair,
    _correlation_table,
    _scan_rows,
    chsh_B,
    chsh_optimum,
    chsh_scan,
    correlation_E,
    delay_covariance,
    export_bell_csv,
    export_chsh_csv,
)
from modesim.decoherence import EvolutionParams, two_rail_evolve
from modesim.states import DensityMatrix, bell_state, density_of, product_state
from modesim.stochastic import RateConstants
from modesim.waveguide import group_delay

PHI_PLUS = density_of(bell_state("phi", "+"))
PRODUCT = density_of(product_state())
TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)
CANONICAL = ChshAngles(math.pi / 8, -math.pi / 8, 0.0, math.pi / 4)
PAULI_XY = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]))
BELL_STATES = [density_of(bell_state(f, s)) for f in ("phi", "psi") for s in ("+", "-")]
MIXED = DensityMatrix(np.eye(4) / 4)


def density_matrices(dim):
    """Random dim x dim density matrices G G^H / tr(G G^H), G complex Gaussian-like."""
    parts = st.lists(st.floats(-1.0, 1.0), min_size=2 * dim * dim, max_size=2 * dim * dim)

    def build(values):
        flat = np.array(values[:dim * dim]) + 1j * np.array(values[dim * dim:])
        g = flat.reshape(dim, dim)
        m = g @ g.conj().T
        m = (m + m.conj().T) / 2.0
        return DensityMatrix(m / np.trace(m).real)

    return parts.filter(lambda v: np.linalg.norm(v) > 0.1).map(build)


def planar_chsh_optimum(rho):
    """2 sqrt(s1^2 + s2^2), s the singular values of the xy block of the correlation tensor.

    The analyzer observable cos(2 theta) X + sin(2 theta) Y lies in the xy plane,
    so this is the planar Horodecki bound: the exact CHSH optimum over all angles.
    """
    block = np.array([[np.trace(rho.matrix @ np.kron(a, b)).real for b in PAULI_XY]
                      for a in PAULI_XY])
    s = np.linalg.svd(block, compute_uv=False)
    return 2.0 * math.sqrt(s[0] ** 2 + s[1] ** 2)


def brute_chsh_scan(rho, grid_n):
    """Reference: the full n^4 tensor B[i,j,k,l] from an E table of explicit traces."""
    thetas = np.arange(grid_n) * math.pi / grid_n
    diff = [intensity_split_operator(float(t)) for t in thetas]
    e = np.array([[np.trace(rho.matrix @ np.kron(a, b)).real for b in diff] for a in diff])
    b = (e[:, None, :, None] - e[:, None, None, :] + e[None, :, None, :] + e[None, :, :, None])
    return float(np.abs(b).max())


def loop_rows(table):
    """row[i, j] = max |B| over (k, l), one theta1 row at a time: s[j, k] and d[j, l]."""
    rows = []
    for e in table:
        s, d = e + table, e - table
        rows.append(np.maximum(s.max(axis=1) - d.min(axis=1), d.max(axis=1) - s.min(axis=1)))
    return np.array(rows)


def loop_chsh_scan(rho, grid_n):
    """Oracle: the per-theta1 loop over the table, its ties to the smallest (i, j), then (k, l)."""
    thetas = np.arange(grid_n) * math.pi / grid_n
    table = _correlation_table(rho, thetas)
    best, best_ij = -1.0, (0, 0)
    for i, row in enumerate(loop_rows(table)):
        j = int(np.argmax(row))
        if row[j] > best:
            best, best_ij = float(row[j]), (i, j)
    i, j = best_ij
    s, d = table[i] + table[j], table[i] - table[j]
    k, l = np.unravel_index(int(np.argmax(np.abs(s[:, None] - d[None, :]))), (grid_n, grid_n))
    return best, ChshAngles(float(thetas[i]), float(thetas[j]), float(thetas[k]), float(thetas[l]))


class TestRailEmbed:
    """The control rail is the left Kronecker factor."""

    def test_split_operator_embedding_is_ladder_form(self, rng):
        # the embedded intensity difference has exactly the two-rail ladder
        # structure: off * |TE0><TE1| (x) I plus its conjugate, nothing else
        for theta in rng.uniform(-3, 3, size=10):
            embedded = np.kron(intensity_split_operator(theta), np.eye(2))
            off = np.exp(-2j * theta)
            ladder = np.zeros((4, 4), dtype=complex)
            ladder[0, 2] = ladder[1, 3] = off
            ladder[2, 0] = ladder[3, 1] = np.conj(off)
            assert np.abs(embedded - ladder).max() < 1e-14


class TestCorrelationE:
    def test_entangled_cosine_of_sum(self, rng):
        for _ in range(50):
            t1, t2 = rng.uniform(0, math.pi, size=2)
            value = correlation_E(PHI_PLUS, t1, t2)
            assert abs(value - math.cos(2 * t1 + 2 * t2)) < 1e-12

    def test_product_factorizes(self, rng):
        for _ in range(50):
            t1, t2 = rng.uniform(0, math.pi, size=2)
            value = correlation_E(PRODUCT, t1, t2)
            assert abs(value - math.cos(2 * t1) * math.cos(2 * t2)) < 1e-12

    def test_decohered_entangled_law(self, rng):
        # substituting the decohered two-rail matrix into the correlation
        # gives exp(-2 gamma L) cos[2 t1 + 2 t2 + 2 (dbeta + kappa) L]
        for _ in range(30):
            dbeta = float(rng.uniform(-5, 5))
            gamma = float(rng.uniform(0, 1.5))
            kappa = float(rng.uniform(-0.5, 0.5))
            length = float(rng.uniform(0, 2))
            params = EvolutionParams(dbeta, RateConstants(gamma, kappa), length)
            rho = two_rail_evolve("phi_plus", params)
            t1, t2 = rng.uniform(0, math.pi, size=2)
            law = math.exp(-2 * gamma * length) * math.cos(
                2 * t1 + 2 * t2 + 2 * (dbeta + kappa) * length)
            assert abs(correlation_E(rho, t1, t2) - law) < 1e-12

    def test_bounded_by_one(self, rng):
        for rho in (PHI_PLUS, PRODUCT, MIXED):
            for _ in range(50):
                t1, t2 = rng.uniform(-4, 4, size=2)
                assert abs(correlation_E(rho, t1, t2)) <= 1.0 + 1e-12

    def test_rotation_invariance_of_entangled_state(self, rng):
        base = correlation_E(PHI_PLUS, 0.3, 0.4)
        for delta in rng.uniform(-math.pi, math.pi, size=100):
            shifted = correlation_E(PHI_PLUS, 0.3 + delta, 0.4 - delta)
            assert abs(shifted - base) < 1e-12


class TestChsh:
    def test_canonical_angles_reach_tsirelson(self):
        assert abs(chsh_B(PHI_PLUS, CANONICAL) - TWO_SQRT_TWO) < 1e-12

    def test_product_state_at_canonical_angles(self):
        # direct evaluation of cos(2 t1) cos(2 t2) combinations
        def product_E(t1, t2):
            return math.cos(2 * t1) * math.cos(2 * t2)

        expected = abs(
            product_E(CANONICAL.theta1, CANONICAL.theta2)
            - product_E(CANONICAL.theta1, CANONICAL.theta2p)
            + product_E(CANONICAL.theta1p, CANONICAL.theta2p)
            + product_E(CANONICAL.theta1p, CANONICAL.theta2)
        )
        value = chsh_B(PRODUCT, CANONICAL)
        assert abs(value - expected) < 1e-12
        assert abs(value - math.sqrt(2.0)) < 1e-12
        assert value <= 2.0

    def test_fully_decohered_entangled_state_vanishes(self):
        params = EvolutionParams(3.0, RateConstants(50.0, 0.0), 1.0)
        rho = two_rail_evolve("phi_plus", params)
        assert chsh_B(rho, CANONICAL) < 1e-12

    def test_scan_entangled_approaches_supremum(self):
        best, angles = chsh_scan(PHI_PLUS, 32)
        assert best >= 2.76
        assert best <= TWO_SQRT_TWO + 1e-9
        assert abs(chsh_B(PHI_PLUS, angles) - best) < 1e-12

    def test_scan_product_never_violates(self):
        best, _ = chsh_scan(PRODUCT, 32)
        assert best <= 2.0 + 1e-9

    def test_scan_maximally_mixed_is_zero(self):
        best, _ = chsh_scan(MIXED, 16)
        assert best < 1e-12

    def test_scan_grid_requirement(self):
        with pytest.raises(ValueError):
            chsh_scan(PHI_PLUS, 4)

    def test_scan_is_deterministic(self):
        first = chsh_scan(PHI_PLUS, 16)
        second = chsh_scan(PHI_PLUS, 16)
        assert first == second


class TestChshProperties:
    @given(density_matrices(4), st.floats(0.0, math.pi), st.floats(0.0, math.pi))
    @settings(max_examples=60, deadline=None)
    def test_correlation_bounded_by_one(self, rho, theta1, theta2):
        assert abs(correlation_E(rho, theta1, theta2)) <= 1.0 + 1e-12

    @given(density_matrices(2), density_matrices(2), st.sampled_from([8, 12, 16]))
    @settings(max_examples=25, deadline=None)
    def test_separable_states_never_violate(self, a, b, grid_n):
        best, _ = chsh_scan(DensityMatrix(np.kron(a.matrix, b.matrix)), grid_n)
        assert best <= 2.0 + 1e-12

    @given(density_matrices(4), st.sampled_from([8, 12, 16]))
    @settings(max_examples=25, deadline=None)
    def test_scan_never_exceeds_planar_optimum(self, rho, grid_n):
        best, _ = chsh_scan(rho, grid_n)
        assert best <= planar_chsh_optimum(rho) + 1e-12
        assert best <= chsh_optimum(rho) + 1e-12

    @pytest.mark.parametrize("family,sign", [("phi", "+"), ("phi", "-"), ("psi", "+"), ("psi", "-")])
    def test_bell_states_reach_planar_optimum(self, family, sign):
        rho = density_of(bell_state(family, sign))
        best, _ = chsh_scan(rho, 16)
        assert abs(best - planar_chsh_optimum(rho)) < 1e-12


class TestBlockedScan:
    """The O(n^2) scan against the per-theta1 loop, bit for bit.

    The scan reads eight candidates per (theta1, theta1') pair, in blocks of 2^11 // grid_n
    theta1 rows: grids 8 to 31 scan in one block, 48 and 64 in 2, 100 in 5 and 256 in 32.
    Pairs whose s or d may be of rounding size take their whole rows: theta1' = theta1 +-
    pi/2 in every state, and every pair of a sum i + j along which T^T e vanishes, i + j =
    n/2 and 3n/2 for the product state's T = diag(1, 0). The maximally mixed state's table
    is 0 throughout, so its candidates are exact and it takes no whole rows beyond theta1' =
    theta1 +- pi/2.
    """

    @pytest.mark.parametrize("grid_n", [8, 9, 31, 48, 64, 100, 256])
    @pytest.mark.parametrize("rho", BELL_STATES + [PRODUCT, MIXED],
                             ids=["phi+", "phi-", "psi+", "psi-", "product", "mixed"])
    def test_matches_loop(self, rho, grid_n):
        # the maximally mixed state ties every setting at 0: both take the first.  Every row
        # too, sign bits and all: the product state's s is of rounding size on the sums
        # i + j = n/2 and 3n/2, rows the maximum never reads
        assert chsh_scan(rho, grid_n) == loop_chsh_scan(rho, grid_n)
        thetas = np.arange(grid_n) * math.pi / grid_n
        table = _correlation_table(rho, thetas)
        assert _scan_rows(table).tobytes() == loop_rows(table).tobytes()

    def test_decohered_state_matches_loop(self):
        params = EvolutionParams(2.0e4, RateConstants(0.3, 0.01), 2.0)
        rho = two_rail_evolve("phi_plus", params)
        for grid_n in (48, 100):
            assert chsh_scan(rho, grid_n) == loop_chsh_scan(rho, grid_n)

    @given(density_matrices(4), st.sampled_from([8, 9, 31, 48, 64, 100]))
    @example(DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]) + 0.05 * np.fliplr(np.eye(4))), 256)
    @settings(max_examples=30, deadline=None)
    def test_matches_loop_on_random_states(self, rho, grid_n):
        assert chsh_scan(rho, grid_n) == loop_chsh_scan(rho, grid_n)

    @given(density_matrices(4), st.sampled_from([1e-6, 1e-13, 0.0]), st.sampled_from([9, 31, 48]))
    @settings(max_examples=20, deadline=None)
    def test_matches_loop_near_maximally_mixed(self, rho, p, grid_n):
        # E reads only the coherences, so T and every s and d shrink with p; p = 0 gives T = 0
        mixed = DensityMatrix((1 - p) * np.eye(4) / 4 + p * rho.matrix)
        assert chsh_scan(mixed, grid_n) == loop_chsh_scan(mixed, grid_n)

    @given(density_matrices(2), density_matrices(2), st.sampled_from([8, 9, 31, 48]))
    @settings(max_examples=20, deadline=None)
    def test_matches_loop_on_product_states(self, a, b, grid_n):
        # a product state's T is rank 1, so s or d vanishes along whole sums i + j
        rho = DensityMatrix(np.kron(a.matrix, b.matrix))
        assert chsh_scan(rho, grid_n) == loop_chsh_scan(rho, grid_n)

    @given(st.one_of(density_matrices(4),
                     st.tuples(density_matrices(2), density_matrices(2)).map(
                         lambda ab: DensityMatrix(np.kron(ab[0].matrix, ab[1].matrix))),
                     st.sampled_from(BELL_STATES + [PRODUCT, MIXED])),
           st.sampled_from([1.0, 1e-6, 1e-13]), st.sampled_from([8, 9, 31, 48, 100]))
    @settings(max_examples=60, deadline=None)
    def test_every_row_matches_loop(self, rho, p, grid_n):
        # every entry of the (n, n) row array, not only its maximum, and its sign bits;
        # the rows far below the maximum are where a candidate error would hide
        thetas = np.arange(grid_n) * math.pi / grid_n
        mixed = DensityMatrix((1 - p) * np.eye(4) / 4 + p * rho.matrix)
        table = _correlation_table(mixed, thetas)
        assert _scan_rows(table).tobytes() == loop_rows(table).tobytes()

    def test_memory_at_largest_grid(self):
        # grid_n = 1024, the CLI's cap: the table and the row array take 16 MB, and the
        # einsum's complex (n, n) result 16 MB more while the table is built; the scan adds
        # 2^16-float blocks, and the (k, l) pick reads the extremes of s and d in O(n): 25.9
        # MiB measured.  An argmax over |s[k] - d[l]| would add two n x n temporaries (16 MB),
        # the n^3 cube of one theta1 row 8 MB, of all rows 8 GB
        tracemalloc.start()
        try:
            chsh_scan(PHI_PLUS, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * 2 ** 20


class TestSeparableScan:
    """The O(n^2) scan against the n^4 brute force, and the closed-form optimum."""

    def check_against_brute_force(self, rho, grid_n):
        best, angles = chsh_scan(rho, grid_n)
        assert abs(best - brute_chsh_scan(rho, grid_n)) <= 4e-15
        assert abs(chsh_B(rho, angles) - best) <= 4e-15

    @pytest.mark.parametrize("grid_n", [8, 12, 16])
    @pytest.mark.parametrize("rho", BELL_STATES + [PRODUCT, MIXED],
                             ids=["phi+", "phi-", "psi+", "psi-", "product", "mixed"])
    def test_matches_brute_force(self, rho, grid_n):
        self.check_against_brute_force(rho, grid_n)

    @given(density_matrices(4), st.sampled_from([8, 12, 16]))
    @settings(max_examples=20, deadline=None)
    def test_matches_brute_force_on_random_states(self, rho, grid_n):
        self.check_against_brute_force(rho, grid_n)

    @pytest.mark.parametrize("grid_n", [8, 16])
    @pytest.mark.parametrize("rho", BELL_STATES + [PRODUCT],
                             ids=["phi+", "phi-", "psi+", "psi-", "product"])
    def test_bit_exact_with_lexicographic_ties(self, rho, grid_n):
        # summed as s[k] - d[l], the n^4 tensor's maximum is the scan's bit for bit, and
        # its first flat argmax is the lexicographically smallest of the tied settings
        thetas = np.arange(grid_n) * math.pi / grid_n
        e = _correlation_table(rho, thetas)
        b = np.abs((e[:, None, :, None] + e[None, :, :, None])
                   - (e[:, None, None, :] - e[None, :, None, :]))
        first = thetas[list(np.unravel_index(int(np.argmax(b)), b.shape))]
        best, angles = chsh_scan(rho, grid_n)
        assert best == b.max()
        assert (angles.theta1, angles.theta1p, angles.theta2, angles.theta2p) == tuple(first)

    @given(density_matrices(4))
    @settings(max_examples=60, deadline=None)
    def test_optimum_matches_svd_form(self, rho):
        assert abs(chsh_optimum(rho) - planar_chsh_optimum(rho)) < 1e-12

    def test_optimum_of_decohered_entangled_state(self):
        # criterion 10's state: the exact optimum is 2 sqrt(2) exp(-2 gamma L)
        gamma, kappa, dbeta, length = 0.075, 0.03, 2.5, 1.0
        rho = two_rail_evolve("phi_plus", EvolutionParams(dbeta, RateConstants(gamma, kappa), length))
        assert abs(chsh_optimum(rho) - TWO_SQRT_TWO * math.exp(-2 * gamma * length)) < 1e-12

    def test_optimum_of_product_state_is_classical_bound(self):
        assert abs(chsh_optimum(PRODUCT) - 2.0) < 1e-12

    def test_scan_memory_is_quadratic(self):
        # the n^4 tensor at grid_n = 256 would take about 34 GB
        tracemalloc.start()
        try:
            chsh_scan(PHI_PLUS, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestDelayCovariance:
    def test_entangled_quarter_square(self, rng):
        # delays drawn apart by up to 1e4x: Delta = tau1 - tau0 may round,
        # and 1e-12 of tau^2 bounds that rounding
        for _ in range(20):
            tau0, tau1 = rng.uniform(1e-12, 1e-8, size=2)
            params = EvolutionParams(4.0, RateConstants(0.5, 0.1), float(rng.uniform(0, 2)))
            rho = two_rail_evolve("phi_plus", params)
            value = delay_covariance(rho, DelayPair(tau0, tau1))
            expected = 0.25 * (tau1 - tau0) ** 2
            assert abs(value - expected) <= 1e-12 * (tau0 ** 2 + tau1 ** 2)

    def test_entangled_quarter_square_dimensionless(self):
        # in normalized delay units the identity holds at 1e-12 absolute
        params = EvolutionParams(4.0, RateConstants(0.5, 0.1), 1.0)
        rho = two_rail_evolve("phi_plus", params)
        value = delay_covariance(rho, DelayPair(1.0, 2.0))
        assert abs(value - 0.25) < 1e-12

    def test_product_zero(self, rng):
        for _ in range(20):
            tau0, tau1 = rng.uniform(1e-12, 1e-8, size=2)
            params = EvolutionParams(4.0, RateConstants(0.5, 0.1), float(rng.uniform(0, 2)))
            rho = two_rail_evolve("product", params)
            value = delay_covariance(rho, DelayPair(tau0, tau1))
            assert abs(value) <= 1e-12 * (tau0 ** 2 + tau1 ** 2)

    def test_exact_when_delays_within_factor_two(self, rng):
        # Delta is exact (Sterbenz), so phi_plus gives Delta^2 / 4 bit for bit and product 0
        for _ in range(50):
            tau0 = float(rng.uniform(1e-12, 1e-8))
            tau1 = tau0 * float(rng.uniform(0.5, 2.0))
            params = EvolutionParams(4.0, RateConstants(0.5, 0.1), float(rng.uniform(0, 2)))
            pair = DelayPair(tau0, tau1)
            entangled = delay_covariance(two_rail_evolve("phi_plus", params), pair)
            assert entangled == 0.25 * (tau1 - tau0) ** 2
            assert delay_covariance(two_rail_evolve("product", params), pair) == 0.0

    def test_degenerate_delays_give_zero(self, rng):
        params = EvolutionParams(4.0, RateConstants(0.5, 0.1), 1.0)
        rho = two_rail_evolve("phi_plus", params)
        assert delay_covariance(rho, DelayPair(3e-9, 3e-9)) == 0.0

    def test_quadratic_growth_with_physical_delays(self, default_slab):
        # tau is proportional to L by construction, so the entangled-state
        # covariance grows exactly quadratically with propagation distance
        params = EvolutionParams(4.0, RateConstants(0.02, 0.0), 1.0)
        rho = two_rail_evolve("phi_plus", params)

        def covariance(length):
            pair = DelayPair(group_delay(default_slab, 0, length),
                             group_delay(default_slab, 1, length))
            return delay_covariance(rho, pair)

        ratio = covariance(2.0) / covariance(1.0)
        assert abs(ratio - 4.0) < 1e-9


def test_export_bell_csv(tmp_path):
    thetas = np.linspace(0, math.pi, 5, endpoint=False)
    target = tmp_path / "bell.csv"
    export_bell_csv(PHI_PLUS, thetas, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "theta1,theta2,E"
    assert len(lines) == 1 + 25


def test_export_bell_csv_memory(tmp_path):
    # the writer holds one line string per setting and the file's text and bytes, once each;
    # n^2 (theta1, theta2, E) tuples of Python floats, or the text copied a second time to
    # end it in a newline, would each add about a file's size
    thetas = np.linspace(0, math.pi, 256, endpoint=False)
    target = tmp_path / "bell.csv"
    tracemalloc.start()
    try:
        export_bell_csv(PHI_PLUS, thetas, target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(target.read_bytes().splitlines()) == 1 + 256 ** 2
    assert peak < 5 * target.stat().st_size


def test_export_chsh_csv(tmp_path):
    best, angles = chsh_scan(PHI_PLUS, 16)
    target = tmp_path / "chsh.csv"
    export_chsh_csv(best, angles, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "theta1,theta1p,theta2,theta2p,B"
    values = [float(v) for v in lines[1].split(",")]
    assert abs(values[4] - TWO_SQRT_TWO) < 1e-9
