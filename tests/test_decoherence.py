import hashlib
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modesim.decoherence import (
    EvolutionParams,
    analytic_single_rail,
    ensemble_scan,
    export_scan_csv,
    two_rail_evolve,
)
from modesim import decoherence, stochastic
from modesim.decoherence import _conjugations, _segment_products, _Workspace
from modesim.states import DensityMatrix, bell_state, density_of, product_state, purity, superpose
from modesim.stochastic import PerturbationModel, RateConstants, pair_seed, rates, sample_path

EQUAL = density_of(superpose(1.0, 1.0))


def single_path_draw(model, dz, count, seed):
    """The one-path-per-seed sampler: the real part of default_rng(seed)'s embedding transform."""
    scale = stochastic._embedding_scale(model.sigma, model.corr_length, dz, count)
    draws = np.random.default_rng(seed).standard_normal((2, scale.shape[0]))
    spectrum = np.empty(scale.shape[0], dtype=np.complex128)
    spectrum.real = scale * draws[0]
    spectrum.imag = scale * draws[1]
    return np.fft.fft(spectrum).real[:count]


def params(delta_beta=2.0e4, gamma=0.04, kappa=0.067, length=1.0):
    return EvolutionParams(delta_beta, RateConstants(gamma, kappa), length)


class TestAnalyticSingleRail:
    def test_zero_length_identity(self, rng):
        for _ in range(10):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = DensityMatrix((raw @ raw.conj().T) / np.trace(raw @ raw.conj().T))
            out = analytic_single_rail(rho, params(length=0.0))
            assert np.abs(out.matrix - rho.matrix).max() < 1e-15

    def test_strong_decoherence_fully_mixes(self):
        out = analytic_single_rail(EQUAL, params(gamma=50.0, length=1.0))
        assert np.abs(out.matrix - 0.5 * np.eye(2)).max() < 1e-12
        assert abs(purity(out) - 0.5) < 1e-12

    def test_purity_law(self):
        # substituting the map into Tr rho^2 for |C0| = |C1| = 1/sqrt(2)
        # gives purity = 1/2 + exp(-2 gamma L)/2 identically
        p = params()
        for length in np.linspace(0.0, 60.0, 20):
            evolved = analytic_single_rail(EQUAL, params(length=float(length)))
            expected = 0.5 + 0.5 * math.exp(-2.0 * p.rates.gamma * length)
            assert abs(purity(evolved) - expected) < 1e-12

    def test_coherence_phase_and_decay(self):
        p = params(length=2.5)
        out = analytic_single_rail(EQUAL, p)
        expected = 0.5 * np.exp((1j * (p.delta_beta + p.rates.kappa) - p.rates.gamma) * p.length)
        assert abs(out.matrix[0, 1] - expected) < 1e-15

    def test_trace_preserved_exactly(self, rng):
        for _ in range(25):
            raw = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = DensityMatrix((raw @ raw.conj().T) / np.trace(raw @ raw.conj().T))
            out = analytic_single_rail(rho, params(length=float(rng.uniform(0, 5))))
            assert abs(np.trace(out.matrix) - 1.0) < 1e-13

    def test_coherence_strictly_decreasing(self):
        magnitudes = [abs(analytic_single_rail(EQUAL, params(length=L)).matrix[0, 1])
                      for L in np.linspace(0.0, 40.0, 15)]
        assert all(a > b for a, b in zip(magnitudes, magnitudes[1:]))


def bloch_states():
    """Single-rail states (I + r.sigma) / 2 over Bloch vectors r with |r| <= 1."""
    def build(r):
        x, y, z = np.array(r) / max(1.0, math.hypot(*r))
        return DensityMatrix(0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]]))

    return st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(build)


evolution_params = st.builds(
    lambda dbeta, gamma, kappa, length: EvolutionParams(dbeta, RateConstants(gamma, kappa), length),
    st.floats(-1e5, 1e5), st.floats(0.0, 10.0), st.floats(-10.0, 10.0), st.floats(0.0, 10.0))


def min_eigenvalue(matrix):
    return float(np.linalg.eigvalsh(matrix).min())


def composed_two_rail(state, p):
    """The single-rail map applied to each rail of the pure input: the oracle route that the
    closed form matches on the product state and departs from on phi_plus populations."""
    pure = bell_state("phi", "+") if state == "phi_plus" else product_state()
    args = (p.delta_beta, p.rates.gamma, p.rates.kappa, p.length)
    # axes (c, t, c', t') of control and target rails; each map acts on the leading pair
    joint = density_of(pure).matrix.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3)
    joint = decoherence._apply_single_rail(joint, *args).transpose(2, 3, 0, 1)
    return DensityMatrix(decoherence._apply_single_rail(joint, *args).transpose(2, 0, 3, 1).reshape(4, 4))


TWO_RAIL_ROUTES = {"closed_form": two_rail_evolve, "channel_composition": composed_two_rail}


class TestChannelProperties:
    """Trace and positivity of the closed-form maps over gamma, kappa, dbeta, L."""

    @given(bloch_states(), evolution_params)
    @settings(max_examples=200, deadline=None)
    def test_single_rail_keeps_trace_and_positivity(self, rho, p):
        out = analytic_single_rail(rho, p).matrix
        assert abs(np.trace(out) - 1.0) < 1e-14
        assert min_eigenvalue(out) >= -1e-14

    @given(evolution_params)
    @settings(max_examples=200, deadline=None)
    def test_single_rail_choi_matrix_is_psd(self, p):
        # the map on every |i><j| at once: units[:, :, i, j] = |i><j|
        units = np.eye(4, dtype=np.complex128).reshape(2, 2, 2, 2)
        images = decoherence._apply_single_rail(units, p.delta_beta, p.rates.gamma,
                                                p.rates.kappa, p.length)
        choi = images.transpose(2, 0, 3, 1).reshape(4, 4)  # sum |i><j| (x) map(|i><j|)
        assert np.abs(choi - choi.conj().T).max() < 1e-15
        assert min_eigenvalue(choi) >= -1e-14

    @given(st.sampled_from(["phi_plus", "product"]), st.sampled_from(sorted(TWO_RAIL_ROUTES)), evolution_params)
    @settings(max_examples=200, deadline=None)
    def test_two_rail_keeps_trace_and_positivity(self, state, route, p):
        out = TWO_RAIL_ROUTES[route](state, p).matrix
        assert abs(np.trace(out) - 1.0) < 1e-14
        assert min_eigenvalue(out) >= -1e-14

    def test_phase_overflow_rejected(self):
        # 2 (dbeta + kappa) L overflowed to inf, and the evolved state to NaN
        with pytest.raises(ValueError, match="phase overflow"):
            EvolutionParams(1e308, RateConstants(0.0, 0.0), 2.0)
        with pytest.raises(ValueError, match="phase overflow"):
            EvolutionParams(0.0, RateConstants(0.0, 0.0), math.inf)
        assert EvolutionParams(1e307, RateConstants(0.0, 0.0), 2.0).length == 2.0


def single_realization(model, delta_beta, length, seed=0, n_lengths=2):
    """ensemble_scan with one realization: each checkpoint mean is that realization's state."""
    return ensemble_scan(EQUAL, model, delta_beta, length_max=length, n_lengths=n_lengths,
                         n_realizations=1, base_seed=seed)


class TestIntegrateRealization:
    """The per-realization integrator, run as ensemble_scan with n_realizations=1."""

    def test_free_evolution_exact_phase(self, default_model):
        zero_model = PerturbationModel(0.0, default_model.corr_length, default_model.k_ab)
        delta_beta = 2.0 / default_model.corr_length
        scan = single_realization(zero_model, delta_beta, 4000 * default_model.corr_length / 8)
        for length, out in zip(scan.lengths, scan.mean):
            assert abs(out[0, 1] - 0.5 * np.exp(1j * delta_beta * length)) < 1e-12
            assert abs(out[0, 0] - 0.5) < 1e-13

    def test_purity_conserved_per_realization(self, default_model):
        scan = single_realization(default_model, 2.0 / default_model.corr_length,
                                  5000 * default_model.corr_length / 8, seed=21, n_lengths=5)
        for out in scan.mean:
            assert abs(purity(DensityMatrix(out)) - 1.0) < 1e-12

    def test_complex_coupling_stays_unitary(self, default_model):
        # the integrator accepts complex coupling strengths; each realization
        # remains an exact unitary conjugation
        model = PerturbationModel(default_model.sigma, default_model.corr_length, 300.0 + 400.0j)
        scan = single_realization(model, 2.0 / default_model.corr_length,
                                  3000 * default_model.corr_length / 8, seed=31, n_lengths=5)
        for out in scan.mean:
            assert abs(purity(DensityMatrix(out)) - 1.0) < 1e-12
            assert abs(np.trace(out) - 1.0) < 1e-13


class TestEnsemble:
    def test_single_realization_matches_integrate(self, default_model):
        # the same path as a sequential product of per-step unitaries
        # exp(-i H dz), from the Pauli form of H = [[0, K f], [conj(K) f, dbeta]]
        delta_beta = 2.0 / default_model.corr_length
        length = 0.01
        scan = single_realization(default_model, delta_beta, length, seed=5, n_lengths=4)
        count = round(length / (default_model.corr_length / 8))  # the beat needs no finer step
        dz = length / count
        path = sample_path(default_model, dz, count, seed=5)
        pauli = (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
                 np.array([[1, 0], [0, -1]]))
        products = [np.eye(2)]
        for f in path:
            c = default_model.k_ab * f
            axis = np.array([c.real, -c.imag, -delta_beta / 2.0])
            radius = np.linalg.norm(axis)
            generator = sum(a * p for a, p in zip(axis / radius, pauli))
            step = math.cos(radius * dz) * np.eye(2) - 1j * math.sin(radius * dz) * generator
            products.append(step @ products[-1])
        for out, checkpoint in zip(scan.mean, scan.lengths):
            unitary = products[round(checkpoint / dz)]
            assert np.abs(out - unitary @ EQUAL.matrix @ unitary.conj().T).max() < 1e-13

    @pytest.mark.parametrize("n_lengths,n_realizations", [(1, 4), (0, 4), (2, 0), (2, -1)])
    def test_scan_sizes_checked_with_the_step_count(self, default_model, n_lengths, n_realizations):
        # ensemble_steps, which the CLI runs before any output, checks the sizes the scan checks
        for call in (lambda: decoherence.ensemble_steps(default_model, 2e4, 0.004, n_lengths, n_realizations),
                     lambda: ensemble_scan(EQUAL, default_model, 2e4, 0.004, n_lengths, n_realizations, 0)):
            with pytest.raises(ValueError, match="need n_lengths >= 2 and n_realizations >= 1"):
                call()

    def test_zero_sigma_ensemble_is_free_evolution(self):
        model = PerturbationModel(0.0, 100e-6, 500.0)
        delta_beta = 2e4
        scan = ensemble_scan(EQUAL, model, delta_beta, length_max=0.004, n_lengths=2,
                             n_realizations=4, base_seed=0)
        expected = 0.5 * np.exp(1j * delta_beta * scan.lengths)
        assert np.abs(scan.mean[:, 0, 1] - expected).max() < 1e-12

    def test_thread_schedule_invariance(self, default_model):
        delta_beta = 2.0 / default_model.corr_length
        serial = ensemble_scan(EQUAL, default_model, delta_beta, 0.01, 3, 8, base_seed=77)
        threaded = ensemble_scan(EQUAL, default_model, delta_beta, 0.01, 3, 8, base_seed=77,
                                 n_jobs=4)
        assert np.array_equal(serial.mean, threaded.mean)
        assert np.array_equal(serial.stderr, threaded.stderr)

    def test_threads_fill_every_row_of_the_shared_stack(self, default_model):
        # the workers write their realizations into rows of one preallocated stack; with
        # more workers than cores and a thread switch every microsecond, a row lost, left
        # uninitialized or written by the wrong realization, or a workspace two threads
        # share, would move the mean's bits (1600-step paths: numpy releases the GIL).  The
        # 400 short paths make the workers take seed pairs from their shared generator so
        # often that a take without the lock raises "generator already executing"
        delta_beta = 2.0 / default_model.corr_length
        for length, checkpoints, realizations in [(0.02, 4, 24), (0.002, 2, 400)]:
            args = (EQUAL, default_model, delta_beta, length, checkpoints, realizations)
            serial = ensemble_scan(*args, base_seed=13)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                threaded = ensemble_scan(*args, base_seed=13, n_jobs=8)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(serial.mean, threaded.mean)
            assert np.array_equal(serial.stderr, threaded.stderr)

    @pytest.mark.parametrize("n_jobs", [1, 2, 4])
    def test_a_failing_loop_stops_the_others(self, default_model, monkeypatch, n_jobs):
        # the third conjugation raises; each other loop may finish the seed pair it holds,
        # then finds no pair left to take (they once ran the other 397 realizations)
        calls, conjugations = itertools.count(1), decoherence._conjugations

        def fail_third(*args):
            if next(calls) == 3:
                raise RuntimeError("third conjugation")
            conjugations(*args)

        monkeypatch.setattr(decoherence, "_conjugations", fail_third)
        with pytest.raises(RuntimeError, match="third conjugation"):
            ensemble_scan(EQUAL, default_model, 2.0 / default_model.corr_length, 0.002, 2, 400,
                          base_seed=0, n_jobs=n_jobs)
        assert next(calls) - 1 <= 3 + 2 * (n_jobs - 1)

    @pytest.mark.parametrize("n_jobs", [2, 4])
    def test_ctrl_c_stops_a_threaded_scan(self, default_model, monkeypatch, n_jobs):
        # Ctrl-C reaches the main thread, which runs a loop of its own; that loop stops and
        # leaves the others no pair to take, so each finishes at most the pair it holds
        # (while the main thread ran no loop, they ran all 400 realizations instead)
        calls, conjugations = itertools.count(1), decoherence._conjugations
        interrupted_at = []

        def interrupt_main(*args):
            call = next(calls)
            if threading.current_thread() is threading.main_thread():
                interrupted_at.append(call)
                raise KeyboardInterrupt
            conjugations(*args)

        monkeypatch.setattr(decoherence, "_conjugations", interrupt_main)
        with pytest.raises(KeyboardInterrupt):
            ensemble_scan(EQUAL, default_model, 2.0 / default_model.corr_length, 0.002, 2, 400,
                          base_seed=0, n_jobs=n_jobs)
        assert next(calls) - 1 - interrupted_at[0] <= 2 * n_jobs

    @pytest.mark.parametrize("n_jobs", [1, 4])
    @pytest.mark.parametrize("base_seed", [40, 41])
    def test_one_transform_per_seed_pair(self, default_model, monkeypatch, n_jobs, base_seed):
        drawn = []

        def spy(scale, count, seed):
            drawn.append(seed)
            return transform(scale, count, seed)

        transform = stochastic._pair_transform
        monkeypatch.setattr(stochastic, "_pair_transform", spy)
        monkeypatch.setattr(stochastic, "_last_pair", threading.local())
        delta_beta = 2.0 / default_model.corr_length
        scan = ensemble_scan(EQUAL, default_model, delta_beta, 0.01, 3, 7, base_seed=base_seed,
                             n_jobs=n_jobs)
        pairs = {pair_seed(base_seed + i) for i in range(7)}
        assert sorted(drawn) == sorted(pairs)
        serial = ensemble_scan(EQUAL, default_model, delta_beta, 0.01, 3, 7, base_seed=base_seed)
        assert np.array_equal(scan.mean, serial.mean)

    def test_threaded_scan_builds_the_embedding_once(self, default_model):
        # both loops miss the embedding's cache at their first path: one builds the
        # 131072-point embedding while the other waits for it (each once built its own)
        stochastic._embedding_scale.cache_clear()
        ensemble_scan(EQUAL, default_model, 2.0e4, 0.8192, 2, 8, base_seed=0, n_jobs=2)
        assert stochastic._embedding_scale.cache_info().misses == 1

    @pytest.mark.parametrize("n_jobs,bound_mib", [(1, 5.6), (2, 11.2)])
    def test_default_scan_drops_each_pair_before_the_next_transform(self, default_model,
                                                                     monkeypatch, n_jobs, bound_mib):
        # at the decohere defaults a loop peaks in the larger of a pair's two phases: its
        # transform (the 2 MiB spectrum and 1 MiB of draws) or its reduction (the 3.8 MiB
        # workspace, the 1 MiB transform memo and one 0.5 MiB path), 5.4 MiB.  A loop that kept
        # its workspace and last path through the next transform peaked at 7.3 MiB
        ensemble_scan(EQUAL, default_model, 2.0e4, 0.8192, 20, 8, base_seed=0)  # the embedding
        monkeypatch.setattr(stochastic, "_last_pair", threading.local())
        tracemalloc.start()
        try:
            ensemble_scan(EQUAL, default_model, 2.0e4, 0.8192, 20, 8, base_seed=0, n_jobs=n_jobs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_mib * 2 ** 20

    def test_reused_buffers_leave_no_trace(self, default_model):
        # on one thread: a path, then a scan at shape A, one at shape B (other
        # segments, odd widths) and A again; nothing returned earlier may move
        delta_beta = 2.0 / default_model.corr_length
        dz = default_model.corr_length / 8
        path = sample_path(default_model, dz, 400, seed=10)
        path_values = path.copy()

        def scan(length, n_lengths):
            result = ensemble_scan(EQUAL, default_model, delta_beta, length, n_lengths, 5,
                                   base_seed=300)
            return result, np.diff(np.round(result.lengths / dz), prepend=0).tolist()

        first, steps_a = scan(0.01, 4)
        kept = [a.copy() for a in (first.lengths, first.mean, first.stderr, first.analytic)]
        _, steps_b = scan(0.0137, 7)
        third, _ = scan(0.01, 4)
        assert steps_a == [200] * 4
        assert steps_b == [157, 156, 157, 156, 157, 156, 157]
        assert np.array_equal(third.mean, first.mean)
        assert np.array_equal(third.stderr, first.stderr)
        for now, before in zip((first.lengths, first.mean, first.stderr, first.analytic), kept):
            assert np.array_equal(now, before)
        for seed in (11, 12, 15):  # the rest of pair 10, then later pairs
            sample_path(default_model, dz, 400, seed)
        assert np.array_equal(path, path_values)

    def test_scan_mc_error_shrinks_like_sqrt_n(self, default_model):
        # RMS entrywise error against the closed form must shrink by about
        # sqrt(2) per doubling of the ensemble; pooled over several
        # independent repetitions so the ratio estimate concentrates
        delta_beta = 2.0 / default_model.corr_length
        errors = {n: [] for n in (150, 300, 600)}
        for rep in range(4):
            for n_real in errors:
                scan = ensemble_scan(EQUAL, default_model, delta_beta, length_max=0.03,
                                     n_lengths=10, n_realizations=n_real,
                                     base_seed=11_000 + 1000 * rep)
                errors[n_real].append(np.abs(scan.mean - scan.analytic) ** 2)
        rms = {n: float(np.sqrt(np.mean(errors[n]))) for n in errors}
        for coarse, fine in ((rms[150], rms[300]), (rms[300], rms[600])):
            assert 1.2 < coarse / fine < 1.7

    def test_scan_lengths_snap_to_steps(self, default_model):
        delta_beta = 2.0 / default_model.corr_length
        scan = ensemble_scan(EQUAL, default_model, delta_beta, length_max=0.1,
                             n_lengths=5, n_realizations=2, base_seed=1)
        dz = scan.lengths[-1] / round(scan.lengths[-1] / (default_model.corr_length / 8))
        for length in scan.lengths:
            steps = length / dz
            assert abs(steps - round(steps)) < 1e-6


def unit_steps(seed: int, count: int) -> np.ndarray:
    steps = np.random.default_rng(seed).normal(size=(4, count))
    return steps / np.linalg.norm(steps, axis=0)


@st.composite
def segmented_steps(draw):
    """Random unit step quaternions and random segment ends, the last at the step count."""
    count = draw(st.integers(1, 300))
    cuts = draw(st.sets(st.integers(1, count - 1))) if count > 1 else set()
    return unit_steps(draw(st.integers(0, 2 ** 32 - 1)), count), sorted(cuts) + [count]


def su2_matrix(q) -> np.ndarray:
    w, x, y, z = q
    return np.array([[w - 1j * z, -y - 1j * x], [y - 1j * x, w + 1j * z]])


class TestSegmentReducer:
    @given(segmented_steps())
    @example((unit_steps(0, 7), [1, 2, 3, 7]))
    @example((unit_steps(1, 5), [1, 2, 3, 4, 5]))  # width 1: no tree level
    @example((unit_steps(2, 29), [5, 18, 29]))  # widths 13 and 7 take the spare identity column
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_product(self, case):
        steps, marks = case
        work = _Workspace(marks)
        for s, (start, end) in enumerate(work.bounds):
            work.steps[:, s, :end - start] = steps[:, start:end]
            work.steps[:, s, end - start:] = np.array([1.0, 0.0, 0.0, 0.0])[:, None]
        products = _segment_products(work)
        start = 0
        for s, mark in enumerate(marks):
            expected = np.eye(2)
            for k in range(start, mark):
                expected = su2_matrix(steps[:, k]) @ expected
            assert np.abs(su2_matrix(products[:, s]) - expected).max() < 1e-12
            assert abs(np.linalg.norm(products[:, s]) - 1.0) < 1e-12
            start = mark

    def test_reused_workspace_matches_a_fresh_one(self, default_model):
        # segments of 5, 13 and 11 steps: widths 13 and 7 take a spare column, which levels 2
        # and 3 write over in the two shared buffers.  Every realization must get the bits a
        # fresh workspace gives it
        marks, dz, delta_beta = [5, 18, 29], 1.0e-5, 2.0e4
        shared, rho = _Workspace(marks), EQUAL.matrix
        assert shared.widths == [13, 7, 4, 2, 1]
        for seed in range(4):
            path = sample_path(default_model, dz, 2000, seed)[:marks[-1]]
            reused, fresh = (np.empty((len(marks), 2, 2), dtype=np.complex128) for _ in range(2))
            _conjugations(rho, path, dz, delta_beta, complex(default_model.k_ab), shared, reused)
            _conjugations(rho, path, dz, delta_beta, complex(default_model.k_ab),
                          _Workspace(marks), fresh)
            assert reused.tobytes() == fresh.tobytes()

    def test_default_workspace_holds_two_tree_buffers(self):
        # the decohere defaults cut 65536 steps into 20 segments of up to 3277: the values and
        # scratch (0.79 MB), buffer A for the step block (2.10 MB) and buffer B for level 1
        # (1.05 MB).  A buffer per tree level took 5.12 MB, and the gather index 0.52 MB more
        marks = [max(1, int(round(65536 * (j + 1) / 20))) for j in range(20)]
        tracemalloc.start()
        try:
            work = _Workspace(marks)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert max(work.widths) == 3277 and held <= 4.1e6

    def test_scan_bytes_pinned(self, default_model, monkeypatch):
        # 1096 steps in checkpoint segments of 157 and 156 steps; the digest of
        # the mean was recorded with the per-segment reducer this block
        # reducer replaced, whose output it must reproduce bit for bit.  The
        # paths are the one-path-per-seed draws it was recorded with.
        monkeypatch.setattr(decoherence, "sample_path", single_path_draw)
        scan = ensemble_scan(EQUAL, default_model, 2.0e4, length_max=0.0137, n_lengths=7,
                             n_realizations=3, base_seed=123)
        steps = np.round(scan.lengths / (0.0137 / 1096)).astype(int)
        assert np.diff(steps, prepend=0).tolist() == [157, 156, 157, 156, 157, 156, 157]
        assert (hashlib.sha256(scan.mean.tobytes()).hexdigest()
                == "b686ed11b15ccaef4a0c534a37d1988a55bcbb29d220dd7d1014cc806c1fa42a")

    def test_scan_bytes_pinned_seed_pairs(self, default_model):
        # the same scan on the paired sampler: seed 123 is the imaginary part
        # of pair 122, seeds 124 and 125 the two parts of pair 124
        scan = ensemble_scan(EQUAL, default_model, 2.0e4, length_max=0.0137, n_lengths=7,
                             n_realizations=3, base_seed=123)
        assert (hashlib.sha256(scan.mean.tobytes()).hexdigest()
                == "420c0189ba5c1be0f36ae639f223de88ebff674ea2ee1b00a3f195c9802746d6")


class TestTwoRail:
    def test_zero_length_pure_inputs(self):
        p = params(length=0.0)
        for state, pure in (("phi_plus", bell_state("phi", "+")), ("product", product_state())):
            for route in TWO_RAIL_ROUTES.values():
                out = route(state, p)
                assert np.abs(out.matrix - density_of(pure).matrix).max() < 1e-14

    def test_entangled_closed_form_structure(self):
        p = params(length=3.0)
        out = two_rail_evolve("phi_plus", p)
        corner = 0.5 * np.exp(2.0 * (1j * (p.delta_beta + p.rates.kappa) - p.rates.gamma) * p.length)
        assert abs(out.matrix[0, 3] - corner) < 1e-15
        assert np.allclose(np.diag(out.matrix), [0.5, 0.0, 0.0, 0.5], atol=1e-15)
        assert abs(out.matrix[1, 2]) < 1e-15

    def test_product_closed_form_equals_channel_composition(self):
        for length in (0.0, 0.7, 3.0, 12.0):
            p = params(length=length)
            closed = two_rail_evolve("product", p)
            composed = composed_two_rail("product", p)
            assert np.abs(closed.matrix - composed.matrix).max() < 1e-12

    def test_product_channel_composition_is_tensor_of_rails(self):
        p = params(length=1.3)
        single = analytic_single_rail(EQUAL, p)
        expected = DensityMatrix(np.kron(single.matrix, single.matrix))
        composed = composed_two_rail("product", p)
        assert np.abs(composed.matrix - expected.matrix).max() < 1e-13

    def test_entangled_channel_composition_populates_cross_terms(self):
        # the two definitions deliberately disagree on the entangled state's
        # populations; the composed channel feeds |01>, |10> at
        # (1 - exp(-2 gamma L)) order while the closed form keeps them empty
        p = params(length=5.0)
        composed = composed_two_rail("phi_plus", p)
        cross = (1.0 - math.exp(-4.0 * p.rates.gamma * p.length)) / 4.0
        assert composed.matrix[1, 1].real > 0.0
        assert abs(composed.matrix[1, 1].real - cross) < 1e-12
        closed = two_rail_evolve("phi_plus", p)
        assert closed.matrix[1, 1] == 0.0

    def test_trace_preserved(self):
        for state in ("phi_plus", "product"):
            for route in TWO_RAIL_ROUTES.values():
                out = route(state, params(length=2.0))
                assert abs(np.trace(out.matrix) - 1.0) < 1e-12

    def test_unknown_selector_rejected(self):
        with pytest.raises(ValueError):
            two_rail_evolve("psi_plus", params())
        with pytest.raises(TypeError):  # the closed form is the only route: no route selector
            two_rail_evolve("phi_plus", params(), "closed_form")


def test_export_scan_csv(tmp_path, default_model):
    delta_beta = 2.0 / default_model.corr_length
    scan = ensemble_scan(EQUAL, default_model, delta_beta, length_max=0.05,
                         n_lengths=4, n_realizations=3, base_seed=8)
    target = tmp_path / "scan.csv"
    export_scan_csv(scan, target)
    lines = target.read_text().splitlines()
    assert lines[0] == "L_m,re_rho01,im_rho01,purity,analytic_re,analytic_im"
    assert len(lines) == 1 + len(scan.lengths)
