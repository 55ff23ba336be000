import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import modesim
from modesim import bpm, cli
from modesim._errors import NumericalError
from modesim._io import format_value, write_json
from modesim.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    main,
    parse_config_text,
    run,
    validate,
)

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


# Configs whose estimated memory exceeds MEMORY_BUDGET, with the key validate names.
# None of them may ever run: unbounded, each would ask for 3.9 GB (the modes config) or more.
OVER_BUDGET = [
    ("experiment=bpm-run\nlength_um=1e7\n", "length_um"),
    ("experiment=fig2\nlead_out_um=1e7\n", "lead_out_um"),
    ("experiment=decohere\nlength_max_m=1e300\nn_realizations=1\nn_lengths=2\n", "length_max_m"),
    ("experiment=decohere\nn_lengths=1000000000\n", "n_lengths"),
    ("experiment=decohere\nn_realizations=1000000000\n", "n_realizations"),
    ("experiment=modes\ncore_width_um=1000000\n", "core_width_um"),
    ("experiment=delays\nn_lengths=1000000000\n", "n_lengths"),
    # a sparse snapshot stride leaves the row index of 2e9 or 1e12 z steps: once a MemoryError
    ("experiment=bpm-run\nlength_um=1e9\nsnapshot_every=1000000\n", "length_um"),
    ("experiment=bpm-run\nlength_um=1e9\nsnapshot_every=1000000000\n", "length_um"),
    ("experiment=bpm-run\nlength_um=1e9\nsnapshot_every=1000000000000000000\n", "length_um"),
    ("experiment=bpm-run\ndz_um=1e-9\nsnapshot_every=1000000000\n", "dz_um"),
    ("experiment=bpm-run\ndz_um=1e-9\nsnapshot_every=1000000000000000000\n", "dz_um"),
]
OVER_BUDGET_IDS = ["bpm_over_budget", "fig2_over_budget", "decohere_steps_over_budget",
                   "decohere_lengths_over_budget", "decohere_realizations_over_budget",
                   "modes_over_budget", "delays_over_budget", "bpm_length_sparse_1e6",
                   "bpm_length_sparse_1e9", "bpm_length_sparse_1e18", "bpm_dz_sparse_1e9",
                   "bpm_dz_sparse_1e18"]

# Configs that once exited 3 from the run, with the key validate names and its bound: the
# Monte Carlo window is under 20 D, the snapped step (rounded down to 200 steps) is over
# D/8, mode 1 is guided at k but not at k (1 - 1e-4), where its group delay is taken, and
# (tau1 - tau0)^2 overflowed at length_max_m=1e300, after two numpy overflow warnings.
GRID_AND_CUTOFF = [
    ("experiment=decohere\nlength_max_m=0.001\n", "length_max_m", "too short"),
    ("experiment=decohere\nlength_max_m=0.00250625\n", "length_max_m", "does not resolve"),
    ("experiment=delays\nwavelength_um=2.7666\n", "wavelength_um", "near cutoff"),
    ("experiment=delays\nlength_max_m=1e300\n", "length_max_m", "|tau1 - tau0| < 1e154 s"),
]
GRID_AND_CUTOFF_IDS = ["decohere_window_short", "decohere_snapped_dz", "delays_cutoff",
                       "delays_spread_overflow"]

# Configs that exited 0 or 3, or whose dispersion solve never returned, with the key validate
# names and its bound.  A core wider than its window, or a window far narrower than the core,
# sampled no cladding or gave profiles whose norm underflowed.  At V = 100, n_core - n_clad of
# 4 ulps leaves beta below float64's resolution; the 1e9 slabs need 2V / pi of 1e8 to 1e10
# branches, and their beta is unresolvable too.  A 1e308 um core overflows V.
NEAR_EQUAL_SLAB = "n_clad=1.4999999999999991\ncore_width_um=955808943\n"
WINDOW_AND_RESOLUTION = [
    ("experiment=bpm-run\ncore_width_um=200\n", "core_width_um", "core exceeds grid"),
    ("experiment=bpm-run\nwindow_um=1e-300\n", "window_um", "core exceeds grid"),
    ("experiment=modes\nspan_factor=1e-300\n", "span_factor", "core exceeds grid"),
    ("experiment=modes\n" + NEAR_EQUAL_SLAB, "core_width_um", "resolution of beta"),
    ("experiment=delays\n" + NEAR_EQUAL_SLAB, "core_width_um", "resolution of beta"),
    ("experiment=delays\ncore_width_um=1e9\n", "core_width_um", "resolution of beta"),
    ("experiment=delays\nn_core=1e9\n", "n_core", "resolution of beta"),
    ("experiment=delays\nwavelength_um=1e-9\n", "wavelength_um", "resolution of beta"),
    # two 1e9 keys together once raised "dispersion branch 0 lost its bracket" out of validate
    ("experiment=delays\ncore_width_um=1e9\nn_core=1e9\n", "n_core", "resolution of beta"),
    ("experiment=delays\ncore_width_um=1e9\nwavelength_um=1e-9\n", "wavelength_um", "resolution of beta"),
    ("experiment=delays\nn_core=1e9\nwavelength_um=1e-9\n", "wavelength_um", "resolution of beta"),
    ("experiment=fig2\ncore_width_um=1e9\n", "core_width_um", "core exceeds grid"),
    ("experiment=bpm-run\ncore_width_um=1e9\n", "core_width_um", "core exceeds grid"),
    ("experiment=delays\ncore_width_um=1e308\n", "core_width_um", "finite V"),  # V overflows
]
WINDOW_AND_RESOLUTION_IDS = ["bpm_core_over_window", "bpm_window_tiny", "modes_span_tiny",
                             "modes_near_equal_index", "delays_near_equal_index",
                             "delays_core_1e9", "delays_n_core_1e9", "delays_wavelength_1e-9",
                             "delays_core_n_core_1e9", "delays_core_wavelength_1e9",
                             "delays_n_core_wavelength_1e9",
                             "fig2_core_1e9", "bpm_core_1e9", "delays_v_overflow"]

# A slab at V = pi/2 (1 + 1e-12): mode 1's root lies within rounding of its cut-off.
CUTOFF_SLAB = "n_core=1.25\nn_clad=1.0\nwavelength_um=0.4\ncore_width_um=0.2666666666669334\n"


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_comments_and_blank_lines(self):
        config = parse_config_text(
            "# a comment\n\nexperiment=rates\nsigma=0.1  # trailing comment\n")
        assert config.experiment == "rates"
        assert config.parameters["sigma"] == 0.1

    def test_defaults_filled(self):
        config = parse_config_text("experiment=rates\n")
        assert config.parameters["corr_length_um"] == 100.0
        assert config.seed == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("experiment=rates\nwavelength_nm=1550\n")

    def test_unknown_experiment_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config_text("experiment=teleport\n")

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config_text("sigma=0.1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("experiment=rates\nsigma=0.1\nsigma=0.2\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("experiment=rates\nsigma=lots\n")

    def test_negative_seed_rejected(self):
        # RunConfig checks the seed, so a config's seed and a --seed override share one check
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            parse_config_text("experiment=rates\nseed=-1\n")
        with pytest.raises(ConfigError, match="seed must be nonnegative"):
            RunConfig("rates", {}, seed=-1)

    def test_list_values(self):
        config = parse_config_text("experiment=fig2\ndelta_n_list=0;1e-4;2.1e-4\n")
        assert config.parameters["delta_n_list"] == [0.0, 1e-4, 2.1e-4]


class TestValidate:
    def test_default_config_clean(self):
        config = parse_config_text("experiment=rates\n")
        assert validate(config) == []

    def test_negative_sigma_is_error(self):
        config = RunConfig("rates", dict(parse_config_text("experiment=rates\n").parameters))
        config.parameters["sigma"] = -1.0
        diags = validate(config)
        assert any(d.severity == "error" and d.key == "sigma" for d in diags)

    @pytest.mark.parametrize("text,key,bound", [
        ("experiment=rates\ncorr_length_um=-1\n", "corr_length_um", "positive"),
        ("experiment=rates\nsigma=-1\ncorr_length_um=-1\n", "sigma", "nonnegative"),
        ("experiment=modes\nn_core=1.2\nn_clad=1.6\n", "n_clad", "n_core"),
        ("experiment=bpm-run\nnx=10\n", "nx", "at least 64"),
        ("experiment=bpm-run\nlaunch=sideways\n", "launch", "choose from"),
        ("experiment=fig2\ndz_um=0\n", "dz_um", "positive"),
        ("experiment=fig2\nbranch_half_angle_deg=5\n", "branch_half_angle_deg", "2 deg"),
        ("experiment=chsh-scan\nlength_m=-1\n", "length_m", "nonnegative"),
        ("experiment=bell\nstate=phi_zero\n", "state", "choose from"),
        ("experiment=bpm-run\ndz_um=0\n", "dz_um", "positive"),
        ("experiment=bpm-run\ndz_um=50\n", "dz_um", "paraxial accuracy limit"),
        ("experiment=fig2\nwindow_um=20\n", "window_um", "exceeds grid"),
        ("experiment=fig2\nphase_length_um=2000\n", "phase_length_um", "inside the stem"),
        ("experiment=rates\nsigma=1e200\n", "sigma", "must be finite"),
        ("experiment=rates\nk_ab_per_m=1e200\n", "k_ab_per_m", "must be finite"),
        ("experiment=rates\nsigma=1e150\nk_ab_per_m=1e100\n", "sigma", "must be finite"),
        ("experiment=bpm-run\nnx=64\n", "nx", "points across the core"),
        ("experiment=fig2\nnx=128\n", "nx", "points across the core"),
        # a stem narrower than its branches must be resolved too: the modes launch in it
        ("experiment=fig2\nn_core=1.6\ncore_width_um=2\ndz_um=0.5\nnx=300\n", "core_width_um",
         "points across the core"),
        ("experiment=fig2\ndelta_n_list=0;-0.02\n", "delta_n_list", "n_core > n_clad"),
        ("experiment=modes\nspan_factor=1e6\ngrid_points=64\n", "span_factor", "across the core"),
        ("experiment=modes\ngrid_points=64\n", "grid_points", "across the core"),
        ("experiment=chsh-scan\ndelta_beta_per_m=1e308\nlength_m=2\n", "delta_beta_per_m",
         "phase overflow"),
        ("experiment=delays\ndelta_beta_per_m=1e308\n", "delta_beta_per_m", "phase overflow"),
        ("experiment=decohere\ndelta_beta_per_m=1e308\n", "delta_beta_per_m", "phase overflow"),
        ("experiment=modes\nn_core=1e200\nn_clad=9e199\n", "n_core", "n_core < 1e154"),
        ("experiment=fig2\ndelta_n_list=\n", "delta_n_list", "at least one delta_n"),
        ("experiment=fig2\ndelta_n_list=;\n", "delta_n_list", "at least one delta_n"),
        *[(text, key, "GB budget") for text, key in OVER_BUDGET],
        *GRID_AND_CUTOFF,
        *WINDOW_AND_RESOLUTION,
    ], ids=["corr_length", "sigma_first", "n_clad", "nx", "launch", "dz", "angle", "length_m",
            "state", "bpm_dz", "bpm_dz_paraxial", "fig2_window", "fig2_phase_length",
            "sigma_overflow", "k_ab_overflow", "rates_inf", "bpm_nx_core", "fig2_nx_core",
            "fig2_stem_core", "fig2_delta_n_below_clad", "modes_span_core", "modes_points_core",
            "chsh_phase_overflow", "delays_phase_overflow", "decohere_phase_overflow",
            "n_core_square_overflow", "fig2_no_bumps", "fig2_no_bumps_separator",
            *OVER_BUDGET_IDS, *GRID_AND_CUTOFF_IDS, *WINDOW_AND_RESOLUTION_IDS])
    def test_build_error_keyed_by_its_config_key(self, text, key, bound):
        # each message names the broken bound, not a bare arithmetic error
        diags = validate(parse_config_text(text))
        assert [(d.key, d.severity) for d in diags] == [(key, "error")]
        assert bound in diags[0].message

    def test_wide_core_culprits_fail_before_a_full_solve(self):
        # a 20 mm core (V = 7009) in a 40 mm window at nx=1e8 is over budget.  Probing
        # core_width_um alone once solved all 4463 dispersion branches, about 4 s; each key alone
        # now fails on the window or the budget, and a probe that builds solves only the two
        # branches a bpm-run reads.  The estimate counts the two profiles a bpm-run samples, not
        # every guided mode's, so the core width does not change it and is not named
        text = "experiment=bpm-run\ncore_width_um=20000\nwindow_um=40000\nnx=100000000\n"
        diags = validate(parse_config_text(text))
        assert [d.key for d in diags] == ["window_um", "nx"]
        assert all("GB budget" in d.message for d in diags)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_every_culprit_is_named(self, threads):
        # each key alone on the defaults is over budget (21 GB and 180 GB), so each is named,
        # with the config's one message; a key that only adds to another's error is not.  The
        # message counts each of the 2e7 raster rows of 1e8 cells at 8 B a cell
        text = "experiment=bpm-run\nlength_um=1e7\nnx=100000000\nsnapshot_every=1\n"
        diags = validate(replace(parse_config_text(text), threads=threads))
        assert [(d.key, d.severity) for d in diags] == [("length_um", "error"), ("nx", "error")]
        assert diags[0].message == diags[1].message
        assert "1.6e+07 GB, over the 1 GB budget" in diags[0].message

    @pytest.mark.parametrize("text,key", [
        ("experiment=fig2\ndz_um=50\n", "dz_um"),
        ("experiment=bpm-run\nnx=64\n", "nx"),
        ("experiment=decohere\nn_realizations=1000000000\n", "n_realizations"),
    ], ids=["fig2", "bpm-run", "decohere"])
    def test_culprits_probe_only_the_keys_a_config_sets(self, monkeypatch, text, key):
        # validate's build, the build at one thread, the key alone on the defaults and the
        # config with the key reset: a key left at its default builds as the defaults do, so it
        # is never probed (probing every key took 17, 13 and 10 builds)
        built = []
        build = cli._build
        monkeypatch.setattr(cli, "_build", lambda config: built.append(config) or build(config))
        diags = validate(parse_config_text(text))
        assert [d.key for d in diags] == [key]
        assert len(built) == 4

    @pytest.mark.parametrize("text,threads,key", [
        ("experiment=decohere\n", 100, "threads"),  # fits at one thread
        ("experiment=decohere\nn_realizations=1000000000\n", 2, "n_realizations"),  # at none
    ], ids=["threads", "realizations"])
    def test_budget_counts_every_thread(self, tmp_path, monkeypatch, text, threads, key):
        # each pull loop holds its own workspace and path memo.  validate rejects these configs
        # before any thread starts; the scan is replaced so that no run could start one either
        def refuse(*args, **kwargs):
            raise AssertionError("the ensemble started")

        monkeypatch.setattr(cli, "ensemble_scan", refuse)
        diags = validate(replace(parse_config_text(text), threads=threads))
        assert [(d.key, d.severity) for d in diags] == [(key, "error")]
        assert "GB budget" in diags[0].message
        config, out = write_config(tmp_path, text), tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--threads", str(threads),
                     "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("text,bound", [
        ("experiment=bpm-run\nnx=1\n", "at least 2"),
        ("experiment=fig2\nnx=1\n", "at least 2"),
        ("experiment=chsh-scan\ngrid_n=1025\n", "at most 1024"),
        ("experiment=bell\ntheta_points=1025\n", "at most 1024"),
    ], ids=["bpm_nx", "fig2_nx", "grid_n", "theta_points"])
    def test_parse_bound_named(self, text, bound):
        # nx is bounded before the grid arithmetic divides by nx - 1; scan sizes
        # are bounded because their memory grows as n^2
        with pytest.raises(ConfigError, match=bound):
            parse_config_text(text)

    def test_regime_violation_is_warning(self):
        config = parse_config_text(
            "experiment=rates\nsigma=0.5\nk_ab_per_m=50000\ndelta_beta_per_m=100\n")
        diags = validate(config)
        assert any(d.severity == "warning" for d in diags)
        assert not any(d.severity == "error" for d in diags)


class TestMain:
    def test_chsh_scan_reaches_tsirelson(self, tmp_path):
        config = write_config(tmp_path, "experiment=chsh-scan\nstate=phi_plus\ngrid_n=16\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        rows = (out / "chsh_scan.csv").read_text().splitlines()
        assert rows[0] == "theta1,theta1p,theta2,theta2p,B"
        best = float(rows[1].split(",")[4])
        assert abs(best - TWO_SQRT_TWO) < 1e-12
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["experiment"] == "chsh-scan"
        assert abs(manifest["derived"]["max_abs_B"] - TWO_SQRT_TWO) < 1e-12

    @pytest.mark.parametrize("text", [
        "experiment=chsh-scan\ngrid_n=16\n",
        "experiment=chsh-scan\ngrid_n=32\nlength_m=2.0\n",
        "experiment=chsh-scan\nstate=product\ngrid_n=12\nlength_m=2.0\n",
    ], ids=["phi_plus", "phi_plus_decohered", "product_decohered"])
    def test_chsh_scan_reports_exact_optimum(self, tmp_path, text):
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        derived = manifest["derived"]
        assert derived["max_abs_B_exact"] >= derived["max_abs_B"]
        if derived["state"] == "phi_plus":  # 2 sqrt(2) exp(-2 gamma L)
            decay = math.exp(-2 * derived.get("gamma_per_m", 0.0) * manifest["config"]["length_m"])
            assert abs(derived["max_abs_B_exact"] - TWO_SQRT_TWO * decay) < 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        config = write_config(tmp_path, "experiment=chsh-scan\ngrid_n=12\nseed=9\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(config), "--out", str(out1), "--quiet"]) == EXIT_OK
        assert main(["--config", str(config), "--out", str(out2), "--quiet"]) == EXIT_OK
        for name in ("chsh_scan.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_decohere_sigma_zero_flat_coherence(self, tmp_path):
        config = write_config(
            tmp_path,
            "experiment=decohere\nsigma=0\nlength_max_m=0.02\nn_lengths=5\nn_realizations=3\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        rows = (out / "decohere.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            values = [float(v) for v in row.split(",")]
            magnitude = math.hypot(values[1], values[2])
            assert abs(magnitude - 0.5) < 1e-12  # |rho01| stays 1/2
            assert abs(values[3] - 1.0) < 1e-12  # purity stays 1

    def test_decohere_mc_tracks_analytic(self, tmp_path):
        config = write_config(
            tmp_path,
            "experiment=decohere\nlength_max_m=0.05\nn_lengths=4\nn_realizations=40\nseed=3\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        rows = (out / "decohere.csv").read_text().splitlines()[1:]
        for row in rows:
            values = [float(v) for v in row.split(",")]
            assert math.hypot(values[1] - values[4], values[2] - values[5]) < 0.05

    def test_delays_covariance_columns(self, tmp_path):
        for text in ("experiment=delays\nlength_max_m=1.0\nn_lengths=4\n", "experiment=delays\n"):
            config = write_config(tmp_path, text)
            out = tmp_path / "out"
            assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
            rows = [[float(v) for v in line.split(",")]
                    for line in (out / "delays.csv").read_text().splitlines()[1:]]
            for length, tau0, tau1, cov_ent, cov_prod in rows:
                # read from rho's diagonal: once about 2.3e-9 off and +-6e-33 where 0 is exact
                expected = 0.25 * (tau1 - tau0) ** 2
                assert abs(cov_ent - expected) <= 1e-14 * expected
                assert cov_prod == 0.0
            # quadratic growth along the scan: L doubles from row 1 to row 3
            assert abs(rows[3][3] / rows[1][3] - 4.0) < 1e-9

    def test_modes_outputs(self, tmp_path):
        config = write_config(tmp_path, "experiment=modes\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        summary = (out / "modes.csv").read_text().splitlines()
        assert summary[0] == "index,beta_per_m,n_eff"
        assert len(summary) == 3  # exactly two guided modes
        profile = (out / "mode0.csv").read_text().splitlines()
        assert profile[0] == "x_m,re,im"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["n_modes"] == 2
        assert manifest["derived"]["delta_beta_per_m"] < 0

    def test_bell_surface(self, tmp_path):
        config = write_config(tmp_path, "experiment=bell\nstate=product\ntheta_points=7\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        rows = (out / "bell.csv").read_text().splitlines()
        assert rows[0] == "theta1,theta2,E"
        assert len(rows) == 1 + 49
        for row in rows[1:]:
            t1, t2, value = (float(v) for v in row.split(","))
            assert abs(value - math.cos(2 * t1) * math.cos(2 * t2)) < 1e-12

    def test_bpm_run_outputs(self, tmp_path):
        config = write_config(
            tmp_path,
            "experiment=bpm-run\nlaunch=te0\nlength_um=100\nnx=512\nwindow_um=64\ndz_um=0.5\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        blob = (out / "raster.bin").read_bytes()
        nx, nz, dx, dz = struct.unpack_from("<qqdd", blob)
        assert nx == 512
        data = np.frombuffer(blob, dtype="<f8", offset=32)
        assert data.shape[0] == nx * nz
        manifest = json.loads((out / "manifest.json").read_text())
        assert abs(manifest["derived"]["power_drift"]) < 1e-6

    @pytest.mark.parametrize("text,guided", [
        ("experiment=bpm-run\ncore_width_um=2000\nwindow_um=4000\nnx=32768\nlength_um=2\n", 447),
        ("experiment=fig2\ncore_width_um=30\n", 7),
    ], ids=["bpm-run", "fig2"])
    def test_wide_slab_samples_only_the_launched_profiles(self, tmp_path, monkeypatch, text, guided):
        # the runs launch TE0 and TE1: the 2 mm bpm-run core once sampled all 447 guided profiles
        # at nx=32768 (117 MB) to launch two.  fig2's march does not touch the solver, so it is stubbed
        sampled, original = [], bpm.solve_slab_te_modes

        def solve(*args, **kwargs):
            modes = original(*args, **kwargs)
            sampled.append(len(modes))
            return modes

        for module in (bpm, cli):
            monkeypatch.setattr(module, "solve_slab_te_modes", solve)
        monkeypatch.setattr(bpm, "propagate",
                            lambda field, *args, **kwargs: (field, np.square(np.abs([field.values]))))
        config = parse_config_text(text)
        assert validate(config) == []
        assert math.ceil(2.0 * cli._build(config).spec.v_number / math.pi) == guided
        run(config, tmp_path / "out", quiet=True)
        assert sampled == [2]

    def test_config_error_exit_and_no_outputs(self, tmp_path):
        config = write_config(tmp_path, "experiment=chsh-scan\nbogus=1\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

    def test_validation_error_exit(self, tmp_path):
        config = write_config(tmp_path, "experiment=rates\nsigma=-0.5\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "experiment=rates\nsigma=nan\n",
        "experiment=rates\ndelta_beta_per_m=inf\n",
        "experiment=fig2\ndelta_n_list=0;1e-4;-inf\n",
    ], ids=["sigma_nan", "delta_beta_inf", "delta_n_list_inf"])
    def test_non_finite_float_rejected(self, tmp_path, text):
        # these once ran: NaN rates in rates.csv, or gamma=0 with regime_ok=true
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

    def test_decohere_single_length_rejected(self, tmp_path):
        # once a numerical failure (exit 3) after the output directory was made
        config = write_config(tmp_path, "experiment=decohere\nn_lengths=1\nn_realizations=2\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("text,flags", [
        ("experiment=modes\ncore_width_um=-1\n", []),
        ("experiment=modes\ngrid_points=1\n", []),
        ("experiment=modes\ngrid_points=0\n", []),
        ("experiment=modes\nspan_factor=0\n", []),
        ("experiment=bpm-run\nnx=10\n", []),
        ("experiment=bpm-run\nsnapshot_every=0\n", []),
        ("experiment=delays\nn_lengths=0\n", []),
        ("experiment=delays\nlength_max_m=-1\n", []),
        ("experiment=bell\ntheta_points=0\n", []),
        ("experiment=bell\ntheta_points=-3\n", []),
        ("experiment=decohere\nlength_max_m=-1\n", []),
        ("experiment=chsh-scan\nlength_m=-1\n", []),
        ("experiment=fig2\ndz_um=0\n", []),
        ("experiment=fig2\nwindow_um=-64\n", []),
        ("experiment=fig2\nbranch_half_angle_deg=5\n", []),
        ("experiment=chsh-scan\ngrid_n=8\n", ["--threads", "0"]),
        ("experiment=chsh-scan\ngrid_n=8\n", ["--threads", "-2"]),
        ("experiment=fig2\nwindow_um=20\n", []),
        ("experiment=fig2\nphase_length_um=2000\n", []),
        ("experiment=bpm-run\ndz_um=50\n", []),
        ("experiment=bpm-run\nnx=1\n", []),
        ("experiment=bpm-run\ndz_um=0\n", []),
        ("experiment=rates\nsigma=1e200\n", []),
        ("experiment=rates\nk_ab_per_m=1e200\n", []),
        ("experiment=chsh-scan\ngrid_n=1025\n", []),
        ("experiment=bell\ntheta_points=1025\n", []),
        ("experiment=bpm-run\nnx=64\n", []),
        ("experiment=fig2\nnx=128\n", []),
        ("experiment=fig2\ndelta_n_list=0;-0.02\n", []),
        ("experiment=modes\nspan_factor=1e6\ngrid_points=64\n", []),
        ("experiment=chsh-scan\ndelta_beta_per_m=1e308\nlength_m=2\n", []),
        ("experiment=delays\ndelta_beta_per_m=1e308\n", []),
        ("experiment=decohere\ndelta_beta_per_m=1e308\n", []),
        ("experiment=fig2\ndelta_n_list=\n", []),
        ("experiment=fig2\ndelta_n_list=;\n", []),
        *[(text, []) for text, _ in OVER_BUDGET],
        *[(text, []) for text, _, _ in GRID_AND_CUTOFF],
        *[(text, []) for text, _, _ in WINDOW_AND_RESOLUTION],
        ("experiment=bpm-run\ncore_width_um=20000\nwindow_um=40000\nnx=100000000\n", []),
    ], ids=["modes_core_width", "modes_grid_points_1", "modes_grid_points_0", "modes_span_factor",
            "bpm_nx", "bpm_snapshot_every", "delays_n_lengths", "delays_length_max",
            "bell_theta_points_0", "bell_theta_points_neg", "decohere_length_max",
            "chsh_length", "fig2_dz", "fig2_window", "fig2_angle", "threads_0", "threads_neg",
            "fig2_window_narrow", "fig2_phase_outside_stem", "bpm_dz_paraxial", "bpm_nx_1",
            "bpm_dz_0", "rates_sigma_overflow", "rates_k_ab_overflow", "chsh_grid_n_max",
            "bell_theta_points_max", "bpm_nx_core", "fig2_nx_core", "fig2_delta_n_below_clad",
            "modes_grid_over_core", "chsh_phase_overflow", "delays_phase_overflow",
            "decohere_phase_overflow", "fig2_no_bumps", "fig2_no_bumps_separator",
            *OVER_BUDGET_IDS, *GRID_AND_CUTOFF_IDS, *WINDOW_AND_RESOLUTION_IDS, "bpm_wide_core_nx"])
    def test_bad_config_exits_2_and_writes_nothing(self, tmp_path, text, flags):
        # each once exited 0 (inf, header-only or silently wrong CSVs), 1 or 3; an
        # over-budget config once died of a MemoryError (exit 1) or a bare numpy error
        # (exit 3), or would have run for days.  validate rejects every one before any
        # array is allocated
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            code = main(["--config", str(config), "--out", str(out), "--quiet", *flags])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert peak < 4e6

    def test_modes_grid_must_resolve_the_core(self, tmp_path):
        # span_factor=1e6 at grid_points=64 once exited 0 with NaN in both mode
        # CSVs: the grid stepped over the core and every profile sample underflowed
        config = write_config(tmp_path, "experiment=modes\nspan_factor=1e6\ngrid_points=64\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()
        # 2048 intervals over 128 core widths: 16 points across the core, the least allowed
        config = write_config(tmp_path, "experiment=modes\nspan_factor=128\ngrid_points=2049\n")
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        for name in ("mode0.csv", "mode1.csv"):
            assert np.isfinite(np.loadtxt(out / name, delimiter=",", skiprows=1)).all()

    @pytest.mark.parametrize("text,flags", [("experiment=rates\nseed=-1\n", []),
                                            ("experiment=rates\n", ["--seed", "-1"])],
                             ids=["config", "flag"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, text, flags):
        # RunConfig checks the seed, so a config's seed and a --seed override share one check
        config, out = write_config(tmp_path, text), tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet", *flags]) == EXIT_CONFIG
        assert "config error: seed must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_output_exits_3_and_writes_nothing(self, tmp_path, monkeypatch):
        # length_max_m=1e300 once exited 0 with NaN in delays.csv, then 3 when (tau1 - tau0)^2
        # overflowed; validate now refuses it, so a covariance of inf stands in.  The CSV is
        # formatted before its file, or the directory, is made
        monkeypatch.setattr(cli, "delay_covariance", lambda rho, pair: np.full(np.shape(pair.tau0), np.inf))
        config = write_config(tmp_path, "experiment=delays\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_NUMERICAL
        assert not out.exists()

    def test_numerical_failure_writes_nothing(self, tmp_path):
        # a single-mode slab once failed in the run, exit 3; validate now refuses it, and the
        # refused run leaves no directory
        config = write_config(tmp_path, "experiment=bpm-run\ncore_width_um=3\nlength_um=20\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "--quiet"]) == EXIT_CONFIG

    def test_config_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        # it once ended in a UnicodeDecodeError traceback, exit 1
        config, out = tmp_path / "run.cfg", tmp_path / "out"
        config.write_bytes(b"experiment=rates\n\xff\xfe\n")
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: cannot read config")
        assert not out.exists()

    @pytest.mark.parametrize("through", [False, True], ids=["file", "through_file"])
    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys, through):
        # the staging mkdir once raised NotADirectoryError, exit 1 with a traceback; the file
        # stays as it was and no staging directory is left beside or inside it
        config, taken = write_config(tmp_path, "experiment=rates\n"), tmp_path / "taken"
        taken.write_bytes(b"keep")
        out = taken / "out" if through else taken
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot write to") and "Traceback" not in err
        assert taken.read_bytes() == b"keep"
        assert sorted(os.listdir(tmp_path)) == ["run.cfg", "taken"]

    @pytest.mark.parametrize("name", ["rates.csv", "manifest.json"])
    def test_output_name_held_by_a_directory_exits_2(self, tmp_path, capsys, name):
        # os.replace once raised IsADirectoryError, exit 1 with a traceback, and with the
        # manifest's name taken, after rates.csv had been moved; now nothing moves, and no
        # staging directory is left inside out
        config, out = write_config(tmp_path, "experiment=rates\n"), tmp_path / "out"
        (out / name).mkdir(parents=True)
        (out / name / "kept").write_bytes(b"keep")
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write to {out}: {name} is a directory")
        assert "Traceback" not in err
        assert os.listdir(out) == [name] and (out / name / "kept").read_bytes() == b"keep"

    def test_numerical_failure_exit(self, tmp_path, capsys):
        # single-mode guide cannot run the dual-mode straight-guide experiment: a config error
        config = write_config(tmp_path, "experiment=bpm-run\ncore_width_um=3\nlength_um=20\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert "core_width_um: need at least 2 guided modes, found 1" in capsys.readouterr().err

    def test_single_mode_bump_fails_before_any_march(self, tmp_path, monkeypatch, capsys):
        # the last bump leaves the guide single-mode; this once exited 3 only after
        # the two rows before it had been marched, and then exited 3 before any march
        marches = []
        original = bpm.propagate

        def counting(*args, **kwargs):
            marches.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(bpm, "propagate", counting)
        config = write_config(tmp_path, "experiment=fig2\ndelta_n_list=0;1e-4;-0.008\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert "need at least 2 guided modes, found 1" in capsys.readouterr().err
        assert marches == []
        assert not out.exists()

    def test_bump_past_the_marchs_step_limit_exits_2(self, tmp_path):
        # _build once read the contrast as max(n_core - n_clad, |delta_n|) = 8.0003e-05, where the
        # bumped map's bounds give n_clad + (contrast + delta_n) - n_core, about 1.3e-12 more
        # relative: the config validated clean and the march refused it, exit 3
        text = ("experiment=fig2\ncore_width_um=200\nn_core=1.49001\nn_clad=1.49\n"
                "branch_core_width_um=100\nbranch_separation_um=240\nwindow_um=600\nnx=2048\n"
                "delta_n_list=0;8.000300000000001e-05\ndz_um=968.7136732372478\n")
        diags = validate(parse_config_text(text))
        assert any(d.key == "dz_um" and "paraxial accuracy limit" in d.message for d in diags)
        config, out = write_config(tmp_path, text), tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_CONFIG
        assert not out.exists()

    @pytest.mark.parametrize("text,code", [
        ("experiment=bpm-run\ncore_width_um=2\n", EXIT_CONFIG),
        ("experiment=fig2\ncore_width_um=2\n", EXIT_CONFIG),
        ("experiment=fig2\ndelta_n_list=0;-0.008\n", EXIT_CONFIG),
        (f"experiment=modes\n{CUTOFF_SLAB}", EXIT_OK),
        (f"experiment=delays\n{CUTOFF_SLAB}", EXIT_CONFIG),
    ], ids=["bpm_single_mode", "fig2_single_mode", "fig2_single_mode_bump", "modes_cutoff",
            "delays_cutoff"])
    def test_single_mode_and_cutoff_slabs_never_exit_1(self, tmp_path, text, code):
        # the single-mode configs once exited 3 from the run; the cut-off slab (V = pi/2
        # (1 + 1e-12)) once raised "dispersion branch 1 lost its bracket", exit 1
        config, out = write_config(tmp_path, text), tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == code
        assert out.exists() == (code == EXIT_OK)
        if code == EXIT_OK:
            assert json.loads((out / "manifest.json").read_text())["derived"] == {"n_modes": 1}

    def test_seed_flag_overrides_config(self, tmp_path):
        config = write_config(
            tmp_path,
            "experiment=decohere\nseed=1\nlength_max_m=0.02\nn_lengths=3\nn_realizations=4\n")
        out1, out2, out3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        main(["--config", str(config), "--out", str(out1), "--quiet"])
        main(["--config", str(config), "--out", str(out2), "--seed", "1", "--quiet"])
        main(["--config", str(config), "--out", str(out3), "--seed", "2", "--quiet"])
        first = (out1 / "decohere.csv").read_bytes()
        assert first == (out2 / "decohere.csv").read_bytes()
        assert first != (out3 / "decohere.csv").read_bytes()

    def test_fig2_monotone_sweep(self, tmp_path):
        config = write_config(
            tmp_path,
            "experiment=fig2\ndelta_n_list=0;3e-4;6e-4\nstem_length_um=400\n"
            "phase_length_um=300\nnx=1024\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        rows = [[float(v) for v in line.split(",")]
                for line in (out / "fig2.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3
        rights = [row[2] for row in rows]
        assert len({round(r, 6) for r in rights}) == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["derived"]["delta_beta_per_m"] < 0

    def test_chsh_decohered_state_warning(self, tmp_path):
        config = parse_config_text(
            "experiment=chsh-scan\nstate=psi_plus\nlength_m=1.0\nsigma=0.05\n")
        diags = validate(config)
        assert any(d.severity == "warning" and d.key == "length_m" for d in diags)

    def test_threads_do_not_change_results(self, tmp_path):
        config = write_config(
            tmp_path,
            "experiment=decohere\nlength_max_m=0.02\nn_lengths=3\nn_realizations=8\n")
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["--config", str(config), "--out", str(out1), "--quiet"]) == EXIT_OK
        assert main(["--config", str(config), "--out", str(out2), "--threads", "4",
                     "--quiet"]) == EXIT_OK
        assert (out1 / "decohere.csv").read_bytes() == (out2 / "decohere.csv").read_bytes()

    @pytest.mark.parametrize("text,budget_threads,expected", [
        ("experiment=decohere\nlength_max_m=0.02\nn_lengths=3\nn_realizations=7\nseed=7\n", None, 4),
        ("experiment=decohere\nlength_max_m=0.02\nn_lengths=3\nn_realizations=3\n", None, 2),
        ("experiment=decohere\nlength_max_m=0.02\nn_lengths=3\nn_realizations=7\nseed=7\n", 2, 2),
        ("experiment=decohere\nlength_max_m=0.02\nn_lengths=3\nn_realizations=7\nseed=7\n", 1, 1),
    ], ids=["cpus", "seed_pairs", "budget_of_two", "budget_of_one"])
    def test_default_threads_give_the_bytes_of_one_thread(self, tmp_path, monkeypatch, text, budget_threads,
                                                          expected):
        # four usable CPUs; seeds 7 to 13 share four seed pairs (the first and last split), and
        # seeds 0 to 2 two.  A budget that holds the run at one or two threads caps the default,
        # so a config that fits only at one thread still runs
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        config = parse_config_text(text)
        if budget_threads is not None:
            budget = cli._build(replace(config, threads=budget_threads)).memory
            monkeypatch.setattr(cli, "MEMORY_BUDGET", budget)
        assert cli.default_threads(config) == expected
        jobs, scan = [], cli.ensemble_scan
        monkeypatch.setattr(cli, "ensemble_scan", lambda *args, **kwargs: jobs.append(kwargs["n_jobs"])
                            or scan(*args, **kwargs))
        path = write_config(tmp_path, text)
        for name, extra in (("default", []), ("one", ["--threads", "1"])):
            assert main(["--config", str(path), "--out", str(tmp_path / name), "--quiet", *extra]) == EXIT_OK
        assert jobs == [expected, 1]
        for file in ("decohere.csv", "manifest.json"):
            assert (tmp_path / "default" / file).read_bytes() == (tmp_path / "one" / file).read_bytes()

    def test_default_threads_of_a_run_without_an_ensemble(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        assert cli.default_threads(parse_config_text("experiment=fig2\n")) == 1

    def test_manifest_schema(self, tmp_path):
        config = write_config(tmp_path, "experiment=rates\nseed=5\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == {"experiment", "seed", "version", "config", "derived", "outputs"}
        assert manifest["seed"] == 5
        assert isinstance(manifest["version"], str)
        assert manifest["outputs"] == ["rates.csv"]
        for key in ("delta_beta_per_m", "gamma_per_m", "kappa_per_m", "regime_ok"):
            assert key in manifest["derived"]

    def test_csv_floats_have_17_significant_digits(self, tmp_path):
        config = write_config(tmp_path, "experiment=rates\n")
        out = tmp_path / "out"
        main(["--config", str(config), "--out", str(out), "--quiet"])
        row = (out / "rates.csv").read_text().splitlines()[1]
        gamma_text = row.split(",")[0]
        assert "e" in gamma_text
        mantissa = gamma_text.split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa) == 17
        # round trip exactness
        assert float(gamma_text) == float(f"{float(gamma_text):.16e}")


# Imports modesim.cli in a fresh interpreter, then parses and validates the
# default config of each experiment named after the first argument, and runs it
# into <first argument>/<experiment> unless that argument is empty; prints the
# modules loaded after each one, as JSON.
_COLD_START = """
import json, sys
import modesim.cli as cli
out, loaded = sys.argv[1], {}
for experiment in sys.argv[2:]:
    config = cli.parse_config_text(f"experiment={experiment}\\n")
    diagnostics = cli.validate(config)
    assert not [d for d in diagnostics if d.severity == "error"], diagnostics
    if out:
        cli.run(config, f"{out}/{experiment}", quiet=True)
    loaded[experiment] = sorted(sys.modules)
print(json.dumps(loaded))
"""


def snapshot(directory: Path) -> dict:
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestStagedRun:
    """A run's files reach its output directory together, or not at all."""

    def run_main(self, tmp_path, text, out):
        return main(["--config", str(write_config(tmp_path, text)), "--out", str(out), "--quiet"])

    @pytest.mark.parametrize("before,text,writer", [
        ("experiment=modes\ncore_width_um=12\n", "experiment=modes\n", "write_csv"),
        ("experiment=bpm-run\nlength_um=20\nlaunch=te0\n", "experiment=bpm-run\nlength_um=20\n",
         "export_raster"),
    ], ids=["modes", "bpm-run"])
    def test_failed_writer_leaves_the_previous_run(self, tmp_path, monkeypatch, before, text,
                                                   writer):
        # modes writes its mode files before modes.csv, and bpm-run field_final.csv before
        # raster.bin: a raise in the later writer leaves none of the earlier files in out
        out = tmp_path / "runs" / "out"
        assert self.run_main(tmp_path, before, out) == EXIT_OK
        previous = snapshot(out)

        def failing(*args, **kwargs):
            raise NumericalError("write failed")

        monkeypatch.setattr(cli, writer, failing)
        assert self.run_main(tmp_path, text, out) == EXIT_NUMERICAL
        assert snapshot(out) == previous
        assert os.listdir(out.parent) == ["out"]

    def test_non_finite_derived_value_writes_nothing(self, tmp_path, monkeypatch):
        # rates.csv is written before the manifest refuses the NaN
        monkeypatch.setattr(cli, "_derived_rates", lambda b: {"gamma_per_m": math.nan})
        out = tmp_path / "runs" / "out"
        assert self.run_main(tmp_path, "experiment=rates\n", out) == EXIT_NUMERICAL
        assert os.listdir(out.parent) == []

    def test_rerun_stages_inside_the_existing_out(self, tmp_path, monkeypatch):
        # a rerun needs no write access to out's parent, nor out on the parent's
        # filesystem; it moves its files into out with the manifest last
        out = tmp_path / "runs" / "out"
        assert self.run_main(tmp_path, "experiment=modes\n", out) == EXIT_OK
        moved, replace, write = [], os.replace, cli.write_csv

        def watched_write(path, **kwargs):
            assert os.listdir(out.parent) == ["out"] and Path(path).parent.parent == out
            write(path, **kwargs)

        def watched_replace(source, destination):
            assert os.listdir(out.parent) == ["out"] and Path(source).parent.parent == out
            moved.append(Path(destination).name)
            replace(source, destination)

        monkeypatch.setattr(cli, "write_csv", watched_write)
        monkeypatch.setattr(os, "replace", watched_replace)
        monkeypatch.setattr(os, "rename", None)  # a rename of the staging directory would raise
        assert self.run_main(tmp_path, "experiment=rates\n", out) == EXIT_OK
        assert moved == ["rates.csv", "manifest.json"]
        assert sorted(os.listdir(out)) == ["manifest.json", "mode0.csv", "mode1.csv", "modes.csv",
                                           "rates.csv"]

    def test_rerun_replaces_its_files_and_keeps_the_rest(self, tmp_path):
        # the first run's staging directory becomes out, and the second's files are moved
        # into it; out and the files have the umask's mode
        out = tmp_path / "runs" / "out"
        umask = os.umask(0o027)
        try:
            assert self.run_main(tmp_path, "experiment=modes\n", out) == EXIT_OK
            modes = snapshot(out)
            (out / "notes.txt").write_text("kept")
            assert self.run_main(tmp_path, "experiment=rates\n", out) == EXIT_OK
        finally:
            os.umask(umask)
        files = snapshot(out)
        assert json.loads(files.pop("manifest.json"))["outputs"] == ["rates.csv"]
        assert files.pop("rates.csv").startswith(b"gamma_per_m,")
        assert files.pop("notes.txt") == b"kept"
        del modes["manifest.json"]
        assert files == modes
        assert {oct(path.stat().st_mode & 0o777) for path in out.iterdir()} == {"0o640"}
        assert oct(out.stat().st_mode & 0o777) == "0o750"
        assert os.listdir(out.parent) == ["out"]


class TestColdStart:
    @staticmethod
    def _loaded(*experiments, out=""):
        src = str(Path(modesim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", _COLD_START, str(out), *experiments],
                                env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout)

    @classmethod
    def _scipy_loaded(cls, *experiments, out=""):
        return {experiment: [m for m in modules if m.split(".")[0] == "scipy"]
                for experiment, modules in cls._loaded(*experiments, out=out).items()}

    def test_short_experiments_validate_without_scipy(self):
        loaded = self._scipy_loaded("modes", "bell", "bpm-run", "fig2")
        assert loaded == {"modes": [], "bell": [], "bpm-run": [], "fig2": []}

    def test_every_experiment_validates_without_scipy(self):
        # kappa's Dawson function is the standard library's decimal arithmetic,
        # so validating the rate-based experiments loads no scipy either
        experiments = ("modes", "bell", "rates", "decohere", "chsh-scan", "delays", "fig2", "bpm-run")
        assert self._scipy_loaded(*experiments) == {experiment: [] for experiment in experiments}

    def test_import_leaves_out_argparse_json_and_the_thread_pool(self):
        # main imports argparse and write_json imports json; ensemble_scan starts plain threads
        src = str(Path(modesim.__file__).resolve().parents[1])
        probe = ("import sys, modesim.cli; print(' '.join(sorted({'concurrent.futures', 'logging', "
                 "'argparse', 'gettext', 'json'} & set(sys.modules))))")
        result = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == []

    def test_bpm_runs_load_only_scipys_lapack_extension(self, tmp_path):
        # the march's solvers come from scipy.linalg._flapack alone: the scipy.linalg package
        # would load about 330 modules, concurrent.futures, logging, argparse and gettext among
        # them.  json comes from write_json.  The fig2 entry also holds what bpm-run loaded
        loaded = self._loaded("bpm-run", "fig2", out=tmp_path)
        for experiment, modules in loaded.items():
            assert [m for m in modules if m.startswith("scipy.linalg")] == ["scipy.linalg._flapack"]
            assert {"concurrent.futures", "logging", "argparse", "gettext"}.isdisjoint(modules)
            assert "json" in modules
            assert (tmp_path / experiment / "manifest.json").exists()

    def test_rate_based_runs_without_scipy(self, tmp_path):
        experiments = ("rates", "chsh-scan", "delays")
        loaded = self._scipy_loaded(*experiments, out=tmp_path)
        assert loaded == {experiment: [] for experiment in experiments}
        assert all((tmp_path / experiment / "manifest.json").exists() for experiment in experiments)


class TestOutputBytes:
    """Data files keep their sha256 digests: no refactor may move a bit of output."""

    @pytest.mark.parametrize("text,digests", [
        ("experiment=fig2\ndelta_n_list=0;3e-4;6e-4\nstem_length_um=400\n"
         "phase_length_um=300\nnx=1024\n",
         {"fig2.csv": "f8af007d8c7ef408188065012867216df800d9f258e360b88c0348f21478e0b5"}),
        ("experiment=fig2\n",
         {"fig2.csv": "6b3d48ce839df061b92bbc2e0c1288df62a6ed973456923af8fc2251e213f4e5"}),
        ("experiment=bpm-run\nlaunch=te0\nlength_um=100\nnx=512\nwindow_um=64\n"
         "snapshot_every=7\n",
         {"field_final.csv": "d47b241996feee7998789ea3959bcd006d51fa390969e99e073a840f72334de5",
          "raster.bin": "1d55dfeadb3e2d99f7c3be3509682273a50240bfd20c6c41fd00c94609cfb965"}),
        # kappa's bits, through the correctly rounded Dawson function
        ("experiment=rates\n",
         {"rates.csv": "78f4d8ad4bd07212f62796c6f211bb6a1ac169e379fbc5b17f6943b8cc8a58f6"}),
        # the delay covariance from rho's diagonal: cov_entangled is exactly (tau1 - tau0)^2 / 4
        ("experiment=delays\n",
         {"delays.csv": "a32ac2ae44eb1abf328a637a0462661f8e65d0ee4fe01d7081bb3d91ddb44693"}),
        # the CHSH table from one stack of analyzer operators on both axes, and the blocked maximum
        ("experiment=bell\n",
         {"bell.csv": "2779f36749aec353b1f805b6cd71fb7712cd5ec38f03732a2f1dc4bb94ba4e5b"}),
        ("experiment=bell\nstate=product\n",
         {"bell.csv": "14c2823c3753533b3797c301df1602fa27db92a0ffeb7605db8d3539f9c600ff"}),
        ("experiment=chsh-scan\n",
         {"chsh_scan.csv": "14234ccf77a8b59a181410315fc6999aff7d1e25503dcef55a5b22d9fb68dea1"}),
        ("experiment=chsh-scan\nstate=product\nlength_m=2.0\n",
         {"chsh_scan.csv": "a68279065cdbab6d6e009340fb42bc85c1296a436c0934d206bc21e6cb1539b0"}),
    ], ids=["fig2", "fig2-default", "bpm-run", "rates", "delays", "bell", "bell-product", "chsh-scan",
            "chsh-scan-product"])
    def test_data_file_digests(self, tmp_path, text, digests):
        run(parse_config_text(text), tmp_path, quiet=True)
        for name, digest in digests.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    @pytest.mark.parametrize("text,drift", [
        ("experiment=bpm-run\nlaunch=te0\nlength_um=100\nnx=512\nwindow_um=64\n"
         "snapshot_every=7\n", -4.080020543639762e-09),
        ("experiment=bpm-run\n", -6.410642017229407e-10),
    ], ids=["bpm-run", "bpm-run-default"])
    def test_power_drift_bits(self, tmp_path, text, drift):
        # each snapshot's power is the exact _power of its field, whatever the step monitor sums
        assert run(parse_config_text(text), tmp_path, quiet=True)["derived"]["power_drift"] == drift


class TestMemoryEstimate:
    @pytest.mark.parametrize("text,threads", [
        ("experiment=bpm-run\nsnapshot_every=1\nlength_um=200\n", 1),
        ("experiment=fig2\ndelta_n_list=0;3e-4;6e-4\nstem_length_um=400\nphase_length_um=300\n"
         "nx=1024\n", 1),
        ("experiment=decohere\nlength_max_m=0.2\nn_realizations=4\n", 1),
        ("experiment=decohere\nlength_max_m=0.004\nn_lengths=100\nn_realizations=250\n", 1),
        # work in flight is one seed pair per thread
        ("experiment=decohere\nlength_max_m=0.004\nn_lengths=4\nn_realizations=4000\n", 2),
        # each loop holds its own workspace and path memo
        ("experiment=decohere\nlength_max_m=0.2\nn_realizations=8\n", 2),
        ("experiment=modes\ncore_width_um=400\n", 1),
        ("experiment=delays\nn_lengths=2000\n", 1),
        # two snapshots of 64 points: the run detection over 200001 z steps holds most of the peak
        ("experiment=bpm-run\nnx=64\nwindow_um=16\nlength_um=100000\nsnapshot_every=1000000\n", 1),
        # 20 bumps, each marched on its own map
        ("experiment=fig2\ndelta_n_list=" + ";".join(f"{i}e-7" for i in range(20))
         + "\nstem_length_um=400\nphase_length_um=300\nnx=256\nwindow_um=48\n", 1),
        # a short splitter on a coarse grid: the march's block of runs holds most of the peak
        ("experiment=fig2\nnx=256\nwindow_um=48\nbranch_half_angle_deg=1.9\nstem_length_um=100\n"
         "phase_length_um=40\nlead_out_um=0\n", 1),
        # a 140 mm slab guides about 31000 modes, of which the run samples two; counting them all
        # once put it over the budget
        ("experiment=bpm-run\ncore_width_um=140000\nwindow_um=154000\nnx=4096\n", 1),
    ], ids=["bpm-run", "fig2", "decohere", "decohere-realizations", "decohere-threads",
            "decohere-long-threads", "modes-many", "delays-long", "bpm-run-sparse", "fig2-bumps",
            "fig2-short", "bpm-run-wide"])
    def test_estimate_bounds_the_traced_peak(self, tmp_path, text, threads):
        # the estimate _build checks against MEMORY_BUDGET is an upper bound of what a run
        # holds; scipy is imported first, so its modules are not counted
        bpm._flapack()
        config = replace(parse_config_text(text), threads=threads)
        estimate = cli._build(config).memory
        tracemalloc.start()
        try:
            run(config, tmp_path, quiet=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 1e6 < peak <= estimate < cli.MEMORY_BUDGET

    def test_bpm_run_holds_one_raster_cell_at_8_bytes(self, tmp_path):
        # 401 snapshots of 2048 cells, held once as float64 intensities (8 B a cell); a complex
        # Field per snapshot (16 B) or a copy of the raster (8 B) would exceed the bound
        bpm._flapack()
        config = parse_config_text("experiment=bpm-run\nsnapshot_every=1\nlength_um=200\n")
        tracemalloc.start()
        try:
            run(config, tmp_path, quiet=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        cells = 401 * 2048
        assert (tmp_path / "raster.bin").stat().st_size == 32 + 8 * cells
        assert peak < 12 * cells


class TestOutputValues:
    """No NaN or inf reaches an output file."""

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_format_value_rejects_non_finite(self, value):
        with pytest.raises(NumericalError, match="non-finite"):
            format_value(value)

    def test_json_rejects_nan_and_writes_nothing(self, tmp_path):
        with pytest.raises(ValueError):
            write_json(tmp_path / "out" / "manifest.json", {"derived": {"x": math.nan}})
        assert not (tmp_path / "out").exists()
