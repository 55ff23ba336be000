import json
import math
import struct

import numpy as np
import pytest

from modesim.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    main,
    parse_config_text,
    validate,
)

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


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

    @pytest.mark.parametrize("text,key", [
        ("experiment=rates\ncorr_length_um=-1\n", "corr_length_um"),
        ("experiment=rates\nsigma=-1\ncorr_length_um=-1\n", "sigma"),
        ("experiment=modes\nn_core=1.2\nn_clad=1.6\n", "n_clad"),
        ("experiment=bpm-run\nnx=10\n", "nx"),
        ("experiment=bpm-run\nlaunch=sideways\n", "launch"),
        ("experiment=fig2\ndz_um=0\n", "dz_um"),
        ("experiment=fig2\nbranch_half_angle_deg=5\n", "branch_half_angle_deg"),
        ("experiment=chsh-scan\nlength_m=-1\n", "length_m"),
        ("experiment=bell\nstate=phi_zero\n", "state"),
    ], ids=["corr_length", "sigma_first", "n_clad", "nx", "launch", "dz", "angle", "length_m",
            "state"])
    def test_build_error_keyed_by_its_config_key(self, text, key):
        diags = validate(parse_config_text(text))
        assert [(d.key, d.severity) for d in diags] == [(key, "error")]

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
        config = write_config(tmp_path, "experiment=delays\nlength_max_m=1.0\nn_lengths=4\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_OK
        rows = [[float(v) for v in line.split(",")]
                for line in (out / "delays.csv").read_text().splitlines()[1:]]
        for length, tau0, tau1, cov_ent, cov_prod in rows:
            expected = 0.25 * (tau1 - tau0) ** 2
            assert abs(cov_ent - expected) <= 1e-10 * (tau0 ** 2 + tau1 ** 2)
            assert abs(cov_prod) <= 1e-12 * (tau0 ** 2 + tau1 ** 2)
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
    ], ids=["modes_core_width", "modes_grid_points_1", "modes_grid_points_0", "modes_span_factor",
            "bpm_nx", "bpm_snapshot_every", "delays_n_lengths", "delays_length_max",
            "bell_theta_points_0", "bell_theta_points_neg", "decohere_length_max",
            "chsh_length", "fig2_dz", "fig2_window", "fig2_angle", "threads_0", "threads_neg"])
    def test_bad_config_exits_2_and_writes_nothing(self, tmp_path, text, flags):
        # each once exited 0 (inf, header-only or silently wrong CSVs), 1 or 3
        config = write_config(tmp_path, text)
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet", *flags]) == EXIT_CONFIG
        assert not out.exists()

    def test_numerical_failure_writes_nothing(self, tmp_path):
        # the run computes before it writes, so a failed run leaves no directory
        config = write_config(tmp_path, "experiment=bpm-run\ncore_width_um=3\nlength_um=20\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_NUMERICAL
        assert not out.exists()

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.cfg"), "--quiet"]) == EXIT_CONFIG

    def test_numerical_failure_exit(self, tmp_path):
        # single-mode guide cannot run the dual-mode straight-guide experiment
        config = write_config(tmp_path, "experiment=bpm-run\ncore_width_um=3\nlength_um=20\n")
        out = tmp_path / "out"
        assert main(["--config", str(config), "--out", str(out), "--quiet"]) == EXIT_NUMERICAL

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
