"""Command-line experiment runner.

Reads a flat key=value config file (# comments allowed), runs one named
experiment, and writes CSV results plus a JSON manifest into the output
directory.  Outputs are deterministic for a fixed (config, seed) and files
are written atomically, so reruns are byte identical.

Exit codes: 0 success, 2 config error, 3 numerical failure.

Config keys carry explicit units in their names (core_width_um,
corr_length_um, length_m, ...).  Unknown keys are rejected.

Example config::

    experiment=chsh-scan
    state=phi_plus
    grid_n=16
    seed=42
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._errors import NumericalError
from ._io import write_csv, write_json
from .bpm import (
    Grid,
    PhaseSection,
    YSplitterGeometry,
    branch_powers,
    export_field_csv,
    export_raster,
    field_from_modes,
    fig2_experiment,
    propagate,
    straight_slab_map,
)
from .correlation import DelayPair, chsh_scan, delay_covariance, export_bell_csv, export_chsh_csv
from .decoherence import EvolutionParams, ensemble_scan, export_scan_csv, two_rail_evolve
from .states import bell_state, density_of, product_state, superpose
from .stochastic import PerturbationModel, rates
from .waveguide import SlabSpec, delta_beta, export_mode_csv, group_delay, solve_slab_te_modes

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    """The run configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class Diagnostic:
    key: str
    message: str
    severity: str  # "error" or "warning"


@dataclass
class RunConfig:
    experiment: str
    parameters: dict
    seed: int = 0

    def get(self, key: str):
        return self.parameters[key]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite(part) for part in str(text).split(";") if part != ""]


# Per-experiment parameter schemas: key -> (parser, default); required if
# the default is REQUIRED.
REQUIRED = object()

_SLAB_KEYS = {
    "core_width_um": (_finite, 8.0),
    "n_core": (_finite, 1.50),
    "n_clad": (_finite, 1.49),
    "wavelength_um": (_finite, 1.55),
}

_NOISE_KEYS = {
    "sigma": (_finite, 0.05),
    "corr_length_um": (_finite, 100.0),
    "k_ab_per_m": (_finite, 500.0),
}

_SCHEMAS: dict[str, dict] = {
    "modes": dict(_SLAB_KEYS, grid_points=(int, 2048), span_factor=(_finite, 6.0)),
    "rates": dict(_NOISE_KEYS, delta_beta_per_m=(_finite, 2.0e4)),
    "decohere": dict(
        _NOISE_KEYS,
        delta_beta_per_m=(_finite, 2.0e4),
        length_max_m=(_finite, 0.8192),
        n_lengths=(int, 20),
        n_realizations=(int, 1000),
    ),
    "bell": {"state": (str, "phi_plus"), "theta_points": (int, 19)},
    "chsh-scan": dict(
        _NOISE_KEYS,
        state=(str, "phi_plus"),
        grid_n=(int, 16),
        delta_beta_per_m=(_finite, 2.0e4),
        length_m=(_finite, 0.0),
    ),
    "delays": dict(
        **_SLAB_KEYS,
        **_NOISE_KEYS,
        delta_beta_per_m=(_finite, 0.0),  # 0 means "derive from the slab spec"
        length_max_m=(_finite, 1.0),
        n_lengths=(int, 10),
    ),
    "fig2": dict(
        _SLAB_KEYS,
        delta_n_list=(_float_list, [0.0, 1.0e-4, 2.1e-4]),
        phase_length_um=(_finite, 1000.0),
        stem_length_um=(_finite, 1130.0),
        branch_half_angle_deg=(_finite, 0.4),
        branch_separation_um=(_finite, 24.0),
        branch_core_width_um=(_finite, 4.0),
        window_um=(_finite, 64.0),
        nx=(int, 2048),
        dz_um=(_finite, 1.0),
        lead_out_um=(_finite, 250.0),
    ),
    "bpm-run": dict(
        _SLAB_KEYS,
        launch=(str, "plus"),
        length_um=(_finite, 1000.0),
        window_um=(_finite, 96.0),
        nx=(int, 2048),
        dz_um=(_finite, 0.5),
        snapshot_every=(int, 16),
    ),
}

_STATES = {
    "phi_plus": lambda: density_of(bell_state("phi", "+")),
    "phi_minus": lambda: density_of(bell_state("phi", "-")),
    "psi_plus": lambda: density_of(bell_state("psi", "+")),
    "psi_minus": lambda: density_of(bell_state("psi", "-")),
    "product": lambda: density_of(product_state()),
}

_LAUNCHES = {
    "te0": [1.0, 0.0],
    "te1": [0.0, 1.0],
    "plus": [1 / math.sqrt(2), 1 / math.sqrt(2)],
    "minus": [1 / math.sqrt(2), -1 / math.sqrt(2)],
}


def parse_config_text(text: str) -> RunConfig:
    """Parse flat key=value text with # comments into a RunConfig."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value

    experiment = raw.pop("experiment", None)
    if experiment is None:
        raise ConfigError("missing required key 'experiment'")
    if experiment not in _SCHEMAS:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose from {sorted(_SCHEMAS)}"
        )
    seed_text = raw.pop("seed", "0")
    try:
        seed = int(seed_text)
    except ValueError as exc:
        raise ConfigError(f"seed must be an integer, got {seed_text!r}") from exc
    if seed < 0:
        raise ConfigError("seed must be nonnegative")

    schema = _SCHEMAS[experiment]
    parameters = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for experiment {experiment!r}")
        parser = schema[key][0]
        try:
            parameters[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"key {key!r}: cannot parse {value!r} ({exc})") from exc
    for key, (parser, default) in schema.items():
        if key not in parameters:
            if default is REQUIRED:
                raise ConfigError(f"missing required key {key!r}")
            parameters[key] = default
    return RunConfig(experiment=experiment, parameters=parameters, seed=seed)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _slab_from(params: dict) -> SlabSpec:
    return SlabSpec(
        core_width=params["core_width_um"] * 1e-6,
        n_core=params["n_core"],
        n_clad=params["n_clad"],
        wavelength=params["wavelength_um"] * 1e-6,
    )


def _model_from(params: dict) -> PerturbationModel:
    return PerturbationModel(
        sigma=params["sigma"],
        corr_length=params["corr_length_um"] * 1e-6,
        k_ab=params["k_ab_per_m"],
    )


def validate(config: RunConfig) -> list[Diagnostic]:
    """Machine-readable diagnostics; errors block the run, warnings do not."""
    diagnostics: list[Diagnostic] = []
    params = config.parameters
    if "sigma" in params and params["sigma"] < 0:
        diagnostics.append(Diagnostic("sigma", "sigma must be nonnegative", "error"))
    if "corr_length_um" in params and params["corr_length_um"] <= 0:
        diagnostics.append(Diagnostic("corr_length_um", "correlation length must be positive", "error"))
    if "n_core" in params and "n_clad" in params and params["n_core"] <= params["n_clad"]:
        diagnostics.append(Diagnostic("n_core", "need n_core > n_clad", "error"))
    if config.experiment == "decohere" and params["n_lengths"] < 2:
        diagnostics.append(Diagnostic("n_lengths", "a scan needs at least 2 lengths", "error"))
    if "n_realizations" in params and params["n_realizations"] < 1:
        diagnostics.append(Diagnostic("n_realizations", "need at least one realization", "error"))
    if "grid_n" in params and params["grid_n"] < 8:
        diagnostics.append(Diagnostic("grid_n", "grid_n must be at least 8", "error"))
    if "state" in params and params["state"] not in _STATES:
        diagnostics.append(Diagnostic("state", f"unknown state {params['state']!r}", "error"))
    if "launch" in params and params["launch"] not in _LAUNCHES:
        diagnostics.append(Diagnostic("launch", f"unknown launch {params['launch']!r}", "error"))
    if (config.experiment == "chsh-scan" and params.get("length_m", 0.0) > 0
            and params.get("state") not in ("phi_plus", "product")):
        diagnostics.append(Diagnostic(
            "length_m", "decohered scans support only phi_plus and product states; "
            "length_m is ignored for this state", "warning"))
    if not any(d.severity == "error" for d in diagnostics):
        if "sigma" in params and "delta_beta_per_m" in params and params["sigma"] > 0:
            dbeta = params["delta_beta_per_m"]
            if dbeta == 0.0 and config.experiment == "delays":
                dbeta = delta_beta(_slab_from(params))  # sentinel: derive from the slab
            rate_consts = rates(_model_from(params), dbeta)
            if not rate_consts.regime_ok:
                diagnostics.append(Diagnostic(
                    "delta_beta_per_m",
                    "perturbative regime violated: delta_beta is not large against "
                    f"gamma={rate_consts.gamma:.3e}, kappa={rate_consts.kappa:.3e}",
                    "warning",
                ))
    return diagnostics


def _derived_rates(params: dict) -> dict:
    model = _model_from(params)
    dbeta = params["delta_beta_per_m"]
    rate_consts = rates(model, dbeta)
    return {
        "delta_beta_per_m": dbeta,
        "gamma_per_m": rate_consts.gamma,
        "kappa_per_m": rate_consts.kappa,
        "regime_ok": rate_consts.regime_ok,
    }


def _run_modes(config: RunConfig, out_dir: Path) -> tuple[list[str], dict]:
    spec = _slab_from(config.parameters)
    modes = solve_slab_te_modes(spec, points=config.parameters["grid_points"],
                                span_factor=config.parameters["span_factor"])
    files = []
    summary_rows = []
    for mode in modes:
        name = f"mode{mode.index}.csv"
        export_mode_csv(mode, out_dir / name)
        files.append(name)
        summary_rows.append((mode.index, mode.beta, mode.beta / spec.k))
    write_csv(out_dir / "modes.csv", ("index", "beta_per_m", "n_eff"), summary_rows)
    files.append("modes.csv")
    derived = {"n_modes": len(modes)}
    if len(modes) >= 2:
        derived["delta_beta_per_m"] = modes[1].beta - modes[0].beta
    return files, derived


def _run_rates(config: RunConfig, out_dir: Path) -> tuple[list[str], dict]:
    derived = _derived_rates(config.parameters)
    write_csv(out_dir / "rates.csv",
              ("gamma_per_m", "kappa_per_m", "regime_ok"),
              [(derived["gamma_per_m"], derived["kappa_per_m"], derived["regime_ok"])])
    return ["rates.csv"], derived


def _run_decohere(config: RunConfig, out_dir: Path, threads: int = 1) -> tuple[list[str], dict]:
    params = config.parameters
    model = _model_from(params)
    scan = ensemble_scan(
        density_of(superpose(1.0, 1.0)),
        model,
        params["delta_beta_per_m"],
        params["length_max_m"],
        params["n_lengths"],
        params["n_realizations"],
        base_seed=config.seed,
        n_jobs=threads,
    )
    export_scan_csv(scan, out_dir / "decohere.csv")
    return ["decohere.csv"], _derived_rates(params)


def _run_bell(config: RunConfig, out_dir: Path) -> tuple[list[str], dict]:
    params = config.parameters
    rho = _STATES[params["state"]]()
    thetas = np.linspace(0.0, math.pi, params["theta_points"], endpoint=False)
    export_bell_csv(rho, thetas, thetas, out_dir / "bell.csv")
    return ["bell.csv"], {"state": params["state"]}


def _chsh_state(params: dict):
    rho = _STATES[params["state"]]()
    if params["length_m"] > 0 and params["state"] in ("phi_plus", "product"):
        rate_consts = rates(_model_from(params), params["delta_beta_per_m"])
        evo = EvolutionParams(params["delta_beta_per_m"], rate_consts, params["length_m"])
        name = "phi_plus" if params["state"] == "phi_plus" else "product"
        rho = two_rail_evolve(name, evo, "closed_form")
    return rho


def _run_chsh_scan(config: RunConfig, out_dir: Path) -> tuple[list[str], dict]:
    params = config.parameters
    rho = _chsh_state(params)
    best, angles = chsh_scan(rho, params["grid_n"])
    export_chsh_csv([(best, angles)], out_dir / "chsh_scan.csv")
    derived = {"max_abs_B": best, "state": params["state"]}
    if params["length_m"] > 0:
        derived.update(_derived_rates(params))
    return ["chsh_scan.csv"], derived


def _run_delays(config: RunConfig, out_dir: Path) -> tuple[list[str], dict]:
    params = config.parameters
    spec = _slab_from(params)
    dbeta = params["delta_beta_per_m"] or delta_beta(spec)
    model = _model_from(params)
    rate_consts = rates(model, dbeta)
    rows = []
    for length in np.linspace(params["length_max_m"] / params["n_lengths"],
                              params["length_max_m"], params["n_lengths"]):
        evo = EvolutionParams(dbeta, rate_consts, float(length))
        pair = DelayPair(group_delay(spec, 0, float(length)), group_delay(spec, 1, float(length)))
        cov_ent = delay_covariance(two_rail_evolve("phi_plus", evo, "closed_form"), pair)
        cov_prod = delay_covariance(two_rail_evolve("product", evo, "closed_form"), pair)
        rows.append((float(length), pair.tau0, pair.tau1, cov_ent, cov_prod))
    write_csv(out_dir / "delays.csv",
              ("L_m", "tau0_s", "tau1_s", "cov_entangled_s2", "cov_product_s2"), rows)
    return ["delays.csv"], {"delta_beta_per_m": dbeta,
                            "gamma_per_m": rate_consts.gamma,
                            "kappa_per_m": rate_consts.kappa,
                            "regime_ok": rate_consts.regime_ok}


def _fig2_geometry(params: dict) -> tuple[SlabSpec, YSplitterGeometry, Grid]:
    spec = _slab_from(params)
    phase = PhaseSection(0.0, params["phase_length_um"] * 1e-6, z_start=50e-6)
    geometry = YSplitterGeometry(
        stem_length=params["stem_length_um"] * 1e-6,
        branch_half_angle=math.radians(params["branch_half_angle_deg"]),
        branch_separation_final=params["branch_separation_um"] * 1e-6,
        core_width=params["branch_core_width_um"] * 1e-6,
        phase_section=phase,
    )
    window = params["window_um"] * 1e-6
    dz = params["dz_um"] * 1e-6
    z_total = geometry.separation_end_z() + params["lead_out_um"] * 1e-6
    nz = int(math.ceil(z_total / dz)) + 1
    grid = Grid(x_min=-window / 2.0, dx=window / (params["nx"] - 1), nx=params["nx"],
                dz=dz, nz=nz)
    return spec, geometry, grid


def _run_fig2(config: RunConfig, out_dir: Path) -> tuple[list[str], dict]:
    params = config.parameters
    spec, geometry, grid = _fig2_geometry(params)
    rows = fig2_experiment(params["delta_n_list"], spec, geometry, grid)
    write_csv(out_dir / "fig2.csv",
              ("delta_n", "p_left", "p_right", "ratio_left", "theta_rad"),
              [(r.delta_n, r.power_left, r.power_right,
                r.power_left / max(r.power_right, 1e-300), r.theta) for r in rows])
    return ["fig2.csv"], {"delta_beta_per_m": delta_beta(spec)}


def _run_bpm(config: RunConfig, out_dir: Path) -> tuple[list[str], dict]:
    params = config.parameters
    spec = _slab_from(params)
    window = params["window_um"] * 1e-6
    dz = params["dz_um"] * 1e-6
    nz = int(math.ceil(params["length_um"] * 1e-6 / dz)) + 1
    grid = Grid(-window / 2.0, window / (params["nx"] - 1), params["nx"], dz, nz)
    modes = solve_slab_te_modes(spec, grid=grid.waveguide_grid())
    if len(modes) < 2:
        raise NumericalError("straight-guide run expects a dual-mode spec")
    coeffs = _LAUNCHES[params["launch"]]
    launch = field_from_modes(modes[:2], coeffs, grid)
    ri_map = straight_slab_map(grid, spec)
    snapshots = propagate(launch, ri_map, grid, spec.wavelength,
                          snapshot_every=params["snapshot_every"],
                          core_width_hint=spec.core_width)
    export_field_csv(snapshots[-1], grid, out_dir / "field_final.csv")
    export_raster(snapshots, grid, out_dir / "raster.bin")
    left, right = branch_powers(snapshots[-1], 0.0, grid)
    return (["field_final.csv", "raster.bin"],
            {"power_drift": snapshots[-1].power / snapshots[0].power - 1.0,
             "branch_left": left, "branch_right": right})


_RUNNERS = {
    "modes": _run_modes,
    "rates": _run_rates,
    "decohere": _run_decohere,
    "bell": _run_bell,
    "chsh-scan": _run_chsh_scan,
    "delays": _run_delays,
    "fig2": _run_fig2,
    "bpm-run": _run_bpm,
}


def run(config: RunConfig, out_dir, quiet: bool = False, threads: int = 1) -> dict:
    """Execute the configured experiment; returns the manifest payload."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.experiment == "decohere":
        files, derived = _run_decohere(config, out, threads=max(1, threads))
    else:
        files, derived = _RUNNERS[config.experiment](config, out)
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "version": __version__,
        "config": {k: config.parameters[k] for k in sorted(config.parameters)},
        "derived": derived,
        "outputs": sorted(files),
    }
    write_json(out / "manifest.json", manifest)
    if not quiet:
        print(f"{config.experiment}: wrote {', '.join(sorted(files))} and manifest.json to {out}")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="modesim",
        description="Run mode-entanglement simulation experiments from a config file.",
    )
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=1, help="worker threads for ensembles")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("seed must be nonnegative")
            config.seed = args.seed
        diagnostics = validate(config)
        for diag in diagnostics:
            if not args.quiet or diag.severity == "error":
                print(f"{diag.severity}: {diag.key}: {diag.message}", file=sys.stderr)
        if any(d.severity == "error" for d in diagnostics):
            return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        run(config, args.out, quiet=args.quiet, threads=args.threads)
    except (NumericalError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
