"""Command-line experiment runner.

Reads a flat key=value config file (# comments allowed), runs one named
experiment, and writes CSV results plus a JSON manifest into the output
directory.  Outputs are deterministic for a fixed (config, seed) and files
are written atomically, so reruns are byte identical.

Exit codes: 0 success, 2 config error, 3 numerical failure.  A run builds
and checks every domain object before it computes, and computes before it
writes, so a config error or a numerical failure writes nothing.

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
from functools import partial
from pathlib import Path
from types import SimpleNamespace

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


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite(part) for part in str(text).split(";") if part != ""]


def _bounded(parse, low, strict: bool = False):
    """Parser of a number that must be at least low (above low if strict)."""
    def parser(text: str):
        value = parse(text)
        if value < low or (strict and value == low):
            raise ValueError(f"must be {'greater than' if strict else 'at least'} {low}")
        return value
    return parser


_POSITIVE = _bounded(_finite, 0.0, strict=True)

# Per-experiment parameter schemas: key -> (parser, default).  Keys that a
# domain dataclass takes are checked by that dataclass; the rest are bounded
# here.
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
    "modes": dict(_SLAB_KEYS, grid_points=(_bounded(int, 2), 2048),
                  span_factor=(_POSITIVE, 6.0)),
    "rates": dict(_NOISE_KEYS, delta_beta_per_m=(_finite, 2.0e4)),
    "decohere": dict(
        _NOISE_KEYS,
        delta_beta_per_m=(_finite, 2.0e4),
        length_max_m=(_POSITIVE, 0.8192),
        n_lengths=(_bounded(int, 2), 20),
        n_realizations=(_bounded(int, 1), 1000),
    ),
    "bell": {"state": (str, "phi_plus"), "theta_points": (_bounded(int, 1), 19)},
    "chsh-scan": dict(
        _NOISE_KEYS,
        state=(str, "phi_plus"),
        grid_n=(_bounded(int, 8), 16),
        delta_beta_per_m=(_finite, 2.0e4),
        length_m=(_finite, 0.0),
    ),
    "delays": dict(
        **_SLAB_KEYS,
        **_NOISE_KEYS,
        delta_beta_per_m=(_finite, 0.0),  # 0 means "derive from the slab spec"
        length_max_m=(_POSITIVE, 1.0),
        n_lengths=(_bounded(int, 1), 10),
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
        snapshot_every=(_bounded(int, 1), 16),
    ),
}

_STATES = {
    "phi_plus": lambda: density_of(bell_state("phi", "+")),
    "phi_minus": lambda: density_of(bell_state("phi", "-")),
    "psi_plus": lambda: density_of(bell_state("psi", "+")),
    "psi_minus": lambda: density_of(bell_state("psi", "-")),
    "product": lambda: density_of(product_state()),
}

#: the states chsh-scan can decohere over length_m; it ignores length_m for the rest.
_DECOHERED_STATES = ("phi_plus", "product")

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
    for key, (_, default) in schema.items():
        parameters.setdefault(key, default)
    return RunConfig(experiment=experiment, parameters=parameters, seed=seed)


def load_config(path) -> RunConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _choice(table: dict, params: dict, key: str):
    if params[key] not in table:
        raise ValueError(f"unknown {key} {params[key]!r}; choose from {sorted(table)}")
    return table[params[key]]


def _build(config: RunConfig) -> SimpleNamespace:
    """Build and check the run's domain objects, one per key group; compute nothing.

    A bad config raises ValueError (or ArithmeticError) here, before any output.
    """
    params, b = config.parameters, SimpleNamespace(rates=None)
    if "n_core" in params:
        b.spec = SlabSpec(core_width=params["core_width_um"] * 1e-6, n_core=params["n_core"],
                          n_clad=params["n_clad"], wavelength=params["wavelength_um"] * 1e-6)
    if "sigma" in params:
        b.model = PerturbationModel(sigma=params["sigma"], k_ab=params["k_ab_per_m"],
                                    corr_length=params["corr_length_um"] * 1e-6)
        b.dbeta = params["delta_beta_per_m"]
        if config.experiment == "delays" and b.dbeta == 0.0:  # derive it from the slab
            b.dbeta = delta_beta(b.spec)
        b.rates = rates(b.model, b.dbeta)
    if "state" in params:
        b.rho = _choice(_STATES, params, "state")()
    if "length_m" in params:
        b.evo = EvolutionParams(b.dbeta, b.rates, params["length_m"])
    if "launch" in params:
        b.coeffs = _choice(_LAUNCHES, params, "launch")
    if "length_um" in params:
        length = params["length_um"] * 1e-6
    if "stem_length_um" in params:
        b.geometry = YSplitterGeometry(
            stem_length=params["stem_length_um"] * 1e-6,
            branch_half_angle=math.radians(params["branch_half_angle_deg"]),
            branch_separation_final=params["branch_separation_um"] * 1e-6,
            core_width=params["branch_core_width_um"] * 1e-6,
            phase_section=PhaseSection(0.0, params["phase_length_um"] * 1e-6, z_start=50e-6),
        )
        length = b.geometry.separation_end_z() + params["lead_out_um"] * 1e-6
    if "window_um" in params:  # nx points across a centered window, dz steps covering length
        window, dz = params["window_um"] * 1e-6, params["dz_um"] * 1e-6
        nz = int(math.ceil(length / dz)) + 1
        b.grid = Grid(-window / 2.0, window / (params["nx"] - 1), params["nx"], dz, nz)
    return b


def _derived_rates(b: SimpleNamespace) -> dict:
    return {"delta_beta_per_m": b.dbeta, "gamma_per_m": b.rates.gamma,
            "kappa_per_m": b.rates.kappa, "regime_ok": b.rates.regime_ok}


def _run_modes(config: RunConfig, b: SimpleNamespace, threads: int) -> tuple[dict, dict]:
    modes = solve_slab_te_modes(b.spec, points=config.parameters["grid_points"],
                                span_factor=config.parameters["span_factor"])
    outputs = {f"mode{mode.index}.csv": partial(export_mode_csv, mode) for mode in modes}
    outputs["modes.csv"] = partial(write_csv, header=("index", "beta_per_m", "n_eff"),
                                   rows=[(m.index, m.beta, m.beta / b.spec.k) for m in modes])
    derived = {"n_modes": len(modes)}
    if len(modes) >= 2:
        derived["delta_beta_per_m"] = modes[1].beta - modes[0].beta
    return outputs, derived


def _run_rates(config: RunConfig, b: SimpleNamespace, threads: int) -> tuple[dict, dict]:
    return ({"rates.csv": partial(write_csv, header=("gamma_per_m", "kappa_per_m", "regime_ok"),
                                  rows=[(b.rates.gamma, b.rates.kappa, b.rates.regime_ok)])},
            _derived_rates(b))


def _run_decohere(config: RunConfig, b: SimpleNamespace, threads: int) -> tuple[dict, dict]:
    params = config.parameters
    scan = ensemble_scan(
        density_of(superpose(1.0, 1.0)),
        b.model,
        b.dbeta,
        params["length_max_m"],
        params["n_lengths"],
        params["n_realizations"],
        base_seed=config.seed,
        n_jobs=threads,
    )
    return {"decohere.csv": partial(export_scan_csv, scan)}, _derived_rates(b)


def _run_bell(config: RunConfig, b: SimpleNamespace, threads: int) -> tuple[dict, dict]:
    params = config.parameters
    thetas = np.linspace(0.0, math.pi, params["theta_points"], endpoint=False)
    return {"bell.csv": partial(export_bell_csv, b.rho, thetas, thetas)}, {"state": params["state"]}


def _run_chsh_scan(config: RunConfig, b: SimpleNamespace, threads: int) -> tuple[dict, dict]:
    params = config.parameters
    rho = b.rho
    if b.evo.length > 0 and params["state"] in _DECOHERED_STATES:
        rho = two_rail_evolve(params["state"], b.evo, "closed_form")
    best, angles = chsh_scan(rho, params["grid_n"])
    derived = {"max_abs_B": best, "state": params["state"]}
    if b.evo.length > 0:
        derived.update(_derived_rates(b))
    return {"chsh_scan.csv": partial(export_chsh_csv, [(best, angles)])}, derived


def _run_delays(config: RunConfig, b: SimpleNamespace, threads: int) -> tuple[dict, dict]:
    params = config.parameters
    rows = []
    for length in np.linspace(params["length_max_m"] / params["n_lengths"],
                              params["length_max_m"], params["n_lengths"]):
        evo = EvolutionParams(b.dbeta, b.rates, float(length))
        pair = DelayPair(group_delay(b.spec, 0, float(length)), group_delay(b.spec, 1, float(length)))
        cov_ent = delay_covariance(two_rail_evolve("phi_plus", evo, "closed_form"), pair)
        cov_prod = delay_covariance(two_rail_evolve("product", evo, "closed_form"), pair)
        rows.append((float(length), pair.tau0, pair.tau1, cov_ent, cov_prod))
    header = ("L_m", "tau0_s", "tau1_s", "cov_entangled_s2", "cov_product_s2")
    return {"delays.csv": partial(write_csv, header=header, rows=rows)}, _derived_rates(b)


def _run_fig2(config: RunConfig, b: SimpleNamespace, threads: int) -> tuple[dict, dict]:
    rows = fig2_experiment(config.parameters["delta_n_list"], b.spec, b.geometry, b.grid)
    return ({"fig2.csv": partial(write_csv,
                                 header=("delta_n", "p_left", "p_right", "ratio_left", "theta_rad"),
                                 rows=[(r.delta_n, r.power_left, r.power_right,
                                        r.power_left / max(r.power_right, 1e-300), r.theta)
                                       for r in rows])},
            {"delta_beta_per_m": delta_beta(b.spec)})


def _run_bpm(config: RunConfig, b: SimpleNamespace, threads: int) -> tuple[dict, dict]:
    spec, grid = b.spec, b.grid
    modes = solve_slab_te_modes(spec, grid=grid.waveguide_grid())
    if len(modes) < 2:
        raise NumericalError("straight-guide run expects a dual-mode spec")
    launch = field_from_modes(modes[:2], b.coeffs, grid)
    ri_map = straight_slab_map(grid, spec)
    snapshots = propagate(launch, ri_map, grid, spec.wavelength,
                          snapshot_every=config.parameters["snapshot_every"],
                          core_width_hint=spec.core_width)
    left, right = branch_powers(snapshots[-1], 0.0, grid)
    return ({"field_final.csv": partial(export_field_csv, snapshots[-1], grid),
             "raster.bin": partial(export_raster, snapshots, grid)},
            {"power_drift": snapshots[-1].power / snapshots[0].power - 1.0,
             "branch_left": left, "branch_right": right})


# Each runner computes from the built objects and writes nothing: it returns the
# writer of each output file (called with its destination path) and the derived values.
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


def _culprit(config: RunConfig, message: str) -> str:
    """The key behind a build error: setting keys back to their defaults in
    schema order, the first whose reset changes the error."""
    trial = RunConfig(config.experiment, dict(config.parameters), config.seed)
    for key, (_, default) in _SCHEMAS[config.experiment].items():
        trial.parameters[key] = default
        try:
            _build(trial)
        except (ValueError, ArithmeticError) as exc:
            if str(exc) == message:
                continue
        return key
    return "experiment"


def validate(config: RunConfig) -> list[Diagnostic]:
    """Machine-readable diagnostics; errors block the run, warnings do not."""
    try:
        rate_consts = _build(config).rates
    except (ValueError, ArithmeticError) as exc:
        return [Diagnostic(_culprit(config, str(exc)), str(exc), "error")]
    diagnostics: list[Diagnostic] = []
    params = config.parameters
    if (config.experiment == "chsh-scan" and params["length_m"] > 0
            and params["state"] not in _DECOHERED_STATES):
        diagnostics.append(Diagnostic(
            "length_m", "decohered scans support only phi_plus and product states; "
            "length_m is ignored for this state", "warning"))
    if rate_consts is not None and not rate_consts.regime_ok:
        diagnostics.append(Diagnostic(
            "delta_beta_per_m",
            "perturbative regime violated: delta_beta is not large against "
            f"gamma={rate_consts.gamma:.3e}, kappa={rate_consts.kappa:.3e}",
            "warning",
        ))
    return diagnostics


def run(config: RunConfig, out_dir, quiet: bool = False, threads: int = 1) -> dict:
    """Execute the configured experiment; returns the manifest payload."""
    outputs, derived = _RUNNERS[config.experiment](config, _build(config), threads)
    out = Path(out_dir)
    for name, write in outputs.items():
        write(out / name)
    manifest = {
        "experiment": config.experiment,
        "seed": config.seed,
        "version": __version__,
        "config": {k: config.parameters[k] for k in sorted(config.parameters)},
        "derived": derived,
        "outputs": sorted(outputs),
    }
    write_json(out / "manifest.json", manifest)
    if not quiet:
        print(f"{config.experiment}: wrote {', '.join(sorted(outputs))} and manifest.json to {out}")
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
        if args.threads < 1:
            raise ConfigError("threads must be at least 1")
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
