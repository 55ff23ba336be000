"""Command-line experiment runner.

Reads a flat key=value config file (# comments allowed), runs one named
experiment, and writes CSV results plus a JSON manifest into the output
directory.  Outputs are deterministic for a fixed (config, seed), so reruns
are byte identical.

Exit codes: 0 success, 2 config error, 3 numerical failure.  A run builds
and checks every domain object before it computes, and moves its files into
the output directory only when all are written, so a failed run changes nothing.

Config keys carry explicit units in their names (core_width_um,
corr_length_um, length_m, ...).  Unknown keys are rejected.

Example config::

    experiment=chsh-scan
    state=phi_plus
    grid_n=16
    seed=42
"""
from __future__ import annotations

import math
import os
import shutil
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import __version__
from ._errors import NumericalError
from ._io import write_csv, write_json
from .bpm import (BLOCK_CELLS, Grid, PhaseSection, YSplitterGeometry, branch_powers, check_march,
                  export_field_csv, export_raster, field_from_modes, fig2_experiment, propagate,
                  straight_slab_map)
from .correlation import (DelayPair, chsh_optimum, chsh_scan, delay_covariance, export_bell_csv,
                          export_chsh_csv)
from .decoherence import (TWO_RAIL_STATES, EvolutionParams, ensemble_scan, ensemble_steps, export_scan_csv,
                          two_rail_evolve)
from .states import bell_state, density_of, product_state, superpose
from .stochastic import PerturbationModel, pair_seed, rates
from .waveguide import (DEFAULT_GRID_POINTS, DEFAULT_SPAN_FACTOR, SlabSpec, default_grid, delta_beta,
                        export_mode_csv, group_delay, solve_slab_te_modes)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
#: bytes a run may hold, by _build's upper-bound estimate from the config; more is a config error
MEMORY_BUDGET = 10 ** 9


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
    threads: int = 1  # the pull loops an ensemble runs, each of which holds its own buffers

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if self.threads < 1:
            raise ConfigError("threads must be at least 1")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite(part) for part in str(text).split(";") if part != ""]


def _bounded(parse, low, strict: bool = False, high=None):
    """Parser of a number of at least low (above low if strict) and at most high, if given."""
    def parser(text: str):
        value = parse(text)
        if value < low or (strict and value == low):
            raise ValueError(f"must be {'greater than' if strict else 'at least'} {low}")
        if high is not None and value > high:
            raise ValueError(f"must be at most {high}")
        return value
    return parser


# Per-experiment parameter schemas: key -> (parser, default).  The library checks each key
# that _build hands it; a bound here guards _build's own arithmetic, or a check that runs only
# in the run, and says which.
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
    "modes": dict(_SLAB_KEYS, grid_points=(int, DEFAULT_GRID_POINTS),
                  span_factor=(_finite, DEFAULT_SPAN_FACTOR)),
    "rates": dict(_NOISE_KEYS, delta_beta_per_m=(_finite, 2.0e4)),
    "decohere": dict(
        _NOISE_KEYS,
        delta_beta_per_m=(_finite, 2.0e4),
        length_max_m=(_finite, 0.8192),
        n_lengths=(int, 20),
        n_realizations=(int, 1000),
    ),
    "bell": {"state": (str, "phi_plus"), "theta_points": (_bounded(int, 1, high=1024), 19)},  # as grid_n
    "chsh-scan": dict(
        _NOISE_KEYS,
        state=(str, "phi_plus"),
        grid_n=(_bounded(int, 8, high=1024), 16),  # checked only in the run; the cap bounds its n^2 memory
        delta_beta_per_m=(_finite, 2.0e4),
        length_m=(_finite, 0.0),
    ),
    "delays": dict(
        **_SLAB_KEYS,
        **_NOISE_KEYS,
        delta_beta_per_m=(_finite, 0.0),  # 0 means "derive from the slab spec"
        length_max_m=(_bounded(_finite, 0.0, strict=True), 1.0),  # no library call bounds it
        n_lengths=(_bounded(int, 1), 10),  # the run divides length_max_m by it
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
        nx=(_bounded(int, 2), 2048),  # _build divides by nx - 1
        dz_um=(_finite, 1.0),
        lead_out_um=(_finite, 250.0),
    ),
    "bpm-run": dict(
        _SLAB_KEYS,
        launch=(str, "plus"),
        length_um=(_finite, 1000.0),
        window_um=(_finite, 96.0),
        nx=(_bounded(int, 2), 2048),  # _build divides by nx - 1
        dz_um=(_finite, 0.5),
        snapshot_every=(_bounded(int, 1), 16),  # _build divides by it; propagate checks it in the run
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
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def _choice(table: dict, params: dict, key: str):
    if params[key] not in table:
        raise ValueError(f"unknown {key} {params[key]!r}; choose from {sorted(table)}")
    return table[params[key]]


def _build(config: RunConfig) -> SimpleNamespace:
    """Build and check the run's domain objects, one per key group; compute nothing.

    A bad or over-budget config raises ValueError (or ArithmeticError) here, before any output.
    """
    # memory: 1 MiB for numpy's reduction buffers and small objects, then each term below
    params, b = config.parameters, SimpleNamespace(rates=None, memory=2.0 ** 20, dual=[], geometry=None)
    if "n_core" in params:
        b.spec = SlabSpec(core_width=params["core_width_um"] * 1e-6, n_core=params["n_core"],
                          n_clad=params["n_clad"], wavelength=params["wavelength_um"] * 1e-6)
    if "span_factor" in params:  # modes: grid_points samples over span_factor core widths
        b.mode_grid = default_grid(b.spec.core_width, params["span_factor"], params["grid_points"])
        b.memory += 400 * params["grid_points"]  # one mode file's CSV text, 400 B a point
        # the profile of each of the ceil(2V / pi) guided modes: 8 B a point, 1 KB of objects
        b.memory += (2.0 * b.spec.v_number / math.pi + 1.0) * (8 * params["grid_points"] + 1000)
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
    if "length_max_m" in params:  # the phase grows with length, so the longest checks every row
        b.evo = EvolutionParams(b.dbeta, b.rates, params["length_max_m"])
    if config.experiment == "delays":  # mode 1 guided at k (1 +- dk_rel), tau1 - tau0 largest at L_max
        DelayPair(*(group_delay(b.spec, mode, params["length_max_m"]) for mode in (0, 1)))
        b.memory += 640.0 * params["n_lengths"]  # a row of five floats and its CSV text
    # decohere: 190 B a step per loop (101 B traced at one loop); 96 B a state, in the stack and np.var
    if "n_realizations" in params:
        steps = ensemble_steps(b.model, b.dbeta, params["length_max_m"], params["n_lengths"],
                               params["n_realizations"])
        b.memory += 190.0 * steps * config.threads + 96.0 * params["n_realizations"] * params["n_lengths"]
    if "launch" in params:
        b.coeffs = _choice(_LAUNCHES, params, "launch")
    if "nx" in params:  # bpm-run and fig2 launch (TE0 + TE1) / sqrt(2): the slab must carry both
        b.dual.append(b.spec)
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
        if not params["delta_n_list"]:
            raise ValueError("delta_n_list must hold at least one delta_n")
        for delta_n in params["delta_n_list"]:  # SlabSpec checks each bumped phase section
            b.dual.append(replace(b.spec, n_core=b.spec.n_core + delta_n))
    if "window_um" in params:  # nx points across a centered window, dz steps covering length
        window, dz = params["window_um"] * 1e-6, params["dz_um"] * 1e-6
        nz = int(math.ceil(length / dz)) + 1 if dz > 0 else 0  # Grid rejects dz <= 0
        b.grid = Grid(-window / 2.0, window / (params["nx"] - 1), params["nx"], dz, nz)
        check_march(b.spec, b.grid, b.geometry, params.get("delta_n_list", ()))
        # the march's work arrays, and the two launched profiles at 8 B a point and 1 KB of objects
        b.memory += 256 * b.grid.nx + 2 * (8 * b.grid.nx + 1000)
    if "snapshot_every" in params:  # bpm-run: field_final.csv's text at 512 B a point; the
        # march's intensity raster, one row of 8 B a cell per snapshot; 24 B a z step for the
        # march's run detection over the straight map's one broadcast key (6 B traced)
        b.memory += (512 * b.grid.nx + 24 * b.grid.nz
                     + 8 * b.grid.nx * ((b.grid.nz - 1) // params["snapshot_every"] + 2))
    if "stem_length_um" in params:  # fig2 builds and marches one bump's map at a time: 96 B a z
        # step for build_geometry's step keys and temporaries (96 B traced; the march holds the
        # 40 B keys and a run table of 16 B); a march's block of runs, at most BLOCK_CELLS cells
        # (or one row) at 80 B a cell (39 B traced); and 8 B a cell of nz + bumps rows, which
        # bounds the cells the marches cross, not memory held
        b.memory += (96 * b.grid.nz + 80 * min(max(b.grid.nx, BLOCK_CELLS), b.grid.nz * b.grid.nx)
                     + (b.grid.nz + len(params["delta_n_list"])) * b.grid.nx * 8)
    if b.memory > MEMORY_BUDGET:
        raise ValueError(f"the run needs about {b.memory / 1e9:.3g} GB, over the "
                         f"{MEMORY_BUDGET / 1e9:g} GB budget")
    for spec in b.dual:  # last, as the costly checks: dispersion solves, which the run reuses
        delta_beta(spec)
    if "span_factor" in params:  # modes: every guided mode, which raises on an unresolvable beta
        b.modes = solve_slab_te_modes(b.spec, grid=b.mode_grid)
    return b


def _derived_rates(b: SimpleNamespace) -> dict:
    return {"delta_beta_per_m": b.dbeta, "gamma_per_m": b.rates.gamma,
            "kappa_per_m": b.rates.kappa, "regime_ok": b.rates.regime_ok}


def _run_modes(config: RunConfig, b: SimpleNamespace, stage: Path) -> dict:
    for mode in b.modes:
        export_mode_csv(mode, stage / f"mode{mode.index}.csv")
    write_csv(stage / "modes.csv", header=("index", "beta_per_m", "n_eff"),
              rows=[(m.index, m.beta, m.beta / b.spec.k) for m in b.modes])
    derived = {"n_modes": len(b.modes)}
    if len(b.modes) >= 2:
        derived["delta_beta_per_m"] = b.modes[1].beta - b.modes[0].beta
    return derived


def _run_rates(config: RunConfig, b: SimpleNamespace, stage: Path) -> dict:
    write_csv(stage / "rates.csv", header=("gamma_per_m", "kappa_per_m", "regime_ok"),
              rows=[(b.rates.gamma, b.rates.kappa, b.rates.regime_ok)])
    return _derived_rates(b)


def _run_decohere(config: RunConfig, b: SimpleNamespace, stage: Path) -> dict:
    params = config.parameters
    scan = ensemble_scan(density_of(superpose(1.0, 1.0)), b.model, b.dbeta, params["length_max_m"],
                         params["n_lengths"], params["n_realizations"], base_seed=config.seed,
                         n_jobs=config.threads)
    export_scan_csv(scan, stage / "decohere.csv")
    return _derived_rates(b)


def _run_bell(config: RunConfig, b: SimpleNamespace, stage: Path) -> dict:
    params = config.parameters
    thetas = np.linspace(0.0, math.pi, params["theta_points"], endpoint=False)
    export_bell_csv(b.rho, thetas, stage / "bell.csv")
    return {"state": params["state"]}


def _run_chsh_scan(config: RunConfig, b: SimpleNamespace, stage: Path) -> dict:
    params = config.parameters
    rho = b.rho
    if b.evo.length > 0 and params["state"] in TWO_RAIL_STATES:
        rho = two_rail_evolve(params["state"], b.evo)
    best, angles = chsh_scan(rho, params["grid_n"])
    export_chsh_csv(best, angles, stage / "chsh_scan.csv")
    derived = {"max_abs_B": best, "max_abs_B_exact": chsh_optimum(rho), "state": params["state"]}
    if b.evo.length > 0:
        derived.update(_derived_rates(b))
    return derived


def _run_delays(config: RunConfig, b: SimpleNamespace, stage: Path) -> dict:
    params = config.parameters
    lengths = np.linspace(params["length_max_m"] / params["n_lengths"], params["length_max_m"],
                          params["n_lengths"])
    pair = DelayPair(group_delay(b.spec, 0, lengths), group_delay(b.spec, 1, lengths))
    # the covariance reads the states' diagonals, which do not depend on length
    columns = [lengths, pair.tau0, pair.tau1, delay_covariance(two_rail_evolve("phi_plus", b.evo), pair),
               delay_covariance(two_rail_evolve("product", b.evo), pair)]
    header = ("L_m", "tau0_s", "tau1_s", "cov_entangled_s2", "cov_product_s2")
    write_csv(stage / "delays.csv", header=header, rows=zip(*(column.tolist() for column in columns)))
    return _derived_rates(b)


def _run_fig2(config: RunConfig, b: SimpleNamespace, stage: Path) -> dict:
    rows = fig2_experiment(config.parameters["delta_n_list"], b.spec, b.geometry, b.grid)
    write_csv(stage / "fig2.csv", header=("delta_n", "p_left", "p_right", "ratio_left", "theta_rad"),
              rows=[(r.delta_n, r.power_left, r.power_right,
                     r.power_left / max(r.power_right, 1e-300), r.theta) for r in rows])
    return {"delta_beta_per_m": delta_beta(b.spec)}


def _run_bpm(config: RunConfig, b: SimpleNamespace, stage: Path) -> dict:
    spec, grid, every = b.spec, b.grid, config.parameters["snapshot_every"]
    modes = solve_slab_te_modes(spec, grid=grid.waveguide_grid(), count=2)
    launch = field_from_modes(modes, b.coeffs, grid)
    ri_map = straight_slab_map(grid, spec)
    final, intensity = propagate(launch, ri_map, grid, spec.wavelength, snapshot_every=every)
    left, right = branch_powers(final, grid)
    export_field_csv(final, grid, stage / "field_final.csv")
    export_raster(intensity, grid, every, stage / "raster.bin")
    return {"power_drift": final.power / launch.power - 1.0,
            "branch_left": left, "branch_right": right}


# Each runner computes, writes its files into the staging directory and returns the derived values.
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


def _culprits(config: RunConfig, message: str) -> list[str]:
    """The keys behind a build error: threads if the config builds at one thread; else every key
    that alone on the defaults fails to build and whose reset alone changes the error; else,
    setting keys back to their defaults in schema order, the first whose reset changes it."""
    def error(parameters: dict, threads: int = config.threads) -> str | None:
        try:
            _build(replace(config, parameters=parameters, threads=threads))
        except (ValueError, ArithmeticError) as exc:
            return str(exc)
        return None

    params, defaults = config.parameters, {key: d for key, (_, d) in _SCHEMAS[config.experiment].items()}
    if error(params, 1) is None:
        return ["threads"]
    # a key that holds the schema's own default object builds as the defaults do: no probe
    keys = [key for key in defaults if params[key] is not defaults[key]]
    culprits = [key for key in keys if error({**defaults, key: params[key]}, 1) is not None
                and error({**params, key: defaults[key]}) != message]
    if culprits:
        return culprits
    reset = dict(params)
    for key in keys:
        reset[key] = defaults[key]
        if error(reset) != message:
            return [key]
    return ["experiment"]


def validate(config: RunConfig) -> list[Diagnostic]:
    """Machine-readable diagnostics of a run; errors block the run, warnings do not."""
    try:
        rate_consts = _build(config).rates
    except (ValueError, ArithmeticError) as exc:
        return [Diagnostic(key, str(exc), "error") for key in _culprits(config, str(exc))]
    diagnostics: list[Diagnostic] = []
    params = config.parameters
    if (config.experiment == "chsh-scan" and params["length_m"] > 0
            and params["state"] not in TWO_RAIL_STATES):
        diagnostics.append(Diagnostic(
            "length_m", f"decohered scans support only {' and '.join(TWO_RAIL_STATES)} states; "
            "length_m is ignored for this state", "warning"))
    if rate_consts is not None and not rate_consts.regime_ok:
        diagnostics.append(Diagnostic(
            "delta_beta_per_m",
            "perturbative regime violated: delta_beta is not large against "
            f"gamma={rate_consts.gamma:.3e}, kappa={rate_consts.kappa:.3e}",
            "warning",
        ))
    return diagnostics


def run(config: RunConfig, out_dir, quiet: bool = False) -> dict:
    """Execute the configured experiment; returns the manifest payload.

    The runner writes every file, then the manifest, into a new staging directory: beside an
    absent out_dir, which it then becomes, or inside an existing one, whose namesakes its files
    replace, the manifest last.  A run that fails before the moves leaves out_dir as it was; an
    out_dir the stage cannot be made in, such as a file, or one holding a directory by the name
    of an output, raises ConfigError.
    """
    built, out = _build(config), Path(out_dir)
    fresh = not out.exists()  # staging beside out then needs no more than creating out does
    stage = (out.parent if fresh else out) / f".{out.name}.{os.urandom(8).hex()}"  # a new name
    try:
        stage.mkdir(parents=fresh)  # the umask's mode, which out keeps if the stage becomes out
    except OSError as exc:
        raise ConfigError(f"cannot write to {out}: {exc}") from exc
    try:
        derived = _RUNNERS[config.experiment](config, built, stage)
        manifest = {"experiment": config.experiment, "seed": config.seed, "version": __version__,
                    "config": {k: config.parameters[k] for k in sorted(config.parameters)},
                    "derived": derived, "outputs": sorted(os.listdir(stage))}
        write_json(stage / "manifest.json", manifest)
        if fresh:
            os.rename(stage, out)  # the whole run appears in one step
        else:
            names = [*manifest["outputs"], "manifest.json"]  # os.replace puts no file over a directory
            if taken := [name for name in names if (out / name).is_dir() and not (out / name).is_symlink()]:
                raise ConfigError(f"cannot write to {out}: {', '.join(taken)} is a directory")
            for name in names:
                os.replace(stage / name, out / name)
    finally:
        shutil.rmtree(stage, ignore_errors=True)  # renamed away, emptied, or a failed run's
    if not quiet:
        print(f"{config.experiment}: wrote {', '.join(manifest['outputs'])} and manifest.json to {out}")
    return manifest


def default_threads(config: RunConfig) -> int:
    """--threads' default: the usable CPUs, at most one per seed pair of the run's ensemble (see
    stochastic.pair_seed) and as many as the memory budget allows; 1 for a run without one."""
    if "n_realizations" not in config.parameters:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    last = config.seed + config.parameters["n_realizations"] - 1
    for threads in range(min(cpus, (pair_seed(last) - pair_seed(config.seed)) // 2 + 1), 1, -1):
        try:
            _build(replace(config, threads=threads))
            return threads
        except (ValueError, ArithmeticError):  # over budget, or a config validate refuses at one thread too
            pass
    return 1


def main(argv=None) -> int:
    import argparse  # deferred, like json in _io: importing modesim.cli loads neither
    parser = argparse.ArgumentParser(
        prog="modesim",
        description="Run mode-entanglement simulation experiments from a config file.",
    )
    parser.add_argument("--config", required=True, help="path to a key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--threads", type=int, default=None, help="worker threads for ensembles (default: "
                        "the usable CPUs, at most one per seed pair and as many as the memory budget allows)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        config = replace(config, seed=config.seed if args.seed is None else args.seed)
        config = replace(config, threads=default_threads(config) if args.threads is None else args.threads)
        diagnostics = validate(config)
        for diag in diagnostics:
            if not args.quiet or diag.severity == "error":
                print(f"{diag.severity}: {diag.key}: {diag.message}", file=sys.stderr)
        if any(d.severity == "error" for d in diagnostics):
            return EXIT_CONFIG
        run(config, args.out, quiet=args.quiet)
    except ConfigError as exc:  # a ValueError, so caught before the numerical failures
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
