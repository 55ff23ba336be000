"""Every config that sets one or two numeric keys to extreme values ends in one of three ways.

Each numeric key of each experiment is set, alone on the defaults, to every value of its type
below, and so is each pair of numeric keys of one experiment.  The config then fails to parse
(ConfigError), or validate returns error diagnostics keyed by schema keys, or it validates
clean.  Nothing else may raise.  The single-key clean set is pinned, so a change in any such
config's exit code shows in this file's diff; CI runs each clean config under a 2 GiB
address-space limit and a 120 s timeout, with numpy warnings as errors.  The two-key sweep
pins each experiment's count of each outcome.
"""
import itertools
from collections import Counter

from modesim import cli
from modesim.cli import ConfigError, parse_config_text, validate

FLOAT_VALUES = ("0", "-1", "1e-300", "1e-9", "1e9", "1e300")
INT_VALUES = ("0", "1", "2", "1000000", "1000000000", "1000000000000000000")

# the configs that validate clean, each "<experiment> <key>=<value>"
CLEAN = [
    "modes core_width_um=1e-300", "modes core_width_um=1e-9", "modes n_clad=1e-300",
    "modes n_clad=1e-9", "modes wavelength_um=1e9", "modes wavelength_um=1e300",
    "modes grid_points=1000000", "rates sigma=0", "rates sigma=1e-300", "rates sigma=1e-9",
    "rates sigma=1e9", "rates corr_length_um=1e-300", "rates corr_length_um=1e-9",
    "rates corr_length_um=1e9", "rates corr_length_um=1e300", "rates k_ab_per_m=0",
    "rates k_ab_per_m=-1", "rates k_ab_per_m=1e-300", "rates k_ab_per_m=1e-9",
    "rates k_ab_per_m=1e9", "rates delta_beta_per_m=0", "rates delta_beta_per_m=-1",
    "rates delta_beta_per_m=1e-300", "rates delta_beta_per_m=1e-9", "rates delta_beta_per_m=1e9",
    "rates delta_beta_per_m=1e300", "decohere sigma=0", "decohere sigma=1e-300",
    "decohere sigma=1e-9", "decohere sigma=1e9", "decohere k_ab_per_m=0", "decohere k_ab_per_m=-1",
    "decohere k_ab_per_m=1e-300", "decohere k_ab_per_m=1e-9", "decohere k_ab_per_m=1e9",
    "decohere delta_beta_per_m=0", "decohere delta_beta_per_m=-1",
    "decohere delta_beta_per_m=1e-300", "decohere delta_beta_per_m=1e-9", "decohere n_lengths=2",
    "decohere n_realizations=1", "decohere n_realizations=2", "bell theta_points=1",
    "bell theta_points=2", "chsh-scan sigma=0", "chsh-scan sigma=1e-300", "chsh-scan sigma=1e-9",
    "chsh-scan sigma=1e9", "chsh-scan corr_length_um=1e-300", "chsh-scan corr_length_um=1e-9",
    "chsh-scan corr_length_um=1e9", "chsh-scan corr_length_um=1e300", "chsh-scan k_ab_per_m=0",
    "chsh-scan k_ab_per_m=-1", "chsh-scan k_ab_per_m=1e-300", "chsh-scan k_ab_per_m=1e-9",
    "chsh-scan k_ab_per_m=1e9", "chsh-scan delta_beta_per_m=0", "chsh-scan delta_beta_per_m=-1",
    "chsh-scan delta_beta_per_m=1e-300", "chsh-scan delta_beta_per_m=1e-9",
    "chsh-scan delta_beta_per_m=1e9", "chsh-scan delta_beta_per_m=1e300", "chsh-scan length_m=0",
    "chsh-scan length_m=1e-300", "chsh-scan length_m=1e-9", "chsh-scan length_m=1e9",
    "chsh-scan length_m=1e300", "delays n_clad=1e-300", "delays n_clad=1e-9", "delays sigma=0",
    "delays sigma=1e-300", "delays sigma=1e-9", "delays sigma=1e9", "delays corr_length_um=1e-300",
    "delays corr_length_um=1e-9", "delays corr_length_um=1e9", "delays corr_length_um=1e300",
    "delays k_ab_per_m=0", "delays k_ab_per_m=-1", "delays k_ab_per_m=1e-300",
    "delays k_ab_per_m=1e-9", "delays k_ab_per_m=1e9", "delays delta_beta_per_m=0",
    "delays delta_beta_per_m=-1", "delays delta_beta_per_m=1e-300", "delays delta_beta_per_m=1e-9",
    "delays delta_beta_per_m=1e9", "delays delta_beta_per_m=1e300", "delays length_max_m=1e-300",
    "delays length_max_m=1e-9", "delays length_max_m=1e9", "delays n_lengths=1",
    "delays n_lengths=2", "delays n_lengths=1000000", "fig2 phase_length_um=0",
    "fig2 phase_length_um=1e-300", "fig2 phase_length_um=1e-9", "fig2 branch_half_angle_deg=0",
    "fig2 lead_out_um=0", "fig2 lead_out_um=1e-300", "fig2 lead_out_um=1e-9",
    "bpm-run length_um=1e-300", "bpm-run length_um=1e-9", "bpm-run snapshot_every=1",
    "bpm-run snapshot_every=2", "bpm-run snapshot_every=1000000",
    "bpm-run snapshot_every=1000000000", "bpm-run snapshot_every=1000000000000000000",
]


def numeric_keys(schema: dict) -> list[tuple[str, tuple[str, ...]]]:
    """(key, swept values) of each numeric key of a schema, in schema order."""
    return [(key, INT_VALUES if isinstance(default, int) else FLOAT_VALUES)
            for key, (_, default) in schema.items() if isinstance(default, (int, float))]


# per experiment, the count of each outcome of the two-key sweep: 7776 configs, none of which raises
PAIR_OUTCOMES = {
    "modes": {"keyed": 512, "clean": 28},
    "rates": {"keyed": 83, "clean": 133},
    "decohere": {"keyed": 656, "clean": 100},
    "bell": {},
    "chsh-scan": {"parse": 180, "keyed": 137, "clean": 223},
    "delays": {"parse": 160, "keyed": 1153, "clean": 307},
    "fig2": {"parse": 144, "keyed": 2649, "clean": 15},
    "bpm-run": {"parse": 142, "keyed": 1136, "clean": 18},
}


def sweep():
    """(name, config text) of each swept config, in schema order."""
    for experiment, schema in cli._SCHEMAS.items():
        for key, values in numeric_keys(schema):
            for value in values:
                yield f"{experiment} {key}={value}", f"experiment={experiment}\n{key}={value}\n"


def pair_sweep():
    """(experiment, config text) of each config that sets two numeric keys of one experiment."""
    for experiment, schema in cli._SCHEMAS.items():
        for (key1, values1), (key2, values2) in itertools.combinations(numeric_keys(schema), 2):
            for value1, value2 in itertools.product(values1, values2):
                yield experiment, f"experiment={experiment}\n{key1}={value1}\n{key2}={value2}\n"


def outcome(text: str) -> str:
    """'parse', 'keyed' or 'clean'; an error keyed by a non-schema key fails the caller's assert."""
    try:
        config = parse_config_text(text)
    except ConfigError:
        return "parse"
    keys = {d.key for d in validate(config) if d.severity == "error"}
    assert keys <= set(cli._SCHEMAS[config.experiment]), keys
    return "keyed" if keys else "clean"


def test_every_swept_config_parses_fails_keyed_or_validates_clean():
    outcomes = {name: outcome(text) for name, text in sweep()}
    assert len(outcomes) == 336
    assert [name for name, result in outcomes.items() if result == "clean"] == CLEAN


def test_every_two_key_config_parses_fails_keyed_or_validates_clean():
    counts = {experiment: Counter() for experiment in cli._SCHEMAS}
    for experiment, text in pair_sweep():  # a config that raises out of validate fails the test
        counts[experiment][outcome(text)] += 1
    assert sum(count.total() for count in counts.values()) == 7776
    assert counts == PAIR_OUTCOMES
