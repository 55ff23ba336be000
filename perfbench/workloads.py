"""Workload definitions: the CLI configs each workload runs and its stated work.

This module imports nothing outside the standard library, so a setup probe
can load it before it starts timing ``import modesim``.

Every config spells out all of its keys, defaults included, so a change to a
CLI default cannot shrink a workload unnoticed.
"""
from __future__ import annotations

#: Monte Carlo base seed of ``decohere_long``: acceptance criterion 05's seed.
#: The criterion-05 rules are statistical tests; at the realization count that
#: fits one run, the fitted-gamma rule failed for 13 of 30 seeds even
#: for a correct program, so the ensemble is fixed and ``--seed`` does not move
#: it.  Per-realization cost does not depend on the seed.
DECOHERE_SEED = 9000
DECOHERE_REALIZATIONS = 100
DECOHERE_STEPS = 65_536  # round(0.8192 m / 12.5 um); dz = D/8 resolves the beat
FIG2_STEPS = 2_813  # ceil((1130 + 10 / tan(0.4 deg) + 250) um / 1 um)
FIG2_DELTA_N = (0.0, 1.0e-4, 2.1e-4)
NX = 2_048
STRAIGHT_STEPS = 2_001  # ceil(1000 um / 0.5 um), and the quotient is 2000.0000000000002
SNAPSHOT_EVERY = 16
RASTER_ROWS = 127  # the launch, steps 16, 32, ..., 2000, then the last step, 2001
CHSH_GRID_N = 48
CHSH_STATES = ("phi_plus", "product")

_NOISE = """\
sigma=0.05
corr_length_um=100.0
k_ab_per_m=500.0
delta_beta_per_m=20000.0
"""

_SLAB = """\
core_width_um=8.0
n_core=1.50
n_clad=1.49
wavelength_um=1.55
"""

WORKLOADS = ("decohere_long", "bpm_splitter", "bpm_straight", "chsh_grid")


def configs(workload: str, seed: int) -> dict[str, str]:
    """Config texts of one pass, keyed by output subdirectory name."""
    if workload == "decohere_long":
        return {"decohere": (
            "experiment=decohere\n" + _NOISE
            + f"length_max_m=0.8192\nn_lengths=20\nn_realizations={DECOHERE_REALIZATIONS}\n"
            + f"seed={DECOHERE_SEED}\n")}
    if workload == "bpm_splitter":
        return {"fig2": (
            "experiment=fig2\n" + _SLAB
            + "delta_n_list=" + ";".join(repr(d) for d in FIG2_DELTA_N) + "\n"
            + "phase_length_um=1000.0\nstem_length_um=1130.0\nbranch_half_angle_deg=0.4\n"
            + "branch_separation_um=24.0\nbranch_core_width_um=4.0\nwindow_um=64.0\n"
            + f"nx={NX}\ndz_um=1.0\nlead_out_um=250.0\nseed={seed}\n")}
    if workload == "bpm_straight":
        return {"bpm": (
            "experiment=bpm-run\n" + _SLAB
            + "launch=plus\nlength_um=1000.0\nwindow_um=96.0\n"
            + f"nx={NX}\ndz_um=0.5\nsnapshot_every={SNAPSHOT_EVERY}\nseed={seed}\n")}
    if workload == "chsh_grid":
        return {state: (
            "experiment=chsh-scan\n" + _NOISE
            + f"state={state}\ngrid_n={CHSH_GRID_N}\nlength_m=2.0\nseed={seed}\n")
            for state in CHSH_STATES}
    raise KeyError(workload)


def stated_work(workload: str) -> dict[str, int]:
    """Exact work of one pass; a pass that does other work fails."""
    work = {"realizations": 0, "steps": 0, "cells": 0, "settings": 0}
    if workload == "decohere_long":
        work["realizations"] = DECOHERE_REALIZATIONS
        work["steps"] = DECOHERE_REALIZATIONS * DECOHERE_STEPS
    elif workload == "bpm_splitter":
        work["cells"] = len(FIG2_DELTA_N) * NX * FIG2_STEPS
    elif workload == "bpm_straight":
        work["cells"] = NX * STRAIGHT_STEPS
        work["raster_bytes"] = 32 + 8 * NX * RASTER_ROWS  # header, then float64 rows
    elif workload == "chsh_grid":
        work["settings"] = len(CHSH_STATES) * CHSH_GRID_N ** 4
    else:
        raise KeyError(workload)
    return work


#: The end-to-end rate of each workload: (name printed, work key, scale, unit).
RATE = {
    "decohere_long": ("mc_realizations_per_s", "realizations", 1.0, "1/s"),
    "bpm_splitter": ("bpm_mcells_per_s", "cells", 1e-6, "Mcells/s"),
    "bpm_straight": ("bpm_mcells_per_s", "cells", 1e-6, "Mcells/s"),
    "chsh_grid": ("chsh_msettings_per_s", "settings", 1e-6, "Msettings/s"),
}
