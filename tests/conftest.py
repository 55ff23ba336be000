import numpy as np
import pytest

from modesim import bpm
from modesim.bpm import Field, Grid, RIMap, propagate
from modesim.stochastic import PerturbationModel
from modesim.waveguide import SlabSpec


@pytest.fixture
def default_slab() -> SlabSpec:
    """The dual-mode design guide: exactly TE0 and TE1 at 1.55 um."""
    return SlabSpec(core_width=8e-6, n_core=1.50, n_clad=1.49, wavelength=1.55e-6)


@pytest.fixture
def default_model() -> PerturbationModel:
    return PerturbationModel(sigma=0.05, corr_length=100e-6, k_ab=500.0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)


def snapshot_steps(nz: int, every: int) -> list[int]:
    """The steps at which propagate records a raster row: the launch, every `every`-th, the last."""
    return [0, *range(every, nz - 1, every), nz - 1]


def snapshot_march(field, ri_map, grid, wavelength, snapshot_every=1) -> list[Field]:
    """The field at each of propagate's snapshot steps, with the exact _power and z, marched by
    propagate over chained sub-grids Grid(x_min, dx, nx, dz, k + 1), each taking the k + 1 row keys
    from one snapshot step to the next.  A step's matrix depends only on its two rows, so the chain
    is bit for bit one long march."""
    steps = snapshot_steps(grid.nz, snapshot_every)
    snapshots = [Field(field.values, 0.0, bpm._power(field.values, grid.dx))]
    for begin, end in zip(steps, steps[1:]):
        sub = Grid(grid.x_min, grid.dx, grid.nx, grid.dz, end - begin + 1)
        keys = RIMap(ri_map.keys[begin:end + 1], ri_map.n_clad, ri_map.reference_n0)
        final, _ = propagate(snapshots[-1], keys, sub, wavelength, snapshot_every=end - begin)
        snapshots.append(Field(final.values, grid.dz * end, final.power))
    return snapshots
