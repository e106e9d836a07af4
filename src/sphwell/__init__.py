"""sphwell: classical and quantum radial densities of a hard spherical box.

A particle confined to a sphere of radius a has a classical radial
statistics problem (chords, impact parameters, bounce weighting) and a
quantum one (degenerate levels at k_n = n pi / a).  This package computes
both families of radial probability densities and quantifies how the
degeneracy-weighted quantum totals approach the classical curve as the
level index grows.

Modules
-------
specfun    spherical Bessel/Neumann/Hankel functions, associated Legendre
           functions, spherical harmonics, Bessel zeros
numerics   grids, density curves, quadrature, distances, seeded RNG,
           histograms
classical  closed-form chord densities and the Monte Carlo sampler
quantum    level structure, per-state and degeneracy-weighted densities
cli        command-line interface emitting reproducible CSV and SVG
"""

import importlib

from . import classical, numerics, quantum, specfun
from .classical import (
    McConfig,
    classical_total_density,
    mc_radial_density,
    p_sigma,
)
from .numerics import (
    DensityCurve,
    Histogram,
    NumericalError,
    RadialGrid,
    curve_distance,
    integrate,
    midpoint_grid,
    seeded_rng,
    uniform_grid,
)
from .quantum import (
    LevelSpec,
    allowed_l_max,
    level_spec,
    mean_radial_density,
    total_radial_density,
)
from .specfun import (
    sph_bessel_j,
    sph_bessel_j_all,
    sph_bessel_n,
    sph_bessel_zero,
    sph_harmonic,
)

__version__ = "0.1.0"


def __getattr__(name):
    # ``cli`` loads on first use, so ``python -m sphwell.cli`` finds it unloaded
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module 'sphwell' has no attribute {name!r}")
