"""Classical radial statistics of a particle bouncing inside a hard sphere.

Everything is dimensionless: the sphere radius a = 1, the speed v = 1,
time in units of a/v.  Between bounces the particle flies along a chord,
``r(t) = sqrt(t^2 + sigma^2)`` where the impact parameter ``sigma`` is the
perpendicular distance from the center to the chord (sigma = L / (mu v a),
the dimensionless angular momentum).

Two ensemble weightings over sigma are provided, because they disagree:

* ``paper``:   sigma-density 2*sigma.  This is the solid-angle weight
  sigma*sqrt(1-sigma^2) divided by the chord period sqrt(1-sigma^2) (the
  short-chord trajectories bounce more often and are up-weighted by the
  number of rounds they complete).  The radial density it induces is the
  closed form ``r * ln((1+r)/(1-r))``.
* ``liouville``: sigma-density 3*sigma*sqrt(1-sigma^2), the
  time-stationary billiard ensemble (positions uniform in the ball,
  directions isotropic).  It induces the uniform-ball radial density
  ``3 r^2``.

The Monte Carlo sampler draws (sigma, t) directly from the chord
parametrization instead of simulating reflections bounce by bounce; the
two are equivalent and the direct draw has no discretization error.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .numerics import Histogram, accumulate_histogram, integrate, seeded_rng

__all__ = [
    "MC_MODES",
    "MC_BLOCK",
    "McConfig",
    "p_sigma",
    "p_sigma_mass",
    "angular_momentum_weight",
    "classical_total_density",
    "classical_total_density_by_quadrature",
    "classical_density_mass",
    "liouville_total_density",
    "draw_chords",
    "mc_histogram",
    "mc_radial_density",
]

MC_MODES = ("paper", "liouville")

# Samples per RNG stream; sharding is by fixed blocks so the histogram is
# identical no matter how many threads consume them.
MC_BLOCK = 1_000_000


def _check_sigma(sigma):
    sigma = float(sigma)
    if not 0.0 <= sigma < 1.0:
        raise ValueError(f"impact parameter must lie in [0, 1), got {sigma}")
    return sigma


def p_sigma(r, sigma):
    """Radial density of a single chord ensemble at impact parameter sigma.

        P_sigma(r) = r / (sqrt(1 - sigma^2) sqrt(r^2 - sigma^2))  for r >= sigma
                     0                                            for r <  sigma

    ``r`` may be a float or ndarray in [0, 1].  The density has an
    integrable singularity at r = sigma; evaluation within 1e-15 of it is
    rejected, so grids must avoid the turning point.
    """
    sigma = _check_sigma(sigma)
    scalar = np.isscalar(r)
    r = np.atleast_1d(np.asarray(r, dtype=float))
    if (r < 0).any() or (r > 1).any():
        raise ValueError("r must lie in [0, 1]")
    if (np.abs(r - sigma) < 1e-15).any():
        raise ValueError(f"r within 1e-15 of the turning point sigma = {sigma}")
    out = np.zeros_like(r)
    above = r > sigma
    out[above] = r[above] / (
        math.sqrt(1.0 - sigma * sigma) * np.sqrt(r[above] ** 2 - sigma * sigma)
    )
    return float(out[0]) if scalar else out


def p_sigma_mass(sigma, tol=1e-9):
    """Quadrature check that P_sigma integrates to 1 over [sigma, 1].

    Substituting r = sigma*cosh(u) removes the turning-point singularity
    exactly, leaving a smooth integrand.
    """
    sigma = _check_sigma(sigma)
    if sigma == 0.0:
        return integrate(lambda r: np.ones_like(r), 0.0, 1.0, tol)
    u_max = math.acosh(1.0 / sigma)
    pref = sigma / math.sqrt(1.0 - sigma * sigma)

    def integrand(u):
        return pref * np.cosh(u)

    return integrate(integrand, 0.0, u_max, tol)


def angular_momentum_weight(sigma):
    """Normalized solid-angle weight 3*sigma*sqrt(1-sigma^2) on [0, 1)."""
    scalar = np.isscalar(sigma)
    s = np.asarray(sigma, dtype=float)
    if (s < 0).any() or (s >= 1).any():
        raise ValueError("impact parameter must lie in [0, 1)")
    w = 3.0 * s * np.sqrt(1.0 - s * s)
    return float(w) if scalar else w


def classical_total_density(r):
    """Bounce-weighted total radial density, r * ln((1+r)/(1-r)).

    Strictly increasing on [0, 1) and divergent (logarithmically) at the
    boundary; r = 1 is a domain error.
    """
    scalar = np.isscalar(r)
    r = np.asarray(r, dtype=float)
    if (r < 0).any() or (r >= 1).any():
        raise ValueError("r must lie in [0, 1); the density diverges at r = 1")
    out = r * (np.log1p(r) - np.log1p(-r))
    return float(out) if scalar else out


def classical_total_density_by_quadrature(r, tol=1e-10):
    """The sigma-average 2 * int_0^r P_sigma(r) sigma dsigma, by quadrature.

    The substitution sigma = r*sin(phi) removes the 1/sqrt(r^2 - sigma^2)
    endpoint singularity, giving

        2 r^2 int_0^{pi/2} sin(phi) / sqrt(1 - r^2 sin^2(phi)) dphi.

    Agrees with the closed form within max(tol, 1e-10).
    """
    r = float(r)
    if not 0.0 < r < 1.0:
        raise ValueError(f"r must lie in (0, 1), got {r}")

    def integrand(phi):
        s = np.sin(phi)
        return 2.0 * r * r * s / np.sqrt(1.0 - (r * s) ** 2)

    return integrate(integrand, 0.0, 0.5 * math.pi, tol)


def classical_density_mass(tol=1e-9):
    """int_0^1 of the closed-form total density; equals 1 analytically.

    The logarithmic singularity at r = 1 is handled by splitting at 1/2
    and substituting r = 1 - e^{-u} on the tail, which maps the integrable
    log blow-up onto an exponentially damped smooth integrand.
    """
    head = integrate(lambda r: classical_total_density(r), 0.0, 0.5, 0.5 * tol)
    u_hi = -math.log(1e-12)  # integrate the tail up to r = 1 - 1e-12

    def tail(u):
        e = np.exp(-u)
        return classical_total_density(1.0 - e) * e

    return head + integrate(tail, math.log(2.0), u_hi, 0.5 * tol)


def liouville_total_density(r):
    """Radial density 3 r^2 of the uniform-ball (Liouville) ensemble."""
    scalar = np.isscalar(r)
    r = np.asarray(r, dtype=float)
    if (r < 0).any() or (r > 1).any():
        raise ValueError("r must lie in [0, 1]")
    out = 3.0 * r * r
    return float(out) if scalar else out


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run configuration; the histogram spans [0, r_max]."""

    mode: str
    samples: int
    bins: int
    seed: int
    r_max: float = 0.99

    def __post_init__(self):
        if self.mode not in MC_MODES:
            raise ValueError(f"mode must be one of {MC_MODES}, got {self.mode!r}")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.bins < 1:
            raise ValueError("need at least one bin")
        if not 0.0 < self.r_max <= 1.0:
            raise ValueError("r_max must lie in (0, 1]")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def draw_chords(rng, count, mode):
    """Draw (sigma, t, r) arrays for one block.

    sigma comes from the mode's weight by inverse-transform sampling
    (``paper``: density 2 sigma, so sigma = sqrt(u); ``liouville``:
    density 3 sigma sqrt(1-sigma^2), so sigma = sqrt(1 - (1-u)^(2/3))),
    then t is uniform on [0, sqrt(1-sigma^2)], half the chord by symmetry.
    """
    if mode not in MC_MODES:
        raise ValueError(f"mode must be one of {MC_MODES}, got {mode!r}")
    u = rng.random(count)
    if mode == "paper":
        sigma = np.sqrt(u)
    else:
        sigma = np.sqrt(1.0 - (1.0 - u) ** (2.0 / 3.0))
    t = rng.random(count) * np.sqrt(1.0 - sigma * sigma)
    r = np.sqrt(t * t + sigma * sigma)
    return sigma, t, r


def _block_counts(config, edges, block, count):
    rng = seeded_rng(config.seed, stream=block)
    _, _, r = draw_chords(rng, count, config.mode)
    return accumulate_histogram(r, edges).counts


def mc_histogram(config, threads=1):
    """Histogram of chord radii under the configured weighting.

    Samples are drawn in fixed blocks of ``MC_BLOCK``, block i from RNG
    stream i of the seed, and the per-block counts are summed in block
    order.  The result therefore depends only on
    (seed, samples, bins, mode, r_max), never on the thread count.
    """
    edges = np.linspace(0.0, config.r_max, config.bins + 1)
    blocks = []
    remaining = config.samples
    index = 0
    while remaining > 0:
        take = min(MC_BLOCK, remaining)
        blocks.append((index, take))
        remaining -= take
        index += 1
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            counts_list = list(
                pool.map(lambda bc: _block_counts(config, edges, bc[0], bc[1]), blocks)
            )
    else:
        counts_list = [_block_counts(config, edges, b, c) for b, c in blocks]
    counts = np.sum(np.stack(counts_list), axis=0)
    return Histogram(edges, counts, float(config.samples))


def mc_radial_density(config, threads=1):
    """Monte Carlo density estimate at the bin midpoints."""
    return mc_histogram(config, threads=threads).to_density_curve()
