"""Level structure and radial probability densities of the hard spherical box.

Units are dimensionless throughout: well radius a = 1, hbar = 1, particle
mass mu = 1; energies are reported in units of hbar^2/(mu a^2).

Level n has wavenumber k_n = n*pi and energy (n*pi)^2 / 2.  Every orbital
quantum number l with ``l(l+1) <= (n*pi)^2`` is allowed at that energy, so
the level is degenerate: two l = 0 states (the regular and the irregular
order-zero radial solutions, or equivalently the two order-zero Hankel
combinations) plus 2l+1 states for each l >= 1, for a total of
``(l_max+1)^2 + 1`` orthonormal states.  The level's total radial density
weights each l by its share of that count.

Radial branches of a state (n, l):

* ``J``  (any allowed l): density  A^2 j_l(n pi r)^2 r^2
* ``N0`` (l = 0 only):    density  A^2 n_0(n pi r)^2 r^2, finite at the
  origin because r^2 cancels the pole
* ``H1``/``H2`` (l = 0):  the Hankel combinations, density identically 1

The conventional textbook solution, kept for contrast, pins the
wavenumber to a zero of j_l so its density vanishes at the wall.
"""

import math
from dataclasses import dataclass

import numpy as np

from .numerics import DensityCurve, NumericalError, integrate, integrate_composite
from .specfun import sph_bessel_j_all, sph_bessel_zero, weighted_square_sum

__all__ = [
    "WELL_RADIUS",
    "HBAR",
    "MASS",
    "BRANCHES",
    "LevelSpec",
    "StateLabel",
    "RadialState",
    "allowed_l_max",
    "level_spec",
    "normalization_constant_sq",
    "normalization_constants_sq_all",
    "radial_state",
    "state_density_values",
    "state_radial_density",
    "mean_density_values",
    "mean_radial_density",
    "total_density_values",
    "total_radial_density",
    "density_mass",
    "centrifugal_expectation",
    "conventional_density_values",
    "conventional_radial_density",
]

# Dimensionless unit convention; energies are in units of HBAR^2/(MASS * WELL_RADIUS^2).
WELL_RADIUS = 1.0
HBAR = 1.0
MASS = 1.0

BRANCHES = ("J", "N0", "H1", "H2")

def _j_squared(l, x):
    """j_l(x)^2 over a 1-D array, streamed: no table of lower orders is kept."""
    c = np.zeros(l + 1)
    c[l] = 1.0
    return weighted_square_sum(l, x, c)


def _check_n(n):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"level index n must be a positive integer, got {n!r}")
    return int(n)


def allowed_l_max(n):
    """Largest l with l(l+1) <= (n*pi)^2.

    The closed form floor((-1 + sqrt(1 + 4 (n pi)^2)) / 2) is polished by
    direct integer comparison so a floating-point sliver at the boundary
    cannot shift the answer.
    """
    n = _check_n(n)
    bound = (n * math.pi) ** 2
    l = int((-1.0 + math.sqrt(1.0 + 4.0 * bound)) / 2.0)
    while (l + 1) * (l + 2) <= bound:
        l += 1
    while l > 0 and l * (l + 1) > bound:
        l -= 1
    return l


@dataclass(frozen=True)
class LevelSpec:
    """Energy level n: wavenumber, energy, allowed l range, degeneracy weights."""

    n: int
    k: float
    energy: float
    l_max: int
    weights: np.ndarray
    degeneracy: int

    def __post_init__(self):
        if self.weights.shape != (self.l_max + 1,):
            raise ValueError("need one weight per allowed l")


def level_spec(n):
    """Degeneracy structure of level n.

    Weight 2/D for l = 0 (two independent radial solutions) and
    (2l+1)/D for l >= 1, with D = (l_max+1)^2 + 1 the state count.
    """
    n = _check_n(n)
    l_max = allowed_l_max(n)
    degeneracy = (l_max + 1) ** 2 + 1
    weights = np.array(
        [2.0 / degeneracy] + [(2 * l + 1) / degeneracy for l in range(1, l_max + 1)]
    )
    k = n * math.pi
    return LevelSpec(n=n, k=k, energy=0.5 * k * k, l_max=l_max, weights=weights,
                     degeneracy=degeneracy)


def _check_l_allowed(n, l, l_max=None):
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise ValueError(f"l must be a non-negative integer, got {l!r}")
    if l_max is None:
        l_max = allowed_l_max(n)
    if l > l_max:
        raise ValueError(f"l = {l} is not allowed at level n = {n} (l_max = {l_max})")
    return int(l)


def normalization_constant_sq(n, l, check=False, check_tol=1e-9):
    """Squared normalization constant A^2 of the j_l branch of level n.

    Closed form (a = 1):

        A^2 = 2 n^2 pi^2                                        for l = 0
        A^2 = 2 / (j_l(n pi)^2 - j_{l-1}(n pi) j_{l+1}(n pi))   for l >= 1

    from the standard Bessel normalization integral
    int_0^1 j_l(k r)^2 r^2 dr = (j_l(k)^2 - j_{l-1}(k) j_{l+1}(k)) / 2.
    With ``check=True`` the closed form is verified against adaptive
    quadrature of that integral and a disagreement beyond ``check_tol``
    relative raises NumericalError (it would signal a Bessel bug); the
    check is off by default because it dominates the cost for large n.
    """
    n = _check_n(n)
    l = _check_l_allowed(n, l)
    k = n * math.pi
    if l == 0:
        a2 = 2.0 * k * k
    else:
        jl = sph_bessel_j_all(l + 1, k)
        denom = jl[l] ** 2 - jl[l - 1] * jl[l + 1]
        a2 = 2.0 / denom
    if check:
        quad = _norm_integral_quadrature(n, l)
        a2_quad = 1.0 / quad
        if abs(a2 - a2_quad) > check_tol * a2:
            raise NumericalError(
                f"normalization closed form {a2!r} and quadrature {a2_quad!r} "
                f"disagree for n={n}, l={l}"
            )
    return a2


def _norm_integral_quadrature(n, l, tol=1e-12):
    k = n * math.pi

    def integrand(r):
        return _j_squared(l, k * r) * r * r

    return integrate(integrand, 0.0, 1.0, tol)


_a2_cache = {}


def normalization_constants_sq_all(n):
    """A^2 for every allowed l of level n, one Bessel sweep at x = n pi.

    Cached per n (the density quadratures hit this on every panel);
    the returned array is read-only.
    """
    n = _check_n(n)
    cached = _a2_cache.get(n)
    if cached is not None:
        return cached
    l_max = allowed_l_max(n)
    k = n * math.pi
    jl = sph_bessel_j_all(l_max + 1, k)
    a2 = np.empty(l_max + 1)
    a2[0] = 2.0 * k * k
    if l_max >= 1:
        ls = np.arange(1, l_max + 1)
        a2[1:] = 2.0 / (jl[ls] ** 2 - jl[ls - 1] * jl[ls + 1])
    a2.setflags(write=False)
    _a2_cache[n] = a2
    return a2


@dataclass(frozen=True)
class StateLabel:
    """One eigenstate of level n: orbital numbers (l, m) and radial branch."""

    n: int
    l: int
    m: int
    branch: str

    def __post_init__(self):
        _check_n(self.n)
        if self.branch not in BRANCHES:
            raise ValueError(f"branch must be one of {BRANCHES}, got {self.branch!r}")
        if abs(self.m) > self.l:
            raise ValueError(f"need |m| <= l, got l={self.l}, m={self.m}")
        if self.branch != "J" and (self.l != 0 or self.m != 0):
            raise ValueError(f"branch {self.branch} exists only for l = 0, m = 0")
        _check_l_allowed(self.n, self.l)


@dataclass(frozen=True)
class RadialState:
    """A labelled eigenstate together with its squared normalization constant."""

    label: StateLabel
    norm_const_sq: float


def radial_state(n, l, m=0, branch="J"):
    """Build a RadialState with its normalization constant (units 1/a^3)."""
    label = StateLabel(n=int(n), l=int(l), m=int(m), branch=branch)
    k = label.n * math.pi
    if branch == "J":
        a2 = normalization_constant_sq(label.n, label.l)
    elif branch == "N0":
        a2 = 2.0 * k * k
    else:  # H1 / H2
        a2 = k * k
    return RadialState(label=label, norm_const_sq=a2)


def state_density_values(state, r):
    """Radial probability density of one eigenstate at radii ``r`` (ndarray)."""
    r = np.asarray(r, dtype=float)
    if (r < 0).any() or (r > 1).any():
        raise ValueError("radii must lie in [0, 1]")
    n, l, branch = state.label.n, state.label.l, state.label.branch
    a2 = state.norm_const_sq
    k = n * math.pi
    x = k * r
    if branch == "J":
        return a2 * _j_squared(l, x) * r * r
    if branch == "N0":
        # n_0(x)^2 r^2 = cos(x)^2 / k^2: r^2 cancels the pole, and n_0^2 alone
        # would overflow while r^2 underflows at tiny r
        return a2 * np.cos(x) ** 2 / (k * k)
    # H1/H2: |h0(x)|^2 = 1/x^2, so a2 |h0|^2 r^2 = a2/k^2 = 1
    return np.ones_like(r)


def state_radial_density(state, grid):
    """DensityCurve of one eigenstate on a RadialGrid."""
    return DensityCurve(grid, state_density_values(state, grid.points))


def mean_density_values(n, l, r):
    """Mean density over the states of one l at level n, at radii ``r``.

    For l >= 1 this is the J-branch density (independent of m).  For
    l = 0 it is the equal-weight average of the regular and irregular
    branches, which collapses to 1 by sin^2 + cos^2; the average of the
    two Hankel densities is the same constant, so the result does not
    depend on which l = 0 basis is used.
    """
    n = _check_n(n)
    l = _check_l_allowed(n, l)
    r = np.asarray(r, dtype=float)
    if l >= 1:
        return state_density_values(radial_state(n, l), r)
    b = state_density_values(radial_state(n, 0, branch="J"), r)
    nn = state_density_values(radial_state(n, 0, branch="N0"), r)
    return 0.5 * (b + nn)


def mean_radial_density(n, l, grid):
    """DensityCurve of the l-mean density on a RadialGrid."""
    return DensityCurve(grid, mean_density_values(n, l, grid.points))


def total_density_values(n, r):
    """Degeneracy-weighted total radial density of level n at radii ``r``.

    The l = 0 pair averages to the constant 1; the orders l >= 1 are one
    ``weighted_square_sum`` with c_l = w_l A_l^2, accumulated in the
    Bessel sweep in sweep order (descending l in Miller's regime), so
    memory is O(len(r)) at any level and no result depends on a parallel
    schedule.
    """
    spec = level_spec(n)
    r = np.asarray(r, dtype=float)
    if (r < 0).any() or (r > 1).any():
        raise ValueError("radii must lie in [0, 1]")
    total = spec.weights[0] * mean_density_values(n, 0, r)
    if spec.l_max >= 1:
        c = spec.weights * normalization_constants_sq_all(n)
        c[0] = 0.0
        total += weighted_square_sum(spec.l_max, spec.k * r, c) * (r * r)
    return total


def total_radial_density(n, grid):
    """DensityCurve of the level-n total density on a RadialGrid."""
    return DensityCurve(grid, total_density_values(n, grid.points))


def density_mass(values_fn, tol=1e-10, oscillations=None):
    """Quadrature of a vectorized density over [0, 1].

    Adaptive by default.  A caller that knows the density's band limit
    passes ``oscillations``, the number of half-periods its top frequency
    makes on [0, 1] (2n for the level-n densities).  That switches to one
    batched composite GL15 call with max(8, ceil(oscillations / 4))
    panels, i.e. ceil(n/2) at level n, so the batch Bessel sweep runs once
    per slab instead of once per adaptive panel.

    The panel count follows from the bandwidth.  j_l(kr) =
    (1/2)(-i)^l int_{-1}^{1} e^{ikrt} P_l(t) dt is band-limited to
    k = n pi, so every level-n density (J states, N0 = cos^2(kr)/k^2 up to
    its constant, the l-means, the weighted total) is a degree-2
    polynomial in r times a function band-limited to 2k = oscillations pi.
    A panel of width h maps to [-1, 1] with top frequency omega = k h,
    which ceil(n/2) panels hold to omega <= 2 pi.  GL15 integrates
    cos(omega x) over [-1, 1] to 2.5e-16 at omega = 6 and to 7.7e-15 at
    omega = 8, so the rule is accurate to rounding with margin; at
    omega = 3 pi (n/3 panels) it is only good to ~1e-12 per panel.
    """
    if oscillations is None:
        return integrate(values_fn, 0.0, 1.0, tol)
    return integrate_composite(values_fn, 0.0, 1.0, max(8, math.ceil(int(oscillations) / 4)))


def centrifugal_expectation(n, l, tol=1e-10):
    """Expectation of the centrifugal term l(l+1)/(2 r^2) in state (n, l, J).

    Equals (l(l+1)/2) A^2 int_0^1 j_l(n pi r)^2 dr (units hbar^2/(mu a^2)),
    bounded below by l(l+1)/2 since r <= 1.  With chi(r) = A r j_l(k r),
    k = n pi, the radial equation integrated by parts against chi gives

        <centrifugal> = E - T + B,   T = int_0^1 chi'(r)^2 dr / 2 >= 0,
        B = chi(1) chi'(1) / 2 = A^2 j_l(k) (k j_{l-1}(k) - l j_l(k)) / 2,

    so the expectation is bounded above by E + B, not by the level energy
    E = (n pi)^2/2 alone.  These states do not vanish at the wall, so B
    survives; where it outweighs T the expectation exceeds E (first case:
    n = 10, l = 30, B = 69.54 against T = 57.47).
    """
    n = _check_n(n)
    l = _check_l_allowed(n, l)
    if l < 1:
        raise ValueError("the centrifugal term vanishes for l = 0")
    a2 = normalization_constant_sq(n, l)
    k = n * math.pi

    def integrand(r):
        return _j_squared(l, k * r)

    return 0.5 * l * (l + 1) * a2 * integrate(integrand, 0.0, 1.0, tol)


def conventional_density_values(n_r, l, r):
    """Density of the textbook state (n_r, l): wavenumber at the n_r-th zero of j_l.

    C^2 j_l(beta r)^2 r^2 with beta = sph_bessel_zero(l, n_r) and
    C^2 = 2 / j_{l+1}(beta)^2 fixing unit mass (the usual normalization at
    a zero of j_l, where j_{l-1} = -j_{l+1}).  Vanishes at r = 1 by
    construction.
    """
    n_r = _check_n(n_r)
    if not isinstance(l, (int, np.integer)) or l < 0:
        raise ValueError(f"l must be a non-negative integer, got {l!r}")
    r = np.asarray(r, dtype=float)
    if (r < 0).any() or (r > 1).any():
        raise ValueError("radii must lie in [0, 1]")
    beta = sph_bessel_zero(l, n_r)
    c2 = 2.0 / sph_bessel_j_all(l + 1, beta)[l + 1] ** 2
    return c2 * _j_squared(int(l), beta * r) * r * r


def conventional_radial_density(n_r, l, grid):
    """DensityCurve of the textbook (n_r, l) state on a RadialGrid."""
    return DensityCurve(grid, conventional_density_values(n_r, l, grid.points))
