"""Spherical special functions.

Stable evaluation of the spherical Bessel functions j_l and n_l, the
order-zero spherical Hankel functions, associated Legendre functions,
complex spherical harmonics, and positive zeros of j_l.

``sph_bessel_j_table`` is the only evaluator of j_l; the scalar
``sph_bessel_j``, ``sph_bessel_j_all`` and the zero finder all call it.
It fills every order 0 .. l_max at once and picks a regime per point:

* ascending power series (60 terms) for ``0 < x < 0.5``, with the
  prefactor x^l/(2l+1)!! carried in log space so deep-evanescent values
  underflow to zero instead of raising;
* upward recurrence from the closed forms of j_0, j_1 when ``x >= l_max``
  (stable while the order stays below the argument);
* Miller's downward recurrence otherwise: start at order
  ``l_max + max(20, ceil(sqrt(40 l_max)))``, seed with (0, 1), recur down,
  and renormalize against the closed form of j_0 (or j_1 when j_0 sits
  near a zero of sin).  The raw sweep is rescaled by 1e-280 whenever it
  grows past 1e+280 so it never overflows.

Deep evanescent values (l much larger than x) may underflow to exactly
zero; callers that sum densities can ignore them at grid resolution.

All computation is in binary64.
"""

import math

import numpy as np

from .numerics import NumericalError

__all__ = [
    "ORDER_CEILING",
    "sph_bessel_j",
    "sph_bessel_j_all",
    "sph_bessel_j_table",
    "sph_bessel_n",
    "sph_hankel0",
    "assoc_legendre",
    "sph_harmonic",
    "sph_bessel_zero",
]

# Largest supported order; recurrence cost and cache sizes are linear in l.
ORDER_CEILING = 100_000

_OVERFLOW_GUARD = 1e280
_RESCALE = 1e-280
_SERIES_TABLE_CUTOFF = 0.5
_SERIES_TERMS = 60


class ZeroBracketError(NumericalError):
    """Root refinement failed to converge (signals a bracketing bug)."""


def _check_order(l):
    if not isinstance(l, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {l!r}")
    if l < 0:
        raise ValueError(f"order must be non-negative, got {l}")
    if l > ORDER_CEILING:
        raise ValueError(f"order {l} exceeds the implementation ceiling {ORDER_CEILING}")
    return int(l)


def _check_argument(x):
    x = float(x)
    if math.isnan(x):
        raise ValueError("argument must not be NaN")
    if not math.isfinite(x):
        raise ValueError("argument must be finite")
    return x


def _ln_odd_double_factorial(l):
    # ln (2l+1)!! via (2l+1)!! = (2l+1)! / (2^l l!)
    return math.lgamma(2 * l + 2) - l * math.log(2.0) - math.lgamma(l + 1)


def sph_bessel_j(l, x):
    """Spherical Bessel function of the first kind, j_l(x).

    Parameters
    ----------
    l : int
        Order, ``0 <= l <= ORDER_CEILING``.
    x : float
        Argument, ``x >= 0``.

    Returns
    -------
    float
        j_l(x), row l of ``sph_bessel_j_table(l, [x])``: relative error
        below 1e-12 for l <= 5000, x <= 5000 away from the zeros of j_l.
        Values that fall below the binary64 range underflow to 0.0.  One
        point costs a whole sweep over orders 0 .. l (O(l) numpy steps),
        so evaluate many points with ``sph_bessel_j_table``.
    """
    l = _check_order(l)
    x = _check_argument(x)
    if x < 0:
        raise ValueError(f"argument must be non-negative, got {x}")
    return float(sph_bessel_j_table(l, np.array([x]))[l, 0])


def sph_bessel_j_all(l_max, x):
    """All orders j_0(x) .. j_{l_max}(x) in a single pass.

    Equivalent to ``[sph_bessel_j(l, x) for l in range(l_max + 1)]`` but
    O(l_max + sqrt(l_max)) work: one upward or one downward sweep.
    """
    l_max = _check_order(l_max)
    x = _check_argument(x)
    if x < 0:
        raise ValueError(f"argument must be non-negative, got {x}")
    return sph_bessel_j_table(l_max, np.array([x]))[:, 0]


def sph_bessel_j_table(l_max, x):
    """j_l(x_i) for every order ``l <= l_max`` and every point of a 1-D array.

    Returns an array of shape ``(l_max + 1, len(x))``; row l holds j_l.
    This is the batch evaluator behind the degeneracy-weighted density
    sums, vectorized across grid points.
    """
    l_max = _check_order(l_max)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-D array")
    if x.size and (np.isnan(x).any() or not np.isfinite(x).all()):
        raise ValueError("arguments must be finite and not NaN")
    if x.size and (x < 0).any():
        raise ValueError("arguments must be non-negative")

    out = np.zeros((l_max + 1, x.size))
    zero = x == 0.0
    out[0, zero] = 1.0

    small = (x > 0.0) & (x < _SERIES_TABLE_CUTOFF)
    if small.any():
        out[:, small] = _series_j_rows(l_max, x[small])

    up = (x >= _SERIES_TABLE_CUTOFF) & (x >= l_max)
    if up.any():
        out[:, up] = _upward_rows(l_max, x[up])

    down = (x >= _SERIES_TABLE_CUTOFF) & (x < l_max)
    if down.any():
        out[:, down] = _miller_rows(l_max, x[down])

    return out


def _series_j_rows(l_max, x):
    ls = np.arange(l_max + 1, dtype=float)[:, None]
    y = 0.5 * x * x
    term = np.ones((l_max + 1, x.size))
    total = np.ones_like(term)
    for k in range(1, _SERIES_TERMS + 1):
        term *= -y / (k * (2.0 * ls + 2.0 * k + 1.0))
        total += term
    ln_df = np.array([_ln_odd_double_factorial(l) for l in range(l_max + 1)])
    ln_pref = ls * np.log(x) - ln_df[:, None]
    with np.errstate(under="ignore"):
        return np.exp(ln_pref) * total


def _upward_rows(l_max, x):
    out = np.empty((l_max + 1, x.size))
    out[0] = np.sin(x) / x
    if l_max == 0:
        return out
    out[1] = out[0] / x - np.cos(x) / x
    for m in range(1, l_max):
        out[m + 1] = (2 * m + 1) / x * out[m] - out[m - 1]
    return out


def _miller_pad(l):
    return max(20, math.ceil(math.sqrt(40.0 * l)))


def _miller_rows(l_max, x):
    """Vectorized Miller sweep over columns of x.

    The raw sequence spans up to thousands of decades for small x, so the
    working pair is rescaled by 1e-280 at the 1e+280 guard and each column
    keeps an event counter; stored rows remember the count at store time
    and are rebuilt afterwards in a fixed number of passes (a row that is
    two events behind the final scale sits at the very bottom of the
    binary64 range; three or more behind is a true underflow to zero).
    """
    start = l_max + _miller_pad(l_max)
    out = np.zeros((l_max + 1, x.size))
    store_events = np.zeros((l_max + 1, x.size), dtype=np.int16)
    events = np.zeros(x.size, dtype=np.int16)
    j_up = np.zeros(x.size)
    j_cur = np.ones(x.size)
    raw_1 = np.zeros(x.size)
    events_1 = np.zeros(x.size, dtype=np.int16)
    with np.errstate(under="ignore", divide="ignore", invalid="ignore"):
        for m in range(start, 0, -1):
            j_up, j_cur = j_cur, (2 * m + 1) / x * j_cur - j_up
            big = np.abs(j_cur) > _OVERFLOW_GUARD
            if big.any():
                j_cur[big] *= _RESCALE
                j_up[big] *= _RESCALE
                events[big] += 1
            if m - 1 <= l_max:
                out[m - 1] = j_cur
                store_events[m - 1] = events
            if m - 1 == 1:
                raw_1 = j_cur.copy()
                events_1 = events.copy()
        raw_0 = j_cur
        j0 = np.sin(x) / x
        j1 = j0 / x - np.cos(x) / x
        # bring raw_1 to the final scale (at most one event separates it)
        raw_1 = np.where(events > events_1, raw_1 * _RESCALE, raw_1)
        scale = np.where(np.abs(j0) >= np.abs(j1), j0 / raw_0, j1 / raw_1)
        # out_final = raw * RESCALE^(events - store_events) * scale, ordered
        # so every intermediate stays inside the binary64 range
        behind = store_events
        np.subtract(events[None, :], behind, out=behind)
        out[behind >= 1] *= _RESCALE
        out *= scale
        out[behind >= 2] *= _RESCALE
        out[behind >= 3] = 0.0
        # rows 0 and 1 have exact closed forms; the swept values are only
        # envelope-accurate next to their zero crossings
        out[0] = j0
        if l_max >= 1:
            out[1] = j1
    return out


def sph_bessel_n(l, x):
    """Spherical Bessel function of the second kind (Neumann), n_l(x).

    ``x`` may be a float or ndarray; every element must be positive
    (n_l has a pole at the origin).  Computed by upward recurrence from
    n_0 = -cos(x)/x, which is stable because n_l dominates for growing l.
    Raises NumericalError when the value leaves the binary64 range
    (|n_l(x)| grows like (2l-1)!!/x^(l+1): l = 300 at x = 1, or l = 0
    below x = 5.6e-309).
    """
    l = _check_order(l)
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    if not np.isfinite(x).all():
        raise ValueError("argument must be finite and not NaN")
    if (x <= 0).any():
        raise ValueError("n_l(x) requires x > 0 (pole at x = 0)")
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        n_cur = -np.cos(x) / x
        if l >= 1:
            n_prev, n_cur = n_cur, n_cur / x - np.sin(x) / x
        for m in range(1, l):
            n_prev, n_cur = n_cur, (2 * m + 1) / x * n_cur - n_prev
    overflowed = ~np.isfinite(n_cur)
    if overflowed.any():
        raise NumericalError(
            "n_l(x) overflows binary64 in the upward recurrence "
            f"(l = {l}, first at x = {float(x[overflowed][0])!r})"
        )
    return float(n_cur) if scalar else n_cur


def sph_hankel0(kind, x):
    """Order-zero spherical Hankel function h0(x) of the first or second kind.

    ``h0^(1)(x) = -i e^{ix}/x`` and ``h0^(2)(x) = +i e^{-ix}/x``; both have
    modulus exactly 1/x up to rounding, which is what makes their radial
    densities constant.
    """
    if kind not in (1, 2):
        raise ValueError(f"kind must be 1 or 2, got {kind!r}")
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    if np.isnan(x).any():
        raise ValueError("argument must not be NaN")
    if (x <= 0).any():
        raise ValueError("h0(x) requires x > 0 (pole at x = 0)")
    if kind == 1:
        val = -1j * np.exp(1j * x) / x
    else:
        val = 1j * np.exp(-1j * x) / x
    return complex(val) if scalar else val


def assoc_legendre(l, m, u):
    """Associated Legendre function P_l^m(u) for m >= 0, WITHOUT the
    Condon-Shortley phase.

    The (-1)^((m+|m|)/2) phase belongs to the spherical-harmonic
    definition and is applied there, so ``assoc_legendre(1, 1, u)``
    is +sqrt(1-u^2).

    Uses the stable upward recurrence in l from the diagonal seed
    P_m^m = (2m-1)!! (1-u^2)^(m/2).
    """
    l = _check_order(l)
    if not isinstance(m, (int, np.integer)):
        raise ValueError(f"m must be an integer, got {m!r}")
    if m < 0 or m > l:
        raise ValueError(f"need 0 <= m <= l, got l={l}, m={m}")
    u = float(u)
    if not -1.0 <= u <= 1.0:
        raise ValueError(f"argument must lie in [-1, 1], got {u}")

    p_mm = 1.0
    if m > 0:
        s = math.sqrt((1.0 - u) * (1.0 + u))
        fact = 1.0
        for _ in range(m):
            p_mm *= fact * s
            fact += 2.0
    if l == m:
        return p_mm
    p_next = u * (2 * m + 1) * p_mm
    for ll in range(m + 2, l + 1):
        p_mm, p_next = p_next, ((2 * ll - 1) * u * p_next - (ll + m - 1) * p_mm) / (ll - m)
    return p_next


def sph_harmonic(l, m, theta, phi):
    """Complex spherical harmonic Y_l^m(theta, phi).

    Phase and normalization:

        Y_l^m = (-1)^((m+|m|)/2) sqrt((2l+1)/(4 pi) (l-|m|)!/(l+|m|)!)
                P_l^|m|(cos theta) e^{i m phi}

    with ``assoc_legendre`` carrying no Condon-Shortley phase, so the
    leading factor is (-1)^m for positive m and +1 otherwise.  This
    coincides with the usual quantum-mechanics convention.
    """
    l = _check_order(l)
    if not isinstance(m, (int, np.integer)):
        raise ValueError(f"m must be an integer, got {m!r}")
    if abs(m) > l:
        raise ValueError(f"need |m| <= l, got l={l}, m={m}")
    theta = float(theta)
    phi = float(phi)
    if not 0.0 <= theta <= math.pi:
        raise ValueError(f"theta must lie in [0, pi], got {theta}")
    if not 0.0 <= phi < 2.0 * math.pi:
        raise ValueError(f"phi must lie in [0, 2 pi), got {phi}")

    am = abs(m)
    phase = -1.0 if (m > 0 and m % 2 == 1) else 1.0
    ratio = 1.0  # (l-|m|)! / (l+|m|)!
    for j in range(l - am + 1, l + am + 1):
        ratio /= j
    norm = math.sqrt((2 * l + 1) / (4.0 * math.pi) * ratio)
    return phase * norm * assoc_legendre(l, am, math.cos(theta)) * complex(
        math.cos(m * phi), math.sin(m * phi)
    )


# Zero scan (see sph_bessel_zero): a cell holds at most one zero, and a
# window of cells bounds each table at (l+1) x (_SCAN_WINDOW+1) doubles.
_SCAN_CELL = 0.5 * math.pi
_SCAN_WINDOW = 64
_NEWTON_ITERATIONS = 100

# Per order l >= 1: (zeros found so far in ascending order, x where the scan stopped).
_zero_scan = {}


def _refine_zeros(l, lo, hi, f_lo, f_hi):
    """Zeros of j_l in the sign-change brackets [lo_i, hi_i], refined together.

    Starts from the chord through (lo, f_lo) and (hi, f_hi), then takes
    safeguarded Newton steps with j_l' = j_{l-1} - (l+1)/x j_l, both rows
    from one table call per step; a step that would leave the bracket is
    replaced by bisection.  A root stops once its step is at most 2 ulp.
    ``lo`` and ``hi`` are narrowed in place.
    """
    root = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    sign_lo = np.sign(f_lo)
    active = np.arange(root.size)
    for _ in range(_NEWTON_ITERATIONS):
        if active.size == 0:
            return root
        x = root[active]
        rows = sph_bessel_j_table(l, x)
        f = rows[l]
        same = np.sign(f) == sign_lo[active]
        lo[active] = np.where(same, x, lo[active])
        hi[active] = np.where(same, hi[active], x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / (rows[l - 1] - (l + 1) / x * f)
        new = x - step
        outside = ~((new >= lo[active]) & (new <= hi[active]))
        new = np.where(outside, 0.5 * (lo[active] + hi[active]), new)
        root[active] = new
        done = np.abs(new - x) <= 2.0 * np.spacing(x)
        active = active[~done]
    raise ZeroBracketError(
        f"zero refinement for j_{l} did not converge in {_NEWTON_ITERATIONS} steps "
        f"(brackets from x = {float(lo[active[0]])!r})"
    )


def _scan_window(l, start):
    """Zeros of j_l in (start, start + _SCAN_WINDOW cells], ascending.

    A grid point where j_l is exactly zero is a zero; the sign change
    across it is the same zero, so brackets join only adjacent points.
    """
    x = start + _SCAN_CELL * np.arange(_SCAN_WINDOW + 1)
    f = sph_bessel_j_table(l, x)[l]
    s = np.sign(f)
    exact = np.flatnonzero(s[1:] == 0) + 1
    left = np.flatnonzero(s[:-1] * s[1:] < 0)
    right = left + 1
    zeros = np.concatenate([x[exact], _refine_zeros(l, x[left], x[right], f[left], f[right])])
    return np.sort(zeros).tolist(), float(x[-1])


def sph_bessel_zero(l, k):
    """k-th positive zero of the spherical Bessel function j_l.

    Zeros of j_0 are exactly k*pi.  For l >= 1 the zeros lie above l + 1/2
    (DLMF 10.21(i)) and consecutive ones are more than pi apart (Watson,
    Treatise on the Theory of Bessel Functions, ch. XV), so a scan upward
    from x = l in cells of width pi/2 finds each zero as exactly one sign
    change, always in the table's upward regime.  The scan runs in windows
    of 64 cells; each window's brackets are refined together by
    safeguarded Newton steps.  Zeros found so far and the point where the
    scan stopped are cached per order, so a larger k resumes the scan.
    """
    l = _check_order(l)
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ValueError(f"zero index k must be a positive integer, got {k!r}")
    k = int(k)
    if l == 0:
        return k * math.pi
    zeros, stop = _zero_scan.get(l, ([], float(l)))
    while len(zeros) < k:
        found, stop = _scan_window(l, stop)
        zeros = zeros + found
        _zero_scan[l] = (zeros, stop)
    return zeros[k - 1]
