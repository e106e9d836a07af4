"""Spherical special functions.

Stable evaluation of the spherical Bessel functions j_l and n_l, the
order-zero spherical Hankel functions, associated Legendre functions,
complex spherical harmonics, and positive zeros of j_l.

Every value of j_l comes from the ascending series below x = 0.5 or from
one recurrence sweep (``_sweep``) above it.  The sweep hands each order's
row to a consumer: ``sph_bessel_j_table`` stores the rows, for
the few-point callers (``sph_bessel_j``, ``sph_bessel_j_all`` and the
zero finder); ``weighted_square_sum`` adds c_l j_l^2 as each row appears,
so the density sums over a grid need O(len(x)) memory at any order.  The
regime is picked per point:

* ascending power series (60 terms) for ``0 < x < 0.5``, with the
  prefactor x^l/(2l+1)!! carried in log space so deep-evanescent values
  underflow to zero instead of raising; rows stop where every point
  underflows;
* upward recurrence from the closed forms of j_0, j_1 when ``x >= l_max``
  (stable while the order stays below the argument);
* Miller's downward recurrence otherwise: start at order
  ``l_max + max(20, ceil(sqrt(40 l_max)))``, seed with (0, 1), recur down,
  and renormalize against the closed form of j_0 (or j_1 when j_0 sits
  near a zero of sin).  The working pair is scaled by 2^-450 whenever it
  passes 2^450, so neither it nor its square ever overflows.

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
    "weighted_square_sum",
    "sph_bessel_n",
    "sph_hankel0",
    "assoc_legendre",
    "sph_harmonic",
    "sph_bessel_zero",
]

# Largest supported order; recurrence cost and cache sizes are linear in l.
ORDER_CEILING = 100_000

# A sweep rescales its working pair by an exact power of two; squares of the
# pair stay below 2^900, so a sum of squares can be carried along.
_GUARD_EXP = 450
_GUARD = 2.0**_GUARD_EXP
_RESCALE = 2.0**-_GUARD_EXP
_RESCALE_SQUARED = 2.0 ** (-2 * _GUARD_EXP)
_SERIES_TABLE_CUTOFF = 0.5
_SERIES_TERMS = 60
# exp() of anything below this is 0.0: the smallest subnormal is e^-744.4
_LN_UNDERFLOW = -746.0


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


def _check_sweep_args(l_max, x):
    l_max = _check_order(l_max)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-D array")
    if x.size and (np.isnan(x).any() or not np.isfinite(x).all()):
        raise ValueError("arguments must be finite and not NaN")
    if x.size and (x < 0).any():
        raise ValueError("arguments must be non-negative")
    return l_max, x


def _regimes(l_max, x):
    """Masks of the points at x = 0, in the series, upward and Miller regimes."""
    swept = x >= _SERIES_TABLE_CUTOFF
    return x == 0.0, (x > 0.0) & ~swept, swept & (x >= l_max), swept & (x < l_max)


def sph_bessel_j_table(l_max, x):
    """j_l(x_i) for every order ``l <= l_max`` and every point of a 1-D array.

    Returns an array of shape ``(l_max + 1, len(x))``; row l holds j_l.
    It serves callers that need signed values at a few points
    (``sph_bessel_j``, ``sph_bessel_j_all``, the zero scan).  Sums of
    squares over a grid go through ``weighted_square_sum``, which runs the
    same sweep without storing its rows.
    """
    l_max, x = _check_sweep_args(l_max, x)
    out = np.zeros((l_max + 1, x.size))
    zero, small, up, down = _regimes(l_max, x)
    out[0, zero] = 1.0
    if small.any():
        rows = _series_rows(l_max, x[small])
        out[: len(rows), small] = rows
    for mask, upward in ((up, True), (down, False)):
        if mask.any():
            out[:, mask] = _table_rows(l_max, x[mask], upward)
    return out


def weighted_square_sum(l_max, x, c):
    """Sum over l = 0 .. l_max of c_l j_l(x_i)^2, for every point of a 1-D array.

    ``c`` holds one finite coefficient per order.  Each term is added in
    the sweep step that produces j_l, so memory is O(len(x)) whatever
    ``l_max`` is; the values agree with ``c @ sph_bessel_j_table(l_max,
    x) ** 2`` to rounding.  ``c`` is scaled by a power of two to below 1
    for the sweep and back afterwards, so no finite ``c`` overflows it.
    """
    l_max, x = _check_sweep_args(l_max, x)
    c = np.asarray(c, dtype=float)
    if c.shape != (l_max + 1,) or not np.isfinite(c).all():
        raise ValueError(f"need one finite coefficient per order 0 .. {l_max}")
    _, exponent = math.frexp(float(np.abs(c).max()))
    c = np.ldexp(c, -exponent)
    out = np.zeros(x.size)
    zero, small, up, down = _regimes(l_max, x)
    out[zero] = c[0]
    if small.any():
        rows = _series_rows(l_max, x[small])
        out[small] = c[: len(rows)] @ (rows * rows)
    for mask, upward in ((up, True), (down, False)):
        if mask.any():
            out[mask] = _square_sum(l_max, x[mask], c, upward)
    return np.ldexp(out, exponent)


def _series_rows(l_max, x):
    """Table rows 0 .. top at points 0 < x < 0.5 from the ascending series.

    The prefactor x^l/(2l+1)!! is carried in log space and falls with l,
    so the rows stop at the first order where it underflows to zero at
    the largest point; every higher row is zero at every point.
    """
    log_top = math.log(float(x.max()))
    ln_df = []
    for l in range(l_max + 1):
        value = _ln_odd_double_factorial(l)
        if l * log_top - value < _LN_UNDERFLOW:
            break
        ln_df.append(value)
    ls = np.arange(len(ln_df), dtype=float)[:, None]
    y = 0.5 * x * x
    term = np.ones((ls.size, x.size))
    total = np.ones_like(term)
    for k in range(1, _SERIES_TERMS + 1):
        term *= -y / (k * (2.0 * ls + 2.0 * k + 1.0))
        total += term
    ln_pref = ls * np.log(x) - np.array(ln_df)[:, None]
    with np.errstate(under="ignore"):
        return np.exp(ln_pref) * total


def _miller_pad(l):
    return max(20, math.ceil(math.sqrt(40.0 * l)))


def _sweep(l_max, x, visit, upward):
    """The recurrence behind every j_l at points x >= 0.5; rows go to ``visit``.

    Upward (every x >= l_max): from the closed forms of j_0 and j_1, stable
    while the order stays below the argument.  Otherwise Miller: seed
    (0, 1) at order ``l_max + _miller_pad(l_max)`` and recur down to 0.
    The raw sequence can span thousands of decades, so a column whose
    working pair passes 2^450 has both values scaled by 2^-450, exactly.

    Calls ``visit(l, raw, rescaled)`` once per order l <= l_max, in sweep
    order; ``rescaled`` is the mask of columns scaled at this step, or
    None.  Returns ``(j0, j1, scale)``: the closed forms, and the Miller
    normalization (None upward).  With e the column's rescale events after
    ``visit(l)``, j_l = raw * scale * 2^(-450 e).  ``scale`` matches the
    raw row 0 to j_0, or row 1 to j_1 where j_0 is the smaller (near a zero
    of sin); rows 0 and 1 are then only envelope-accurate, so consumers
    take j0 and j1 from the closed forms.
    """
    j0 = np.sin(x) / x
    j1 = j0 / x - np.cos(x) / x
    if upward:
        visit(0, j0, None)
        if l_max >= 1:
            visit(1, j1, None)
        lo, hi, orders, step = j0, j1, range(1, l_max), 1
    else:
        lo, hi = np.zeros(x.size), np.ones(x.size)
        orders, step = range(l_max + _miller_pad(l_max), 0, -1), -1
    for m in orders:
        lo, hi = hi, (2 * m + 1) / x * hi - lo
        rescaled = None
        if not upward:
            big = np.abs(hi) > _GUARD
            if big.any():
                rescaled = big
                hi[big] *= _RESCALE
                lo[big] *= _RESCALE
        if m + step <= l_max:
            visit(m + step, hi, rescaled)
    if upward:
        return j0, j1, None
    use0 = np.abs(j0) >= np.abs(j1)
    return j0, j1, np.where(use0, j0, j1) / np.where(use0, hi, lo)


def _table_rows(l_max, x, upward):
    """Rows 0 .. l_max at points of one sweep regime.

    A Miller row still owes 2^-450 for each rescale event of its column
    after it was stored; ``ldexp`` pays that in one rounding, so rows far
    behind underflow to exactly zero.
    """
    out = np.empty((l_max + 1, x.size))
    if upward:
        def keep(l, raw, rescaled):
            out[l] = raw
    else:
        events = np.zeros(x.size, dtype=np.int16)
        stored = np.empty(out.shape, dtype=np.int16)

        def keep(l, raw, rescaled):
            if rescaled is not None:
                events[rescaled] += 1
            out[l] = raw
            stored[l] = events

    j0, j1, scale = _sweep(l_max, x, keep, upward)
    if scale is not None:
        owed = (events - stored).astype(np.int32) * -_GUARD_EXP
        out = np.ldexp(out * scale, owed)
    out[0] = j0
    if l_max >= 1:
        out[1] = j1
    return out


def _square_sum(l_max, x, c, upward):
    """Sum of c_l j_l^2, |c_l| < 1, at points of one sweep regime.

    In Miller's sweep the accumulator holds squares of raw rows (each below
    2^900): it is scaled by 2^-900 wherever the working pair is scaled by
    2^-450, and by the normalization twice at the end.
    """
    acc = np.zeros(x.size)

    def add(l, raw, rescaled):
        if rescaled is not None:
            acc[rescaled] *= _RESCALE_SQUARED
        if l >= 2 and c[l] != 0.0:
            acc[:] += c[l] * (raw * raw)

    j0, j1, scale = _sweep(l_max, x, add, upward)
    if scale is not None:
        acc *= scale
        acc *= scale
    acc += c[0] * (j0 * j0)
    if l_max >= 1:
        acc += c[1] * (j1 * j1)
    return acc


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
