"""Command-line interface.

Subcommands:

    classical analytic   closed-form total radial density -> CSV (r,density)
    classical mc         Monte Carlo density -> CSV (r_mid,density,count)
    quantum level        level structure report (text)
    quantum density      per-state / per-l mean / total density -> CSV
    compare              quantum totals vs the classical curve -> CSV report
    specfun eval         evaluate j_l, n_l, or a Bessel zero (text)

CSV files carry a header line, LF endings, and values formatted with 17
significant digits so output is byte-stable across runs; file writes go
through a temp file and an atomic rename.  Exit codes: 0 success,
1 usage/validation error, 2 numerical or I/O failure.
"""

import argparse
import math
import os
import sys
import tempfile

import numpy as np

from . import classical, quantum
from .numerics import DensityCurve, NumericalError, curve_distance, uniform_grid
from .specfun import sph_bessel_j, sph_bessel_n, sph_bessel_zero

__all__ = ["main", "run"]

THREADS_ENV_VAR = "SPHWELL_THREADS"

DEFAULT_GRID_POINTS = 1000
DEFAULT_SEED = 42
# The classical curve diverges at r = 1, so every classical or comparison
# grid stops at 0.99 by default; purely quantum densities reach the wall.
DEFAULT_R_MAX_CLASSICAL = 0.99
DEFAULT_R_MAX_QUANTUM = 1.0


class UsageError(Exception):
    """Bad flags or invalid parameter combination (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _threads(text):
    if text.upper() == "AUTO":
        return None
    return _positive_int(text)


def _resolve_threads(value):
    if value is not None:
        return value
    env = os.environ.get(THREADS_ENV_VAR)
    if env:
        try:
            n = int(env)
        except ValueError as exc:
            raise UsageError(f"{THREADS_ENV_VAR} must be an integer, got {env!r}") from exc
        if n < 1:
            raise UsageError(f"{THREADS_ENV_VAR} must be positive, got {n}")
        return n
    return min(4, os.cpu_count() or 1)


def _fmt(x):
    return format(float(x), ".17g")


def _write_text(path, text):
    """Write atomically: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)  # mkstemp defaults to 0600
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _emit_text(out, text):
    if out is None:
        sys.stdout.write(text)
    else:
        _write_text(out, text)


SVG_WIDTH, SVG_HEIGHT, SVG_MARGIN = 800, 600, 60
_SVG_COLORS = ("#1b6ca8", "#c23b22", "#2e8540", "#6f42c1", "#e8871e", "#444444")


def write_svg(path, curves, x_label="r", y_label="density"):
    """Minimal line plot: fixed 800x600 viewport, axes, one polyline per curve.

    ``curves`` is a list of (label, x array, y array).
    """
    xs = np.concatenate([np.asarray(c[1], float) for c in curves])
    ys = np.concatenate([np.asarray(c[2], float) for c in curves])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = min(0.0, float(ys.min())), float(ys.max())
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    inner_w = SVG_WIDTH - 2 * SVG_MARGIN
    inner_h = SVG_HEIGHT - 2 * SVG_MARGIN

    def px(x):
        return SVG_MARGIN + (x - x_lo) / (x_hi - x_lo) * inner_w

    def py(y):
        return SVG_HEIGHT - SVG_MARGIN - (y - y_lo) / (y_hi - y_lo) * inner_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{SVG_MARGIN}" y1="{SVG_HEIGHT - SVG_MARGIN}" x2="{SVG_WIDTH - SVG_MARGIN}" '
        f'y2="{SVG_HEIGHT - SVG_MARGIN}" stroke="black"/>',
        f'<line x1="{SVG_MARGIN}" y1="{SVG_MARGIN}" x2="{SVG_MARGIN}" '
        f'y2="{SVG_HEIGHT - SVG_MARGIN}" stroke="black"/>',
        f'<text x="{SVG_WIDTH // 2}" y="{SVG_HEIGHT - 15}" text-anchor="middle" '
        f'font-size="14">{x_label}</text>',
        f'<text x="18" y="{SVG_HEIGHT // 2}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {SVG_HEIGHT // 2})">{y_label}</text>',
        f'<text x="{SVG_MARGIN}" y="{SVG_HEIGHT - SVG_MARGIN + 20}" text-anchor="middle" '
        f'font-size="12">{x_lo:g}</text>',
        f'<text x="{SVG_WIDTH - SVG_MARGIN}" y="{SVG_HEIGHT - SVG_MARGIN + 20}" '
        f'text-anchor="middle" font-size="12">{x_hi:g}</text>',
        f'<text x="{SVG_MARGIN - 8}" y="{SVG_HEIGHT - SVG_MARGIN + 4}" text-anchor="end" '
        f'font-size="12">{y_lo:g}</text>',
        f'<text x="{SVG_MARGIN - 8}" y="{SVG_MARGIN + 4}" text-anchor="end" '
        f'font-size="12">{y_hi:g}</text>',
    ]
    for i, (label, x, y) in enumerate(curves):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{px(float(a)):.2f},{py(float(b)):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>')
        parts.append(
            f'<text x="{SVG_WIDTH - SVG_MARGIN - 6}" y="{SVG_MARGIN + 18 + 16 * i}" '
            f'text-anchor="end" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    _write_text(path, "\n".join(parts) + "\n")


def _require_out(args):
    if args.out is None:
        raise UsageError("--out is required for CSV output")
    return args.out


def cmd_classical_analytic(args):
    out = _require_out(args)
    grid = uniform_grid(args.r_max, args.grid_points)
    values = classical.classical_total_density(grid.points)
    _write_csv(out, ("r", "density"), zip(grid.points, values))
    if args.svg:
        write_svg(args.svg, [("classical", grid.points, values)])


def cmd_classical_mc(args):
    out = _require_out(args)
    config = classical.McConfig(
        mode=args.mode, samples=args.samples, bins=args.bins, seed=args.seed,
        r_max=args.r_max,
    )
    threads = _resolve_threads(args.threads)
    hist = classical.mc_histogram(config, threads=threads)
    curve = hist.to_density_curve()
    _write_csv(
        out,
        ("r_mid", "density", "count"),
        zip(curve.grid.points, curve.values, hist.counts),
    )
    if args.svg:
        write_svg(args.svg, [(f"mc {args.mode}", curve.grid.points, curve.values)])


def cmd_quantum_level(args):
    spec = quantum.level_spec(args.n)
    weights = ",".join(repr(float(w)) for w in spec.weights)
    text = (
        f"n = {spec.n}\n"
        f"k = {spec.k!r}  (units 1/a)\n"
        f"energy = {spec.energy!r}  (units hbar^2/(mu a^2))\n"
        f"l_max = {spec.l_max}\n"
        f"degeneracy = {spec.degeneracy}\n"
        f"weights = {weights}\n"
    )
    _emit_text(args.out, text)


def cmd_quantum_density(args):
    out = _require_out(args)
    if args.total == (args.l is not None):
        raise UsageError("give exactly one of --l or --total")
    if args.branch is not None and args.l is None:
        raise UsageError("--branch needs --l")
    grid = uniform_grid(args.r_max, args.grid_points)
    n = args.n
    try:
        if args.total:
            values = quantum.total_density_values(n, grid.points)
            mass = quantum.density_mass(lambda r: quantum.total_density_values(n, r),
                                        oscillations=2 * n)
            label = f"total n={n}"
        elif args.branch is not None:
            branch = "J" if args.branch == "B" else args.branch
            state = quantum.radial_state(n, args.l, branch=branch)
            values = quantum.state_density_values(state, grid.points)
            mass = quantum.density_mass(lambda r: quantum.state_density_values(state, r),
                                        oscillations=2 * n)
            label = f"n={n} l={args.l} {args.branch}"
        else:
            values = quantum.mean_density_values(n, args.l, grid.points)
            mass = quantum.density_mass(lambda r: quantum.mean_density_values(n, args.l, r),
                                        oscillations=2 * n)
            label = f"mean n={n} l={args.l}"
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if abs(mass - 1.0) > 1e-8:
        raise NumericalError(f"density mass {mass!r} deviates from 1 beyond 1e-8")
    _write_csv(out, ("r", "density"), zip(grid.points, values))
    if args.svg:
        write_svg(args.svg, [(label, grid.points, values)])


def _parse_n_list(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --n-list {text!r}: {exc}") from exc
    if not values:
        raise UsageError("--n-list must name at least one level")
    if any(n < 1 for n in values):
        raise UsageError("every level index must be >= 1")
    unique = list(dict.fromkeys(values))
    if len(unique) != len(values):
        print("warning: duplicate level indices in --n-list were dropped", file=sys.stderr)
    return unique


def cmd_compare(args):
    out = _require_out(args)
    n_list = _parse_n_list(args.n_list)
    grid = uniform_grid(args.r_max, args.grid_points)
    classical_curve = DensityCurve(grid, classical.classical_total_density(grid.points))
    stem, ext = os.path.splitext(out)
    ext = ext or ".csv"
    _write_csv(stem + "_classical" + ext, ("r", "density"),
               zip(grid.points, classical_curve.values))
    rows = []
    for n in n_list:
        spec = quantum.level_spec(n)
        curve = quantum.total_radial_density(n, grid)
        rows.append((n, spec.l_max, spec.degeneracy,
                     curve_distance(curve, classical_curve, "l1"),
                     curve_distance(curve, classical_curve, "sup")))
        _write_csv(stem + f"_n{n}" + ext, ("r", "density"), zip(grid.points, curve.values))
    _write_csv(out, ("n", "l_max", "degeneracy", "l1_distance", "sup_distance"), rows)
    headline = {"l1": 3, "sup": 4}[args.metric]
    for row in rows:
        print(f"n={row[0]}: {args.metric} distance {row[headline]!r}", file=sys.stderr)


def cmd_specfun_eval(args):
    if args.fn in ("j", "n"):
        if args.x is None:
            raise UsageError(f"--fn {args.fn} needs --x")
        if args.k is not None:
            raise UsageError(f"--fn {args.fn} does not take --k")
        try:
            if args.fn == "j":
                value = sph_bessel_j(args.l, args.x)
            else:
                value = sph_bessel_n(args.l, args.x)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:  # zero
        if args.k is None:
            raise UsageError("--fn zero needs --k")
        if args.x is not None:
            raise UsageError("--fn zero does not take --x")
        try:
            value = sph_bessel_zero(args.l, args.k)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    _emit_text(args.out, repr(value) + "\n")


def _add_common(parser, r_max, grid=True):
    parser.add_argument("--out", default=None, help="output file (required for CSV)")
    if grid:
        parser.add_argument("--grid-points", type=_positive_int, default=DEFAULT_GRID_POINTS)
        parser.add_argument("--r-max", type=float, default=r_max)


def build_parser():
    parser = _Parser(prog="sphwell", description=__doc__.splitlines()[0])
    top = parser.add_subparsers(dest="command", required=True)

    p_classical = top.add_parser("classical", help="classical densities")
    sub = p_classical.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("analytic", help="closed-form total density CSV")
    _add_common(p, DEFAULT_R_MAX_CLASSICAL)
    p.add_argument("--svg", default=None, help="also write an SVG line plot")
    p.set_defaults(func=cmd_classical_analytic)

    p = sub.add_parser("mc", help="Monte Carlo density CSV")
    p.add_argument("--mode", choices=classical.MC_MODES, default="paper")
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--bins", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--r-max", type=float, default=DEFAULT_R_MAX_CLASSICAL)
    p.add_argument("--threads", type=_threads, default=None,
                   help=f"worker threads (AUTO honors ${THREADS_ENV_VAR})")
    p.add_argument("--out", default=None)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_classical_mc)

    p_quantum = top.add_parser("quantum", help="level structure and densities")
    sub = p_quantum.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("level", help="level structure report")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_quantum_level)

    p = sub.add_parser("density", help="radial density CSV")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--total", action="store_true")
    p.add_argument("--branch", choices=("B", "N0", "H1", "H2"), default=None)
    _add_common(p, DEFAULT_R_MAX_QUANTUM)
    p.add_argument("--svg", default=None)
    p.set_defaults(func=cmd_quantum_density)

    p = top.add_parser("compare", help="quantum totals vs the classical curve")
    p.add_argument("--n-list", required=True, help="comma-separated level indices")
    p.add_argument("--metric", choices=("l1", "sup"), default="l1")
    _add_common(p, DEFAULT_R_MAX_CLASSICAL)
    p.set_defaults(func=cmd_compare)

    p = top.add_parser("specfun", help="special-function debugging surface")
    sub = p.add_subparsers(dest="subcommand", required=True)
    p = sub.add_parser("eval", help="evaluate j, n, or a zero")
    p.add_argument("--fn", choices=("j", "n", "zero"), required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_specfun_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NumericalError, OSError) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 2
    return 0


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
