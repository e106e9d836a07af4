"""The four benchmark workloads: inputs drawn from the seed, work counts, output checks.

Each workload object makes the child argv of its i-th command from a
``random.Random`` keyed by (workload, seed), so the same seed gives the
same inputs.  ``check`` runs after the command, outside the timed
interval, against oracles that share no code with sphwell: scipy's
``spherical_jn``, ``mpmath.besseljzero`` and the closed-form CDF of the
paper's classical density.  A check raises ``CheckFailed``.
"""

import hashlib
import math
import os
import random
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from child import TEXTBOOK_GRID, TEXTBOOK_STATES

# SHA-256 of the ``mc`` CSV written for MC_DEFAULT_SEED.  The Philox block
# contract says these bytes never change, whatever the thread count.
MC_DEFAULT_SEED = 42
MC_DIGEST = "15cac76f36f9d00d8bf0cc556c497b07c335106dff7d432bb820366e462e4fd3"
MC_SAMPLES = 30_000_000
MC_BINS = 100
MC_SIGMAS = 5.0  # per-bin tolerance around N * (F(e_i+1) - F(e_i))

SPOT_RTOL = 1e-10  # scipy oracle vs CSV value, relative
L1_CLAIM = 2.5e-4  # the paper: L1 gap at n = 1000 on [0, 0.99] is below this


class CheckFailed(Exception):
    pass


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


@dataclass
class Command:
    argv: list  # arguments of perfbench/child.py
    inputs: dict
    out_dir: str
    work: float = 0.0


def allowed_l_max(n):
    """Largest l with l(l+1) <= (n pi)^2."""
    bound = (n * math.pi) ** 2
    l = int((-1.0 + math.sqrt(1.0 + 4.0 * bound)) / 2.0)
    while (l + 1) * (l + 2) <= bound:
        l += 1
    while l > 0 and l * (l + 1) > bound:
        l -= 1
    return l


def total_density_oracle(n, radii):
    """Degeneracy-weighted total density of level n from scipy and the closed-form A^2.

    The l = 0 pair (regular and irregular branch) averages to the constant
    density 1, so it contributes its weight 2/D alone.
    """
    from scipy.special import spherical_jn

    k = n * math.pi
    l_max = allowed_l_max(n)
    degeneracy = (l_max + 1) ** 2 + 1
    ls = np.arange(l_max + 2)
    jk = spherical_jn(ls, k)
    a2 = 2.0 / (jk[1:-1] ** 2 - jk[:-2] * jk[2:])
    weights = (2.0 * ls[1:-1] + 1.0) / degeneracy
    return np.array([
        2.0 / degeneracy + math.fsum(weights * a2 * spherical_jn(ls[1:-1], k * r) ** 2 * r * r)
        for r in radii
    ])


def read_csv(path, header):
    with open(path) as handle:
        first = handle.readline().rstrip("\n")
    require(first == header, f"{os.path.basename(path)}: header {first!r}, expected {header!r}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    require(np.isfinite(data).all(), f"{os.path.basename(path)}: non-finite values")
    return data


def check_density_curve(path, n, points, r_max, spot_index):
    """Rows, finiteness, sign, the r = 0 value 2/D and scipy spot values of a level-n total."""
    data = read_csv(path, "r,density")
    name = os.path.basename(path)
    require(data.shape == (points, 2), f"{name}: {data.shape[0]} rows, expected {points}")
    r, v = data[:, 0], data[:, 1]
    require(r[0] == 0.0 and r[-1] == r_max, f"{name}: grid spans [{r[0]}, {r[-1]}]")
    require((v >= 0).all(), f"{name}: negative density")
    degeneracy = (allowed_l_max(n) + 1) ** 2 + 1
    require(abs(v[0] - 2.0 / degeneracy) <= 1e-14 * v[0],
            f"{name}: density at r = 0 is {float(v[0])!r}, expected 2/D = {2.0 / degeneracy!r}")
    expected = total_density_oracle(n, r[spot_index])
    err = np.abs(v[spot_index] - expected) / expected
    require((err <= SPOT_RTOL).all(),
            f"{name}: scipy spot check off by {err.max():.3e} (tolerance {SPOT_RTOL})")
    return r, v


def sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


class Workload:
    name = ""
    why = ""
    threads = 1
    strata = 1  # commands per cycle of draw()

    def __init__(self, seed):
        self.seed = seed
        self.rng = random.Random(f"perfbench/{self.name}/{seed}")
        self.order = []

    def draw(self, index, lo, hi):
        """Level index from [lo, hi] for command ``index``, stratified.

        Each cycle of ``strata`` consecutive commands visits every one of
        ``strata`` equal sub-bands once, in a seeded order.  run.py runs
        whole cycles only, so every run times the same mix of sub-bands
        and its median does not depend on where the draws fell.
        """
        strata = self.strata
        if index % strata == 0:
            self.order = self.rng.sample(range(strata), strata)
        width = (hi - lo + 1) / strata
        part = self.order[index % strata]
        return self.rng.randint(lo + int(part * width), lo + int((part + 1) * width) - 1)

    def command(self, index, out_dir):
        raise NotImplementedError

    def check(self, cmd):
        raise NotImplementedError


class LevelTotal(Workload):
    name = "level_total"
    why = ("the paper's headline level n~1000: j-table, weighted l-sum and, "
           "for ~90% of the time, the 60k-node mass-check quadrature")
    grid = 1000
    strata = 2

    def command(self, index, out_dir):
        n = self.draw(index, 990, 1010)
        spots = sorted(self.rng.sample(range(self.grid), 3))
        argv = ["cli", "quantum", "density", "--total", "--n", str(n),
                "--out", os.path.join(out_dir, "total.csv"),
                "--svg", os.path.join(out_dir, "total.svg")]
        return Command(argv, {"n": n, "spot_index": spots}, out_dir,
                       work=self.grid * (allowed_l_max(n) + 1))

    def check(self, cmd):
        check_density_curve(os.path.join(cmd.out_dir, "total.csv"), cmd.inputs["n"],
                            self.grid, 1.0, cmd.inputs["spot_index"])
        with open(os.path.join(cmd.out_dir, "total.svg")) as handle:
            svg = handle.read()
        require(svg.startswith("<svg") and svg.endswith("</svg>\n") and "<polyline" in svg,
                "total.svg is not a complete plot")


class Convergence(Workload):
    name = "convergence"
    why = ("the paper's convergence table extended to n~3000: j-table sweep and l-sum "
           "with no quadrature, so it bypasses mass-check changes")
    grid = 4000
    r_max = 0.99
    fixed = (1, 10, 100, 1000)
    strata = 2

    def __init__(self, seed):
        super().__init__(seed)
        self.fixed_bytes = None  # curve files of the fixed levels, same in every command

    def command(self, index, out_dir):
        top = self.draw(index, 2900, 3100)
        levels = self.fixed + (top,)
        spots = {"top": self.rng.randrange(self.grid),
                 "fixed": sorted(self.rng.sample(range(self.grid), 2))}
        argv = ["cli", "compare", "--n-list", ",".join(map(str, levels)),
                "--grid-points", str(self.grid), "--out", os.path.join(out_dir, "compare.csv")]
        work = self.grid * sum(allowed_l_max(n) + 1 for n in levels)
        return Command(argv, {"n": top, "spot_index": spots}, out_dir, work=work)

    def check(self, cmd):
        top = cmd.inputs["n"]
        levels = self.fixed + (top,)

        def path(suffix):
            return os.path.join(cmd.out_dir, f"compare{suffix}.csv")

        report = read_csv(path(""), "n,l_max,degeneracy,l1_distance,sup_distance")
        require(report[:, 0].tolist() == list(levels), f"report levels {report[:, 0].tolist()}")
        l_max = [allowed_l_max(n) for n in levels]
        require(report[:, 1].tolist() == l_max, "report l_max column is wrong")
        require(report[:, 2].tolist() == [(l + 1) ** 2 + 1 for l in l_max],
                "report degeneracy column is wrong")
        l1 = dict(zip(levels, report[:, 3]))
        require(l1[1000] < L1_CLAIM, f"L1 gap at n = 1000 is {l1[1000]!r}, claim is < {L1_CLAIM}")
        require(l1[top] < l1[1000], f"L1 gap at n = {top} ({l1[top]!r}) not below n = 1000")

        classical = read_csv(path("_classical"), "r,density")
        r = classical[:, 0]
        require(classical.shape == (self.grid, 2) and r[-1] == self.r_max,
                "classical curve has the wrong grid")
        closed = 2.0 * r * np.arctanh(r)
        require(np.allclose(classical[:, 1], closed, rtol=1e-13, atol=0.0),
                "classical curve differs from r ln((1+r)/(1-r))")
        fixed = {n: sha256(path(f"_n{n}")) for n in self.fixed}
        if self.fixed_bytes is None:
            for n in self.fixed:
                check_density_curve(path(f"_n{n}"), n, self.grid, self.r_max,
                                    cmd.inputs["spot_index"]["fixed"])
            self.fixed_bytes = fixed
        require(fixed == self.fixed_bytes, "fixed-level curves differ between commands")
        _, top_values = check_density_curve(path(f"_n{top}"), top, self.grid, self.r_max,
                                            [cmd.inputs["spot_index"]["top"]])
        gap = np.trapezoid(np.abs(top_values - classical[:, 1]), r)
        require(abs(gap - l1[top]) <= 1e-12 * gap,
                f"reported L1 gap {l1[top]!r} disagrees with the curves ({gap!r})")


def paper_cdf(r):
    """Exact CDF of the paper density r ln((1+r)/(1-r)) on [0, 1)."""
    return r + 0.5 * (r * r - 1.0) * np.log((1.0 + r) / (1.0 - r))


class MonteCarlo(Workload):
    name = "mc"
    why = ("chord sampling only (classical + numerics RNG and histogram), no Bessel or "
           "quadrature code; time splits between draw_chords and accumulate_histogram")

    def __init__(self, seed):
        super().__init__(seed)
        self.threads = max(1, min(2, len(os.sched_getaffinity(0))))
        self.bytes_by_seed = {MC_DEFAULT_SEED: MC_DIGEST}

    def command(self, index, out_dir, threads=None):
        # The first command uses the default seed, whose bytes are pinned by MC_DIGEST.
        seed = MC_DEFAULT_SEED if index == 0 else self.seed
        threads = self.threads if threads is None else threads
        argv = ["cli", "classical", "mc", "--mode", "paper", "--samples", str(MC_SAMPLES),
                "--bins", str(MC_BINS), "--threads", str(threads), "--seed", str(seed),
                "--out", os.path.join(out_dir, "mc.csv")]
        return Command(argv, {"mc_seed": seed, "threads": threads}, out_dir, work=MC_SAMPLES)

    def check(self, cmd):
        path = os.path.join(cmd.out_dir, "mc.csv")
        data = read_csv(path, "r_mid,density,count")
        require(data.shape == (MC_BINS, 3), f"mc.csv has {data.shape[0]} rows")
        edges = np.linspace(0.0, 0.99, MC_BINS + 1)
        require(np.allclose(data[:, 0], 0.5 * (edges[:-1] + edges[1:]), rtol=1e-15, atol=0.0),
                "bin midpoints are wrong")
        counts = data[:, 2]
        require((counts >= 0).all() and (counts == np.round(counts)).all(), "bad counts")
        p = np.diff(paper_cdf(edges))
        expected = MC_SAMPLES * p
        sigma = np.sqrt(MC_SAMPLES * p * (1.0 - p))
        z = np.abs(counts - expected) / sigma
        require(z.max() <= MC_SIGMAS,
                f"bin {int(z.argmax())} is {z.max():.2f} sigma from the closed form")
        digest = sha256(path)
        seed = cmd.inputs["mc_seed"]
        pinned = self.bytes_by_seed.setdefault(seed, digest)
        require(digest == pinned, f"mc.csv for seed {seed} has SHA-256 {digest}, expected "
                f"{pinned} ({'pinned' if seed == MC_DEFAULT_SEED else 'earlier command'})")


@lru_cache(maxsize=None)
def zero_counts(n):
    """Number of zeros of j_l below n*pi for l = 0, 1, ... until the first l with none.

    Counts sign changes of scipy's spherical_jn on a pi/16 grid; zeros of
    j_l for l >= 1 lie more than pi apart, so no cell holds two.
    """
    from scipy.special import spherical_jn

    x = np.arange(1, 16 * n) * (math.pi / 16)
    x = np.append(x, n * math.pi * (1.0 - 1e-12))
    counts = []
    while True:
        s = np.sign(spherical_jn(len(counts), x))
        s = s[s != 0]
        counts.append(int(np.count_nonzero(s[1:] != s[:-1])))
        if counts[-1] == 0:
            return counts


class Textbook(Workload):
    name = "textbook"
    why = ("the library's scalar sph_bessel_j path: every zero of j_l below n*pi, "
           "n in [30, 34], then the 50 lowest textbook densities")
    states = TEXTBOOK_STATES
    grid = TEXTBOOK_GRID
    strata = 5

    def command(self, index, out_dir):
        n = self.draw(index, 30, 34)
        return Command(["textbook", str(n), out_dir], {
            "n": n,
            "mpmath_sample": [self.rng.random() for _ in range(4)],
            "spots": [(self.rng.randrange(self.states), self.rng.randrange(self.grid))
                      for _ in range(10)],
        }, out_dir, work=sum(zero_counts(n)))

    def check(self, cmd):
        import mpmath
        from scipy.special import spherical_jn

        n = cmd.inputs["n"]
        with open(os.path.join(cmd.out_dir, "zeros.txt")) as handle:
            rows = [line.split() for line in handle]
        ls = np.array([int(r[0]) for r in rows])
        ks = np.array([int(r[1]) for r in rows])
        zs = np.array([float(r[2]) for r in rows])
        counts = zero_counts(n)
        require(np.bincount(ls, minlength=len(counts)).tolist() == counts,
                f"zeros per order differ from scipy's sign-change count {counts}")
        same_l = np.r_[False, ls[1:] == ls[:-1]]
        require((np.diff(ls) >= 0).all() and (ks == np.where(same_l, np.r_[0, ks[:-1]] + 1, 1)).all(),
                "zeros are not listed in ascending (l, k) order from (0, 1)")
        require((zs > 0).all() and (zs < n * math.pi).all(), "zero outside (0, n pi)")
        below = np.sign(spherical_jn(ls, zs * (1.0 - 1e-8)))
        above = np.sign(spherical_jn(ls, zs * (1.0 + 1e-8)))
        bad = np.flatnonzero(below * above != -1)
        require(bad.size == 0, f"j_l keeps its sign across {bad.size} zeros"
                + (f", first (l, k) = ({ls[bad[0]]}, {ks[bad[0]]})" if bad.size else ""))
        mpmath.mp.dps = 30
        for u in cmd.inputs["mpmath_sample"]:
            i = int(u * zs.size)
            ref = float(mpmath.besseljzero(ls[i] + mpmath.mpf(1) / 2, int(ks[i])))
            require(abs(zs[i] - ref) <= 1e-12 * ref,
                    f"zero ({ls[i]}, {ks[i]}) = {zs[i]!r}, mpmath {ref!r}")

        densities = np.load(os.path.join(cmd.out_dir, "densities.npy"))
        require(densities.shape == (self.states, self.grid), f"densities {densities.shape}")
        require(np.isfinite(densities).all() and (densities >= 0).all(),
                "densities not finite and non-negative")
        peak = densities.max(axis=1)
        require((densities[:, -1] <= 1e-12 * peak).all(), "a textbook density misses r = 1 zero")
        lowest = np.argsort(zs, kind="stable")[: self.states]
        r = np.linspace(0.0, 1.0, self.grid)
        for state, j in cmd.inputs["spots"]:
            i = lowest[state]
            beta = zs[i]
            c2 = 2.0 / spherical_jn(ls[i] + 1, beta) ** 2
            ref = c2 * spherical_jn(ls[i], beta * r[j]) ** 2 * r[j] ** 2
            require(abs(densities[state, j] - ref) <= SPOT_RTOL * peak[state],
                    f"density of ({ls[i]}, {ks[i]}) at r = {r[j]!r} off scipy's {ref!r}")


WORKLOADS = {w.name: w for w in (LevelTotal, Convergence, MonteCarlo, Textbook)}
