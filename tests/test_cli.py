import math
import os
import subprocess
import sys

import numpy as np
import pytest

import sphwell
from sphwell import cli
from sphwell.cli import main
from sphwell.numerics import DensityCurve, RadialGrid, curve_distance
from sphwell.specfun import ZeroBracketError


def read(path):
    with open(path, "rb") as handle:
        return handle.read()


def rows(path):
    text = read(path).decode()
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    data = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
    return header, data


class TestClassicalAnalytic:
    def test_default_grid_row_values(self, tmp_path):
        out = tmp_path / "cl.csv"
        assert main(["classical", "analytic", "--out", str(out)]) == 0
        header, data = rows(out)
        assert header == ["r", "density"]
        assert len(data) == 1000
        assert data[0] == (0.0, 0.0)
        # the default grid is linspace(0, 0.99, 1000)
        r, density = data[500]
        assert r == pytest.approx(500 * 0.99 / 999, rel=1e-15)
        assert density == pytest.approx(r * math.log((1 + r) / (1 - r)), rel=1e-15)

    def test_half_radius_row_on_convenient_grid(self, tmp_path):
        # 100 points on [0, 0.99] puts a row at r = 0.5 exactly
        out = tmp_path / "cl.csv"
        assert main(["classical", "analytic", "--out", str(out),
                     "--grid-points", "100"]) == 0
        _, data = rows(out)
        r, density = data[50]
        assert r == pytest.approx(0.5, abs=1e-15)
        assert density == pytest.approx(0.5 * math.log(3.0), rel=1e-13)

    def test_explicit_half_radius_value(self, tmp_path):
        out = tmp_path / "cl.csv"
        assert main(["classical", "analytic", "--out", str(out), "--grid-points", "3",
                     "--r-max", "1.0"]) == 1  # diverges at r = 1
        assert main(["classical", "analytic", "--out", str(out), "--grid-points", "3",
                     "--r-max", "0.5"]) == 0
        _, data = rows(out)
        assert data[1][0] == 0.25
        assert data[2][1] == pytest.approx(0.5 * math.log(3.0), rel=1e-15)

    def test_two_point_grid_three_lines(self, tmp_path):
        out = tmp_path / "cl.csv"
        assert main(["classical", "analytic", "--out", str(out), "--grid-points", "2"]) == 0
        assert read(out).count(b"\n") == 3

    def test_out_required(self, capsys):
        assert main(["classical", "analytic"]) == 1
        assert "out" in capsys.readouterr().err

    def test_svg_written(self, tmp_path):
        out = tmp_path / "cl.csv"
        svg = tmp_path / "cl.svg"
        assert main(["classical", "analytic", "--out", str(out), "--svg", str(svg)]) == 0
        body = read(svg)
        assert body.startswith(b"<svg")
        assert body.count(b"<polyline") == 1


class TestClassicalMc:
    def test_header_and_counts(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = main(["classical", "mc", "--mode", "paper", "--samples", "200000",
                     "--bins", "20", "--seed", "7", "--out", str(out)])
        assert code == 0
        header, data = rows(out)
        assert header == ["r_mid", "density", "count"]
        assert len(data) == 20
        assert sum(row[2] for row in data) <= 200000
        for r_mid, density, count in data:
            assert density == pytest.approx(count / (200000 * 0.99 / 20), rel=1e-12)

    def test_zero_samples_usage_error(self):
        assert main(["classical", "mc", "--samples", "0", "--bins", "10",
                     "--out", "/tmp/never.csv"]) == 1

    def test_byte_identical_across_thread_counts(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        base = ["classical", "mc", "--mode", "paper", "--samples", "2500000",
                "--bins", "50", "--seed", "42"]
        assert main(base + ["--threads", "1", "--out", str(a)]) == 0
        assert main(base + ["--threads", "4", "--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_env_var_thread_default(self, tmp_path, monkeypatch):
        out = tmp_path / "mc.csv"
        monkeypatch.setenv("SPHWELL_THREADS", "2")
        assert main(["classical", "mc", "--samples", "100000", "--bins", "5",
                     "--out", str(out)]) == 0
        monkeypatch.setenv("SPHWELL_THREADS", "bogus")
        assert main(["classical", "mc", "--samples", "100000", "--bins", "5",
                     "--out", str(out)]) == 1


class TestQuantumLevel:
    def test_level_one_report(self, capsys):
        assert main(["quantum", "level", "--n", "1"]) == 0
        text = capsys.readouterr().out
        assert "l_max = 2" in text
        assert "degeneracy = 10" in text
        assert "weights = 0.2,0.3,0.5" in text
        assert "energy = 4.934802200544679" in text

    def test_level_ten_l_max(self, capsys):
        assert main(["quantum", "level", "--n", "10"]) == 0
        assert "l_max = 30" in capsys.readouterr().out

    def test_bad_n(self):
        assert main(["quantum", "level", "--n", "0"]) == 1

    def test_report_to_file(self, tmp_path):
        out = tmp_path / "level.txt"
        assert main(["quantum", "level", "--n", "2", "--out", str(out)]) == 0
        assert "degeneracy = 37" in read(out).decode()


class TestQuantumDensity:
    def test_l0_mean_is_uniform(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["quantum", "density", "--n", "1", "--l", "0",
                     "--out", str(out), "--grid-points", "100"]) == 0
        _, data = rows(out)
        assert all(density == pytest.approx(1.0, abs=1e-12) for _, density in data)

    def test_total_density(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["quantum", "density", "--n", "1", "--total",
                     "--out", str(out), "--grid-points", "101"]) == 0
        _, data = rows(out)
        assert data[0][1] == pytest.approx(0.2, rel=1e-12)

    def test_branch_density(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["quantum", "density", "--n", "1", "--l", "0", "--branch", "H1",
                     "--out", str(out), "--grid-points", "10"]) == 0
        _, data = rows(out)
        assert all(density == 1.0 for _, density in data)
        assert main(["quantum", "density", "--n", "1", "--l", "0", "--branch", "B",
                     "--out", str(out), "--grid-points", "10"]) == 0
        _, data = rows(out)
        assert data[-1][1] == pytest.approx(2 * math.sin(math.pi) ** 2, abs=1e-20)

    def test_disallowed_l_exit_one(self, tmp_path):
        assert main(["quantum", "density", "--n", "1", "--l", "3",
                     "--out", str(tmp_path / "q.csv")]) == 1

    def test_needs_l_or_total(self, tmp_path):
        out = str(tmp_path / "q.csv")
        assert main(["quantum", "density", "--n", "1", "--out", out]) == 1
        assert main(["quantum", "density", "--n", "1", "--l", "1", "--total",
                     "--out", out]) == 1


class TestCompare:
    def test_report_and_per_level_curves(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--n-list", "1,2", "--grid-points", "120",
                     "--out", str(out)])
        assert code == 0
        header, data = rows(out)
        assert header == ["n", "l_max", "degeneracy", "l1_distance", "sup_distance"]
        assert [row[0] for row in data] == [1.0, 2.0]
        assert data[0][1:3] == (2.0, 10.0)
        assert data[0][3] > data[1][3] > 0  # L1 distance shrinks with n
        assert (tmp_path / "cmp_n1.csv").exists()
        assert (tmp_path / "cmp_n2.csv").exists()
        assert (tmp_path / "cmp_classical.csv").exists()

    def test_report_columns_are_curve_distances(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--n-list", "1,3", "--grid-points", "200",
                     "--out", str(out)]) == 0

        def curve(path):
            _, data = rows(path)
            r, density = np.array(data).T
            return DensityCurve(RadialGrid(r), density)

        classical = curve(tmp_path / "cmp_classical.csv")
        _, data = rows(out)
        for row in data:
            quantum = curve(tmp_path / f"cmp_n{int(row[0])}.csv")
            assert row[3] == curve_distance(quantum, classical, "l1")
            assert row[4] == curve_distance(quantum, classical, "sup")

    def test_single_level_single_row(self, tmp_path):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--n-list", "1", "--grid-points", "40",
                     "--out", str(out)]) == 0
        _, data = rows(out)
        assert len(data) == 1

    def test_duplicates_deduplicated_with_warning(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--n-list", "1,1", "--grid-points", "40",
                     "--out", str(out)]) == 0
        assert "duplicate" in capsys.readouterr().err
        _, data = rows(out)
        assert len(data) == 1

    def test_metric_flag_validated(self, tmp_path):
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--n-list", "1", "--metric", "sup",
                     "--grid-points", "40", "--out", out]) == 0
        assert main(["compare", "--n-list", "1", "--metric", "manhattan",
                     "--grid-points", "40", "--out", out]) == 1

    def test_bad_n_list(self, tmp_path):
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--n-list", "0,1", "--out", out]) == 1
        assert main(["compare", "--n-list", "a,b", "--out", out]) == 1


class TestSpecfunEval:
    def test_j_at_pi(self, capsys):
        assert main(["specfun", "eval", "--fn", "j", "--l", "1",
                     "--x", "3.141592653589793"]) == 0
        assert capsys.readouterr().out.strip() == repr(1 / math.pi)

    def test_second_zero_is_two_pi(self, capsys):
        assert main(["specfun", "eval", "--fn", "zero", "--l", "0", "--k", "2"]) == 0
        assert capsys.readouterr().out.strip() == "6.283185307179586"

    def test_neumann_pole_exit_one(self):
        assert main(["specfun", "eval", "--fn", "n", "--l", "0", "--x", "0"]) == 1
        assert main(["specfun", "eval", "--fn", "n", "--l", "0", "--x", "inf"]) == 1

    def test_neumann_overflow_exit_two(self, capsys):
        assert main(["specfun", "eval", "--fn", "n", "--l", "300", "--x", "1.0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "l = 300" in captured.err

    def test_neumann_order_zero_overflow_exit_two(self, capsys):
        # n_0(1e-310) = -cos(x)/x is beyond binary64; it used to print -inf
        assert main(["specfun", "eval", "--fn", "n", "--l", "0", "--x", "1e-310"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "l = 0" in captured.err

    def test_zero_bracket_failure_exit_two(self, monkeypatch):
        def failing_zero(l, k):
            raise ZeroBracketError(f"zero refinement for j_{l} did not converge")

        monkeypatch.setattr(cli, "sph_bessel_zero", failing_zero)
        assert main(["specfun", "eval", "--fn", "zero", "--l", "1", "--k", "170"]) == 2

    def test_flag_combinations(self):
        assert main(["specfun", "eval", "--fn", "j", "--l", "1", "--k", "2"]) == 1
        assert main(["specfun", "eval", "--fn", "zero", "--l", "1", "--x", "2.0"]) == 1
        assert main(["specfun", "eval", "--fn", "zero", "--l", "1"]) == 1


class TestModuleEntryPoint:
    @pytest.mark.parametrize("module", ["sphwell", "sphwell.cli"])
    def test_python_dash_m(self, module):
        src = os.path.dirname(os.path.dirname(os.path.abspath(sphwell.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", module, "quantum", "level", "--n", "1"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert "l_max = 2" in proc.stdout
        assert proc.stderr == ""


class TestReproducibility:
    def test_csv_byte_identical_for_identical_flags(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        flags = ["classical", "mc", "--mode", "liouville", "--samples", "500000",
                 "--bins", "25", "--seed", "99"]
        assert main(flags + ["--out", str(a)]) == 0
        assert main(flags + ["--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_analytic_csv_stable(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["classical", "analytic", "--out", str(a)]) == 0
        assert main(["classical", "analytic", "--out", str(b)]) == 0
        assert read(a) == read(b)

    def test_emitted_densities_non_negative_and_finite(self, tmp_path):
        out = tmp_path / "q.csv"
        assert main(["quantum", "density", "--n", "3", "--total", "--out", str(out),
                     "--grid-points", "200"]) == 0
        _, data = rows(out)
        values = np.array([density for _, density in data])
        assert np.isfinite(values).all() and (values >= 0).all()
