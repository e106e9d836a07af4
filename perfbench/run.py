"""sphwell benchmark: seeded workloads run as fresh-interpreter commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src``.
NAME is one of level_total, convergence, mc, textbook, or ``all`` to run
each in turn.  The benchmark starts one command at a time (a closed
loop), in whole cycles of the workload's input strata, while the next
cycle is expected to end within S seconds, and runs at least one cycle.
Each command is ``perfbench/child.py`` in a new interpreter, so module
caches start cold as they do for a CLI user.  After the loop every
command's output is checked against independent oracles; a failed
check, a non-zero exit, an exception escaping ``main`` or a killed child
counts the command as failed, with its reason, and never stops the
benchmark.

``--trace 0`` reports the end-to-end metrics.  Their times are wall
times scaled to the machine speed of the moment each was taken, which a
fixed reference job run between commands measures (see ``reference``).
``--trace 1`` alternates traced and untraced commands and reports
per-layer metrics from the traced ones (see tracer.py); end-to-end
numbers never come from it.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is a JSON
detail record with provenance, per-command inputs, times and failures.
"""

import argparse
import json
import math
import os
import platform
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import numpy as np

from child import ESCAPED
from workloads import WORKLOADS, CheckFailed

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_ROOT = ".perfbench_out"
RUN_LIMIT_S = 170.0  # every run ends within 180 s
SETUP_REPEATS = 7
# Seconds the reference job takes on the 2-core VM this benchmark was tuned
# on (Python 3.11, numpy 2.4) in a quiet minute; see reference().
REFERENCE_S = 0.08
REFERENCE_SHARE = 0.05  # reference time after a command, as a share of its wall time
# Seconds a bare interpreter that imports numpy takes on that VM; see start_reference().
START_REFERENCE_S = 0.2

END_TO_END = {
    # Times are wall times scaled to reference speed (see reference() and,
    # for set-ups, start_reference()).
    "setup_s": "s",  # interpreter start to sphwell imported and parser built; median
    "cmd_s.p50": "s",  # median time of one command, output writes included
    "work_per_s": "1/s",  # work (Workload.command) of the commands that passed / their time
    "peak_rss_mb": "MB",  # median over commands of the child's peak resident memory
}

PER_LAYER = {
    "numerics.integrate_composite.calls": "count",
    "numerics.integrate_composite.self_s": "s",
    "numerics.integrate_composite.nodes": "count",
    "specfun.sph_bessel_j_table.calls": "count",
    "specfun.sph_bessel_j_table.self_s": "s",
    "specfun.sph_bessel_j_table.cells": "count",
    "specfun.sph_bessel_j_table.cells_per_s": "1/s",
    "specfun.sph_bessel_j_table.bytes_computed": "B",
    "quantum.total_density_values.calls": "count",
    "quantum.total_density_values.self_s": "s",
    "quantum.total_density_values.points": "count",
    "quantum.normalization_constants_sq_all.self_s": "s",
    "quantum.density_mass.self_s": "s",
    "quantum.density_mass.wall_s": "s",
    "quantum.density_mass.residual": "ratio",
    "specfun.sph_bessel_j.calls": "count",
    "specfun.sph_bessel_j.self_s": "s",
    "specfun.sph_bessel_zero.calls": "count",
    "specfun.sph_bessel_zero.self_s": "s",
    "specfun.zero.j_evals_per_zero": "count",
    "quantum.conventional_density_values.calls": "count",
    "quantum.conventional_density_values.self_s": "s",
    "classical.draw_chords.calls": "count",
    "classical.draw_chords.self_s": "s",
    "numerics.accumulate_histogram.calls": "count",
    "numerics.accumulate_histogram.self_s": "s",
    "numerics.accumulate_histogram.samples_per_s": "1/s",
    "classical.mc_histogram.wall_s": "s",
    "classical.mc_histogram.busy_s": "s",
    "classical.mc_histogram.blocks": "count",
    "classical.mc_histogram.parallel_eff": "ratio",
    "classical.classical_total_density.self_s": "s",
    "cli.main.self_s": "s",
    "cli.write_svg.self_s": "s",
    "cli.bytes_out": "B",
    "cli.rows_out": "count",
    "trace.overhead_frac": "ratio",
    "trace.uncovered_frac": "ratio",
}


def wait(proc, timeout):
    """Reap the child and return (exit code, rusage, timed_out); kill it past the timeout."""
    timed_out = False
    try:
        fd = os.pidfd_open(proc.pid)
    except (AttributeError, OSError):
        fd = None
    if fd is not None:
        try:
            if not select.select([fd], [], [], max(timeout, 0.0))[0]:
                proc.kill()
                timed_out = True
        finally:
            os.close(fd)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, timed_out


def peak_rss_mb(rss_path, usage):
    """The child's own peak resident memory, as it reported it.

    ``ru_maxrss`` of a child also holds the peak of the benchmark process
    that started it (exec folds the old address space's peak into it), so
    it serves only when the child died before it could report.
    """
    try:
        with open(rss_path) as handle:
            return int(handle.read()) / 1024.0
    except (OSError, ValueError):
        return usage.ru_maxrss / 1024.0


def execute(child_argv, log_path, deadline):
    """Run one child; returns (wall seconds, exit code, peak RSS in MB, failure reason)."""
    rss_path = log_path + ".rss"
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, CHILD, "--rss", rss_path] + child_argv,
                                stdout=log, stderr=subprocess.STDOUT)
        try:
            code, usage, timed_out = wait(proc, deadline - time.perf_counter())
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    reason = None
    if timed_out:
        reason = "killed: run time limit reached"
    elif code < 0:
        reason = f"killed by signal {-code}"
    elif code != 0:
        with open(log_path, errors="replace") as log:
            tail = [line.strip() for line in log if line.strip()]
        last = tail[-1] if tail else ""
        if code == ESCAPED and len(tail) >= 2:  # the exception line precedes child's marker
            last = "exception escaped: " + tail[-2]
        reason = f"exit code {code}: {last}"
    return wall, code, peak_rss_mb(rss_path, usage), reason


def reference():
    """Seconds of a fixed job that shares no code with sphwell.

    The shared host this benchmark was tuned on changes speed by 20-40 %
    within seconds and drifts over minutes, and every wall time drifts
    with it.  So the job runs before the first command and after each
    one, and each time the benchmark reports is scaled to the machine
    speed of its moment: wall * REFERENCE_S / (mean of the reference times
    just before and just after it), the time on a machine where this job
    takes REFERENCE_S.  After a long command the job is repeated, for
    about REFERENCE_SHARE of its wall time, and the median kept: two single
    samples bracketing an 11 s command add more noise than they remove.
    Unscaled times are kept in the detail record.
    The job mixes a scalar Python loop, like the scalar Bessel path, with
    numpy passes over 16 MB, like the table sweeps.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1, 200_000):
        acc = 0.999 * acc + math.sqrt(i) / i
    x = np.linspace(0.0, 1.0, 2_000_000)
    for _ in range(6):
        x = np.sqrt(x * 0.75 + 0.25)
    return time.perf_counter() - t0


def scale(wall, refs):
    """Wall time at reference speed; times the reference job once more (see reference)."""
    repeats = max(1, round(REFERENCE_SHARE * wall / REFERENCE_S))
    refs.append(statistics.median(reference() for _ in range(repeats)))
    return wall * REFERENCE_S / (0.5 * (refs[-2] + refs[-1]))


def start_reference():
    """Seconds to start an interpreter that imports numpy and exits.

    Set-up time is process start and imports, which swing with the host
    (0.27 s for a minute, then 0.21 s) much more than the compute job of
    reference() does, so set-ups are scaled by this job instead, run
    before the first set-up and after each.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - t0


def measure_setup(out_dir, deadline):
    times = []
    refs = [start_reference()]
    for i in range(SETUP_REPEATS):
        wall, code, _, reason = execute(["setup"], os.path.join(out_dir, f"setup{i}.log"), deadline)
        if code != 0:
            raise SystemExit(f"perfbench: importing sphwell failed: {reason}")
        refs.append(start_reference())
        times.append({"wall_s": wall, "start_reference_s": refs[-2:],
                      "scaled_s": wall * START_REFERENCE_S / (0.5 * (refs[-2] + refs[-1]))})
    return times


def covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(trace, wall):
    """Per-layer numbers of one traced command from its spans and counted calls."""
    spans = trace["spans"]
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)
    counted_under = defaultdict(float)
    counted = defaultdict(lambda: [0, 0.0])
    j_in_zero = 0
    frames = [(s[0], s[2], s[6]) for s in spans] + [(p, None, c) for p, c in trace["loose"]]
    for sid, span_name, counts in frames:
        for name, (calls, seconds) in counts.items():
            counted_under[sid] += seconds
            counted[name][0] += calls
            counted[name][1] += seconds
            if name == "specfun.sph_bessel_j" and span_name == "specfun.sph_bessel_zero":
                j_in_zero += calls

    def self_time(s):
        kids = [(c[3], c[4]) for c in children[s[0]]]
        return (s[4] - s[3]) - covered(kids, s[3], s[4]) - counted_under[s[0]]

    by_name = defaultdict(lambda: defaultdict(float))
    for s in spans:
        agg = by_name[s[2]]
        agg["calls"] += 1
        agg["self_s"] += self_time(s)
        agg["dur"] += s[4] - s[3]
        for key, value in (s[5] or {}).items():
            agg[key] += value
        if s[2] == "classical.mc_histogram":
            agg["busy_s"] += sum(c[4] - c[3] for c in children[s[0]])
    root = next(s for s in spans if s[1] is None and s[2] == trace["root"])
    kids = [(c[3], c[4]) for c in children[root[0]]]

    m = {}
    for metric in PER_LAYER:
        layer, _, field = metric.rpartition(".")
        if field in ("calls", "self_s"):
            m[metric] = by_name[layer][field]
    table = by_name["specfun.sph_bessel_j_table"]
    hist = by_name["numerics.accumulate_histogram"]
    mc = by_name["classical.mc_histogram"]
    zero_calls = by_name["specfun.sph_bessel_zero"]["calls"]
    m.update({
        "numerics.integrate_composite.nodes": by_name["numerics.integrate_composite"]["nodes"],
        "specfun.sph_bessel_j_table.cells": table["cells"],
        "specfun.sph_bessel_j_table.cells_per_s":
            table["cells"] / table["self_s"] if table["self_s"] > 0 else 0.0,
        "specfun.sph_bessel_j_table.bytes_computed": table["bytes_computed"],
        "quantum.total_density_values.points": by_name["quantum.total_density_values"]["points"],
        "quantum.density_mass.wall_s": by_name["quantum.density_mass"]["dur"],
        "quantum.density_mass.residual": by_name["quantum.density_mass"]["residual"],
        "specfun.sph_bessel_j.calls": counted["specfun.sph_bessel_j"][0],
        "specfun.sph_bessel_j.self_s": counted["specfun.sph_bessel_j"][1],
        "specfun.zero.j_evals_per_zero": j_in_zero / zero_calls if zero_calls else 0.0,
        "numerics.accumulate_histogram.samples_per_s":
            hist["samples"] / hist["self_s"] if hist["self_s"] > 0 else 0.0,
        "classical.mc_histogram.wall_s": mc["dur"],
        "classical.mc_histogram.busy_s": mc["busy_s"],
        "classical.mc_histogram.blocks": mc["blocks"],
        # main's wall time minus its library spans; time outside every span
        # (interpreter start, imports, exit) is folded in here.
        "cli.main.self_s": (wall - covered(kids, root[3], root[4]) - counted_under[root[0]]
                            if root[2] == "cli.main" else 0.0),
        "trace.uncovered_frac": (wall - (root[4] - root[3])) / wall,
    })
    return m


def output_size(out_dir):
    """Bytes of every file a command wrote, and CSV data rows."""
    size = rows = 0
    for name in os.listdir(out_dir):
        path = os.path.join(out_dir, name)
        size += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as handle:
                rows += handle.read().count(b"\n") - 1
    return size, rows


def tail_percentile(times):
    """Highest percentile with at least ten samples beyond it, or None below 11 samples."""
    k = len(times)
    if k < 11:
        return None
    return {"value": sorted(times)[k - 11], "percentile": 100.0 * (k - 10) / k, "samples": k}


def git_state():
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return None, None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip() != ""
    except (OSError, subprocess.CalledProcessError):
        return None, None
    return head, dirty


def provenance(args, workload):
    import mpmath
    import scipy

    with open(os.path.join("src", "sphwell", "__init__.py")) as handle:
        version = re.search(r'__version__ = "([^"]+)"', handle.read())
    commit, dirty = git_state()
    return {
        "sphwell_version": version.group(1) if version else None,
        "git_commit": commit,
        "git_dirty": dirty,
        "argv": sys.argv,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "threads": workload.threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def run_workload(name, args, out_root):
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[name](args.seed)
    os.makedirs(out_root)
    setup = measure_setup(out_root, deadline) if not args.trace else None
    reference()  # warm-up: the first call also pays numpy's page faults
    refs = [reference()]
    records = []

    def launch(index, traced, role, **kw):
        out_dir = os.path.join(out_root, f"cmd{index}")
        os.makedirs(out_dir)
        cmd = workload.command(index, out_dir, **kw)
        trace_path = os.path.join(out_root, f"cmd{index}.trace.json") if traced else None
        child_argv = (["--trace", trace_path] if traced else []) + cmd.argv
        wall, code, rss, reason = execute(child_argv, os.path.join(out_root, f"cmd{index}.log"),
                                          deadline)
        records.append({"cmd": cmd, "role": role, "traced": traced, "trace_path": trace_path,
                        "wall_s": wall, "scaled_s": scale(wall, refs), "exit": code,
                        "rss_mb": rss, "reason": reason})

    # Closed loop in whole cycles of workload.strata commands (see
    # Workload.draw), so every run times the same mix of inputs.  A command
    # starts when the previous one has ended, and a new cycle starts only if
    # it is expected (mean time per command so far) to end inside the window.
    # With --trace 1, even-numbered commands are traced and odd ones are not.
    cycle = workload.strata
    first = 2 if args.trace and cycle == 1 else cycle
    loop_start = time.perf_counter()
    index = 0
    while time.perf_counter() < deadline:
        if index >= first and index % cycle == 0:
            elapsed = time.perf_counter() - loop_start
            if elapsed + cycle * elapsed / index > args.seconds:
                break
        launch(index, bool(args.trace) and index % 2 == 0, "timed")
        index += 1
    if args.trace and name == "mc":
        # plain single-thread baseline on the workload seed (command 1's seed)
        launch(index, True, "baseline", threads=1)

    # Output checks, outside the timed interval.
    for rec in records:
        if rec["reason"] is None:
            try:
                workload.check(rec["cmd"])
            except CheckFailed as exc:
                rec["reason"] = f"check failed: {exc}"
            except Exception as exc:  # a malformed output must not stop the benchmark
                rec["reason"] = f"check raised {type(exc).__name__}: {exc}"
    return workload, setup, records, refs


def end_to_end(workload, setup, records):
    """Metrics from times scaled to reference speed; the unscaled ones go in the detail."""
    timed = [r for r in records if r["role"] == "timed"]
    done = sum(r["cmd"].work for r in timed if r["reason"] is None)

    def times(key):
        cmds = [r[key] for r in timed]
        return {
            "setup_s": statistics.median(s[key] for s in setup),
            "cmd_s.p50": statistics.median(cmds),
            "work_per_s": done / sum(cmds),
        }

    metrics = times("scaled_s")
    metrics["peak_rss_mb"] = statistics.median(r["rss_mb"] for r in timed)
    scaled = [r["scaled_s"] for r in timed]
    failed = sum(r["reason"] is not None for r in timed)
    extra = {
        "samples": {"setup_s": len(setup), "cmd_s.p50": len(scaled),
                    "work_per_s": len(scaled), "peak_rss_mb": len(timed)},
        "cmd_s.tail": tail_percentile(scaled),
        "failed_frac": failed / len(timed),
        "peak_rss_mb.max": max(r["rss_mb"] for r in timed),
        "unscaled": times("wall_s"),
    }
    return metrics, extra


def traced_layers(rec):
    """layer_metrics of a traced command, or None if it wrote no complete trace."""
    try:
        with open(rec["trace_path"]) as handle:
            trace = json.load(handle)
    except (OSError, ValueError):  # killed before or while writing it
        return None
    return layer_metrics(trace, rec["wall_s"])


def per_layer(workload, records):
    traced = [r for r in records if r["traced"] and r["role"] == "timed"]
    untraced = [r for r in records if not r["traced"] and r["role"] == "timed"]
    per_cmd = [m for m in map(traced_layers, traced) if m is not None]
    metrics = {name: 0.0 for name in PER_LAYER}
    if per_cmd:
        for name in per_cmd[0]:
            metrics[name] = statistics.median(m[name] for m in per_cmd)
    if traced and untraced:
        metrics["trace.overhead_frac"] = (statistics.median(r["scaled_s"] for r in traced)
                                          / statistics.median(r["scaled_s"] for r in untraced) - 1.0)
    sizes = [output_size(r["cmd"].out_dir) for r in records
             if r["role"] == "timed" and r["cmd"].argv[0] == "cli"]
    if sizes:
        metrics["cli.bytes_out"] = statistics.median(s[0] for s in sizes)
        metrics["cli.rows_out"] = statistics.median(s[1] for s in sizes)
    baseline = [r for r in records if r["role"] == "baseline"]
    single = traced_layers(baseline[0]) if baseline else None
    if single is not None and per_cmd:
        # pair with the last traced command, the one closest in time to the baseline
        wall = per_cmd[-1]["classical.mc_histogram.wall_s"]
        if wall > 0:
            metrics["classical.mc_histogram.parallel_eff"] = (
                single["classical.mc_histogram.wall_s"] / (workload.threads * wall))
    return metrics, {"samples": {"traced": len(per_cmd), "untraced": len(untraced),
                                 "baseline": len(baseline)}}


def report(name, args, workload, setup, records, refs):
    if args.trace:
        metrics, extra = per_layer(workload, records)
        units = PER_LAYER
    else:
        metrics, extra = end_to_end(workload, setup, records)
        units = END_TO_END
    for key, value in metrics.items():
        print(f"{name:12s} {key:45s} {value:.6g} {units[key]}")
    if not args.trace:
        tail = extra["cmd_s.tail"]
        tail_text = (f"p{tail['percentile']:.1f} = {tail['value']:.6g} s" if tail
                     else "n/a (needs 11 commands)")
        print(f"{name:12s} {len(setup)} set-ups, {extra['samples']['cmd_s.p50']} commands; "
              f"cmd_s.tail {tail_text}; failed_frac {extra['failed_frac']:.6g}")
    commands = [{
        "argv": [a.replace(r["cmd"].out_dir, "OUT") for a in r["cmd"].argv],
        "inputs": r["cmd"].inputs,
        "work": r["cmd"].work,
        "role": r["role"],
        "traced": r["traced"],
        "wall_s": r["wall_s"],
        "scaled_s": r["scaled_s"],
        "rss_mb": r["rss_mb"],
        "exit": r["exit"],
        "reason": r["reason"],
    } for r in records]
    reasons = defaultdict(int)
    for c in commands:
        if c["reason"] is not None:
            reasons[c["reason"]] += 1
    for reason, count in reasons.items():
        print(f"{name:12s} FAILED x{count}: {reason}")
    detail = {"provenance": provenance(args, workload), **extra, "commands": commands}
    detail["reference_s.samples"] = refs
    if setup is not None:
        detail["setup_s.samples"] = setup
    print(json.dumps({"detail": detail}, default=str))
    attempted = len(records)
    failed = sum(r["reason"] is not None for r in records)
    result = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    return attempted, failed, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills its running command and removes its output.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join("src", "sphwell", "cli.py")):
        print("perfbench: run from the root of a sphwell checkout (src/sphwell is missing)",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            out_root = os.path.join(OUT_ROOT, f"run-{os.getpid()}-{name}")
            try:
                workload, setup, records, refs = run_workload(name, args, out_root)
                a, f, m = report(name, args, workload, setup, records, refs)
            finally:
                shutil.rmtree(out_root, ignore_errors=True)
            attempted += a
            failed += f
            metrics.update(m if len(names) == 1 else {f"{name}/{k}": v for k, v in m.items()})
    finally:
        try:
            os.rmdir(OUT_ROOT)
        except OSError:  # another run still uses it
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
