"""One benchmark command, run in a fresh interpreter from the checkout root.

    python3 perfbench/child.py [--rss FILE] setup
    python3 perfbench/child.py [--rss FILE] [--trace FILE] cli ARGV...
    python3 perfbench/child.py [--rss FILE] [--trace FILE] textbook N OUT_DIR

``setup`` imports sphwell and builds the CLI parser, then exits: the
set-up cost every command pays.  ``cli`` runs ``sphwell.cli.main(ARGV)``
and exits with its return code.  ``textbook`` runs the library job of the
``textbook`` workload and writes its results to OUT_DIR.  An exception
escaping either job is printed and turned into exit code 3, so run.py
can tell it from the CLI's own codes 1 and 2.  With ``--rss``, the
process's peak resident memory in KiB (Linux ``VmHWM``) is written to
FILE when the job ends.
"""

import math
import os
import sys
import traceback

ESCAPED = 3
TEXTBOOK_STATES = 50
TEXTBOOK_GRID = 1000


def textbook(n, out_dir):
    """Every zero of j_l below n*pi in ascending (l, k), then the lowest states' densities."""
    import numpy as np
    from sphwell import quantum, specfun

    limit = n * math.pi
    zeros = []
    l = 0
    while True:
        k = 1
        while (z := specfun.sph_bessel_zero(l, k)) < limit:
            zeros.append((l, k, z))
            k += 1
        if k == 1:
            break
        l += 1
    lowest = sorted(zeros, key=lambda e: e[2])[:TEXTBOOK_STATES]
    r = np.linspace(0.0, 1.0, TEXTBOOK_GRID)
    densities = np.stack([quantum.conventional_density_values(k, l, r) for l, k, _ in lowest])
    with open(os.path.join(out_dir, "zeros.txt"), "w") as handle:
        handle.writelines(f"{l} {k} {z!r}\n" for l, k, z in zeros)
    np.save(os.path.join(out_dir, "densities.npy"), densities)
    return 0


def main(argv):
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    job, args = argv[0], argv[1:]
    sys.path.insert(0, "src")
    import sphwell.cli

    if job == "setup":
        sphwell.cli.build_parser()
        return 0
    if job == "cli":
        root, run = "cli.main", lambda: sphwell.cli.main(args)
    elif job == "textbook":
        root, run = "textbook", lambda: textbook(int(args[0]), args[1])
    else:
        raise SystemExit(f"unknown job {job!r}")

    recorder = None
    if trace_path is not None:
        import tracer

        recorder = tracer.Recorder()
        tracer.install(recorder)
        run = recorder.span(root, run)
    try:
        return run()
    except Exception:
        traceback.print_exc()
        print(f"perfbench: exception escaped {root}", file=sys.stderr)
        return ESCAPED
    finally:
        if recorder is not None:
            recorder.dump(trace_path, {"root": root})


def peak_rss_kib():
    """Peak resident set of this process image, or None where /proc has no VmHWM."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


if __name__ == "__main__":
    argv = sys.argv[1:]
    rss_path = None
    if argv[:1] == ["--rss"]:
        rss_path, argv = argv[1], argv[2:]
    try:
        code = main(argv)
    finally:
        peak = peak_rss_kib() if rss_path is not None else None
        if peak is not None:
            with open(rss_path, "w") as handle:
                handle.write(str(peak))
    sys.exit(code)
