"""Run one benchmark operation in this (cold) process and report on stdout.

Usage: python3 bench/child.py <src dir> <trace 0|1> <operation as JSON>

Times the import of `covest.cli` (set-up), then the operation alone
(compute), optionally under the layer tracer, and prints one JSON record:
the timings, this process's peak RSS and CPU time, the operation's output
and, when traced, the span summary.  Correctness is judged by the parent.
"""

import sys
import time

t_start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import covest.cli  # noqa: E402

t_imported = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import layers  # noqa: E402


def run_cli(op):
    """covest.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        code = covest.cli.main(op["argv"])
        compute = time.perf_counter() - t0
    return compute, {"exit_code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_haar(op):
    """irrep_matrix_batch and character on one batch of Haar elements.

    Only the library calls and the class angles are timed; the closed-form
    comparisons run between them, untimed.
    """
    from checks import haar_deviations

    su2 = sys.modules["covest.su2"]
    rng = np.random.default_rng(op["seed"])
    t0 = time.perf_counter()
    m = su2.haar_matrices(rng, op["elements"])
    c = np.clip((m[:, 0, 0] + m[:, 1, 1]).real / 2.0, -1.0, 1.0)
    theta = 2.0 * np.arccos(c)
    compute = time.perf_counter() - t0
    deviations = []
    for j in op["js"]:
        t0 = time.perf_counter()
        irreps = su2.irrep_matrix_batch(j, m)
        chars = su2.character(j, theta)
        compute += time.perf_counter() - t0
        deviations.append(haar_deviations(j, m, irreps, chars))
        del irreps
    return compute, {"exit_code": 0, "deviations": deviations}


def main():
    trace, op = sys.argv[2] == "1", json.loads(sys.argv[3])
    src = os.path.realpath(sys.argv[1])
    if not os.path.realpath(covest.cli.__file__).startswith(src + os.sep):
        sys.exit(f"covest was imported from {covest.cli.__file__}, not from {src}")
    tracer = None
    if trace:
        tracer = layers.Tracer()
        layers.install(tracer)
    compute, output = (run_haar if op["kind"] == "haar-irreps" else run_cli)(op)
    ru = resource.getrusage(resource.RUSAGE_SELF)
    record = {
        "setup_s": t_imported - t_start,
        "compute_s": compute,
        "cpu_s": ru.ru_utime + ru.ru_stime,
        "peak_rss_mb": ru.ru_maxrss / 1024.0,
        "output": output,
        "trace": tracer.summary() if tracer else None,
    }
    sys.stdout.write(json.dumps(record))


if __name__ == "__main__":
    main()
