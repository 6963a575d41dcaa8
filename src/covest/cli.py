"""Command-line front end: design optimization, integral checks, scaling, simulation.

Every run emits a manifest (command, parameters, seed, version, timestamp)
alongside the result, as JSON (one object per run) or CSV (manifest in
leading comment lines).  Exit codes: 0 success/pass, 1 usage error,
2 verification failure.
"""

import argparse
import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .phase import asymptotic_error, bdm_input, min_covariant_error, optimal_input
from .simulate import SimConfig, simulate
from .su2 import multiplicity_spectrum
from .su2_design import SELF_ENTANGLED, asymptotic_error_su2, design_optimal
from .integrals import phase_kernel_matrix, su2_kernel_matrix

# Fixed default so bare invocations are reproducible; override with --seed.
DEFAULT_SEED = 20040725

OUTPUT_DIR_ENV = "COVEST_OUTPUT_DIR"

# su2-design prints each block's exact multiplicity, an integer of about
# 0.3 n digits; Python refuses to print integers of more than 4300 digits,
# which C(n, n/2) passes just above n = 14 000.
MAX_SU2_N = 10_000

# Limits on the other commands' sizes, each far above the benchmark's and
# checked before any work, so that a large request is a usage error and not
# an out-of-memory kill or an hours-long run.  Measured as cold processes on
# a 2-vCPU VM:
# phase-opt builds O(n) arrays and prints n+1 amplitudes: 2.4 s and 394 MB
# at n = 10^6, so 10^7 would need about 4 GB.
MAX_PHASE_N = 1_000_000
# simulate builds the density's Fourier coefficients (the autocorrelation
# and, for su2, the self-convolution) from one zero-padded FFT, O(n log n),
# and sizes its grid from the law and the trial count, at about 90 bytes per
# bin: phase n = 10^5 at 10^5 trials needs 2^22 bins, 1.8 s and 362 MB.
MAX_SIMULATE_N = 100_000
# A law that needs more than MAX_GRID_SIZE bins (src/covest/simulate.py) is
# a usage error, as phase n = 10^5 is at 2 * 10^7 trials.  simulate draws the
# trials in chunks, one thread per CPU up to one per 8 chunks, and keeps per
# chunk only its mean and squared deviations, so memory does not grow with
# the trial count: cold su2 n = 5 on 2 CPUs takes 0.52 s and 39 MB at 10^7
# trials and 0.78 s and 39 MB at 2 * 10^7 (medians of 5 runs).
MAX_TRIALS = 20_000_000
# scaling solves every n up to max-n, O(max_n^2) work in all: 2.3-3.0 s and
# 41 MB at 5000, 10-12 s and 51 MB at 10^4.
MAX_SCALING_N = 10_000
# verify-integrals builds three kernel matrices from character tables of
# O(kmax^2) terms at O(kmax) nodes, O(kmax^3) work: 0.44 s at kmax = 60 and
# 0.66 s at 100 as cold runs, and 1.7 s in-process at 200.
MAX_KMAX = 100

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2

SCALING_HEADER = "n,phase_exact,phase_bdm,phase_asymptote,su2_error,su2_asymptote"


class _Parser(argparse.ArgumentParser):
    """argparse exits with code 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# Parsed arguments that are not run parameters: the seed has its own
# manifest field, and the output path does not change the result.
_NOT_PARAMETERS = ("command", "func", "output", "seed")


def _manifest(args):
    return {
        "command": args.command,
        "parameters": {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }


def _resolve_output(path):
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text, output):
    if output is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        path = _resolve_output(output)
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write {path}: {exc.strerror}") from exc


def _render_csv(manifest, header, rows):
    buf = io.StringIO()
    for key in ("command", "seed", "version", "timestamp"):
        buf.write(f"# {key}={manifest[key]}\n")
    buf.write(f"# parameters={json.dumps(manifest['parameters'], sort_keys=True)}\n")
    buf.write(header + "\r\n")
    writer = csv.writer(buf)
    writer.writerows(rows)
    return buf.getvalue()


def _render(manifest, result, fmt, header, rows):
    if fmt == "json":
        return json.dumps({"manifest": manifest, "result": result}, indent=2)
    return _render_csv(manifest, header, rows)


# Each cmd_* returns (result, CSV header, CSV rows, exit code) to main.


def cmd_phase_opt(args):
    n, method = args.n, args.method
    if n > MAX_PHASE_N:
        raise _UsageError(f"n must be <= {MAX_PHASE_N}")
    if method == "bdm":
        if n < 1:
            raise _UsageError("method 'bdm' requires n >= 1")
        state = bdm_input(n)
        error = min_covariant_error(state)
    else:
        if n < 0:
            raise _UsageError("n must be >= 0")
        design = optimal_input(n)
        state, error = design.input, design.error
    amps = [float(a.real) for a in state.amplitudes]
    asym = asymptotic_error(n) if n >= 1 else None
    ratio = error * 4.0 * n * n / math.pi**2 if n >= 1 else None
    result = {
        "n": n,
        "method": method,
        "amplitudes": amps,
        "error": error,
        "asymptote": asym,
        "ratio": ratio,
    }
    rows = [
        [n, method, k, amp, error, asym, ratio] for k, amp in enumerate(amps)
    ]
    return result, "n,method,k,amplitude,error,asymptote,ratio", rows, EXIT_OK


def cmd_su2_design(args):
    n, mode = args.n, args.mode
    if n > MAX_SU2_N:
        raise _UsageError(f"n must be <= {MAX_SU2_N}")
    try:
        design = design_optimal(n, mode)
    except ValueError as exc:
        raise _UsageError(str(exc))
    spectrum = multiplicity_spectrum(n)
    blocks = [
        {"dim": dim, "multiplicity": mult, "amplitude": float(amp), "feasible": mult >= dim}
        for (dim, mult), amp in zip(spectrum, design.input.amplitudes.real)
    ]
    usable = [b["dim"] for b in blocks if b["feasible"]]
    if not usable:
        achievable = None
    elif mode == SELF_ENTANGLED:
        achievable = design.error
    else:
        achievable = design_optimal(n, SELF_ENTANGLED).error
    asym = asymptotic_error_su2(n)
    result = {
        "n": n,
        "mode": mode,
        "error": design.error,
        "asymptote": asym,
        "ratio": design.error * n * n / math.pi**2,
        "seed_matrix": "rank-one optimal seed built from the amplitude phases",
        "blocks": blocks,
        "feasibility": {"usable_dims": usable, "achievable_error": achievable},
    }
    rows = [
        [n, mode, b["dim"], b["multiplicity"], b["amplitude"], b["feasible"],
         design.error, asym]
        for b in blocks
    ]
    return (result, "n,mode,dim,multiplicity,amplitude,feasible,error,asymptote", rows,
            EXIT_OK)


def _tridiagonal(m):
    """(1/2) delta_{k,l} - (1/4) delta_{k,l+-1}, the error kernel of both groups."""
    return 0.5 * np.eye(m) - 0.25 * (np.eye(m, k=1) + np.eye(m, k=-1))


def _verify_rows(kmax):
    even, odd = range(2, 2 * kmax + 1, 2), range(1, 2 * kmax, 2)
    su2_even, su2_odd = su2_kernel_matrix(even), su2_kernel_matrix(odd)
    u1 = phase_kernel_matrix(range(kmax + 1))
    # the diagonals hold the single-irrep integrals of dimensions 1..2 kmax:
    # the mean error with one block and a maximally entangled reference
    single = np.concatenate([np.diag(su2_odd), np.diag(su2_even)])
    expected = [0.75 if j == 1 else 0.5 for j in (*odd, *even)]

    def worst(got, want):
        return float(np.max(np.abs(got - want)))

    return [
        ("single-irrep integral", worst(single, expected)),
        ("su2 character kernel", worst(su2_even, _tridiagonal(kmax))),
        ("u1 phase kernel", worst(u1, _tridiagonal(kmax + 1))),
        ("kernel equivalence", worst(su2_even, u1[1:, 1:])),
    ]


def cmd_verify_integrals(args):
    if not 1 <= args.kmax <= MAX_KMAX:
        raise _UsageError(f"kmax must be between 1 and {MAX_KMAX}")
    if not 0.0 < args.tol < math.inf:
        raise _UsageError("tol must be a positive finite number")
    checks = _verify_rows(args.kmax)
    all_pass = all(dev <= args.tol for _, dev in checks)
    result = {
        "pass": all_pass,
        "identities": [
            {"identity": name, "worst_abs_deviation": dev, "pass": dev <= args.tol}
            for name, dev in checks
        ],
    }
    rows = [[name, dev, dev <= args.tol] for name, dev in checks]
    return (result, "identity,worst_abs_deviation,pass", rows,
            EXIT_OK if all_pass else EXIT_VERIFY_FAIL)


def cmd_simulate(args):
    if not 2 <= args.trials <= MAX_TRIALS:
        raise _UsageError(f"trials must be between 2 and {MAX_TRIALS}")
    if args.n > MAX_SIMULATE_N:
        raise _UsageError(f"n must be <= {MAX_SIMULATE_N}")
    try:
        config = SimConfig(args.trials, args.seed)
        if args.protocol == "phase":
            design = optimal_input(args.n)
        else:
            design = design_optimal(args.n)
        result_obj = simulate(config, design)
    except ValueError as exc:
        raise _UsageError(str(exc))
    passed = abs(result_obj.z_score) < 4.0
    result = {
        "empirical_mean_error": result_obj.empirical_mean_error,
        "standard_error": result_obj.standard_error,
        "closed_form": result_obj.closed_form,
        "z_score": result_obj.z_score,
        "law_bias": result_obj.law_bias,
        "pass": passed,
    }
    rows = [[
        args.protocol, args.n, args.trials,
        result_obj.empirical_mean_error, result_obj.standard_error,
        result_obj.closed_form, result_obj.z_score, passed,
    ]]
    header = "protocol,n,trials,empirical_mean_error,standard_error,closed_form,z_score,pass"
    return result, header, rows, EXIT_OK if passed else EXIT_VERIFY_FAIL


def cmd_scaling(args):
    if not 2 <= args.max_n <= MAX_SCALING_N:
        raise _UsageError(f"max-n must be between 2 and {MAX_SCALING_N}")
    if args.step < 1:
        raise _UsageError("step must be >= 1")
    rows = []
    for n in range(args.step, args.max_n + 1, args.step):
        phase_exact = optimal_input(n).error
        phase_bdm = min_covariant_error(bdm_input(n))
        su2_err = design_optimal(n).error
        rows.append([
            n, phase_exact, phase_bdm, asymptotic_error(n),
            su2_err, asymptotic_error_su2(n),
        ])
    keys = SCALING_HEADER.split(",")
    result = {"rows": [dict(zip(keys, row)) for row in rows]}
    return result, SCALING_HEADER, rows, EXIT_OK


class _UsageError(Exception):
    pass


def _build_parser():
    parser = _Parser(
        prog="covest",
        description="Covariant phase and SU(2) estimation designs, "
                    "character-integral checks, and Monte Carlo runs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", default=None,
                       help=f"output file; relative paths resolve against ${OUTPUT_DIR_ENV}")

    p = sub.add_parser("phase-opt", help="optimal or sine-profile phase design")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["exact", "bdm"], default="exact")
    add_common(p)
    p.set_defaults(func=cmd_phase_opt)

    p = sub.add_parser("su2-design", help="optimal SU(2) estimation design")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["external", "self-entangled"],
                   default="external")
    add_common(p)
    p.set_defaults(func=cmd_su2_design)

    p = sub.add_parser("verify-integrals", help="check the character-integral identities")
    p.add_argument("--kmax", type=int, default=30)
    p.add_argument("--tol", type=float, default=1e-10)
    add_common(p)
    p.set_defaults(func=cmd_verify_integrals)

    p = sub.add_parser("simulate", help="Monte Carlo run against the closed form")
    p.add_argument("--protocol", choices=["phase", "su2"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=100_000)
    add_common(p)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("scaling", help="error-scaling table for external plotting")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--step", type=int, default=1)
    add_common(p)
    p.set_defaults(func=cmd_scaling)

    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result, header, rows, code = args.func(args)
        _emit(_render(_manifest(args), result, args.format, header, rows), args.output)
    except _UsageError as exc:
        print(f"covest: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
