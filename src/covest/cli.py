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
from .su2_design import (
    asymptotic_error_su2,
    design_optimal,
    self_entanglement_feasible,
    single_irrep_error,
)
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
# simulate builds the density's Fourier coefficients from an FFT
# autocorrelation, O(n log n): the phase protocol takes 0.3-0.4 s at
# n = 10^5 (60 MB).  The su2 protocol adds an O(n^2) self-convolution,
# 1.0-2.0 s at n = 10^5 and about 100 times that at 10^6.
MAX_SIMULATE_N = 100_000
# simulate draws every trial at once, about 46 bytes per trial (494 MB at
# 10^7 trials), so 2 * 10^7 trials peak near 1 GB.
MAX_TRIALS = 20_000_000
# scaling solves every n up to max-n, O(max_n^2) work in all: 1.2 s at 5000.
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


def _manifest(command, parameters, seed):
    return {
        "command": command,
        "parameters": parameters,
        "seed": seed,
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
        with open(_resolve_output(output), "w") as fh:
            fh.write(text)


def _render_csv(manifest, header, rows):
    buf = io.StringIO()
    for key in ("command", "seed", "version", "timestamp"):
        buf.write(f"# {key}={manifest[key]}\n")
    buf.write(f"# parameters={json.dumps(manifest['parameters'], sort_keys=True)}\n")
    buf.write(header + "\r\n")
    writer = csv.writer(buf)
    writer.writerows(rows)
    return buf.getvalue()


def _render(manifest, result, fmt, header=None, rows=None):
    if fmt == "json":
        return json.dumps({"manifest": manifest, "result": result}, indent=2)
    return _render_csv(manifest, header, rows)


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
    manifest = _manifest("phase-opt", {"n": n, "method": method, "format": args.format}, None)
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
    text = _render(manifest, result, args.format,
                   header="n,method,k,amplitude,error,asymptote,ratio", rows=rows)
    _emit(text, args.output)
    return EXIT_OK


def cmd_su2_design(args):
    n, mode = args.n, args.mode
    if n > MAX_SU2_N:
        raise _UsageError(f"n must be <= {MAX_SU2_N}")
    try:
        report = self_entanglement_feasible(n)
        design = design_optimal(n, mode)
    except ValueError as exc:
        raise _UsageError(str(exc))
    spectrum = {b.dim: b for b in report.blocks}
    blocks = [
        {
            "dim": dim,
            "multiplicity": spectrum[dim].multiplicity,
            "amplitude": float(amp),
            "feasible": spectrum[dim].feasible,
        }
        for dim, amp in zip(design.blocks.block_dims, design.blocks.amplitudes)
    ]
    asym = asymptotic_error_su2(n)
    manifest = _manifest(
        "su2-design", {"n": n, "mode": mode, "format": args.format}, None
    )
    result = {
        "n": n,
        "mode": mode,
        "error": design.error,
        "asymptote": asym,
        "ratio": design.error * n * n / math.pi**2,
        "seed_matrix": "rank-one optimal seed built from the amplitude phases",
        "blocks": blocks,
        "feasibility": {
            "usable_dims": list(report.usable_dims),
            "achievable_error": report.achievable_error,
        },
    }
    rows = [
        [n, mode, b["dim"], b["multiplicity"], b["amplitude"], b["feasible"],
         design.error, asym]
        for b in blocks
    ]
    text = _render(manifest, result, args.format,
                   header="n,mode,dim,multiplicity,amplitude,feasible,error,asymptote",
                   rows=rows)
    _emit(text, args.output)
    return EXIT_OK


def _tridiagonal(m):
    """(1/2) delta_{k,l} - (1/4) delta_{k,l+-1}, the error kernel of both groups."""
    return 0.5 * np.eye(m) - 0.25 * (np.eye(m, k=1) + np.eye(m, k=-1))


def _verify_rows(kmax):
    even, odd = range(2, 2 * kmax + 1, 2), range(1, 2 * kmax, 2)
    su2_even, su2_odd = su2_kernel_matrix(even), su2_kernel_matrix(odd)
    u1 = phase_kernel_matrix(range(kmax + 1))
    # the diagonals hold the single-irrep integrals of dimensions 1..2 kmax
    single = np.concatenate([np.diag(su2_odd), np.diag(su2_even)])
    expected = [single_irrep_error(j) for j in (*odd, *even)]

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
    if args.tol <= 0.0:
        raise _UsageError("tol must be positive")
    checks = _verify_rows(args.kmax)
    all_pass = all(dev <= args.tol for _, dev in checks)
    manifest = _manifest(
        "verify-integrals",
        {"kmax": args.kmax, "tol": args.tol, "format": args.format},
        None,
    )
    result = {
        "pass": all_pass,
        "identities": [
            {"identity": name, "worst_abs_deviation": dev, "pass": dev <= args.tol}
            for name, dev in checks
        ],
    }
    rows = [[name, dev, dev <= args.tol] for name, dev in checks]
    text = _render(manifest, result, args.format,
                   header="identity,worst_abs_deviation,pass", rows=rows)
    _emit(text, args.output)
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


def cmd_simulate(args):
    if not 2 <= args.trials <= MAX_TRIALS:
        raise _UsageError(f"trials must be between 2 and {MAX_TRIALS}")
    if args.n > MAX_SIMULATE_N:
        raise _UsageError(f"n must be <= {MAX_SIMULATE_N}")
    try:
        config = SimConfig(args.protocol, args.n, args.trials, args.seed,
                           args.grid_size)
        if args.protocol == "phase":
            design = optimal_input(args.n)
        else:
            design = design_optimal(args.n, "external")
        result_obj = simulate(config, design)
    except (ValueError, TypeError) as exc:
        raise _UsageError(str(exc))
    manifest = _manifest(
        "simulate",
        {
            "protocol": args.protocol,
            "n": args.n,
            "trials": args.trials,
            "grid_size": args.grid_size,
            "format": args.format,
        },
        args.seed,
    )
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
    text = _render(
        manifest, result, args.format,
        header="protocol,n,trials,empirical_mean_error,standard_error,closed_form,z_score,pass",
        rows=rows)
    _emit(text, args.output)
    return EXIT_OK if passed else EXIT_VERIFY_FAIL


def cmd_scaling(args):
    if not 2 <= args.max_n <= MAX_SCALING_N:
        raise _UsageError(f"max-n must be between 2 and {MAX_SCALING_N}")
    if args.step < 1:
        raise _UsageError("step must be >= 1")
    rows = []
    for n in range(args.step, args.max_n + 1, args.step):
        phase_exact = optimal_input(n).error
        phase_bdm = min_covariant_error(bdm_input(n))
        su2_err = design_optimal(n, "external").error
        rows.append([
            n, phase_exact, phase_bdm, asymptotic_error(n),
            su2_err, asymptotic_error_su2(n),
        ])
    manifest = _manifest(
        "scaling",
        {"max_n": args.max_n, "step": args.step, "format": args.format},
        None,
    )
    keys = SCALING_HEADER.split(",")
    result = {"rows": [dict(zip(keys, row)) for row in rows]}
    text = _render(manifest, result, args.format, header=SCALING_HEADER, rows=rows)
    _emit(text, args.output)
    return EXIT_OK


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
    p.add_argument("--grid-size", type=int, default=4096)
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
        return args.func(args)
    except _UsageError as exc:
        print(f"covest: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
