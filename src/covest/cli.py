"""Command-line front end: design optimization, integral checks, scaling, simulation.

Every run emits a manifest (command, parameters, seed, version, timestamp)
alongside the result, as JSON (one object per run) or CSV (manifest in
leading comment lines).  Each command builds only its JSON result, typed per
command in schemas/run.schema.json; the CSV table is derived from that
result by the one rule of `_csv_table`.  Exit codes: 0 success/pass,
1 usage error, 2 verification failure.
"""

import argparse
import json
import math
import os
import re
import sys
from dataclasses import asdict
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .phase import (
    _bdm_error, _sine_error, asymptotic_error, bdm_input, min_covariant_error, optimal_input,
)
from .simulate import SimConfig, simulate
from .su2_design import (
    _self_entangled_top, asymptotic_error_su2, design_optimal, multiplicity_spectrum,
)
from .integrals import phase_kernel_matrix, su2_kernel_matrix

# Fixed default so bare invocations are reproducible; override with --seed.
DEFAULT_SEED = 20040725

OUTPUT_DIR_ENV = "COVEST_OUTPUT_DIR"

# su2-design prints each block's exact multiplicity, an integer of about
# 0.3 n digits.  Python refuses to print integers of more than 4300 digits,
# which C(n, n/2) passes just above n = 14 000: that bound on printable
# integers, not time or memory, sets the limit.
MAX_SU2_N = 10_000

# Limits on the other commands' sizes, each far above the benchmark's and
# checked before any work, so that a large request is a usage error and not
# an out-of-memory kill or an hours-long run.
# phase-opt holds O(n) arrays and its n+1 amplitudes as Python floats, and
# streams its output in either format: memory, linear in n, sets the limit,
# and 10^7 would need over 1 GB.
MAX_PHASE_N = 1_000_000
# simulate builds the density's Fourier coefficients from one zero-padded
# FFT, in O(n log n) time and O(n) memory.  The law-gap gate sets the limit:
# LAW_GAP_TOL below is absolute, while the error it guards falls as 1/n^2.
MAX_SIMULATE_N = 100_000
# simulate draws the bin counts of all its trials as one multinomial over
# the fixed grid, so neither its time nor its memory grows with the trial
# count: no resource bounds it, and the limit stays as the CLI's contract.
MAX_TRIALS = 20_000_000
# scaling takes every error of a row from its closed form, O(1), so its time
# and memory are linear in max_n.  The list of rows, six Python numbers in a
# dict each, sets the limit: about 74 MB at 10^5 and 120 MB at 2 * 10^5.
MAX_SCALING_N = 100_000
# verify-integrals builds three kernel matrices at O(kmax) nodes, each one
# product of a real sine or cosine table with itself: O(kmax^2) sines and
# cosines and O(kmax^3) multiply-adds, so time, cubic in kmax, sets the limit.
MAX_KMAX = 100

# simulate's law gap, the exact mean loss of its binned law minus the closed
# form, is roundoff for a valid design: at most 4.4e-16 over the optimal
# designs of n <= 300 and of sizes up to 10^5 (on 256 to 2^22 bins) and over
# 440 random-seed designs of up to 300 levels, so this bound has 200-fold
# headroom.  A larger gap fails the run, whatever the z-score.
LAW_GAP_TOL = 1e-13

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2

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


def _cells(prefix, obj):
    """(dotted path, cell) for every value of the JSON object obj, in key order."""
    for key, value in obj.items():
        if isinstance(value, dict):
            yield from _cells(f"{prefix}{key}.", value)
        else:
            yield prefix + key, json.dumps(value) if isinstance(value, list) else value


# A CSV cell is quoted when it holds a delimiter, a quote or a line break,
# which is csv.writer's QUOTE_MINIMAL under the default dialect.
_QUOTED = re.compile('[,"\r\n]').search
# Cells of these types are their str, which never needs quoting or is empty.
_NUMBERS = {int, float, bool}
# A CSV table is written a chunk of rows at a time, each chunk one %-format of
# the row template repeated: about _CSV_TEXT characters of template, so that
# the writer's memory does not grow with the table, and one row at least.
_CSV_TEXT = 2**16


def _cell_text(cell, alone):
    """A cell as csv.writer writes it: empty for null, str of any other value,
    quoted with its quotes doubled where _QUOTED finds a character, and an
    empty cell alone in its row quoted as "" so that the row is not blank."""
    text = "" if cell is None else str(cell)
    if _QUOTED(text) or alone and not text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _csv_table(fh, result):
    """Write the CSV header and rows of a JSON result into fh, by one rule.

    - Rows: the result's one list field gives the rows; a result without
      one gives one row.
    - Repeated values: every other value repeats on each row.
    - Column names: dotted JSON paths, in the result's key order, such as
      blocks.dim and feasibility.achievable_error.
    - Lists of numbers: a list of plain numbers adds an `index` column
      before its value column.
    - Nested lists: a list inside an object, such as
      feasibility.usable_dims, is one cell holding its JSON text.
    - Cell values: null is an empty cell; numbers, strings and booleans are
      their str, so floats as their repr and True/False.  Quoting and the
      \r\n row ends are csv.writer's defaults (_cell_text).

    Every item of the list has the keys of the first, as the schema requires.
    The repeated cells are text of one row template and the row's own cells
    its %s fields, so a chunk of rows is one %-format.
    """
    keys = list(result)
    listed = next((k for k in keys if isinstance(result[k], list)), None)
    cut = keys.index(listed) if listed else len(keys)
    head, tail = (dict(_cells("", {k: result[k] for k in part}))
                  for part in (keys[:cut], keys[cut + 1:]))
    items = result[listed] if listed else [{}]
    flat = isinstance(items[0], dict)
    names = [name for name, _ in _cells(f"{listed}.", items[0])] if flat else ["index", listed]
    header = [*head, *names, *tail]
    alone = len(header) == 1
    fh.write(",".join(_cell_text(name, alone) for name in header) + "\r\n")
    head, tail = ([_cell_text(cell, alone).replace("%", "%%") for cell in part.values()]
                  for part in (head, tail))
    row = ",".join([*head, *["%s"] * len(names), *tail]) + "\r\n"
    size = max(1, _CSV_TEXT // len(row))
    for start in range(0, len(items), size):
        chunk = items[start:start + size]
        if flat:
            cells = [cell for item in chunk for _, cell in _cells("", item)]
        else:
            cells = [None] * (2 * len(chunk))
            cells[::2], cells[1::2] = range(start, start + len(chunk)), chunk
        if not _NUMBERS.issuperset(map(type, cells)):
            cells = [_cell_text(cell, alone) for cell in cells]
        fh.write(row * len(chunk) % tuple(cells))


# A JSON list is written _CHUNK items at a time, so that the writer's memory
# does not grow with it: 128 su2-design blocks at n = 10^4 are under 0.5 MB of
# text.  A chunk of scalars or of flat objects takes one call of the C encoder,
# which json.dumps skips when given an indent; JSON escapes newlines inside
# strings, so its items split at "\n".
_CHUNK = 128
_SCALARS = {str, int, float, bool, type(None)}
_ITEMS = json.JSONEncoder(separators=("\n", ": ")).encode


def _flat_text(chunk, inner):
    """The items of a chunk of scalars, or of flat objects with one key order,
    joined as json.dump(..., indent=2) joins them; None for any other chunk."""
    keys = list(chunk[0]) if isinstance(chunk[0], dict) else None
    if keys and all(isinstance(row, dict) and list(row) == keys for row in chunk):
        cells = [cell for row in chunk for cell in row.values()]
        item = "{" + ",".join(f"{inner}  {json.dumps(key).replace('%', '%%')}: %s"
                              for key in keys) + inner + "}"
    else:
        cells, item = chunk, "%s"
    if _SCALARS.issuperset(map(type, cells)):
        return ("," + inner).join([item] * len(chunk)) % tuple(_ITEMS(cells)[1:-1].split("\n"))


def _json(fh, value, pad="\n"):
    """Write value into fh as json.dump(value, fh, indent=2) does; pad starts its lines."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        for i, (key, item) in enumerate(value.items()):
            fh.write(f"{',' if i else '{'}{inner}{json.dumps(key)}: ")
            _json(fh, item, inner)
        fh.write(pad + "}")
    elif isinstance(value, list) and value:
        for start in range(0, len(value), _CHUNK):
            chunk = value[start:start + _CHUNK]
            text = _flat_text(chunk, inner)
            fh.write(("," if start else "[") + inner + (text or ""))
            for i, item in enumerate(() if text else chunk):  # any other chunk, item by item
                fh.write("," + inner if i else "")
                _json(fh, item, inner)
        fh.write(pad + "]")
    else:
        fh.write(json.dumps(value))


def _write(fh, manifest, result, fmt):
    """Write the run once, straight into fh, JSON or CSV a chunk at a time."""
    if fmt == "json":
        _json(fh, {"manifest": manifest, "result": result})
        return
    for key in ("command", "seed", "version", "timestamp"):
        fh.write(f"# {key}={manifest[key]}\n")
    fh.write(f"# parameters={json.dumps(manifest['parameters'], sort_keys=True)}\n")
    _csv_table(fh, result)


def _emit(manifest, result, fmt, output):
    """The run on stdout, JSON with a trailing newline, or in the --output file."""
    if output is None:
        _write(sys.stdout, manifest, result, fmt)
        if fmt == "json":
            sys.stdout.write("\n")
        return
    # relative to $COVEST_OUTPUT_DIR if set; join keeps an absolute path as it is
    path = os.path.join(os.environ.get(OUTPUT_DIR_ENV, ""), output)
    try:
        # newline="" writes the CSV rows' \r\n ends unchanged, as the csv docs ask
        with open(path, "w", newline="") as fh:
            _write(fh, manifest, result, fmt)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc.strerror}") from exc


# Each cmd_* returns (JSON result, exit code) to main.


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
    amps = state.amplitudes.real.tolist()
    asym = asymptotic_error(n) if n >= 1 else None
    ratio = error * 4.0 * n * n / math.pi**2 if n >= 1 else None
    result = {"n": n, "method": method, "amplitudes": amps, "error": error,
              "asymptote": asym, "ratio": ratio}
    return result, EXIT_OK


def cmd_su2_design(args):
    n, mode = args.n, args.mode
    if n > MAX_SU2_N:
        raise _UsageError(f"n must be <= {MAX_SU2_N}")
    try:
        design = design_optimal(n, mode)
    except ValueError as exc:
        raise _UsageError(str(exc))
    spectrum, top = multiplicity_spectrum(n), _self_entangled_top(n)
    blocks = [
        {"dim": dim, "multiplicity": mult, "amplitude": amp,
         "feasible": top is not None and dim <= top}
        for (dim, mult), amp in zip(spectrum, design.input.amplitudes.real.tolist())
    ]
    usable = [b["dim"] for b in blocks if b["feasible"]]
    achievable = None if top is None else _sine_error(top)
    result = {"n": n, "mode": mode, "error": design.error, "asymptote": asymptotic_error_su2(n),
              "ratio": design.error * n * n / math.pi**2, "blocks": blocks,
              "feasibility": {"usable_dims": usable, "achievable_error": achievable}}
    return result, EXIT_OK


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
    return result, EXIT_OK if all_pass else EXIT_VERIFY_FAIL


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
        sim = simulate(config, design)
    except ValueError as exc:
        raise _UsageError(str(exc))
    passed = abs(sim.z_score) < 4.0 and abs(sim.law_gap) <= LAW_GAP_TOL
    return {**asdict(sim), "pass": passed}, EXIT_OK if passed else EXIT_VERIFY_FAIL


def cmd_scaling(args):
    if not 2 <= args.max_n <= MAX_SCALING_N:
        raise _UsageError(f"max-n must be between 2 and {MAX_SCALING_N}")
    if not 1 <= args.step <= args.max_n:
        raise _UsageError("step must be between 1 and max-n")
    # the optima's largest dimensions: 2n+2 for phase, n+1 for an external SU(2) reference
    rows = [
        {"n": n, "phase_exact": _sine_error(2 * n + 2),
         "phase_bdm": _bdm_error(n), "phase_asymptote": asymptotic_error(n),
         "su2_error": _sine_error(n + 1), "su2_asymptote": asymptotic_error_su2(n)}
        for n in range(args.step, args.max_n + 1, args.step)
    ]
    return {"rows": rows}, EXIT_OK


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
        result, code = args.func(args)
        _emit(_manifest(args), result, args.format, args.output)
    except _UsageError as exc:
        print(f"covest: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return code


def run():
    import signal

    # `covest ... | head` then ends quietly on SIGPIPE, as cat does
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
