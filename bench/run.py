"""Benchmark of the `covest` CLI and library, one cold process per operation.

    python3 bench/run.py --workload design-large --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is imported from the `src` directory next to
this one.  Each operation runs in its own fresh interpreter
(`bench/child.py`), one at a time.  A run repeats whole rounds of the
workload's operations until `--seconds` have passed (at least one round) and
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`:

  --trace 0: setup_s, wall_s, compute_s, peak_rss_mb (medians over rounds)
  --trace 1: one untraced round, then the same operations again under the
             layer tracer (bench/layers.py); prints the per-layer metrics
             and the tracing overhead

`--quick` shrinks every input so that a whole run takes seconds; it is for
the benchmark's own test.  Progress and the environment go to stderr.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

import numpy as np

import checks
import layers

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CHILD = os.path.join(HERE, "child.py")

# Every run must end within 180 s; a child still running then is killed.
RUN_DEADLINE_S = 170.0

# The phase n=1000 simulation fails its z-gate on every seed, because the
# sampler's grid law is biased; it runs on this fixed seed so that the
# failure never depends on the benchmark's --seed.
KNOWN_FAULT_SEED = 20040725

WORKLOADS = ("design-large", "small-n", "mc-large-n")


def cli(command, known_fault=False, **params):
    argv = [command]
    for key, value in params.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    return {"name": " ".join(argv), "check": command, "params": params,
            "child": {"kind": "cli", "argv": argv}, "known_fault": known_fault}


def haar_irreps(seed, elements, js):
    return {"name": f"haar-irreps elements={elements} js={list(js)}", "check": "haar-irreps",
            "params": {"js": list(js)}, "known_fault": False,
            "child": {"kind": "haar-irreps", "seed": seed, "elements": elements, "js": list(js)}}


def operations(workload, seed, rnd, quick):
    """The operations of one round; simulation seeds come from (seed, round)."""
    s = [int(x) for x in np.random.SeedSequence([seed, rnd]).generate_state(3)]
    if workload == "design-large":
        n = 40 if quick else 2000
        return [
            cli("phase-opt", n=n),
            cli("phase-opt", n=n, method="bdm"),
            cli("su2-design", n=n - 1),
            cli("su2-design", n=n),
            cli("su2-design", n=n, mode="self-entangled"),
        ]
    if workload == "small-n":
        trials = 20_000 if quick else 10_000_000
        return [
            cli("scaling", max_n=12 if quick else 100),
            cli("verify-integrals", kmax=8 if quick else 60),
            cli("simulate", protocol="phase", n=10, trials=trials, seed=s[0]),
            cli("simulate", protocol="su2", n=5, trials=trials, seed=s[1]),
        ]
    if quick:
        return [
            cli("simulate", protocol="su2", n=41, trials=20_000, seed=s[0]),
            cli("simulate", protocol="phase", n=40, trials=20_000, seed=KNOWN_FAULT_SEED,
                known_fault=True),
            haar_irreps(s[2], 500, (1, 2, 3, 6)),
        ]
    return [
        cli("simulate", protocol="su2", n=601, trials=100_000, seed=s[0]),
        cli("simulate", protocol="phase", n=1000, trials=1_000_000, seed=KNOWN_FAULT_SEED,
            known_fault=True),
        haar_irreps(s[2], 10_000, (1, 2, 3, 6, 12, 25)),
    ]


def problems_of(op, record):
    """What is wrong with one operation's output, by the independent checks."""
    out = record["output"]
    if op["check"] == "haar-irreps":
        return checks.check_haar(op["params"], out)
    if out["exit_code"] not in (0, 2):  # 2 is a failed verification, reported in the output
        return [f"exit code {out['exit_code']}: {out['stderr'].strip()[-300:]}"]
    try:
        result = json.loads(out["stdout"])["result"]
        return checks.CHECKS[op["check"]](op["params"], result)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {exc!r}"]


def is_known_fault(op, problems):
    """The named fault: the z-gate, and nothing else, fails."""
    return op["known_fault"] and all(p.startswith(checks.Z_FAILURE) for p in problems)


def run_op(op, trace, deadline):
    cmd = [sys.executable, CHILD, SRC, "1" if trace else "0", json.dumps(op["child"])]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, ["killed at the run deadline"]
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return None, [f"benchmark child exited with code {proc.returncode}"]
    record = json.loads(stdout)
    record["wall_s"] = wall
    return record, problems_of(op, record)


def run_round(ops, trace, deadline, tally):
    records = []
    for op in ops:
        record, problems = run_op(op, trace, deadline)
        tally["attempted"] += 1
        status = "ok"
        if problems:
            known = is_known_fault(op, problems)
            tally["failed"] += 1
            tally["correct"] = tally["correct"] and known
            status = ("known fault: " if known else "FAILED: ") + "; ".join(problems[:3])
        if record is None:
            log(op=op["name"], trace=trace, status=status)
            return None
        log(op=op["name"], trace=trace, status=status,
            **{k: round(record[k], 3) for k in ("wall_s", "setup_s", "compute_s", "peak_rss_mb")})
        records.append(record)
    return records


def log(**fields):
    print(json.dumps(fields), file=sys.stderr, flush=True)


def host_steal_s():
    """CPU time the hypervisor gave to other guests, summed over CPUs (Linux)."""
    try:
        with open("/proc/stat") as fh:
            return int(fh.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def environment():
    blas = {v: os.environ.get(v, "unset")
            for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "blas_threads": blas}


def end_to_end(rounds):
    procs = [r for rnd in rounds for r in rnd]
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in procs), "s"),
        "wall_s": (statistics.median(sum(r["wall_s"] for r in rnd) for rnd in rounds), "s"),
        "compute_s": (statistics.median(sum(r["compute_s"] for r in rnd) for rnd in rounds), "s"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in procs), "MB"),
    }


def per_layer(untraced, traced):
    inclusive, calls, self_time, counts = {}, {}, {}, {}
    for rec in traced:
        t = rec["trace"]
        for total, part in ((inclusive, t["inclusive"]), (calls, t["calls"]),
                            (self_time, t["self"]), (counts, t["counts"])):
            for k, v in part.items():
                total[k] = total.get(k, 0) + v
    compute = sum(r["compute_s"] for r in traced)
    simulate_s = inclusive.get("simulate.simulate", 0.0)
    density_s = inclusive.get("simulate.density", 0.0)
    trials = counts.get("simulate.trials", 0)
    sampler_s = simulate_s - density_s
    return {
        "cli.self_s": (self_time.get("cli", 0.0), "s"),
        "cli.output_bytes": (sum(len(r["output"].get("stdout", "").encode()) for r in traced),
                             "bytes"),
        "phase.optimal_input_s": (inclusive.get("phase.optimal_input", 0.0), "s"),
        "phase.optimal_input_calls": (calls.get("phase.optimal_input", 0), "count"),
        "phase.seed_matrix_s": (inclusive.get("phase.SeedMatrix", 0.0), "s"),
        "phase.seed_matrix_bytes": (counts.get("phase.seed_matrix_bytes", 0), "bytes"),
        "phase.self_s": (self_time.get("phase", 0.0), "s"),
        "su2.multiplicity_spectrum_s": (inclusive.get("su2.multiplicity_spectrum", 0.0), "s"),
        "su2.character_s": (inclusive.get("su2.character", 0.0), "s"),
        "su2.character_terms": (counts.get("su2.character_terms", 0), "count"),
        "su2.irrep_matrix_batch_s": (inclusive.get("su2.irrep_matrix_batch", 0.0), "s"),
        "su2.self_s": (self_time.get("su2", 0.0), "s"),
        "su2_design.design_optimal_s": (inclusive.get("su2_design.design_optimal", 0.0), "s"),
        "su2_design.design_optimal_calls": (calls.get("su2_design.design_optimal", 0), "count"),
        "su2_design.feasibility_s":
            (inclusive.get("su2_design.self_entanglement_feasible", 0.0), "s"),
        "su2_design.self_s": (self_time.get("su2_design", 0.0), "s"),
        "integrals.self_s": (self_time.get("integrals", 0.0), "s"),
        "integrals.kernel_calls": (sum(calls.get(k, 0) for k in layers.KERNELS), "count"),
        "integrals.quadrature_nodes": (counts.get("integrals.quadrature_nodes", 0), "count"),
        "simulate.simulate_s": (simulate_s, "s"),
        "simulate.self_s": (self_time.get("simulate", 0.0), "s"),
        "simulate.density_s": (density_s, "s"),
        "simulate.sampler_trials_per_s": (trials / sampler_s if sampler_s > 0 else 0.0, "1/s"),
        "process.cpu_s": (sum(r["cpu_s"] for r in untraced), "s"),
        "trace.compute_s": (compute, "s"),
        "trace.overhead_s": (compute - sum(r["compute_s"] for r in untraced), "s"),
        "trace.unattributed_s": (compute - sum(self_time.values()), "s"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "covest", "cli.py")):
        sys.exit(f"bench: no covest sources at {SRC}")
    log(environment=environment(), workload=args.workload, seed=args.seed, trace=args.trace)

    start, deadline, steal = time.perf_counter(), time.monotonic() + RUN_DEADLINE_S, host_steal_s()
    tally = {"attempted": 0, "failed": 0, "correct": True}
    rounds = []
    while not rounds or (not args.trace and time.perf_counter() - start < args.seconds):
        records = run_round(operations(args.workload, args.seed, len(rounds), args.quick),
                            False, deadline, tally)
        if records is None:
            break
        rounds.append(records)
    metrics = {}
    if rounds:
        if args.trace:
            traced = run_round(operations(args.workload, args.seed, 0, args.quick),
                               True, deadline, tally)
            if traced is not None:
                metrics = per_layer(rounds[0], traced)
                log(tracing={k: round(v[0], 4) for k, v in metrics.items()
                             if k.startswith("trace.")})
        else:
            metrics = end_to_end(rounds)
    log(host_steal_s=round(host_steal_s() - steal, 2))
    result = {
        "correct": tally["correct"] and bool(metrics),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
