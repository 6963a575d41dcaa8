"""Replay `simulate`'s |z| < 4 gate on the benchmark's own seeds.

    python3 tools/replay_gate.py --protocol su2 --n 601 --trials 100000 \
        --seeds 0:41 --rounds 0:30
    python3 tools/replay_gate.py --quick

`bench/run.py --seed S` gives round R's simulations the seeds
`SeedSequence([S, R]).generate_state(3)`: small-n uses word 0 for phase
n = 10 and word 1 for su2 n = 5, and mc-large-n word 0 for su2 n = 601.
This script runs `simulate` in-process on word `--word` of every (S, R) in
the given half-open ranges, prints each run with |z| >= 3, and ends with a
JSON summary: the run count, the counts of |z| >= 3 and |z| >= 4, and the
mean, standard deviation and largest |z|.  It exits 1 when any run has
|z| >= 4.

`--quick` replays a fixed set that takes seconds: su2 n = 601 at 10^5
trials on seeds 0-40 x rounds 0-5 (round 5 of seed 24 included), su2
n = 600 at 10^5 trials on seeds 0-40 (even n, whose mirrored law has no
zero row at frequency 0), phase n = 1000 at 10^6 trials on seeds 0-40,
word 1 (the benchmark runs it on one fixed seed), phase n = 10 and su2
n = 5 at 10^6 trials on seeds 0-9, and phase n = 10^5 at 10^5 trials on
seeds 0-9, the law narrowest against the 4096 bins.  Its seeds are fixed,
and simulate draws its bin counts as one multinomial on one thread, so its
bits do not depend on the CPU count and the replay passes or fails the same
way on every run.  A run costs the grid's work, not the trials': on 2 vCPUs
`--quick` takes 1.5 s, and 3000 seeds of su2 n = 601 at 10^5 trials or of
phase n = 1000 at 10^6 replay in about 4.5 s each.
"""

import argparse
import json
import math
import os
import statistics
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from covest import SimConfig, design_optimal, optimal_input, simulate  # noqa: E402

QUICK = [
    # protocol, n, trials, seeds, rounds, word
    ("su2", 601, 100_000, range(41), range(6), 0),
    ("su2", 600, 100_000, range(41), range(1), 0),
    ("phase", 1000, 1_000_000, range(41), range(1), 1),
    ("phase", 10, 1_000_000, range(10), range(1), 0),
    ("su2", 5, 1_000_000, range(10), range(1), 1),
    ("phase", 100_000, 100_000, range(10), range(1), 0),
]


def replay(protocol, n, trials, seeds, rounds, word):
    """|z| of simulate on word `word` of SeedSequence([s, r]) for every s, r."""
    design = optimal_input(n) if protocol == "phase" else design_optimal(n)
    zs = []
    for s in seeds:
        for r in rounds:
            seed = int(np.random.SeedSequence([s, r]).generate_state(3)[word])
            z = simulate(SimConfig(trials, seed), design).z_score
            if not abs(z) < 3.0:
                print(json.dumps({"protocol": protocol, "n": n, "trials": trials,
                                  "bench_seed": s, "round": r, "seed": seed, "z": z}))
            zs.append(z)
    return zs


def summary(name, zs):
    return {
        "replay": name,
        "runs": len(zs),
        "z_ge_3": sum(not abs(z) < 3.0 for z in zs),
        "z_ge_4": sum(not abs(z) < 4.0 for z in zs),
        "mean_z": statistics.fmean(zs),
        "sd_z": statistics.stdev(zs) if len(zs) > 1 else math.nan,
        "max_abs_z": max(abs(z) for z in zs),
    }


def half_open(text):
    start, stop = text.split(":")
    return range(int(start), int(stop))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="the fixed set of seeds above")
    parser.add_argument("--protocol", choices=["phase", "su2"])
    parser.add_argument("--n", type=int)
    parser.add_argument("--trials", type=int)
    parser.add_argument("--seeds", type=half_open, default=range(41),
                        help="bench --seed values, A:B")
    parser.add_argument("--rounds", type=half_open, default=range(30), help="rounds, A:B")
    parser.add_argument("--word", type=int, choices=(0, 1, 2), default=0)
    args = parser.parse_args(argv)
    if args.quick:
        cases = QUICK
    elif None in (args.protocol, args.n, args.trials):
        parser.error("give --protocol, --n and --trials, or --quick")
    else:
        cases = [(args.protocol, args.n, args.trials, args.seeds, args.rounds, args.word)]
    failed = False
    for case in cases:
        result = summary(" ".join(map(str, case[:3])), replay(*case))
        print(json.dumps(result), flush=True)
        failed = failed or result["z_ge_4"] > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
