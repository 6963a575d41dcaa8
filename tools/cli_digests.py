"""Print a digest of every CLI output for a fixed list of argument lists.

    python3 tools/cli_digests.py SRC_DIR > digests.txt

Each argument list runs `covest.cli.main` in a fresh interpreter with
SRC_DIR first on sys.path, writing no bytecode cache into SRC_DIR.  One
line per list: the argv, the exit code, the sha256 of stdout without the
manifest `timestamp` line, and the sha256 of stderr.  Both are hashed as
the raw bytes the CLI wrote, so a change of line terminator (CSV rows end
in \r\n) changes the digest.  Two source trees give the same CLI contract
when `diff` of their digest files is empty.
"""

import hashlib
import subprocess
import sys

RUN = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
       "from covest.cli import main; sys.exit(main(sys.argv[1:]))")

SIZES = list(range(51))
# the limits of su2-design (10 000) and phase-opt (10^6) are in CSV too
CSV_SIZES = {0, 1, 2, 3, 7, 50, 1000, 2000, 10_000, 1_000_000}


def argument_lists():
    lists = []
    # 10^6 is phase-opt's limit (MAX_PHASE_N)
    for n in SIZES + [1000, 5000, 1_000_000]:
        lists += [["phase-opt", "--n", str(n)], ["phase-opt", "--n", str(n), "--method", "bdm"]]
    # 10 000 is su2-design's limit (MAX_SU2_N)
    for n in SIZES + [999, 1000, 1999, 2000, 10_000]:
        for mode in ("external", "self-entangled"):
            lists.append(["su2-design", "--n", str(n), "--mode", mode])
    lists += [["verify-integrals", "--kmax", str(k)] for k in (1, 30, 60, 100)]
    # every identity fails: exit 2, pass false in every row
    lists.append(["verify-integrals", "--kmax", "3", "--tol", "1e-16"])
    # the least max-n, a one-row table, and the limit (MAX_SCALING_N, 10^5)
    lists += [["scaling", "--max-n", "2"], ["scaling", "--max-n", "50", "--step", "50"],
              ["scaling", "--max-n", "100"], ["scaling", "--max-n", "300", "--step", "7"],
              ["scaling", "--max-n", "10000"], ["scaling", "--max-n", "10000", "--step", "997"],
              ["scaling", "--max-n", "100000"]]
    lists += [
        ["simulate", "--protocol", "phase", "--n", "1000", "--trials", "1000000",
         "--seed", "20040725"],
        ["simulate", "--protocol", "su2", "--n", "601", "--seed", "1245426431"],
    ]
    for protocol, n in [("phase", 1), ("phase", 10), ("su2", 1), ("su2", 2), ("su2", 5)]:
        for seed in ("1", "20040725"):
            lists.append(["simulate", "--protocol", protocol, "--n", str(n), "--seed", seed])
    csv = [argv + ["--format", "csv"] for argv in lists
           if argv[0] not in ("phase-opt", "su2-design") or int(argv[2]) in CSV_SIZES]
    # the benchmark's large trial counts, and the CLI's limits on n and trials
    large_trials = [["simulate", "--protocol", protocol, "--n", n, "--trials", trials,
                     "--seed", "20040725"]
                    for protocol, n, trials in [("phase", "10", "10000000"),
                                                ("su2", "5", "10000000"), ("su2", "5", "20000000")]]
    large_trials.append(["simulate", "--protocol", "phase", "--n", "100000",
                         "--trials", "20000000"])
    usage = [
        [], ["nonsense"], ["phase-opt"], ["phase-opt", "--n", "-1"],
        ["phase-opt", "--n", "1000001"],
        ["su2-design", "--n", "10001"], ["su2-design", "--n", "3", "--seed", "1"],
        ["su2-design", "--n", "3", "--mode", "other"],
        ["verify-integrals", "--kmax", "0"], ["verify-integrals", "--kmax", "101"],
        ["verify-integrals", "--tol", "nan"], ["scaling", "--max-n", "0"],
        ["scaling", "--max-n", "100001"], ["scaling", "--max-n", "10", "--step", "0"],
        ["scaling", "--max-n", "4", "--step", "10"],
        ["simulate", "--protocol", "su2", "--n", "0"],
        ["simulate", "--protocol", "phase", "--n", "2", "--trials", "1"],
        ["simulate", "--protocol", "phase", "--n", "2", "--grid-size", "100"],
        ["simulate", "--protocol", "phase", "--n", "2", "--grid-size", "1125899906842624"],
        ["phase-opt", "--n", "3", "--output", "/nonexistent/dir/x.json"],
    ]
    return lists + csv + large_trials + usage


def digest_line(src, argv):
    """The digest line of one argument list run against the source tree `src`."""
    proc = subprocess.run([sys.executable, "-I", "-B", "-c", RUN, src, *argv], capture_output=True)
    stdout = b"".join(line for line in proc.stdout.splitlines(keepends=True)
                      if b'"timestamp":' not in line and not line.startswith(b"# timestamp="))
    return " ".join([" ".join(argv) or "(none)", str(proc.returncode),
                     hashlib.sha256(stdout).hexdigest(), hashlib.sha256(proc.stderr).hexdigest()])


def main():
    for argv in argument_lists():
        print(digest_line(sys.argv[1], argv))


if __name__ == "__main__":
    main()
