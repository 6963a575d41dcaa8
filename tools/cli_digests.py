"""Print a digest of every CLI output for a fixed list of argument lists.

    python3 tools/cli_digests.py SRC_DIR > digests.txt

Each argument list runs `covest.cli.main` in a fresh interpreter with
SRC_DIR first on sys.path, writing no bytecode cache into SRC_DIR.  One line per list: the argv, the exit code, the
sha256 of stdout without the manifest `timestamp` line, and the sha256 of
stderr.  Two source trees give the same CLI contract when `diff` of their
digest files is empty.
"""

import hashlib
import subprocess
import sys

RUN = ("import sys; sys.path.insert(0, sys.argv.pop(1)); "
       "from covest.cli import main; sys.exit(main(sys.argv[1:]))")

SIZES = list(range(51))
CSV_SIZES = {0, 1, 2, 3, 7, 50, 1000, 2000}


def argument_lists():
    lists = []
    for n in SIZES + [1000, 5000]:
        lists += [["phase-opt", "--n", str(n)], ["phase-opt", "--n", str(n), "--method", "bdm"]]
    for n in SIZES + [999, 1000, 1999, 2000]:
        for mode in ("external", "self-entangled"):
            lists.append(["su2-design", "--n", str(n), "--mode", mode])
    lists += [["verify-integrals", "--kmax", str(k)] for k in (1, 30, 60)]
    lists += [["scaling", "--max-n", "100"], ["scaling", "--max-n", "300", "--step", "7"]]
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
    # enough chunks that the sampler splits them over threads on a multi-CPU host
    threaded = [["simulate", "--protocol", protocol, "--n", str(n), "--trials", "10000000",
                 "--seed", "20040725"] for protocol, n in [("phase", 10), ("su2", 5)]]
    usage = [
        [], ["nonsense"], ["phase-opt"], ["phase-opt", "--n", "-1"],
        ["phase-opt", "--n", "1000001"],
        ["su2-design", "--n", "10001"], ["su2-design", "--n", "3", "--seed", "1"],
        ["su2-design", "--n", "3", "--mode", "other"],
        ["verify-integrals", "--kmax", "0"], ["verify-integrals", "--kmax", "101"],
        ["verify-integrals", "--tol", "nan"], ["scaling", "--max-n", "0"],
        ["scaling", "--max-n", "10001"], ["scaling", "--max-n", "10", "--step", "0"],
        ["simulate", "--protocol", "su2", "--n", "0"],
        ["simulate", "--protocol", "phase", "--n", "2", "--trials", "1"],
        ["simulate", "--protocol", "phase", "--n", "2", "--grid-size", "100"],
        ["simulate", "--protocol", "phase", "--n", "2", "--grid-size", "1125899906842624"],
        ["simulate", "--protocol", "phase", "--n", "100000", "--trials", "20000000"],
        ["phase-opt", "--n", "3", "--output", "/nonexistent/dir/x.json"],
    ]
    return lists + csv + threaded + usage


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    src = sys.argv[1]
    for argv in argument_lists():
        proc = subprocess.run([sys.executable, "-I", "-B", "-c", RUN, src, *argv],
                              capture_output=True, text=True)
        stdout = "".join(line for line in proc.stdout.splitlines(keepends=True)
                         if '"timestamp":' not in line and not line.startswith("# timestamp="))
        print(" ".join(argv) or "(none)", proc.returncode, digest(stdout), digest(proc.stderr))


if __name__ == "__main__":
    main()
