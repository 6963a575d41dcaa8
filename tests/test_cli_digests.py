"""tools/cli_digests.py hashes the bytes the CLI writes, line terminators included."""

import hashlib
import importlib.util
import os
import subprocess
import sys

import covest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location(
    "cli_digests", os.path.join(ROOT, "tools", "cli_digests.py"))
cli_digests = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(cli_digests)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_hashes_raw_cli_bytes():
    """A CSV table's \\r\\n row ends reach the digest; only the timestamp line is dropped."""
    src = os.path.dirname(os.path.dirname(covest.__file__))
    argv = ["scaling", "--max-n", "3", "--format", "csv"]
    raw = subprocess.run([sys.executable, "-I", "-B", "-c", cli_digests.RUN, src, *argv],
                         capture_output=True, check=True).stdout
    lines = raw.splitlines(keepends=True)
    assert b"\r\n" in raw
    assert sum(line.startswith(b"# timestamp=") for line in lines) == 1
    kept = b"".join(line for line in lines if not line.startswith(b"# timestamp="))
    line = cli_digests.digest_line(src, argv)
    assert line == " ".join([*argv, "0", sha256(kept), sha256(b"")])

