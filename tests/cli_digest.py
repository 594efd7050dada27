"""One sha256 per CLI run over a fixed argv matrix, to compare two checkouts.

Every argv of MATRIX runs in process through ``shormeter.cli.main`` three
times: as it stands, with ``--out`` to a file in a temporary directory, and
with an ``--out`` in a directory that does not exist.  Each line printed is the sha256 of one run, over its stdout,
the bytes it wrote to ``--out``, its stderr (the temporary directory
replaced by ``<tmp>``) and its exit code, followed by the argv.  A change
that keeps the CLI's output prints the same lines as its parent:

    PYTHONPATH=src python tests/cli_digest.py > after.txt
    PYTHONPATH=../parent/src python tests/cli_digest.py > before.txt
    diff before.txt after.txt

The matrix covers every subcommand on instances where r divides Q, where
it does not and where r > Q, two of them (one with r | Q, one without)
large enough that psi3 and the dense ``factor`` distribution are
transformed in several chunks of columns, bases drawn from the seed,
``--debug-perturb`` 1e-3 and -1, rejections by argparse, by
``resolve_config`` and by the commands, and ``--help`` at 80 columns.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile
from pathlib import Path

from shormeter.cli import main

# (N, x, t): r | Q on the first three, r does not divide Q on the next
# three, r > Q on the next three; then psi3 in 4 chunks with r | Q and in 7
# chunks with r not dividing Q
INSTANCES = (
    (15, 7, 8),
    (25, 7, 10),
    (51, 2, 12),
    (21, 2, 10),
    (49, 3, 10),
    (129, 5, 9),
    (15, 7, 1),
    (21, 2, 2),
    (33, 5, 3),
    (17, 3, 15),
    (125, 2, 13),
)
COMMANDS = (
    "simulate",
    "simulate --format csv",
    "verify",
    "verify --debug-perturb 1e-3",
    "verify --debug-perturb -1",
    "sweep --measure tsallis",
    "sweep --measure l1p --grid 1:2:0.25",
    "factor --seed 3",
    "factor --seed 3 --fast",
)
OTHERS = (
    "simulate --n 21 --t 8 --seed 5",
    "factor --n 91 --t 10 --seed 2 --max-attempts 3",
    "factor --n 33 --t 9 --seed 1 --fast",
    "factor --n 129 --x 5 --seed 3 --fast",
    "factor --n 249 --x 4 --seed 3 --fast",
    # argparse rejects these
    "simulate",
    "simulate --n zz",
    "bogus --n 15",
    "sweep --n 15 --x 7 --measure bad",
    "simulate --n 15 --x 7 --format xml",
    # resolve_config rejects these
    "simulate --n 16 --x 3",
    "verify --n 15 --x 7 --seed -1",
    "simulate --n 15 --x 5",
    "simulate --n 15 --x 15",
    "verify --n 15 --x 7 --t 0",
    "verify --n 15 --x 7 --t 30",
    "simulate --n 15 --x 7 --epsilon 1",
    "factor --fast --n 10000000001 --t 1 --x 2",
    # the commands reject these
    "factor --n 15 --x 7 --t 4 --max-attempts 0",
    "factor --n 15 --x 7 --t 4 --max-attempts 10001",
    "verify --n 15 --x 7 --t 4 --debug-perturb nan",
    "sweep --n 15 --x 7 --t 4 --grid nonsense",
    "sweep --n 15 --x 7 --t 4 --measure l1p --grid 3:4:0.5",
    "--help",
    "simulate --help",
    "sweep --help",
    "factor --help",
    "verify --help",
)
MATRIX = [
    command.split() + ["--n", str(n), "--x", str(x), "--t", str(t)]
    for n, x, t in INSTANCES
    for command in COMMANDS
] + [argv.split() for argv in OTHERS]


def _run(argv: list[str]) -> tuple[str, str, int]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            code = exc.code
    return stdout.getvalue(), stderr.getvalue(), code


def digests(matrix: list[list[str]]) -> list[str]:
    """'sha256  argv' per run: each argv as it stands, then with two --out paths."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        for argv in matrix:
            for extra in ([], ["--out", str(out)], ["--out", str(out / "missing")]):
                out.unlink(missing_ok=True)
                stdout, stderr, code = _run(argv + extra)
                written = out.read_bytes() if out.is_file() else b""
                h = hashlib.sha256()
                for part in (stdout.encode(), written, stderr.replace(tmp, "<tmp>").encode()):
                    h.update(len(part).to_bytes(8, "big") + part)
                h.update(str(code).encode())
                shown = " ".join(argv + [arg.replace(tmp, "<tmp>") for arg in extra])
                lines.append(f"{h.hexdigest()}  {shown}")
    return lines


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps --help and usage to the terminal
    for line in digests(MATRIX):
        print(line)
