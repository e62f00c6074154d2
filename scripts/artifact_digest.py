#!/usr/bin/env python3
"""One sha256 over every artifact the CLI writes on the acceptance family.

For each (seed, n, d) of the acceptance recovery family this runs, in a
scratch directory and with relative paths only:

    attninv generate, attninv check --level all,
    attninv solve (Newton), attninv solve --solver gd, attninv report

and hashes, in a fixed order, every file written, the printed output and
the exit codes.  It prints one sha256 per command kind (what that kind
printed and wrote), then the total over everything on the last line.  The
code under test is the ``src/`` of the checkout this script lives in, so
running it in two checkouts shows whether a change keeps the artifacts
byte-identical, and which command's output moved if not:

    python3 scripts/artifact_digest.py
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from attninv import cli  # noqa: E402

# the acceptance recovery family (seed, n, d), as in tests/test_acceptance.py
FAMILY = ((3, 2, 2), (101, 3, 2), (203, 3, 3), (303, 4, 2), (402, 4, 3),
          (500, 2, 3), (601, 3, 2), (700, 4, 3), (807, 2, 2), (901, 3, 3))
GD_ETA = "0.1"
GD_MAX_ITER = "2000"
KINDS = ("generate", "check", "solve newton", "solve gd", "report")
# the command kind that writes each directory (or file) under s<seed>/
WRITER = {"inst": "generate", "newton": "solve newton", "gd": "solve gd",
          "report.csv": "report"}


def fold(digests, kind: str, blob: bytes) -> None:
    digests["total"].update(blob)
    digests[kind].update(blob)


def run(digests, kind: str, *argv: str) -> None:
    """Run one CLI command and fold its argv, exit code and output in."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    for part in (" ".join(argv), str(code), out.getvalue(), err.getvalue()):
        fold(digests, kind, part.encode() + b"\0")


def digest_family() -> dict[str, str]:
    """Run the family in the current directory; the hex digest of each
    command kind and the total."""
    digests = {name: hashlib.sha256() for name in ("total",) + KINDS}
    for seed, n, d in FAMILY:
        key = f"s{seed}"
        problem = f"{key}/inst/problem.json"
        run(digests, "generate", "generate", "--seed", str(seed), "--n", str(n),
            "--d", str(d), "--out", f"{key}/inst")
        run(digests, "check", "check", "--problem", problem, "--level", "all",
            "--seed", str(seed))
        run(digests, "solve newton", "solve", "--problem", problem,
            "--init", "perturb:0.01", "--seed", str(1000 + seed), "--eps", "1e-12",
            "--out", f"{key}/newton")
        run(digests, "solve gd", "solve", "--problem", problem,
            "--init", "perturb:0.01", "--seed", str(1000 + seed), "--solver", "gd",
            "--eta", GD_ETA, "--max-iter", GD_MAX_ITER, "--eps", "1e-13",
            "--out", f"{key}/gd")
        run(digests, "report", "report", f"{key}/newton/run.jsonl",
            f"{key}/gd/run.jsonl", "--csv", f"{key}/report.csv")
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            fold(digests, WRITER[path.parts[1]],
                 str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return {name: h.hexdigest() for name, h in digests.items()}


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            digests = digest_family()
        finally:
            os.chdir(cwd)
    for kind in KINDS:
        print(f"{kind:<13}{digests[kind]}")
    print(digests["total"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
