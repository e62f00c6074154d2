#!/usr/bin/env python3
"""One sha256 per command kind over every artifact the repository pins.

In a scratch directory and with relative paths only, this runs in-process:

- for each (seed, n, d) of the acceptance recovery family:
  attninv generate, attninv check --level all,
  attninv solve (Newton), attninv solve --solver gd, attninv report;
- certify: generate and check --level all on the benchmark's certify
  instances 4x3, 6x4 and 8x4 (seed 100n + d);
- lipschitz: generate --seed 1608 --n 16 --d 8, then check --level
  lipschitz, whose loss-Hessian difference has enough entries for OpenBLAS
  to split its reductions across threads;
- panels: generate --seed 2206 --n 12 --d 6, then a Newton solve from
  perturb:0.01 --seed 3206, whose step at nd = 72 runs its back
  substitution over two 36-wide panels;
- audit: scripts/guarantee_audit.py --count 25.

It hashes, in a fixed order, every file written, the printed output and
the exit codes.  It prints one sha256 per command kind (what that kind
printed and wrote), then the total over everything on the last line.  The
code under test is the ``src/`` of the checkout this script lives in, so
running it in two checkouts shows whether a change keeps the artifacts
byte-identical, and which kind moved if not:

    python3 scripts/artifact_digest.py

tests/test_tooling.py pins its output under one and two BLAS threads.
"""
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import guarantee_audit  # noqa: E402
from attninv import cli  # noqa: E402

# the acceptance recovery family (seed, n, d), as in tests/test_acceptance.py
FAMILY = ((3, 2, 2), (101, 3, 2), (203, 3, 3), (303, 4, 2), (402, 4, 3),
          (500, 2, 3), (601, 3, 2), (700, 4, 3), (807, 2, 2), (901, 3, 3))
GD_ETA = "0.1"
GD_MAX_ITER = "2000"
KINDS = ("generate", "check", "solve newton", "solve gd", "report",
         "certify", "lipschitz", "panels", "audit")
# the command kind that writes each directory (or file) under s<seed>/;
# the runs beyond the family write under a top-level directory named
# after their kind
WRITER = {"inst": "generate", "newton": "solve newton", "gd": "solve gd",
          "report.csv": "report"}


def fold(digests, kind: str, blob: bytes) -> None:
    digests["total"].update(blob)
    digests[kind].update(blob)


def run(digests, kind: str, *argv: str, main=cli.main) -> None:
    """Run one command and fold its argv, exit code and output in."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    for part in (" ".join(argv), str(code), out.getvalue(), err.getvalue()):
        fold(digests, kind, part.encode() + b"\0")


def generate_then(digests, kind: str, out: str, seed: int, n: int, d: int,
                  command: str, *argv: str) -> None:
    """Generate an instance into out/, then run command on its problem."""
    run(digests, kind, "generate", "--seed", str(seed), "--n", str(n),
        "--d", str(d), "--out", out)
    run(digests, kind, command, "--problem", f"{out}/problem.json", *argv)


def digest_all() -> dict[str, str]:
    """Run everything in the current directory; the hex digest of each
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
    for n, d in ((4, 3), (6, 4), (8, 4)):
        seed = 100 * n + d
        generate_then(digests, "certify", f"certify/{n}x{d}", seed, n, d,
                      "check", "--level", "all", "--seed", str(seed))
    generate_then(digests, "lipschitz", "lipschitz", 1608, 16, 8,
                  "check", "--level", "lipschitz", "--seed", "1608")
    generate_then(digests, "panels", "panels/inst", 2206, 12, 6,
                  "solve", "--init", "perturb:0.01", "--seed", "3206", "--out", "panels/run")
    run(digests, "audit", "--count", "25", main=guarantee_audit.main)
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            top = path.parts[0]
            fold(digests, top if top in KINDS else WRITER[path.parts[1]],
                 str(path).encode() + b"\0" + path.read_bytes() + b"\0")
    return {name: h.hexdigest() for name, h in digests.items()}


def main() -> int:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            digests = digest_all()
        finally:
            os.chdir(cwd)
    for kind in KINDS:
        print(f"{kind:<13}{digests[kind]}")
    print(digests["total"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
