"""Cold-start A/B of two repository trees: time alternating fresh
interpreters that import ``oscnet.cli`` and run ``validate`` on the bundled
networks 1-5, and report each tree's times and the numpy submodules that
the runs load after the import.

    python tools/coldstart.py path/to/parent path/to/change --pairs 12

A tree is any copy of the repository, for example a ``git archive`` of a
commit unpacked in a directory; its ``src`` is imported. Pair i runs tree A
first when i is even and tree B first when it is odd, so a drift of the host
speed weighs on both. A pair is a win for the tree with the shorter time.
Times are raw wall seconds of the whole child process, start to exit; the
child inherits this process's environment (BLAS thread variables and
``PYTHONDONTWRITEBYTECODE`` included). Only the standard library is used
here; the trees need numpy.
"""

from __future__ import annotations

import argparse
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

NETWORKS = tuple(f"network{k}" for k in range(1, 6))

# one cold start: interpreter, import, then validate every bundled network;
# with "--modules", print the numpy submodules that the validates loaded
COLD_START = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from oscnet import cli
before = set(sys.modules)
for net in sys.argv[3:]:
    if net == "--modules":
        continue
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["validate", "--config", net + ".cfg", "--out", sys.argv[2]])
    if code:
        sys.exit(code)
if "--modules" in sys.argv:
    print(" ".join(sorted(m for m in set(sys.modules) - before if m.startswith("numpy."))))
"""


def cold_start(src: Path, workdir: Path, *extra: str) -> tuple[float, str]:
    """Wall time of one cold start of ``src`` and its stdout."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START, str(src), str(workdir / "out"), *NETWORKS, *extra],
        cwd=workdir,
        capture_output=True,
        text=True,
        timeout=120,
    )
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"cold start of {src} failed with exit {proc.returncode}:\n{proc.stderr}")
    return elapsed, proc.stdout


def summary(times: list[float]) -> str:
    q1, q2, q3 = statistics.quantiles(times, n=4) if len(times) > 1 else times * 3
    return f"median {q2 * 1e3:.1f} ms, quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", help="first repository tree (for example the parent)")
    parser.add_argument("tree_b", help="second repository tree (for example the change)")
    parser.add_argument("--pairs", type=int, default=10, help="alternating pairs (default 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    srcs = []
    for tree in (args.tree_a, args.tree_b):
        src = Path(tree).resolve() / "src"
        if not (src / "oscnet" / "cli.py").is_file():
            parser.error(f"no src/oscnet/cli.py under {tree}")
        srcs.append(src)

    times: list[list[float]] = [[], []]
    with tempfile.TemporaryDirectory(prefix="oscnet-coldstart-") as tmp:
        workdir = Path(tmp)
        lazy = [cold_start(src, workdir, "--modules")[1].split() for src in srcs]  # warm-up too
        for i in range(args.pairs):
            for k in (0, 1) if i % 2 == 0 else (1, 0):
                times[k].append(cold_start(srcs[k], workdir)[0])
    wins_b = sum(b < a for a, b in zip(*times))
    for label, tree, ts, mods in zip("AB", (args.tree_a, args.tree_b), times, lazy):
        print(f"{label} {tree}: {summary(ts)}")
        print(f"  numpy submodules loaded by validate: {' '.join(mods) or '(none)'}")
    diff = statistics.median(b - a for a, b in zip(*times))
    print(f"B - A per pair: median {diff * 1e3:+.1f} ms; B wins {wins_b} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
