"""Byte-identity check of the command-line outputs: run a fixed set of verbs
on the bundled networks 1-5 through ``oscnet.cli.main`` and print one
``name sha256`` line per output file, stdout and exit code.

    python tools/digest.py > after.txt
    python tools/digest.py path/to/other/tree > before.txt
    diff before.txt after.txt

The tree (default: the one holding this script) is any copy of the
repository, for example a ``git archive`` of another commit unpacked in a
directory; its ``src`` is imported. Each run writes into a fresh temporary
directory. A manifest is hashed with ``config.out_dir`` and
``overrides.out_dir`` removed, because they name that directory. Only the
standard library is used here; the imported package needs numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

# (run name, argv after the verb); "env" runs take their output directory
# from OSCNET_OUT instead of --out
RUNS = (
    ("validate", ["validate"]),
    ("validate-env", ["validate"]),
    ("spectral", ["spectral", "--method", "both"]),
    ("sampled", ["spectral", "--method", "both", "--samples", "2000", "--reps", "5",
                 "--points", "6", "--seed", "9"]),
    ("qnm", ["qnm"]),
    ("qnm-two", ["qnm", "--omega-s", "0.45,0.7"]),
    ("masks", ["masks"]),
    ("evolve", ["evolve"]),
)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_bytes(path: Path) -> bytes:
    data = path.read_bytes()
    if path.name != "manifest.json":
        return data
    manifest = json.loads(data)
    for block in ("config", "overrides"):
        manifest.get(block, {}).pop("out_dir", None)
    return json.dumps(manifest, sort_keys=True).encode()


def digest(run, outdir_env: str) -> list[str]:
    """The ``name sha256`` lines of every run in ``RUNS`` on nets 1-5."""
    lines = []
    for net in range(1, 6):
        for name, argv in RUNS:
            with tempfile.TemporaryDirectory(prefix="oscnet-digest-") as tmp:
                out = Path(tmp) / "out"
                args = [*argv, "--config", f"network{net}.cfg"]
                env_run = name.endswith("-env")
                if env_run:
                    os.environ[outdir_env] = str(out)
                else:
                    args += ["--out", str(out)]
                stdout = io.StringIO()
                try:
                    with contextlib.redirect_stdout(stdout):
                        code = run(args)
                finally:
                    if env_run:
                        del os.environ[outdir_env]
                prefix = f"net{net}/{name}"
                for path in sorted(out.iterdir()) if out.is_dir() else []:
                    lines.append(f"{prefix}/{path.name} {_sha(_file_bytes(path))}")
                lines.append(f"{prefix}/stdout {_sha(stdout.getvalue().encode())}")
                lines.append(f"{prefix}/exit {_sha(str(code).encode())}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", default=str(Path(__file__).resolve().parents[1]),
                        help="repository tree whose src is run (default: this one)")
    args = parser.parse_args(argv)
    src = Path(args.tree).resolve() / "src"
    if not (src / "oscnet" / "cli.py").is_file():
        raise SystemExit(f"no src/oscnet/cli.py under {args.tree}")
    sys.path.insert(0, str(src))
    from oscnet import cli

    os.environ.pop(cli.OUTDIR_ENV, None)
    with tempfile.TemporaryDirectory(prefix="oscnet-digest-cwd-") as cwd:
        os.chdir(cwd)  # a run that ignores its output directory lands here
        print("\n".join(digest(cli.main, cli.OUTDIR_ENV)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
