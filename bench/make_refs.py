"""Write refs.json: the reference outputs that run.py checks every job against.

Usage, from the root of a source checkout:

    python3 bench/make_refs.py

Runs each workload's reference command lines once per bundled network with
the oscnet source in ``src/`` and stores the observables that ``jobs.extract``
reads from their output files. Regenerate only when a change to the outputs
is intended and explained.
"""

import contextlib
import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import jobs  # noqa: E402
from oscnet import cli  # noqa: E402


def main() -> int:
    work = run.ROOT / ".bench_work" / "refs"
    configs = run.SRC / "oscnet" / "configs"
    refs = {
        "generated_from": {"commit": run._git_commit(), "source_sha256": run._source_digest()},
        "workloads": {},
    }
    try:
        for workload in jobs.WORKLOADS:
            table = refs["workloads"][workload] = {}
            for net in jobs.NETWORKS:
                out = work / workload / net
                omega_s = jobs.bundled_omega_s(configs, net)
                for argv in jobs.reference_argvs(workload, net, omega_s):
                    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                        code = cli.main([*argv, "--out", str(out)])
                    if code != 0:
                        print(f"{argv} exited with {code}", file=sys.stderr)
                        return 1
                table[net] = jobs.extract(workload, out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    (run.BENCH / "refs.json").write_text(_format(refs))
    return 0


def _format(refs: dict) -> str:
    """JSON with one line per workload and network, for readable diffs."""
    lines = ["{", f' "generated_from": {json.dumps(refs["generated_from"])},', ' "workloads": {']
    for i, (workload, table) in enumerate(refs["workloads"].items()):
        lines.append(f"  {json.dumps(workload)}: {{")
        for j, (net, values) in enumerate(table.items()):
            comma = "," if j < len(table) - 1 else ""
            lines.append(f"   {json.dumps(net)}: {json.dumps(values)}{comma}")
        lines.append("  }" + ("," if i < len(refs["workloads"]) - 1 else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.exit(main())
