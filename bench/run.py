"""Protocol benchmark of the oscnet command line.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload spectral --seed 1 --seconds 25 --trace 0

A single client drives a closed loop: it calls ``oscnet.cli.main(argv)``
in-process, one job at a time, the way a researcher runs the bundled
``network1..5.cfg``. Each round runs the workload's five jobs, one per
network, in an order drawn from ``--seed``; rounds repeat until ``--seconds``
have passed. Every job's output files are checked against ``refs.json``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of the traced
ones (see ``tracing.py``), each per job, plus the overhead of tracing.

Times are reported at a reference host speed (see ``Calibrator``). The last
line of stdout is the result as one JSON object; the line before it records
the machine, the library versions, the source being measured and the raw
times. BLAS is pinned to one thread before numpy is imported.
"""

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

import numpy as np  # noqa: E402

import jobs  # noqa: E402
import tracing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# cold starts timed per run; the reported set-up time is their median
SETUP_SAMPLES = 5

# On a shared 2-vCPU VM the CPU speed drifted by 20-40% over minutes, and
# every timing drifted with it. So each timed step sits between two calibration
# points, a fixed numpy mix of the work oscnet jobs do, and times are reported
# at reference speed: raw * CALIBRATION_REF_S / calibration. The constant is
# the median calibration time on a 2-vCPU x86_64 VM with scipy-openblas
# 0.3.31 at one thread; raw times stay in the run record.
CALIBRATION_REF_S = 0.0020

# a cold start: interpreter, import, then validate every bundled network
SETUP_CODE = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from oscnet import cli
for net in sys.argv[3:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["validate", "--config", net + ".cfg", "--out", sys.argv[2]])
    if code:
        sys.exit(code)
"""

# function-level metrics of the traced run: "<layer>.<name>" -> fields
FUNCTION_METRICS = {
    "dynamics.assemble_model": ("calls", "self_s"),
    "dynamics.evolve": ("calls", "self_s", "flops_computed"),
    "dynamics.evolve_bare": ("self_s",),
    "dynamics.renormalize": ("self_s",),
    "dynamics.probe_mask": ("self_s",),
    "symplectic.bloch_messiah": ("calls", "self_s"),
    "gaussian.propagate": ("calls", "self_s", "flops_computed"),
    "gaussian.GaussianState": ("calls", "self_s"),
    "gaussian.fidelity": ("calls", "self_s"),
    "gaussian.homodyne_sample": ("calls", "self_s"),
    "probes.suggest_tmax": ("self_s",),
    "probes.spectral_density_probe": ("calls", "self_s"),
    "probes.thermal_environment": ("self_s",),
    "probes.moving_average": ("self_s",),
}
FIELD_UNITS = {"calls": "calls/job", "self_s": "s/job", "flops_computed": "flop/job"}


class BenchError(RuntimeError):
    """The benchmark cannot run on this checkout."""


class Calibrator:
    """Tracks host speed with a fixed numpy workload independent of oscnet."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        a = rng.standard_normal((52, 52))
        self._sym = a @ a.T
        self._mat = rng.standard_normal((102, 102)) / 10.0
        self._last = self._measure()

    def _measure(self) -> float:
        """Seconds for a small eigh, 2M x 2M products, normal draws and many
        small-array calls, as one qnm or spectral point makes; median of 3."""
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            np.linalg.eigh(self._sym)
            c = self._mat @ self._mat @ self._mat.T
            np.random.default_rng(0).normal(0.0, 1.0, 4000)
            for i in range(200):
                row = np.asarray(c[i % 102, :4])
                float(np.max(np.abs(row - row.T)))
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    def scale(self) -> float:
        """Factor to reference speed for the time since the previous call."""
        now = self._measure()
        factor = CALIBRATION_REF_S / (0.5 * (self._last + now))
        self._last = now
        return factor


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# run record


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    pkg = SRC / "oscnet"
    for path in sorted(p for p in pkg.rglob("*") if p.is_file() and "__pycache__" not in p.parts):
        h.update(str(path.relative_to(pkg)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _blas_threads() -> dict[str, int]:
    """Thread count reported by each loaded OpenBLAS library."""
    import ctypes

    try:
        with open("/proc/self/maps") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return {}
    out = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[Path(lib).name] = fn()
                break
    return out


def _run_record(args, jobs_measured: int, absent: list[str]) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_version = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs": jobs_measured,
        "absent_functions": absent,
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


# ---------------------------------------------------------------------------
# set-up


def measure_setup(workdir: Path, networks, calibrator: Calibrator) -> list[tuple[float, float]]:
    """(raw, reference-speed) wall times of SETUP_SAMPLES cold starts."""
    times = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(workdir / "setup"), *networks],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise BenchError(f"cold start failed with exit {proc.returncode}:\n{proc.stderr}")
        times.append((elapsed, elapsed * calibrator.scale()))
    return times


# ---------------------------------------------------------------------------
# jobs


class JobResult(NamedTuple):
    network: str
    seconds: float  # at reference host speed
    raw_seconds: float
    error: str | None
    bytes_written: int


class Runner:
    """Runs and checks jobs of one workload in a scratch directory."""

    def __init__(self, workload: str, cli, refs: dict, workdir: Path, calibrator: Calibrator) -> None:
        self.workload = workload
        self.cli = cli
        self.refs = refs
        self.workdir = workdir
        self.calibrator = calibrator
        self.sink = open(os.devnull, "w")
        self.count = 0

    def close(self) -> None:
        self.sink.close()

    def run(self, network: str, argvs) -> JobResult:
        self.count += 1
        out = self.workdir / f"job{self.count}"
        elapsed = 0.0
        error = None
        with contextlib.redirect_stdout(self.sink):
            for argv in argvs:
                t0 = time.perf_counter()
                try:
                    code = self.cli.main([*argv, "--out", str(out)])
                except SystemExit as exc:  # argparse rejects the command line
                    code = exc.code
                except Exception:
                    code = None
                    error = traceback.format_exc()
                elapsed += time.perf_counter() - t0
                if code != 0:
                    error = error or f"exit code {code}"
                    break
        scaled = elapsed * self.calibrator.scale()
        written = sum(p.stat().st_size for p in out.iterdir()) if out.is_dir() else 0
        if error is None:
            try:
                got = jobs.extract(self.workload, out)
                jobs.check(self.workload, got, self.refs[network])
            except (jobs.CheckError, OSError, ValueError, KeyError, IndexError) as exc:
                error = f"output check: {exc}"
        if error is not None:
            print(f"{self.workload} {network} {argvs}: {error}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)
        return JobResult(network, scaled, elapsed, error, written)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "oscnet" / "__init__.py").is_file():
        print(f"no oscnet source under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if not (BENCH / "refs.json").is_file():
        print("bench/refs.json is missing; run bench/make_refs.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    runner = None
    try:
        calibrator = Calibrator()
        setup = measure_setup(workdir, jobs.NETWORKS, calibrator)

        import oscnet
        import oscnet.cli as cli

        if Path(oscnet.__file__).resolve().parent != SRC / "oscnet":
            raise BenchError(f"imported oscnet from {oscnet.__file__}, not from {SRC}")
        refs = json.loads((BENCH / "refs.json").read_text())["workloads"][args.workload]
        configs = SRC / "oscnet" / "configs"
        omegas = {net: jobs.bundled_omega_s(configs, net) for net in jobs.NETWORKS}
        rng = random.Random(args.seed)
        runner = Runner(args.workload, cli, refs, workdir, calibrator)
        tracer = tracing.Tracer() if args.trace else None

        def round_order():
            order = list(jobs.NETWORKS)
            rng.shuffle(order)
            return [(net, jobs.job_argvs(args.workload, net, omegas[net], rng)) for net in order]

        # one untimed round: first calls, lazy imports and caches
        warm_errors = sum(runner.run(net, a).error is not None for net, a in round_order())

        plain, traced = [], []
        start = time.perf_counter()
        n_round = 0
        while time.perf_counter() - start < args.seconds or (args.trace and n_round < 2):
            use_trace = bool(args.trace) and n_round % 2 == 1
            batch = round_order()
            if use_trace:
                tracer.install()
            try:
                results = [runner.run(net, a) for net, a in batch]
            finally:
                if use_trace:
                    tracer.uninstall()
            (traced if use_trace else plain).extend(results)
            n_round += 1

        measured = plain + traced
        attempted = len(measured)
        failed = sum(r.error is not None for r in measured)
        times = [r.seconds for r in plain]
        if args.trace:
            metrics, absent = _trace_metrics(tracer, plain, traced)
        else:
            absent = []
            metrics = {
                "setup_s": (statistics.median(t for _, t in setup), "s"),
                "job_s.p50": (float(np.percentile(times, 50)), "s"),
                "job_s.p90": (float(np.percentile(times, 90)), "s"),
                "jobs_per_s": (len(times) / sum(times), "1/s"),
                "success_ratio": ((attempted - failed) / attempted, "ratio"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
        record = _run_record(args, attempted, absent)
        record["setup_raw_s"] = [raw for raw, _ in setup]
        record["warmup_failed"] = warm_errors
        if args.trace:
            record["flops_uncounted"] = sorted(tracer.flops_uncounted)
            record["calls_per_job"] = {
                name: stat.calls / len(traced)
                for name, stat in sorted(tracer.stats.items())
                if stat.calls
            }
        else:
            raw = [r.raw_seconds for r in plain]
            record["p90_tail_jobs"] = sum(t > metrics["job_s.p90"][0] for t in times)
            record["raw_job_s"] = {
                "p50": float(np.percentile(raw, 50)),
                "p90": float(np.percentile(raw, 90)),
                "per_s": len(raw) / sum(raw),
            }
            record["job_s_p50_by_network"] = {
                net: statistics.median(r.seconds for r in plain if r.network == net)
                for net in jobs.NETWORKS
            }
        result = {
            "correct": failed == 0 and warm_errors == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    except (BenchError, tracing.TraceError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


def _trace_metrics(tracer, plain, traced) -> tuple[dict, list[str]]:
    n = len(traced)
    metrics = {}
    for layer, stat in tracer.layer_totals().items():
        metrics[f"{layer}.calls"] = (stat.calls / n, "calls/job")
        metrics[f"{layer}.self_s"] = (stat.self_s / n, "s/job")
        metrics[f"{layer}.failed"] = (stat.failed / n, "failures/job")
    absent = []
    for qualname, fields in FUNCTION_METRICS.items():
        stat = tracer.stats.get(qualname)
        if stat is None:
            absent.append(qualname)
        for field in fields:
            if stat is None:
                value = 0.0
            elif field == "flops_computed":
                value = stat.flops / n
            else:
                value = getattr(stat, field) / n
            metrics[f"{qualname}.{field}"] = (value, FIELD_UNITS[field])
    metrics["cli.bytes_written"] = (sum(r.bytes_written for r in traced) / n, "B/job")
    metrics["trace_overhead_ratio"] = (
        statistics.median(r.seconds for r in traced) / statistics.median(r.seconds for r in plain),
        "ratio",
    )
    return metrics, absent


if __name__ == "__main__":
    sys.exit(main())
