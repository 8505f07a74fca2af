"""Workload job lists, output extraction and output checks.

A job is one or more ``oscnet`` command lines on one bundled network. Every
result is read back from the job's output files, never from stdout, and
compared with ``refs.json``, which ``make_refs.py`` writes from the CLI.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np

NETWORKS = tuple(f"network{k}" for k in range(1, 6))

WORKLOADS = ("spectral", "sampled", "qnm", "masks")

SAMPLED_ARGS = ("--method", "probe", "--samples", "2000", "--reps", "20", "--points", "12")

# relative tolerances against the stored references
J_RTOL = 1e-8
FIDELITY_RTOL = 1e-9
WITNESS_RTOL = 1e-8
TMAX_RTOL = 1e-12
MASK_ATOL = 1e-9
EVOLUTION_RTOL = 1e-9
# sampled J against the exact probe path: RMS over the grid of
# z = (J_sampled - J_exact) / stderr. With 20 reps z is close to Student t
# with 19 degrees of freedom, so the RMS of 12 values sits near 1.
Z_RMS_MAX = 3.0
Z_RMS_MIN = 0.1


class CheckError(ValueError):
    """A job's outputs are missing or disagree with the reference."""


def bundled_omega_s(configs: Path, network: str) -> float:
    probe = json.loads((configs / f"{network}.cfg").read_text())["probe"]
    return float(probe["omega_s"])


def job_argvs(
    workload: str, network: str, omega_s: float, rng: random.Random
) -> list[list[str]]:
    """Command lines of one job, without ``--out``."""
    cfg = ["--config", f"{network}.cfg"]
    if workload == "spectral":
        return [["spectral", *cfg]]
    if workload == "sampled":
        return [["spectral", *cfg, *SAMPLED_ARGS, "--seed", str(rng.randrange(1, 2**31))]]
    if workload == "qnm":
        return [["qnm", *cfg, "--omega-s", repr(omega_s)]]
    if workload == "masks":
        return [["validate", *cfg], ["masks", *cfg], ["evolve", *cfg]]
    raise ValueError(f"unknown workload {workload!r}")


def reference_argvs(workload: str, network: str, omega_s: float) -> list[list[str]]:
    """Command lines whose outputs are the stored reference of a job.

    For ``sampled`` this is the exact probe path on the same 12 points.
    """
    if workload == "sampled":
        return [["spectral", "--config", f"{network}.cfg", "--method", "probe", "--points", "12"]]
    return job_argvs(workload, network, omega_s, random.Random(0))


# ---------------------------------------------------------------------------
# reading outputs


def _one(out: Path, pattern: str) -> Path:
    found = sorted(out.glob(pattern))
    if len(found) != 1:
        raise CheckError(f"expected one {pattern} in the output, found {len(found)}")
    return found[0]


def _csv_columns(path: Path) -> dict[str, list[float]]:
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:] if line]
    return {name: [row[i] for row in rows] for i, name in enumerate(names)}


def _text_value(path: Path, prefix: str) -> float:
    for line in path.read_text().splitlines():
        if line.startswith(prefix):
            return float(line[len(prefix) :].split()[0])
    raise CheckError(f"{path.name} has no line starting with {prefix!r}")


def _projection_vectors(dim: int) -> np.ndarray:
    return np.random.default_rng(dim).standard_normal((dim, 3))


def extract(workload: str, out: Path) -> dict:
    """The checked observables of a job, read from its output files."""
    if workload in ("spectral", "sampled"):
        cols = _csv_columns(out / "spectral.csv")
        keep = ("omega_s", "J_analytic", "J_probe", "stderr")
        return {k: cols[k] for k in keep if k in cols}
    if workload == "qnm":
        return {
            "F_raw": _csv_columns(_one(out, "qnm_w*.csv"))["F_raw"],
            "witness": _text_value(_one(out, "witness_w*.txt"), "N = "),
        }
    if workload == "masks":
        got: dict = {"t_max": _text_value(out / "validate.txt", "suggested t_max = ")}
        for quad in ("q", "p"):
            cols = _csv_columns(_one(out, f"mask_{quad}_*.csv"))
            got[f"mask_{quad}"] = cols["q_coefficient"] + cols["p_coefficient"]
        S = np.loadtxt(_one(out, "evolution_*.txt"), comments="#", ndmin=2)
        if S.shape[0] != S.shape[1]:
            raise CheckError(f"evolution matrix is not square: {S.shape}")
        got["evolution_projection"] = (S @ _projection_vectors(S.shape[0])).tolist()
        return got
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks


def _close(name: str, got, ref, rtol: float = 0.0, atol: float = 0.0, scale: bool = False) -> None:
    """Elementwise |got - ref| <= rtol |ref| + atol; ``scale`` measures atol
    in units of max |ref|."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        raise CheckError(f"{name}: shape {got.shape}, reference {ref.shape}")
    if scale and ref.size:
        atol = atol * float(np.max(np.abs(ref)))
    err = np.abs(got - ref)
    if not np.all(err <= rtol * np.abs(ref) + atol):
        raise CheckError(f"{name}: deviates from the reference by up to {np.nanmax(err):.3e}")


def check(workload: str, got: dict, ref: dict) -> None:
    """Raise CheckError unless the job's observables match the reference."""
    if workload == "spectral":
        _close("omega_s", got["omega_s"], ref["omega_s"], rtol=1e-12)
        # each path against its own reference; the two paths are not compared
        for path in ("J_analytic", "J_probe"):
            _close(path, got[path], ref[path], rtol=J_RTOL, atol=1e-12, scale=True)
    elif workload == "sampled":
        _close("omega_s", got["omega_s"], ref["omega_s"], rtol=1e-12)
        stderr = np.asarray(got["stderr"], dtype=float)
        if not np.all(np.isfinite(stderr) & (stderr > 0)):
            raise CheckError("sampled stderr must be finite and positive")
        z = (np.asarray(got["J_probe"]) - np.asarray(ref["J_probe"])) / stderr
        rms = float(np.sqrt(np.mean(z**2)))
        if not Z_RMS_MIN <= rms <= Z_RMS_MAX:
            raise CheckError(f"sampled J off the exact probe path: RMS z = {rms:.3f}")
    elif workload == "qnm":
        _close("F_raw", got["F_raw"], ref["F_raw"], rtol=FIDELITY_RTOL)
        _close("witness", got["witness"], ref["witness"], rtol=WITNESS_RTOL)
    elif workload == "masks":
        _close("suggested t_max", got["t_max"], ref["t_max"], rtol=TMAX_RTOL)
        for quad in ("q", "p"):
            _close(f"mask_{quad}", got[f"mask_{quad}"], ref[f"mask_{quad}"], atol=MASK_ATOL)
        _close(
            "evolution matrix",
            got["evolution_projection"],
            ref["evolution_projection"],
            rtol=EVOLUTION_RTOL,
            atol=EVOLUTION_RTOL,
            scale=True,
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
