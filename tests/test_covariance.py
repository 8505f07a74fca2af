"""Outputs follow a relabelling of the environment nodes and a change of time
unit. A symmetry needs no reference: these checks cover the direct, angle and
Chebyshev rows, Bloch-Messiah, the J inversion, the sampled probe path, the
fidelity trace and the t_max rule on any graph; the last tests run them
through ``cli.main`` on the files it writes.

Each bound is set from the largest error measured over the bundled nets 1, 4
and 5 and random_stable_graph seeds 0-7999 (numpy 2.4.6), with the
margin stated beside it. A weak probe or a cancelling sum gives a J near
zero whose relative error no fixed bound can hold, so J_probe is compared in
units of its inversion's round-off, (omega / t) eps (2 n_S + 1) / (N - n_S),
and J_analytic in units of the largest its sum can reach, omega t sum_n
c_n^2 / Omega_n^2, per point.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oscnet as on
from oscnet.cli import bundled_config_path, main
from oscnet.probes import (
    PlateauError,
    ProbeSaturatedError,
    SamplingOptions,
    qnm_trace,
    spectral_density_analytic,
    suggest_tmax,
    sweep_spectral_density,
    thermal_occupancy,
)

from conftest import PAPER_STATES, random_stable_graph

# relabelling: bound, largest measured error, margin
S_RELABEL = 2e-13  # of max|S|; measured 4.9e-14, 4.1x
# a mask column is resolved to about eps |S|^2 / gap, the gap its eigenvalue
# of S S^T leaves to the others (``bloch_messiah``): each column may move by
# MASK_FLOOR + MASK_GAP eps max|S|^2 / gap; measured 2.0e-13 where that gap
# term is below 1e-14 (5x) and at most 10.6 gap units above the floor (6x)
# over seeds 0-1999; over seeds 0-7999 the largest error is 0.37 of it
MASK_FLOOR = 1e-12
MASK_GAP = 64.0
JA_RELABEL = 2e-14  # J_analytic reach units; measured 4.2e-15, 4.7x
JP_RELABEL = 100.0  # inversion round-off units; measured 20.7, 4.8x
F_RELABEL = 2.5e-14  # measured 5.6e-15, 4.5x
# through the CLI, over CLI_PERM and 500 random permutations of network 4:
# the bounds above hold (largest errors 0.14 to 0.23 of each), and
ENV_RELABEL = 5e-15  # environment eigenfrequencies, of the largest; measured 1.3e-15, 4.0x
N_RELABEL = 1.5e-14  # the witness N; measured 3.2e-15, 4.7x
# a decoupled probe (k = 0) on nets 1-5 at t = 150: |J_probe| in inversion
# round-off units
JP_DECOUPLED = 300.0  # measured 64.7 (network 4; 35.8 on network 1), 4.6x
# unit scaling
S_SCALE = 4e-13  # of max|S|; measured 7.3e-14, 5.5x
JA_SCALE = 2e-14  # J_analytic reach units; measured 4.9e-15, 4.1x
JP_SCALE = 200.0  # inversion round-off units; measured 43.2, 4.6x
F_SCALE = 3e-14  # measured 6.4e-15, 4.7x
# the sampled probe path under SAMPLING on both sides: the vacuum probe gives
# every draw noncentrality 0, so both sides draw the same stream, and J and
# its stderr move only with the variances' round-off; both in J_probe's
# inversion round-off units at the sampled J (54 of seeds 0-7999 saturate,
# on both sides)
SAMPLING = SamplingOptions(n_samples=2000, n_reps=20, seed=9)
JS_RELABEL = 100.0  # measured 19.8, 5.0x
SE_RELABEL = 4.0  # measured 0.79, 5.1x
JS_SCALE = 200.0  # measured 43.2 (network 5 at lam 1.7), 4.6x
SE_SCALE = 60.0  # measured 12.4, 4.8x

# the bundled nets at their configs' t_max and sweep range
BUNDLED = {1: (150.0, 0.2, 0.7), 4: (90.0, 0.1, 1.1), 5: (250.0, 0.1, 1.2)}


def relabelled(graph: on.CouplingGraph, perm: np.ndarray) -> on.CouplingGraph:
    """The graph with old node i renamed perm[i] (0-based), rebuilt with
    ``build_explicit``; the probe moves with its node."""
    omega = np.empty(graph.n_nodes)
    omega[perm] = graph.omega
    edges = [(int(perm[i]) + 1, int(perm[j]) + 1, g) for (i, j), g in graph.couplings.items()]
    p = graph.probe
    built = on.build_explicit(graph.n_nodes, omega.tolist(), edges)
    return built.with_probe(int(perm[p.site]) + 1, p.k, p.omega_s)


def rescaled(graph: on.CouplingGraph, lam: float) -> on.CouplingGraph:
    """The graph in a time unit 1/lam as long: frequencies times lam,
    couplings g and k times lam^2, so that V becomes lam^2 V."""
    edges = [(i + 1, j + 1, lam**2 * g) for (i, j), g in graph.couplings.items()]
    p = graph.probe
    built = on.build_explicit(graph.n_nodes, [lam * w for w in graph.omega], edges)
    return built.with_probe(p.site + 1, lam**2 * p.k, lam * p.omega_s)


def outputs(graph: on.CouplingGraph, t: float, grid: np.ndarray, temperature: float = 1.0):
    """Everything the checks compare, at time t, probe frequencies ``grid``
    and 41 fidelity times over [0, 2t]. A probe that saturates (about 1 in
    700 random cases, 1 in 150 on the sampled path) gives no J_probe (no
    sampled J and stderr), and its image must saturate too."""
    m = on.assemble_model(graph)
    S = on.evolve(m, t)
    try:
        j_probe, _ = sweep_spectral_density(m, grid, t, temperature=temperature)
    except ProbeSaturatedError:
        j_probe = None
    try:
        t_max = suggest_tmax(m)
    except PlateauError as exc:
        t_max = str(exc)
    return {
        "S": S,
        "mask": on.probe_mask(S),
        "j_probe": j_probe,
        "sampled": sampled(m, grid, t, temperature),
        "j_analytic": spectral_density_analytic(m, grid, t),
        "j_analytic_scale": j_analytic_scale(m, grid, t),
        "f": qnm_trace(m, *PAPER_STATES, np.linspace(0.0, 2 * t, 41)).f_raw,
        "t_max": t_max,
    }


def j_analytic_scale(m: on.QuadraticModel, grid: np.ndarray, t: float) -> np.ndarray:
    """The largest J_analytic's sum can reach per point, omega t sum_n c_n^2 / Omega_n^2."""
    return grid * t * np.sum((m.bath_couplings() / m.env_freqs) ** 2)


def mask_tolerance(S: np.ndarray) -> np.ndarray:
    """Per mask column, the move that a relabelling may cause. Column k < M
    belongs to the eigenvalue d_k^2 of S S^T and column M + k to d_k^-2; a
    column in a degenerate block (a unit d among them) gets no bound."""
    d = on.bloch_messiah(S).d
    lam = np.concatenate([d**2, d**-2])
    gap = np.abs(lam[:, None] - lam)
    np.fill_diagonal(gap, np.inf)
    return MASK_FLOOR + MASK_GAP * np.spacing(1.0) * np.abs(S).max() ** 2 / gap.min(axis=1)


def j_probe_roundoff(j: np.ndarray, grid: np.ndarray, t: float) -> np.ndarray:
    """J_probe's round-off scale per point, for a vacuum probe at T = 1:
    (omega / t) eps (2 n_S + 1) / (N - n_S), n_S = N (1 - exp(-J t / omega))."""
    n_bath = thermal_occupancy(grid, 1.0)
    n_s = -n_bath * np.expm1(-j * t / grid)
    return (grid / t) * np.spacing(1.0) * (2 * n_s + 1) / (n_bath - n_s)


def j_probe_error(j: np.ndarray | None, ref: np.ndarray | None, grid, t) -> float:
    """Largest |j - ref| in units of ``j_probe_roundoff``; 0 when both
    saturated, inf when only one did."""
    if j is None or ref is None:
        return 0.0 if j is ref else np.inf
    return (np.abs(j - ref) / j_probe_roundoff(ref, grid, t)).max()


def sampled(m: on.QuadraticModel, grid: np.ndarray, t: float, temperature: float):
    """The sampled probe path's (J, stderr) under ``SAMPLING``, or None when
    a repetition saturates the probe."""
    try:
        return sweep_spectral_density(m, grid, t, temperature=temperature, sampling=SAMPLING)
    except ProbeSaturatedError:
        return None


def sampled_errors(a: dict, b: dict, grid, t, scale: float = 1.0) -> dict:
    """Largest |b / scale - a| of the sampled J ("j_sampled") and stderr
    ("stderr") of outputs a and b, in units of ``j_probe_roundoff`` at a's
    sampled J; 0 when both saturated, inf when only one did."""
    keys = ("j_sampled", "stderr")
    a, b = a["sampled"], b["sampled"]
    if a is None or b is None:
        return dict.fromkeys(keys, 0.0 if a is b else np.inf)
    unit = j_probe_roundoff(a[0], grid, t)
    return {key: (np.abs(y / scale - x) / unit).max() for key, x, y in zip(keys, a, b)}


def relabel_errors(graph, t, grid, perm) -> dict:
    """Errors of the relabelled graph's outputs against the original's, the
    sampled path's included."""
    a, b = outputs(graph, t, grid), outputs(relabelled(graph, perm), t, grid)
    return {**compare_relabelled(a, b, perm, grid, t), **sampled_errors(a, b, grid, t)}


def compare_relabelled(a: dict, b: dict, perm, grid, t) -> dict:
    """Errors of outputs b of the graph relabelled by ``perm`` against the
    original's outputs a, both as ``outputs`` gives them."""
    order = np.concatenate([[0], np.argsort(perm) + 1])  # new mode -> old mode
    idx = np.concatenate([order, order + len(order)])
    return {
        "S": np.abs(b["S"] - a["S"][np.ix_(idx, idx)]).max() / np.abs(a["S"]).max(),
        # R1's rows follow the nodes; its columns are the Bloch-Messiah modes,
        # which a relabelling leaves in place, so the probe rows stay as they are
        "mask": (np.abs(b["mask"] - a["mask"]).max(axis=0) / mask_tolerance(a["S"])).max(),
        "j_analytic": (np.abs(b["j_analytic"] - a["j_analytic"]) / a["j_analytic_scale"]).max(),
        "j_probe": j_probe_error(b["j_probe"], a["j_probe"], grid, t),
        "f": np.abs(b["f"] - a["f"]).max(),
        "t_max": a["t_max"] == b["t_max"],
    }


def scale_errors(graph, t, grid, lam) -> dict:
    """Errors of the graph in another time unit against the original: S and
    F unchanged, J times lam^2, at times t / lam and temperature lam."""
    a = outputs(graph, t, grid)
    b = outputs(rescaled(graph, lam), t / lam, lam * grid, temperature=lam)
    return {
        "S": np.abs(b["S"] - a["S"]).max() / np.abs(a["S"]).max(),
        "j_analytic": (
            np.abs(b["j_analytic"] / lam**2 - a["j_analytic"]) / a["j_analytic_scale"]
        ).max(),
        "j_probe": j_probe_error(
            None if b["j_probe"] is None else b["j_probe"] / lam**2, a["j_probe"], grid, t
        ),
        "f": np.abs(b["f"] - a["f"]).max(),
        **sampled_errors(a, b, grid, t, scale=lam**2),
    }


def random_case(seed: int):
    """A random stable graph, a time in [5, 60] and six probe frequencies from
    its own omega_S up (a stable potential, V_SS only grows)."""
    rng = np.random.default_rng(seed)
    graph = random_stable_graph(rng)
    t = float(rng.uniform(5.0, 60.0))
    return graph, t, graph.probe.omega_s * np.linspace(1.0, 1.5, 6), rng


def bundled_case(networks, idx: int):
    graph = networks[idx]
    t, start, stop = BUNDLED[idx]
    return graph, t, np.linspace(start, stop, 12), np.random.default_rng(idx)


def check_relabel(graph, t, grid, rng) -> None:
    err = relabel_errors(graph, t, grid, rng.permutation(graph.n_nodes))
    assert_relabel_bounds(err)
    assert err["j_sampled"] <= JS_RELABEL
    assert err["stderr"] <= SE_RELABEL


def assert_relabel_bounds(err: dict) -> None:
    assert err["t_max"]
    assert err["S"] <= S_RELABEL
    assert err["mask"] <= 1.0
    assert err["j_analytic"] <= JA_RELABEL
    assert err["j_probe"] <= JP_RELABEL
    assert err["f"] <= F_RELABEL


def check_scale(graph, t, grid, lam) -> None:
    err = scale_errors(graph, t, grid, lam)
    assert err["S"] <= S_SCALE
    assert err["j_analytic"] <= JA_SCALE
    assert err["j_probe"] <= JP_SCALE
    assert err["f"] <= F_SCALE
    assert err["j_sampled"] <= JS_SCALE
    assert err["stderr"] <= SE_SCALE


@pytest.mark.parametrize("idx", [1, 4, 5])
def test_bundled_outputs_follow_a_relabelling(networks, idx):
    check_relabel(*bundled_case(networks, idx))


@pytest.mark.parametrize("lam", [0.5, 1.7, 2.0])
@pytest.mark.parametrize("idx", [1, 4, 5])
def test_bundled_outputs_follow_a_change_of_time_unit(networks, idx, lam):
    graph, t, grid, _ = bundled_case(networks, idx)
    check_scale(graph, t, grid, lam)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1))
def test_random_outputs_follow_a_relabelling(seed):
    check_relabel(*random_case(seed))


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1), lam=st.sampled_from([0.5, 1.7, 2.0]))
def test_random_outputs_follow_a_change_of_time_unit(seed, lam):
    graph, t, grid, _ = random_case(seed)
    check_scale(graph, t, grid, lam)


# the CLI half: network 4's document with its 50 nodes permuted, run through
# ``cli.main`` next to the bundled config and compared file by file
CLI_VERBS = (["validate"], ["spectral", "--method", "both"], ["qnm"], ["evolve"], ["masks"])
CLI_PERM = (7 * np.arange(50) + 3) % 50  # node i -> 7 i + 3 mod 50: the probe moves 1 -> 4


def cli_outputs(config: str, out: Path) -> dict:
    """Run ``CLI_VERBS`` on one config and read back what ``outputs`` holds,
    plus the environment eigenfrequencies ("env") and the witness N ("n")."""
    for verb in CLI_VERBS:
        assert main([verb[0], "--config", config, *verb[1:], "--out", str(out)]) == 0
    lines = (out / "validate.txt").read_text().splitlines()
    spectral = np.loadtxt(out / "spectral.csv", delimiter=",", skiprows=1)
    (qnm,), (witness,), (evolution,) = (
        list(out.glob(pattern)) for pattern in ("qnm_w*.csv", "witness_w*.txt", "evolution_w*.txt")
    )
    masks = [np.loadtxt(next(out.glob(f"mask_{x}_w*.csv")), delimiter=",", skiprows=1) for x in "qp"]
    return {
        "env": np.array(lines[lines.index("environment eigenfrequencies:") + 1].split(","), float),
        "t_max": next(line for line in lines if line.startswith("suggested t_max")),
        "grid": spectral[:, 0],
        "j_analytic": spectral[:, 1],
        "j_probe": spectral[:, 2],
        "f": np.loadtxt(qnm, delimiter=",", skiprows=1)[:, 1],
        "n": float(witness.read_text().splitlines()[1].split("=")[1]),
        "S": np.loadtxt(evolution),
        # the mask files hold R1's probe rows, one column pair per mode
        "mask": np.array([np.concatenate([m[:, 1], m[:, 2]]) for m in masks]),
    }


def cli_relabel_errors(graph: on.CouplingGraph, tmp_path: Path, perm: np.ndarray) -> dict:
    """``compare_relabelled`` on the CLI outputs of network 4 and of its
    document relabelled by ``perm``, plus the largest environment
    eigenfrequency error ("env", of the largest) and the witness error ("n")."""
    doc = tmp_path / "permuted.json"
    doc.write_text(json.dumps(on.save_graph(relabelled(graph, perm))))
    cfg = json.loads(bundled_config_path("network4.cfg").read_text())
    cfg["network"] = {"file": str(doc)}
    cfg["probe"]["site"] = int(perm[graph.probe.site]) + 1
    config = tmp_path / "permuted.cfg"
    config.write_text(json.dumps(cfg))
    a = cli_outputs("network4.cfg", tmp_path / "bundled")
    b = cli_outputs(str(config), tmp_path / "permuted")
    t = cfg["t_max"]
    a["j_analytic_scale"] = j_analytic_scale(on.assemble_model(graph), a["grid"], t)
    err = compare_relabelled(a, b, perm, a["grid"], t)
    err["env"] = np.abs(b["env"] - a["env"]).max() / a["env"].max()
    err["n"] = abs(b["n"] - a["n"])
    return err


def test_cli_outputs_follow_a_relabelling(networks, tmp_path):
    err = cli_relabel_errors(networks[4], tmp_path, CLI_PERM)
    assert_relabel_bounds(err)
    assert err["env"] <= ENV_RELABEL
    assert err["n"] <= N_RELABEL


@pytest.mark.parametrize("idx", range(1, 6))
def test_decoupled_probe_reads_no_spectral_density(tmp_path, idx):
    # k = 0: every c_n is zero, and the probe's vacuum occupancy moves by
    # round-off alone
    cfg = json.loads(bundled_config_path(f"network{idx}.cfg").read_text())
    if "file" in cfg["network"]:
        cfg["network"]["file"] = str(bundled_config_path(cfg["network"]["file"]))
    cfg["probe"]["k"] = 0.0
    config = tmp_path / "decoupled.cfg"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    args = ["spectral", "--config", str(config), "--method", "both", "--t-max", "150"]
    assert main([*args, "--out", str(out)]) == 0
    grid, j_analytic, j_probe = np.loadtxt(out / "spectral.csv", delimiter=",", skiprows=1).T
    assert np.all(j_analytic == 0.0)
    roundoff = j_probe_roundoff(np.zeros_like(grid), grid, 150.0)
    assert np.abs(j_probe / roundoff).max() <= JP_DECOUPLED
    assert "no such point" in (out / "crosspath.txt").read_text()
