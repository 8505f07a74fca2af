"""Batch front-end: config-driven protocol runners with reproducible outputs.

One JSON config per run; command-line flags override config fields and the
overrides are recorded in the emitted manifest. Exit codes: 0 success,
2 configuration error, 3 unstable network, 4 probe saturation.
"""

from __future__ import annotations

import argparse
import functools
import importlib.resources
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .dynamics import StabilityError, assemble_model, evolve, probe_mask
from .gaussian import SqueezedSpec
from .netmodel import CouplingGraph, GraphError, from_recipe, load_graph, save_graph
from .probes import (
    PlateauError,
    ProbeSaturatedError,
    SamplingOptions,
    _fmt,
    _fmt_rows,
    blp_witness,
    model_at,
    qnm_trace,
    suggest_tmax,
    sweep_spectral_density,
)

EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_SATURATED = 4

OUTDIR_ENV = "OSCNET_OUT"

DEFAULTS = {
    "protocol": "validate",
    "t_max": "auto",
    "temperature": 1.0,
    "method": "analytic",
    "samples": 0,
    "reps": 20,
    "seed": 0,
    "smooth_window": 51,
    "env_prep": "thermal",
    "time_grid": {"start": 0.0, "stop": 500.0, "points": 251},
    "states": {
        "rho1": {"squeeze_db": -1.8, "antisqueeze_db": 2.9, "axis": "q"},
        "rho2": {"squeeze_db": -1.3, "antisqueeze_db": 2.4, "axis": "p"},
    },
}


# keys of the fixed-shape config blocks; the network block is not listed
# because its keys depend on the recipe kind
_BLOCK_KEYS = {
    "probe": {"site", "k", "omega_s", "sweep"},
    "probe.sweep": {"start", "stop", "points"},
    "time_grid": {"start", "stop", "points"},
    "states": {"rho1", "rho2"},
    "states.rho1": {"squeeze_db", "antisqueeze_db", "axis"},
    "states.rho2": {"squeeze_db", "antisqueeze_db", "axis"},
}


class ConfigError(ValueError):
    pass


def bundled_config_path(name: str) -> Path:
    """Path of a bundled example config such as 'network1.cfg'."""
    return Path(str(importlib.resources.files("oscnet").joinpath("configs", name)))


def _load_config(path: str | None) -> dict:
    cfg = dict(DEFAULTS)
    cfg["states"] = json.loads(json.dumps(DEFAULTS["states"]))
    cfg["time_grid"] = dict(DEFAULTS["time_grid"])
    if path is None:
        return cfg
    p = Path(path)
    if not p.exists():
        candidate = bundled_config_path(path)
        if candidate.exists():
            p = candidate
        else:
            raise ConfigError(f"config file not found: {path}")
    try:
        user = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(set(user) - set(DEFAULTS) - {"network", "probe", "out_dir"})
    for path, keys in _BLOCK_KEYS.items():
        block = user
        for part in path.split("."):
            block = block.get(part) if isinstance(block, dict) else None
        if block is None:
            continue
        if not isinstance(block, dict):
            raise ConfigError(f"config block '{path}' must be a JSON object")
        unknown += [f"{path}.{key}" for key in sorted(set(block) - keys)]
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    cfg.update(user)
    cfg["_config_dir"] = str(p.parent)
    return cfg


def _build_graph(cfg: dict) -> CouplingGraph:
    net = cfg.get("network")
    if net is None:
        raise ConfigError("config has no 'network' block")
    if "file" in net:
        path = Path(net["file"])
        if not path.is_absolute() and "_config_dir" in cfg:
            path = Path(cfg["_config_dir"]) / path
        if not path.exists():
            raise ConfigError(f"graph document not found: {path}")
        graph = load_graph(path.read_text())
    else:
        graph = from_recipe(net)
    probe = cfg.get("probe")
    if probe is not None:
        omega_s = probe.get("omega_s")
        if isinstance(omega_s, list):
            omega_s = omega_s[0]
        if omega_s is None:
            sweep = probe.get("sweep")
            omega_s = sweep["start"] if sweep else graph.omega[0]
        graph = graph.with_probe(int(probe["site"]), float(probe["k"]), float(omega_s))
    if graph.probe is None:
        raise ConfigError("no probe attached: add a 'probe' block")
    cfg["_graph_doc"] = save_graph(graph)  # echoed in the manifest
    return graph


def _omega_list(cfg: dict) -> list[float]:
    probe = cfg.get("probe") or {}
    omega_s = probe.get("omega_s")
    if isinstance(omega_s, list):
        return [float(w) for w in omega_s]
    if omega_s is not None:
        return [float(omega_s)]
    raise ConfigError("this protocol needs 'probe.omega_s'")


def _tagged_omegas(cfg: dict) -> dict[str, float]:
    """Probe frequencies by output file tag ``{w:g}``, for the verbs that
    write one file set per frequency; a shared tag would overwrite files."""
    omegas = _omega_list(cfg)
    tagged = {f"{w:g}": w for w in omegas}
    if len(tagged) < len(omegas):
        raise ConfigError(
            f"probe.omega_s values {omegas} share an output file tag; "
            "they must differ when rounded to 6 significant digits"
        )
    return tagged


def _sweep_grid(cfg: dict) -> np.ndarray:
    probe = cfg.get("probe") or {}
    sweep = probe.get("sweep")
    if sweep is None:
        grid = np.asarray(_omega_list(cfg))
    else:
        points = int(sweep["points"])
        if points < 1:
            raise ConfigError("probe.sweep.points must be at least 1")
        grid = np.linspace(float(sweep["start"]), float(sweep["stop"]), points)
    if np.any(np.diff(grid) <= 0):
        source = "probe.omega_s" if sweep is None else "probe.sweep"
        raise ConfigError(f"{source} must give strictly increasing frequencies")
    return grid


def _sampling(cfg: dict) -> SamplingOptions | None:
    """Homodyne sampling options; ``samples`` 0 means exact moments."""
    samples, reps = int(cfg["samples"]), int(cfg["reps"])
    if samples < 0 or samples == 1:
        raise ConfigError(f"samples must be 0 (exact moments) or at least 2, got {samples}")
    if reps < 1:
        raise ConfigError(f"reps must be at least 1, got {reps}")
    if samples == 0:
        return None
    return SamplingOptions(n_samples=samples, n_reps=reps, seed=int(cfg["seed"]))


def _check_tmax(cfg: dict) -> None:
    """t_max, from the flag or the config file, is 'auto' or a finite time.

    The spectral inversion divides by t_max, so it needs t_max > 0; the
    propagator verbs also take t_max = 0, where S = I.
    """
    t = cfg["t_max"]
    if t == "auto":
        return
    positive = cfg["protocol"] == "spectral"
    try:
        ok = np.isfinite(float(t)) and (float(t) > 0 if positive else float(t) >= 0)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        bound = "> 0" if positive else ">= 0"
        raise ConfigError(f"t_max must be 'auto' or a finite time {bound}, got {t!r}")


def _resolve_tmax(cfg: dict, graph: CouplingGraph) -> float:
    t = cfg["t_max"]
    if t == "auto":
        return suggest_tmax(assemble_model(graph))
    return float(t)


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out_dir") or os.environ.get(OUTDIR_ENV, "oscnet-out")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out: Path, cfg: dict, overrides: dict) -> None:
    echo = {k: v for k, v in cfg.items() if not k.startswith("_")}
    manifest = {
        "tool": "oscnet",
        "version": __version__,
        "config": echo,
        "overrides": overrides,
    }
    if "_graph_doc" in cfg:
        manifest["graph"] = cfg["_graph_doc"]  # resolved input, run is self-contained
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _states(cfg: dict) -> tuple[SqueezedSpec, SqueezedSpec]:
    blocks = cfg["states"]

    def mk(b: dict) -> SqueezedSpec:
        return SqueezedSpec(
            float(b["squeeze_db"]), float(b["antisqueeze_db"]), b.get("axis", "q")
        )

    return mk(blocks["rho1"]), mk(blocks["rho2"])


# ---------------------------------------------------------------------------
# protocol runners


def run_validate(cfg: dict, out: Path) -> int:
    graph = _build_graph(cfg)
    lines = [
        f"nodes = {graph.n_nodes}",
        f"edges = {graph.n_edges}",
        f"connected = {str(graph.is_connected()).lower()}",
    ]
    # raises StabilityError when the network is unstable
    model = assemble_model(graph)
    env = model.env_freqs
    lines.append("stable = true")
    lines.append(f"band = [{_fmt(env.min())}, {_fmt(env.max())}]")
    lines.append("environment eigenfrequencies:")
    lines.append("  " + ", ".join(_fmt(w) for w in env))
    try:
        lines.append(f"suggested t_max = {_fmt(suggest_tmax(model))}")
    except PlateauError as exc:
        lines.append(f"suggested t_max = n/a ({exc})")
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    (out / "validate.txt").write_text(report)
    return 0


def run_spectral(cfg: dict, out: Path) -> int:
    graph = _build_graph(cfg)
    grid = _sweep_grid(cfg)
    sampling = _sampling(cfg)
    t_max = _resolve_tmax(cfg, graph)
    curve = sweep_spectral_density(
        graph,
        grid,
        t_max,
        temperature=float(cfg["temperature"]),
        method=cfg["method"],
        env_prep=cfg["env_prep"],
        sampling=sampling,
    )
    (out / "spectral.csv").write_text(curve.to_csv())
    if curve.method == "both":
        # deviation statistics over the significant-J region only
        mask = curve.j_analytic > 0.1 * np.max(curve.j_analytic)
        rel = np.abs(curve.j_probe[mask] - curve.j_analytic[mask]) / curve.j_analytic[mask]
        summary = (
            f"cross-path deviation (J > 0.1 max): median {_fmt(float(np.median(rel)))}, "
            f"max {_fmt(float(rel.max()))}, "
            f"corr {_fmt(float(np.corrcoef(curve.j_analytic, curve.j_probe)[0, 1]))}\n"
        )
        (out / "crosspath.txt").write_text(summary)
        sys.stdout.write(summary)
    sys.stdout.write(f"spectral sweep done: {len(grid)} points, t_max={_fmt(t_max)}\n")
    return 0


def run_qnm(cfg: dict, out: Path) -> int:
    graph = _build_graph(cfg)
    tg = cfg["time_grid"]
    t_grid = np.linspace(float(tg["start"]), float(tg["stop"]), int(tg["points"]))
    rho1, rho2 = _states(cfg)
    window = int(cfg["smooth_window"])
    for tag, w in _tagged_omegas(cfg).items():
        trace = qnm_trace(model_at(graph, w), rho1, rho2, t_grid, window=window)
        report = blp_witness(trace, use_smoothed=True)
        (out / f"qnm_w{tag}.csv").write_text(trace.to_csv())
        (out / f"witness_w{tag}.txt").write_text(report.to_text())
        sys.stdout.write(f"omega_s={tag}: N={_fmt(report.value)}\n")
    return 0


def run_evolve(cfg: dict, out: Path) -> int:
    graph = _build_graph(cfg)
    t_max = _resolve_tmax(cfg, graph)
    for tag, w in _tagged_omegas(cfg).items():
        S = evolve(model_at(graph, w), t_max)
        n = S.shape[0] // 2
        header = (
            f"# dim={2 * n} ordering=q_S,q_1..q_{n - 1},p_S,p_1..p_{n - 1} "
            f"t={_fmt(t_max)} omega_s={_fmt(w)}"
        )
        (out / f"evolution_w{tag}_t{t_max:g}.txt").write_text(header + "\n" + _fmt_rows(S, " "))
        sys.stdout.write(f"wrote evolution matrix at omega_s={tag}, t={t_max:g}\n")
    return 0


def run_masks(cfg: dict, out: Path) -> int:
    graph = _build_graph(cfg)
    t_max = _resolve_tmax(cfg, graph)
    for tag, w in _tagged_omegas(cfg).items():
        pair = probe_mask(evolve(model_at(graph, w), t_max))
        n = pair.shape[1] // 2
        # the float mode numbers print as integers under %.17g
        modes = np.arange(1.0, n + 1)
        for row, quad in ((0, "q"), (1, "p")):
            table = np.column_stack([modes, pair[row, :n], pair[row, n:]])
            (out / f"mask_{quad}_w{tag}_t{t_max:g}.csv").write_text(
                "mode,q_coefficient,p_coefficient\n" + _fmt_rows(table, ",")
            )
        sys.stdout.write(f"wrote mask pair at omega_s={tag}, t={t_max:g}\n")
    return 0


RUNNERS = {
    "validate": run_validate,
    "spectral": run_spectral,
    "qnm": run_qnm,
    "evolve": run_evolve,
    "masks": run_masks,
}


# ---------------------------------------------------------------------------
# argument handling


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="oscnet",
        description="Probe-and-network simulator: spectral density and "
        "non-Markovianity protocols.",
    )
    parser.add_argument("--version", action="version", version=f"oscnet {__version__}")
    sub = parser.add_subparsers(dest="protocol", required=True)
    for verb in RUNNERS:
        sp = sub.add_parser(verb)
        sp.add_argument("--config", help="JSON run config (bundled name or path)")
        sp.add_argument("--omega-s", help="probe frequency, or comma-separated list")
        sp.add_argument("--t-max", help="interaction time, or 'auto'")
        sp.add_argument("--points", type=int, help="sweep grid points")
        sp.add_argument("--method", choices=["analytic", "probe", "both"])
        sp.add_argument("--samples", type=int, help="homodyne samples per quadrature")
        sp.add_argument("--reps", type=int, help="sampling repetitions")
        sp.add_argument("--seed", type=int, help="master seed")
        sp.add_argument("--out", help="output directory")
    return parser


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    overrides: dict = {}
    if args.omega_s is not None:
        vals = [float(v) for v in args.omega_s.split(",")]
        probe = dict(cfg.get("probe") or {})
        probe["omega_s"] = vals if len(vals) > 1 else vals[0]
        probe.pop("sweep", None)
        cfg["probe"] = probe
        overrides["omega_s"] = probe["omega_s"]
    if args.t_max is not None:
        try:
            cfg["t_max"] = float(args.t_max)
        except ValueError:
            cfg["t_max"] = args.t_max  # 'auto', or rejected by _check_tmax
        overrides["t_max"] = cfg["t_max"]
    if args.points is not None:
        probe = dict(cfg.get("probe") or {})
        sweep = dict(probe.get("sweep") or {})
        if not sweep:
            raise ConfigError("--points needs a sweep block in the config")
        sweep["points"] = args.points
        probe["sweep"] = sweep
        cfg["probe"] = probe
        overrides["points"] = args.points
    for name in ("method", "samples", "reps", "seed"):
        val = getattr(args, name)
        if val is not None:
            cfg[name] = val
            overrides[name] = val
    if args.out is not None:
        cfg["out_dir"] = args.out
        overrides["out_dir"] = args.out
    return overrides


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args.config)
        cfg["protocol"] = args.protocol
        overrides = _apply_overrides(cfg, args)
        _check_tmax(cfg)
        out = _out_dir(cfg)
        code = RUNNERS[args.protocol](cfg, out)
        _write_manifest(out, cfg, overrides)
        return code
    except (ConfigError, GraphError, PlateauError, KeyError, json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except ProbeSaturatedError as exc:
        print(f"probe saturation: {exc}", file=sys.stderr)
        return EXIT_SATURATED


if __name__ == "__main__":
    sys.exit(main())
