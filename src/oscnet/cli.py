"""Batch front-end: config-driven protocol runners with reproducible outputs.

One JSON config per run; command-line flags override config fields, each
read by the type of its SCHEMA key and checked with the config, and the
overrides are recorded in the emitted manifest, one JSON line with sorted
keys. Each verb takes only the flags it reads: every verb ``--config``,
``--omega-s`` and ``--out``; ``spectral``, ``evolve`` and ``masks`` also
``--t-max``; ``spectral`` also ``--points``, ``--method``, ``--samples``,
``--reps`` and ``--seed``. Exit codes: 0 success, 2 configuration error,
3 unstable network, 4 probe saturation.

A run has three phases: ``_preflight`` checks and builds everything the
verb reads; the verb's runner returns its output files by name, each float
at 17 significant digits, and the text it prints; then ``main`` makes the
output directory, writes the files, the manifest naming them last, and
prints. No exit 2, 3 or 4 and no internal error comes after the directory
is made. The library returns arrays and dataclasses.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
from numpy.typing import NDArray

from . import __version__
from .dynamics import ExpansionRangeError, QuadraticModel, StabilityError
from .dynamics import assemble_model, evolve
from .gaussian import SqueezedSpec, StateError
from .netmodel import CouplingGraph, GraphError, from_recipe, load_graph, save_graph
from .netmodel import _POSITIVE, _at_least, _Field, _fields, _one_of
from .probes import (
    DEFAULT_SMOOTH_WINDOW,
    DEFAULT_TEMPERATURE,
    PlateauError,
    ProbeSaturatedError,
    SamplingOptions,
    WitnessReport,
    blp_witness,
    model_at,
    moving_average,
    qnm_trace,
    spectral_density_analytic,
    suggest_tmax,
    sweep_spectral_density,
)
from .symplectic import probe_mask

EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_SATURATED = 4

OUTDIR_ENV = "OSCNET_OUT"


class ConfigError(ValueError):
    pass


_SQUEEZE = _Field("number", ..., lambda v: v <= 0, "<= 0")
_ANTISQUEEZE = _Field("number", ..., *_at_least(0))
_AXIS = _Field("string or number", "q", lambda v: v in ("q", "p") or not isinstance(v, str),
               '"q", "p" or an angle')

# The run-config format as a ``netmodel._fields`` table: every key by dotted
# name, a block before its keys. Top-level defaults are filled shallowly: a
# block that is given replaces its default whole, so the keys of a given block
# are required (an omitted axis is SqueezedSpec's "q"). The network block lists
# no keys here: netmodel checks it as a recipe (a block with "kind") or a graph
# document, inline or named by {"file": path}.
SCHEMA: dict[str, _Field] = {
    "protocol": _Field("string", None),  # set from the verb
    "network": _Field("object"),
    "probe": _Field("object", None),
    "probe.site": _Field("integer", ..., *_at_least(1)),
    "probe.k": _Field("number", ..., *_at_least(0)),
    "probe.omega_s": _Field("number or numbers", None, *_POSITIVE),
    "probe.sweep": _Field("object", None),
    "probe.sweep.start": _Field("number", ..., *_POSITIVE),
    "probe.sweep.stop": _Field("number", ..., *_POSITIVE),
    "probe.sweep.points": _Field("integer", ..., *_at_least(1)),
    "t_max": _Field("number or string", "auto", lambda v: v == "auto" if isinstance(v, str)
                    else v >= 0, '"auto" or a time >= 0'),
    "temperature": _Field("number", DEFAULT_TEMPERATURE, *_POSITIVE),
    "method": _Field("string", "analytic", *_one_of("analytic", "probe", "both")),
    "samples": _Field("integer", 0, lambda v: v == 0 or v >= 2, "0 (exact moments) or >= 2"),
    "reps": _Field("integer", 20, *_at_least(1)),
    "seed": _Field("integer", 0, *_at_least(0)),
    "smooth_window": _Field(
        "integer", DEFAULT_SMOOTH_WINDOW, lambda v: v >= 1 and v % 2 == 1, "odd and >= 1"
    ),
    "env_prep": _Field("string", "thermal", *_one_of("thermal", "squeezed", "vacuum")),
    "time_grid": _Field("object", {"start": 0.0, "stop": 500.0, "points": 251}),
    "time_grid.start": _Field("number", ..., *_at_least(0)),
    "time_grid.stop": _Field("number", ..., *_POSITIVE),
    "time_grid.points": _Field("integer", ..., *_at_least(2)),
    "states": _Field("object", {
        "rho1": {"squeeze_db": -1.8, "antisqueeze_db": 2.9, "axis": "q"},
        "rho2": {"squeeze_db": -1.3, "antisqueeze_db": 2.4, "axis": "p"},
    }),
    "states.rho1": _Field("object"),
    "states.rho1.squeeze_db": _SQUEEZE,
    "states.rho1.antisqueeze_db": _ANTISQUEEZE,
    "states.rho1.axis": _AXIS,
    "states.rho2": _Field("object"),
    "states.rho2.squeeze_db": _SQUEEZE,
    "states.rho2.antisqueeze_db": _ANTISQUEEZE,
    "states.rho2.axis": _AXIS,
    "out_dir": _Field("string", None, lambda v: v != "", "a non-empty string"),
}


def _check_config(user: dict) -> dict:
    """The run config: ``user`` checked against SCHEMA (GraphError) and the
    rules that join keys (ConfigError), with SCHEMA's defaults filled in."""
    cfg = _fields(user, SCHEMA, "run config")
    if cfg["protocol"] == "spectral" and cfg["t_max"] == 0:
        raise ConfigError("t_max must be > 0 for spectral, which divides by it")
    if cfg["protocol"] == "spectral" and cfg["samples"] > 0 and cfg["method"] == "analytic":
        raise ConfigError(
            'samples > 0 needs method "probe" or "both": method "analytic" reads no samples'
        )
    return cfg


_CONFIGS_DIR = Path(__file__).parent / "configs"


def bundled_config_path(name: str) -> Path:
    """Path of a bundled example config such as 'network1.cfg'."""
    return _CONFIGS_DIR / name


def _read_json(path: Path, what: str) -> object:
    """The JSON value of the file at ``path``. ``json.loads`` decodes its
    bytes, since JSON text is UTF-8 (RFC 8259) and ``read_text`` would use
    the locale's encoding; a file that cannot be read or parsed is a
    ConfigError naming it."""
    try:
        return json.loads(path.read_bytes())
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a UnicodeDecodeError is one
        raise ConfigError(f"{what} is not valid JSON ({path}): {exc}") from exc


def _load_config(path: str | None) -> tuple[dict, Path | None]:
    """The config file's object ({} without a file), and the directory of the
    file (None without one), against which a relative graph document path is
    resolved."""
    if path is None:
        return {}, None
    p = Path(path)
    if not os.path.isfile(p):
        p = bundled_config_path(path)
        if not os.path.isfile(p):
            raise ConfigError(f"config file not found: {path}")
    user = _read_json(p, "config")
    if not isinstance(user, dict):
        raise ConfigError("config must be a JSON object")
    return user, p.parent


def _build_graph(cfg: dict, config_dir: Path | None) -> CouplingGraph:
    """The run's network, from a recipe (a block with ``kind``) or a graph
    document (inline, or ``{"file": path}``)."""
    net = cfg["network"]
    if "kind" in net:
        return from_recipe(net)
    if "file" not in net:
        return load_graph(net)
    if set(net) != {"file"} or not isinstance(net["file"], str):
        raise ConfigError("a network block with 'file' holds only that path string")
    path = Path(net["file"])
    if not path.is_absolute() and config_dir is not None:
        path = config_dir / path
    if not path.is_file():
        raise ConfigError(f"graph document not found: {path}")
    return load_graph(_read_json(path, "graph document"))


def _increasing(grid: np.ndarray, source: str) -> np.ndarray:
    if np.any(np.diff(grid) <= 0):
        raise ConfigError(f"{source} must give strictly increasing values")
    return grid


class _Run(NamedTuple):
    """What a verb runs on, from ``_preflight``."""

    graph: CouplingGraph
    omegas: NDArray | dict[str, float] | None
    models: list[QuadraticModel]
    t_max: float | None
    t_grid: NDArray | None
    states: tuple[SqueezedSpec, SqueezedSpec] | None


def _preflight(cfg: dict, config_dir: Path | None) -> _Run:
    """Everything the verb reads, checked in this order before any output:
    the graph with its probe (at the first ``omega_s``, else the sweep's
    start, else the graph document's own), ``qnm``'s time grid and states,
    the probe frequencies (``spectral``'s grid, else ``omega_s`` by output
    file tag ``{w:g}``, which must differ), every model and t_max."""
    graph = _build_graph(cfg, config_dir)
    verb, probe = cfg["protocol"], cfg["probe"]
    if probe is None:
        if graph.probe is None:
            raise ConfigError("no probe attached: add a 'probe' block")
        omegas, sweep = [graph.probe.omega_s], None
    else:
        omegas, sweep = probe.get("omega_s"), probe.get("sweep")
        if omegas is None and sweep is None:
            raise ConfigError("a probe block needs 'omega_s' or 'sweep' for its frequency")
        omegas = omegas if omegas is None or isinstance(omegas, list) else [omegas]
        omega_s = sweep["start"] if omegas is None else omegas[0]
        graph = graph.with_probe(probe["site"], probe["k"], omega_s)
    t_grid = states = t_max = None
    if verb == "qnm":
        tg = cfg["time_grid"]
        t_grid = _increasing(np.linspace(tg["start"], tg["stop"], tg["points"]), "time_grid")
        states = _state(cfg, "rho1"), _state(cfg, "rho2")
    if verb == "validate":
        freqs, models = None, [assemble_model(graph)]
    elif verb == "spectral":
        if sweep is None:
            freqs = _increasing(np.asarray(omegas), "probe.omega_s")
        else:
            grid = np.linspace(sweep["start"], sweep["stop"], sweep["points"])
            freqs = _increasing(grid, "probe.sweep")
        # the probe's Schur margin omega_S^2 - gamma(0) grows with omega_S: the
        # model at the lowest grid point checks the stability of the whole grid
        models = [model_at(graph, freqs[0])]
    else:
        if omegas is None:
            raise ConfigError("this protocol needs 'probe.omega_s'")
        freqs = {f"{w:g}": w for w in omegas}
        if len(freqs) < len(omegas):
            raise ConfigError(
                f"probe.omega_s values {omegas} share an output file tag; "
                "they must differ when rounded to 6 significant digits"
            )
        models = [model_at(graph, w) for w in freqs.values()]
    if verb in ("spectral", "evolve", "masks"):
        t_max = suggest_tmax(models[0]) if cfg["t_max"] == "auto" else cfg["t_max"]
    return _Run(graph, freqs, models, t_max, t_grid, states)


def _sampling(cfg: dict) -> SamplingOptions | None:
    """Homodyne sampling options; ``samples`` 0 means exact moments."""
    if cfg["samples"] == 0:
        return None
    return SamplingOptions(n_samples=cfg["samples"], n_reps=cfg["reps"], seed=cfg["seed"])


def _out_dir(cfg: dict) -> Path:
    """The output directory, made if missing: ``out_dir`` (SCHEMA refuses an
    empty one), else ``$OSCNET_OUT`` unless it is empty, else ``oscnet-out``."""
    name = cfg["out_dir"]
    if name is None:
        name = os.environ.get(OUTDIR_ENV, "oscnet-out")
        if not name:
            raise ConfigError(f"{OUTDIR_ENV} is set but empty: name a directory or unset it")
    path = Path(name)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}") from exc
    return path


def _write(path: Path, text: str) -> int:
    """Write ``text`` to a new file at ``path``, replacing (not following) any
    file or symlink there: on ext4, truncating a non-empty file forces
    writeback of its delayed blocks. The bytes go out through one
    ``os.open`` and ``os.write``, without a buffered text file object.
    Returns the number of bytes written."""
    path.unlink(missing_ok=True)
    data = memoryview(text.encode())
    size = len(data)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)
    return size


def _state(cfg: dict, name: str) -> SqueezedSpec:
    try:
        return SqueezedSpec(**cfg["states"][name])
    except StateError as exc:
        raise ConfigError(f"states.{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# output text: every number as %.17g, which round-trips a float64


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_rows(table: NDArray, sep: str) -> str:
    """Each row of a 2-D table as one line of ``_fmt`` numbers joined by
    ``sep``; one ``%`` over the format of the whole table gives the same bytes."""
    table = np.asarray(table, dtype=float)
    line = sep.join(["%.17g"] * table.shape[1]) + "\n"
    return (line * len(table)) % tuple(table.ravel().tolist())


def _fmt_matrix(matrix: NDArray, sep: str) -> str:
    """The bytes of ``_fmt_rows(matrix, sep)``, formatting each distinct entry
    once: worth it where entries repeat, as in a propagator with its
    time-reversal structure, and not for tables without repeats.

    Entries are told apart by bit pattern, so 0.0 and -0.0 (and NaN
    payloads) stay distinct.
    """
    matrix = np.asarray(matrix, dtype=float)
    bits, index = np.unique(matrix.view(np.int64), return_inverse=True)
    k = len(bits)
    words = ("%.17g\n" * k % tuple(bits.view(np.float64).tolist())).split("\n")
    table = np.array(words, dtype=object)[index.reshape(matrix.shape)]
    return "".join([sep.join(row) + "\n" for row in table.tolist()])


def _median(x: NDArray[np.float64]) -> float:
    """``np.median`` of a non-empty 1-D float array, bit for bit: the middle
    element of the sorted values, or 0.5 (a + b) of the middle two, and NaN
    if x holds one. ``np.median`` imports ``numpy.ma``, which a fresh process
    otherwise never loads."""
    s = np.sort(x)
    if np.isnan(s[-1]):  # NaNs sort last
        return float(s[-1])
    half = len(s) // 2
    return float(s[half] if len(s) % 2 else 0.5 * (s[half - 1] + s[half]))


def _witness_text(report: WitnessReport, omega_s: float) -> str:
    """The witness file: the probe frequency, N, ``smoothed = true`` (the CLI
    witnesses only F_smooth) and the contributing intervals."""
    lines = [
        f"omega_s = {_fmt(omega_s)}",
        f"N = {_fmt(report.value)}",
        "smoothed = true",
        "intervals (t_start, t_end, contribution):",
    ]
    for a, b, dv in report.intervals:
        lines.append(f"  {_fmt(a)}, {_fmt(b)}, {_fmt(dv)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# protocol runners: each returns its output files by name, in write order,
# and the text it prints


def run_validate(cfg: dict, run: _Run) -> tuple[dict[str, str], str]:
    graph, (model,) = run.graph, run.models
    lines = [
        f"nodes = {graph.n_nodes}",
        f"edges = {graph.n_edges}",
        f"connected = {str(graph.is_connected()).lower()}",
    ]
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
    return {"validate.txt": report}, report


def run_spectral(cfg: dict, run: _Run) -> tuple[dict[str, str], str]:
    grid, (model,), t_max = run.omegas, run.models, run.t_max
    method = cfg["method"]
    sampling = _sampling(cfg)
    columns = {"omega_s": grid}  # spectral.csv by header
    if method != "probe":
        columns["J_analytic"] = spectral_density_analytic(model, grid, t_max)
    if method != "analytic":
        try:
            columns["J_probe"], stderr = sweep_spectral_density(
                model,
                grid,
                t_max,
                temperature=cfg["temperature"],
                env_prep=cfg["env_prep"],
                sampling=sampling,
            )
        except ExpansionRangeError as exc:
            raise ConfigError(f"t_max {_fmt(t_max)} is too long for the probe path: {exc}") from exc
        if stderr is not None:
            columns["stderr"] = stderr
    table = np.column_stack(list(columns.values()))
    files = {"spectral.csv": ",".join(columns) + "\n" + _fmt_rows(table, ",")}
    summary = ""
    if method == "both":
        # deviation statistics over the significant-J region only
        j_analytic, j_probe = columns["J_analytic"], columns["J_probe"]
        j_max = np.max(j_analytic)
        mask = j_analytic > 0.1 * j_max
        if mask.any():
            rel = np.abs(j_probe[mask] - j_analytic[mask]) / j_analytic[mask]
            # a correlation needs two points
            corr = (
                _fmt(float(np.corrcoef(j_analytic, j_probe)[0, 1]))
                if len(grid) > 1
                else "n/a (one point)"
            )
            summary = (
                f"cross-path deviation (J > 0.1 max): median {_fmt(_median(rel))}, "
                f"max {_fmt(float(rel.max()))}, corr {corr}\n"
            )
        else:
            summary = (
                f"cross-path deviation (J > 0.1 max): no such point, max J_analytic {_fmt(j_max)}\n"
            )
        files["crosspath.txt"] = summary
    return files, summary + f"spectral sweep done: {len(grid)} points, t_max={_fmt(t_max)}\n"


def run_qnm(cfg: dict, run: _Run) -> tuple[dict[str, str], str]:
    t_grid, (rho1, rho2) = run.t_grid, run.states
    files, printed = {}, ""
    for tag, model in zip(run.omegas, run.models):
        f_raw = qnm_trace(model, rho1, rho2, t_grid)
        f_smooth = moving_average(f_raw, cfg["smooth_window"])
        report = blp_witness(t_grid, f_smooth)
        table = np.column_stack([t_grid, f_raw, f_smooth])
        files[f"qnm_w{tag}.csv"] = "t,F_raw,F_smooth\n" + _fmt_rows(table, ",")
        files[f"witness_w{tag}.txt"] = _witness_text(report, model.omega_s)
        printed += f"omega_s={tag}: N={_fmt(report.value)}\n"
    return files, printed


def run_evolve(cfg: dict, run: _Run) -> tuple[dict[str, str], str]:
    files, printed = {}, ""
    for tag, model in zip(run.omegas, run.models):
        S = evolve(model, run.t_max)
        n = S.shape[0] // 2
        header = (
            f"# dim={2 * n} ordering=q_S,q_1..q_{n - 1},p_S,p_1..p_{n - 1} "
            f"t={_fmt(run.t_max)} omega_s={_fmt(model.omega_s)}"
        )
        files[f"evolution_w{tag}_t{run.t_max:g}.txt"] = header + "\n" + _fmt_matrix(S, " ")
        printed += f"wrote evolution matrix at omega_s={tag}, t={run.t_max:g}\n"
    return files, printed


def run_masks(cfg: dict, run: _Run) -> tuple[dict[str, str], str]:
    files, printed = {}, ""
    for tag, model in zip(run.omegas, run.models):
        pair = probe_mask(evolve(model, run.t_max))
        n = pair.shape[1] // 2
        # the float mode numbers print as integers under %.17g
        modes = np.arange(1.0, n + 1)
        for row, quad in ((0, "q"), (1, "p")):
            table = np.column_stack([modes, pair[row, :n], pair[row, n:]])
            text = "mode,q_coefficient,p_coefficient\n" + _fmt_rows(table, ",")
            files[f"mask_{quad}_w{tag}_t{run.t_max:g}.csv"] = text
        printed += f"wrote mask pair at omega_s={tag}, t={run.t_max:g}\n"
    return files, printed


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
    for verb in RUNNERS:  # each verb takes the flags of the keys it reads
        sp = sub.add_parser(verb)
        sp.add_argument("--config", help="JSON run config (bundled name or path)")
        sp.add_argument("--omega-s", help="probe frequency, or comma-separated list")
        if verb in ("spectral", "evolve", "masks"):
            sp.add_argument("--t-max", help="interaction time, or 'auto'")
        if verb == "spectral":
            sp.add_argument("--points", help="sweep grid points")
            sp.add_argument("--method", help="analytic, probe or both")
            sp.add_argument("--samples", help="homodyne samples per quadrature")
            sp.add_argument("--reps", help="sampling repetitions")
            sp.add_argument("--seed", help="master seed")
        sp.add_argument("--out", dest="out_dir", help="output directory")
    return parser


def _flag_value(text: str, key: str) -> object:
    """A flag's text read by the type of its SCHEMA key: an int for an
    integer key, a float for a number, else the text, which the schema
    rejects when the key takes no string."""
    types = SCHEMA[key].types.split(" or ")
    read = int if "integer" in types else float if "number" in types else str
    try:
        return read(text)
    except ValueError:
        return text


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    """Apply the verb's flags that were given to the config; the overrides by key."""
    flags = {k: v for k, v in vars(args).items() if v is not None}
    overrides: dict = {}
    if "omega_s" in flags:
        if not isinstance(cfg.get("probe"), dict):
            raise ConfigError(
                "--omega-s needs a 'probe' block in the config; "
                "it does not retune a graph document's own probe"
            )
        vals = [_flag_value(v, "probe.omega_s") for v in flags["omega_s"].split(",")]
        probe = dict(cfg["probe"])
        probe.pop("sweep", None)
        probe["omega_s"] = overrides["omega_s"] = vals if len(vals) > 1 else vals[0]
        cfg["probe"] = probe
    if "points" in flags:
        probe = cfg.get("probe")
        if not isinstance(probe, dict) or not isinstance(probe.get("sweep"), dict):
            raise ConfigError("--points needs a sweep block in the config")
        points = overrides["points"] = _flag_value(flags["points"], "probe.sweep.points")
        cfg["probe"] = {**probe, "sweep": {**probe["sweep"], "points": points}}
    for name in ("t_max", "method", "samples", "reps", "seed", "out_dir"):
        if name in flags:
            cfg[name] = overrides[name] = _flag_value(flags[name], name)
    return overrides


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        user, config_dir = _load_config(args.config)
        user["protocol"] = args.protocol
        overrides = _apply_overrides(user, args)
        cfg = _check_config(user)
        run = _preflight(cfg, config_dir)
        files, printed = RUNNERS[args.protocol](cfg, run)
        # the graph is the resolved input, so the run is self-contained
        manifest = {"tool": "oscnet", "version": __version__, "config": cfg,
                    "overrides": overrides, "graph": save_graph(run.graph)}
        out = _out_dir(cfg)
        manifest["outputs"] = [[name, _write(out / name, text)] for name, text in files.items()]
        # one line: indent would force the pure-Python encoder on every run
        _write(out / "manifest.json", json.dumps(manifest, sort_keys=True) + "\n")
        sys.stdout.write(printed)
        return 0
    except (ConfigError, GraphError, PlateauError) as exc:
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
