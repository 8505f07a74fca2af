import ast
import dataclasses
import inspect
import re
import types
from pathlib import Path

import oscnet

# the package's public names; a change here is an API change
EXPORTED = {
    # netmodel
    "CouplingGraph",
    "GraphError",
    "ProbeSpec",
    "build_barabasi_albert",
    "build_explicit",
    "build_linear_chain",
    "build_watts_strogatz",
    "from_recipe",
    "load_graph",
    "save_graph",
    # dynamics
    "QuadraticModel",
    "StabilityError",
    "assemble_model",
    "evolve",
    "probe_mask",
    "probe_rows",
    # symplectic
    "BlochMessiahFactors",
    "SymplecticError",
    "bloch_messiah",
    "is_symplectic",
    "symplectic_form",
    # gaussian
    "GaussianState",
    "SqueezedSpec",
    "StateError",
    "fidelity",
    "mean_photon",
    "squeezed_state",
    "vacuum_state",
    # probes
    "PlateauError",
    "ProbeSaturatedError",
    "SamplingOptions",
    "WitnessReport",
    "blp_witness",
    "model_at",
    "moving_average",
    "qnm_trace",
    "spectral_density_analytic",
    "suggest_tmax",
    "sweep_spectral_density",
}

# every settable default of the public API as (callable, parameter): function
# parameters, dataclass fields and public-method parameters; a new option
# here is an API change
OPTIONS = {
    ("CouplingGraph", "probe"),
    ("CouplingGraph", "recipe"),
    ("SqueezedSpec", "axis"),
    ("probe_rows", "omega_s"),
    ("sweep_spectral_density", "env_prep"),
    ("sweep_spectral_density", "probe_state"),
    ("sweep_spectral_density", "sampling"),
    ("sweep_spectral_density", "temperature"),
}


# the private names one module may import from another, by (importer,
# source); a new crossing is a design change made here in plain view
PRIVATE_IMPORTS = {
    ("cli", "netmodel"): {"_Field", "_POSITIVE", "_at_least", "_fields", "_one_of"},
    ("probes", "dynamics"): {"_angle_tables"},
    ("probes", "gaussian"): {"_fidelity"},
}


def settable_defaults() -> set[tuple[str, str]]:
    """The (callable, parameter) pairs with a default among the exported names."""
    pairs = set()
    for name in EXPORTED:
        value = getattr(oscnet, name)
        if not inspect.isclass(value):
            callables = [(name, value)]
        else:
            if dataclasses.is_dataclass(value):
                pairs |= {
                    (name, f.name)
                    for f in dataclasses.fields(value)
                    if f.default is not dataclasses.MISSING
                    or f.default_factory is not dataclasses.MISSING
                }
            callables = [
                (f"{name}.{attr}", fn)
                for attr, fn in vars(value).items()
                if not attr.startswith("_") and inspect.isfunction(fn)
            ]
        for label, fn in callables:
            pairs |= {
                (label, p.name)
                for p in inspect.signature(fn).parameters.values()
                if p.default is not p.empty
            }
    return pairs


def test_exported_names_are_pinned():
    exported = {
        name
        for name, value in vars(oscnet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTED
    assert len(EXPORTED) == 39


def test_settable_defaults_are_pinned():
    assert settable_defaults() == OPTIONS
    assert len(OPTIONS) == 8


def test_private_imports_are_pinned():
    found: dict[tuple[str, str], set[str]] = {}
    for path in Path(oscnet.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            # from .m import _name (``from . import __version__`` names no module)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                private = {a.name for a in node.names if a.name.startswith("_")}
                if private:
                    found.setdefault((path.stem, node.module), set()).update(private)
    assert found == PRIVATE_IMPORTS


def test_readme_quick_start_runs(request):
    readme = (request.path.parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start")[1].split("```python\n")[1].split("```")[0]
    exec(compile(block, "README.md quick start", "exec"), {})


# a duration (ms, µs, ns), a speed-up factor (×) or a speed comparison: timings
# belong to the benchmark record and CHANGES.md, not to the reference
TIMING = re.compile(r"\d\s*(?:ms|[µμu]s|ns)\b|\d\s*×|\b(?:faster|slower)\b", re.IGNORECASE)


def test_readme_holds_no_timing_figures(request):
    readme = (request.path.parents[1] / "README.md").read_text()
    assert TIMING.findall(readme) == []
    for text in ("took 0.35 ms", "3 µs", "40 ns", "9–13× faster", "2.3 against 1.0 ms", "slower than"):
        assert TIMING.search(text), text
