import types

import oscnet

# the package's public names; a change here is an API change
EXPORTED = {
    # netmodel
    "CouplingGraph",
    "GraphError",
    "NetworkRecipe",
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
    "product_state",
    "propagate",
    "reduce_state",
    "squeezed_state",
    "thermal_state",
    "vacuum_state",
    # probes
    "FidelityTrace",
    "PlateauError",
    "ProbeSaturatedError",
    "SamplingOptions",
    "SpectralDensityCurve",
    "WitnessReport",
    "blp_witness",
    "model_at",
    "moving_average",
    "qnm_trace",
    "spectral_density_analytic",
    "suggest_tmax",
    "sweep_spectral_density",
}


def test_exported_names_are_pinned():
    exported = {
        name
        for name, value in vars(oscnet).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == EXPORTED
    assert len(EXPORTED) == 46


def test_readme_quick_start_runs(request):
    readme = (request.path.parents[1] / "README.md").read_text()
    block = readme.split("## Library quick start")[1].split("```python\n")[1].split("```")[0]
    exec(compile(block, "README.md quick start", "exec"), {})
