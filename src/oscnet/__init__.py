"""Classical simulator of a probe oscillator coupled to reconfigurable
harmonic-oscillator networks, with spectral-density recovery, a
non-Markovianity witness, and the symplectic machinery mapping the dynamics
onto multimode measurement settings."""

from .netmodel import (
    CouplingGraph,
    GraphError,
    NetworkRecipe,
    ProbeSpec,
    build_barabasi_albert,
    build_explicit,
    build_linear_chain,
    build_watts_strogatz,
    from_recipe,
    load_graph,
    save_graph,
)
from .dynamics import (
    QuadraticModel,
    StabilityError,
    assemble_model,
    evolve,
    probe_mask,
    probe_rows,
)
from .symplectic import (
    BlochMessiahFactors,
    SymplecticError,
    bloch_messiah,
    is_symplectic,
    symplectic_form,
)
from .gaussian import (
    GaussianState,
    SqueezedSpec,
    StateError,
    fidelity,
    mean_photon,
    product_state,
    propagate,
    reduce_state,
    squeezed_state,
    thermal_state,
    vacuum_state,
)
from .probes import (
    FidelityTrace,
    PlateauError,
    ProbeSaturatedError,
    SamplingOptions,
    SpectralDensityCurve,
    WitnessReport,
    blp_witness,
    model_at,
    moving_average,
    qnm_trace,
    spectral_density_analytic,
    spectral_density_probe,
    suggest_tmax,
    sweep_spectral_density,
)

__version__ = "0.1.0"
