"""Classical simulator of a probe oscillator coupled to reconfigurable
harmonic-oscillator networks, with spectral-density recovery, a
non-Markovianity witness, and the symplectic machinery mapping the dynamics
onto multimode measurement settings."""

from .netmodel import (
    CouplingGraph,
    GraphError,
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
    probe_rows,
)
from .symplectic import (
    BlochMessiahFactors,
    SymplecticError,
    bloch_messiah,
    is_symplectic,
    probe_mask,
    symplectic_form,
)
from .gaussian import (
    GaussianState,
    SqueezedSpec,
    StateError,
    fidelity,
    mean_photon,
    squeezed_state,
    vacuum_state,
)
from .probes import (
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

__version__ = "0.1.0"
