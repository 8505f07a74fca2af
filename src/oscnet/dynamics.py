"""Quadratic model assembly and exact symplectic evolution.

The probe plus its network form one quadratic Hamiltonian

    H = 1/2 p^T p + 1/2 q^T V q

in physical coordinates, mode order (probe, node 1..N). The environment
block of V uses spring coupling (V_ii = omega_i^2 + sum_j g_ij,
V_ij = -g_ij), the probe row is the bare bilinear (V_Sl = k) with no
counter-term. Evolution is the closed-form harmonic propagator; the
renormalized frame rescales each mode by sqrt(omega) so that uncoupled
vacua have covariance I/2 and free evolution is a phase rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .netmodel import CouplingGraph
from .symplectic import bloch_messiah


class StabilityError(ValueError):
    """Assembled potential matrix is not positive definite."""


@dataclass(frozen=True)
class QuadraticModel:
    """Potential matrix of probe + network with cached eigendecompositions.

    Attributes
    ----------
    V:
        (N+1) x (N+1) symmetric potential matrix, mode order (S, 1..N).
    frequencies:
        Bare mode frequencies (omega_S, omega_1..omega_N) used by the
        renormalized frame.
    site:
        0-based environment node the probe couples to.
    coupling:
        Probe coupling strength k.
    modes / freqs_normal:
        Orthogonal eigenvectors and eigenfrequencies of V.
    env_modes / env_freqs:
        Same for the environment-only block.
    """

    V: NDArray[np.float64]
    frequencies: NDArray[np.float64]
    site: int
    coupling: float
    modes: NDArray[np.float64] = field(repr=False)
    freqs_normal: NDArray[np.float64] = field(repr=False)
    env_modes: NDArray[np.float64] = field(repr=False)
    env_freqs: NDArray[np.float64] = field(repr=False)

    @property
    def n_modes(self) -> int:
        return self.V.shape[0]

    @property
    def omega_s(self) -> float:
        return float(self.frequencies[0])

    def bath_couplings(self) -> NDArray[np.float64]:
        """Normal-mode couplings c_n = k * O_{l,n} of the environment block."""
        return self.coupling * self.env_modes[self.site, :]


def assemble_model(graph: CouplingGraph) -> QuadraticModel:
    """Build the quadratic model for a probed network.

    The environment block uses spring (Laplacian) coupling and the probe
    couples through the bare bilinear V_Sl = k; both eigendecompositions are
    cached. Raises StabilityError when V or its environment block is not
    positive definite.
    """
    if graph.probe is None:
        raise ValueError("graph has no probe attached")
    n = graph.n_nodes
    w = np.asarray(graph.omega)
    VE = np.zeros((n, n))
    np.fill_diagonal(VE, w**2)
    for (i, j), g in graph.couplings.items():
        VE[i, i] += g
        VE[j, j] += g
        VE[i, j] -= g
        VE[j, i] -= g

    probe = graph.probe
    V = np.zeros((n + 1, n + 1))
    V[1:, 1:] = VE
    V[0, 0] = probe.omega_s**2
    V[0, 1 + probe.site] = V[1 + probe.site, 0] = probe.k

    evals, vecs = np.linalg.eigh(V)
    if evals[0] <= 0:
        raise StabilityError(
            f"unstable network: potential matrix has eigenvalue {evals[0]:.6g} <= 0"
        )
    env_evals, env_vecs = np.linalg.eigh(VE)
    if env_evals[0] <= 0:
        raise StabilityError(
            f"unstable network: environment block has eigenvalue {env_evals[0]:.6g} <= 0"
        )
    freqs = np.concatenate([[probe.omega_s], w])
    return QuadraticModel(
        V=V,
        frequencies=freqs,
        site=probe.site,
        coupling=probe.k,
        modes=vecs,
        freqs_normal=np.sqrt(evals),
        env_modes=env_vecs,
        env_freqs=np.sqrt(env_evals),
    )


def _evolve_bare(model: QuadraticModel, t: float) -> NDArray[np.float64]:
    """Physical-frame propagator at time t >= 0.

    Closed harmonic form S(t) = [[cos Wt, W^-1 sin Wt], [-W sin Wt, cos Wt]]
    with W = V^(1/2), evaluated through the cached eigendecomposition.
    """
    if not 0 <= t < np.inf:
        raise ValueError("time must be finite and >= 0")
    O = model.modes
    om = model.freqs_normal
    cos = (O * np.cos(om * t)[None, :]) @ O.T
    sin_over = (O * (np.sin(om * t) / om)[None, :]) @ O.T
    sin_times = (O * (np.sin(om * t) * om)[None, :]) @ O.T
    return np.block([[cos, sin_over], [-sin_times, cos]])


def renormalization_scaling(model: QuadraticModel) -> NDArray[np.float64]:
    """Diagonal of T = diag(sqrt(omega).., 1/sqrt(omega)..)."""
    rt = np.sqrt(model.frequencies)
    return np.concatenate([rt, 1.0 / rt])


def evolve(model: QuadraticModel, t: float) -> NDArray[np.float64]:
    """Renormalized-frame propagator at time t >= 0.

    The physical-frame closed form ``_evolve_bare`` conjugated by
    T = ``renormalization_scaling``: entry (i, j) is scaled by T_i / T_j.
    """
    T = renormalization_scaling(model)
    return _evolve_bare(model, t) * np.outer(T, 1.0 / T)


# probe frequencies diagonalized per batch: bounds the (batch, M, M)
# potential and eigenvector stacks held at once
OMEGA_BATCH = 32


def probe_rows(
    model: QuadraticModel, t: float | NDArray, omega_s: Sequence[float] | None = None
) -> NDArray[np.float64]:
    """Probe rows (q_S, p_S) of the renormalized propagator, shape (..., 2, 2M).

    Row 0 and row M of ``evolve(model, t)``, without forming S(t). With
    ``omega_s`` None the cached eigendecomposition serves a time or a time
    grid (leading axes of ``t``). Given a 1-D grid of G probe frequencies,
    the potentials V(omega_S), which differ only in V_SS = omega_S^2, are
    diagonalized as stacks and the (G, 2, 2M) rows are taken at the single
    time ``t``; a grid point whose potential is not positive definite raises
    StabilityError.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0 <= t) & (t < np.inf)):
        raise ValueError("time must be finite and >= 0")
    if omega_s is None:
        return _probe_rows(model.modes, model.freqs_normal, model.frequencies, t)
    omega_s = np.asarray(omega_s, dtype=float)
    batches = np.split(omega_s, np.arange(OMEGA_BATCH, len(omega_s), OMEGA_BATCH))
    return np.concatenate([_probe_rows(*_diagonalize_at(model, w), t) for w in batches])


def _diagonalize_at(
    model: QuadraticModel, omega_s: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64], NDArray[np.float64]]:
    """Eigenvectors, normal frequencies and bare frequencies of the model
    with the probe frequency set to each entry of ``omega_s``."""
    V = np.broadcast_to(model.V, omega_s.shape + model.V.shape).copy()
    V[:, 0, 0] = omega_s**2
    evals, modes = np.linalg.eigh(V)
    unstable = np.flatnonzero(evals[:, 0] <= 0)
    if unstable.size:
        i = unstable[0]
        raise StabilityError(
            f"unstable network at omega_s={omega_s[i]:.6g}: potential matrix "
            f"has eigenvalue {evals[i, 0]:.6g} <= 0"
        )
    bare = np.broadcast_to(model.frequencies, evals.shape).copy()
    bare[:, 0] = omega_s
    return modes, np.sqrt(evals), bare


def _probe_rows(
    modes: NDArray[np.float64],
    om: NDArray[np.float64],
    bare: NDArray[np.float64],
    t: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Probe rows from eigenvectors ``modes``, normal frequencies ``om`` and
    bare frequencies ``bare``, broadcasting their leading axes against ``t``."""
    phase = om * t[..., None]
    cos, sin = np.cos(phase), np.sin(phase)
    # row S of O f(W) O^T for f = cos, W^-1 sin, W sin
    coef = modes[..., 0, None, :] * np.stack([cos, sin / om, sin * om], axis=-2)
    c, sin_over, sin_times = np.moveaxis(coef @ np.swapaxes(modes, -1, -2), -2, 0)
    # renormalized frame: entry (i, j) scaled by T_i / T_j
    rt = np.sqrt(bare)
    inv = 1.0 / rt
    q_row = np.concatenate([c * (rt[..., :1] * inv), sin_over * (rt[..., :1] * rt)], axis=-1)
    p_row = np.concatenate([-sin_times * (inv[..., :1] * inv), c * (inv[..., :1] * rt)], axis=-1)
    return np.stack([q_row, p_row], axis=-2)


def probe_mask(S: NDArray[np.float64], tol: float = 1e-10) -> NDArray[np.float64]:
    """Measurement-basis coefficients for the probe quadratures.

    Returns the (2, 2M) row pair of the Bloch-Messiah R1 factor that selects
    the probe's q and p: the simulator analogue of the local-oscillator mask
    defining the measured mode. Orthogonal symplectic inputs are their own
    R1.
    """
    n = S.shape[0] // 2
    r1 = bloch_messiah(S, tol).r1
    return np.vstack([r1[0, :], r1[n, :]])
