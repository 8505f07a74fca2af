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


def assemble_model(graph: CouplingGraph, bilinear_env: bool = False) -> QuadraticModel:
    """Build the quadratic model for a probed network.

    ``bilinear_env`` switches the environment internal coupling from the
    default spring (Laplacian) form to a bare q_i q_j bilinear, for
    experimentation; the bundled network parameter sets are unstable there.
    """
    if graph.probe is None:
        raise ValueError("graph has no probe attached")
    n = graph.n_nodes
    w = np.asarray(graph.omega)
    VE = np.zeros((n, n))
    np.fill_diagonal(VE, w**2)
    for (i, j), g in graph.couplings.items():
        if bilinear_env:
            VE[i, j] -= g
            VE[j, i] -= g
        else:
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


def evolve_bare(model: QuadraticModel, t: float) -> NDArray[np.float64]:
    """Physical-frame propagator at time t >= 0.

    Closed harmonic form S(t) = [[cos Wt, W^-1 sin Wt], [-W sin Wt, cos Wt]]
    with W = V^(1/2), evaluated through the cached eigendecomposition.
    """
    if t < 0:
        raise ValueError("time must be >= 0")
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


def renormalize(S_bare: NDArray[np.float64], model: QuadraticModel) -> NDArray[np.float64]:
    """Conjugate a physical-frame propagator into the renormalized frame."""
    if S_bare.shape != (2 * model.n_modes, 2 * model.n_modes):
        raise ValueError("propagator dimension does not match the model")
    T = renormalization_scaling(model)
    return S_bare * np.outer(T, 1.0 / T)


def evolve(model: QuadraticModel, t: float) -> NDArray[np.float64]:
    """Renormalized-frame propagator at time t."""
    return renormalize(evolve_bare(model, t), model)


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
    if np.any(t < 0):
        raise ValueError("time must be >= 0")
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


def preparation_matrix(
    n_modes: int, prep: Sequence[tuple[int, float, float]]
) -> NDArray[np.float64]:
    """Block-diagonal single-mode squeezers S_in.

    ``prep`` lists (mode, r, theta): mode squeezed by e^-r along the axis at
    angle theta in its (q, p) plane. Modes not listed stay identity.
    """
    S = np.eye(2 * n_modes)
    for mode, r, theta in prep:
        if not 0 <= mode < n_modes:
            raise ValueError(f"prep mode {mode} out of range")
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        block = rot @ np.diag([np.exp(-r), np.exp(r)]) @ rot.T
        ix = np.array([mode, n_modes + mode])
        S[np.ix_(ix, ix)] = block
    return S


def compose_preparation(
    S_renorm: NDArray[np.float64], prep: Sequence[tuple[int, float, float]]
) -> NDArray[np.float64]:
    """S_eff = S(t) @ S_in with S_in the per-mode squeezers of ``prep``."""
    n = S_renorm.shape[0] // 2
    return S_renorm @ preparation_matrix(n, prep)


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


def quadratic_energy(
    model: QuadraticModel,
    mean: NDArray[np.float64],
    cov: NDArray[np.float64],
    renormalized: bool = True,
) -> float:
    """Energy <H> = 1/2 <x^T H_mat x> of a Gaussian state under the model.

    ``renormalized`` marks the frame the moments are expressed in.
    """
    n = model.n_modes
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = model.V
    H[n:, n:] = np.eye(n)
    if renormalized:
        T = renormalization_scaling(model)
        H = H / np.outer(T, T)
    return 0.5 * float(np.trace(H @ cov) + mean @ H @ mean)
