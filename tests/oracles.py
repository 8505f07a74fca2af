"""Reference implementations and generators that only the tests use.

Each one is an independent oracle or input generator for a production path:
the direct-cosine damping kernel for ``probes._damping_kernel_grid``, the
pure-state fidelity closed form for ``gaussian.fidelity``, the per-outcome
homodyne sampler for the chi-square draws of the sampled probe path, the
vacuum discard for ``symplectic.bloch_messiah``, the per-mode squeezers and
the quadratic energy for the propagator, and random (orthogonal) symplectic
matrices as decomposition inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from oscnet.dynamics import QuadraticModel, renormalization_scaling
from oscnet.gaussian import GaussianState, StateError
from oscnet.symplectic import BlochMessiahFactors


# ---------------------------------------------------------------------------
# dynamics


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


# ---------------------------------------------------------------------------
# symplectic


def discard_passive(factors: BlochMessiahFactors, vacuum: float = 0.5) -> NDArray[np.float64]:
    """Covariance R1 Delta (vacuum*I) Delta^T R1^T obtained by dropping R2.

    Equals S (vacuum*I) S^T for the decomposed S: with a vacuum input the
    trailing passive factor has no effect.
    """
    delta2 = np.concatenate([factors.d**2, factors.d**-2])
    return vacuum * (factors.r1 * delta2[None, :]) @ factors.r1.T


def random_orthogonal_symplectic(n_modes: int, rng: np.random.Generator) -> NDArray[np.float64]:
    """Haar-random orthogonal symplectic matrix (image of a random unitary)."""
    z = rng.normal(size=(n_modes, n_modes)) + 1j * rng.normal(size=(n_modes, n_modes))
    q, r = np.linalg.qr(z)
    u = q * (np.diag(r) / np.abs(np.diag(r)))[None, :]
    x, y = u.real, u.imag
    return np.block([[x, -y], [y, x]])


def random_symplectic(
    n_modes: int, rng: np.random.Generator, max_squeeze: float = 1.0
) -> NDArray[np.float64]:
    """Random symplectic matrix built as R Delta R' with bounded squeezing."""
    r = rng.uniform(-max_squeeze, max_squeeze, n_modes)
    delta = np.diag(np.exp(np.concatenate([r, -r])))
    return (
        random_orthogonal_symplectic(n_modes, rng)
        @ delta
        @ random_orthogonal_symplectic(n_modes, rng)
    )


# ---------------------------------------------------------------------------
# gaussian


def pure_fidelity_reference(r1: float, r2: float, phi0: float) -> float:
    """Closed form for two pure squeezed vacua with relative phase phi0.

    F = 2 / sqrt(2 (1 + cosh 2r1 cosh 2r2 - cos phi0 sinh 2r1 sinh 2r2)).
    Used as an independent oracle against ``fidelity``.
    """
    arg = 1.0 + np.cosh(2 * r1) * np.cosh(2 * r2) - np.cos(phi0) * np.sinh(2 * r1) * np.sinh(2 * r2)
    return float(2.0 / np.sqrt(2.0 * arg))


def homodyne_sample(
    state: GaussianState,
    quadrature: str = "q",
    mode: int = 0,
    n_samples: int = 2,
    seed: int | np.random.SeedSequence | None = None,
) -> NDArray[np.float64]:
    """Draw homodyne outcomes from the exact Gaussian marginal.

    Deterministic for a given seed; no global RNG state is touched.
    """
    if n_samples < 2:
        raise StateError("need at least 2 samples")
    if quadrature not in ("q", "p"):
        raise StateError("quadrature must be 'q' or 'p'")
    M = state.n_modes
    idx = mode if quadrature == "q" else M + mode
    rng = np.random.default_rng(seed)
    return rng.normal(state.mean[idx], np.sqrt(state.cov[idx, idx]), n_samples)


def estimate_second_moment(samples: NDArray[np.float64]) -> tuple[float, float]:
    """Unbiased estimate of <x^2> and its standard error."""
    samples = np.asarray(samples, dtype=float)
    if samples.size < 2:
        raise StateError("need at least 2 samples")
    sq = samples**2
    return float(sq.mean()), float(sq.std(ddof=1) / np.sqrt(sq.size))


# ---------------------------------------------------------------------------
# probes


def damping_kernel(model: QuadraticModel, t: float | NDArray) -> float | NDArray:
    """Memory kernel gamma(t) of the probe's reduced dynamics.

    Direct form, one cosine per time and environment mode, for arbitrary t;
    ``suggest_tmax`` evaluates its uniform grid with ``_damping_kernel_grid``.
    """
    c = model.bath_couplings()
    om = model.env_freqs
    amp = c**2 / om**2
    tarr = np.atleast_1d(np.asarray(t, dtype=float))
    out = (amp[None, :] * np.cos(np.outer(tarr, om))).sum(axis=1)
    return float(out[0]) if np.isscalar(t) else out
