"""Gaussian-state calculus: preparation, propagation, reduction, photon
number and fidelity.

Convention: hbar = 1, [q, p] = i, vacuum covariance = I/2. Quadrature order
(q_1..q_M, p_1..p_M). Squeezing in dB is anchored to the vacuum variance 1/2,
so variance along an axis = (1/2) * 10^(dB/10).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .symplectic import symplectic_form

COV_SYMMETRY_TOL = 1e-12
UNCERTAINTY_SLACK = 1e-9

LN10 = np.log(10.0)


class StateError(ValueError):
    """State specification violates a physicality requirement."""


def db_to_variance(db: float) -> float:
    """Quadrature variance from squeezing level in dB (0 dB = vacuum 1/2)."""
    return 0.5 * 10.0 ** (db / 10.0)


def db_to_r(db: float) -> float:
    """Squeezing parameter r with e^(-2r) = 10^(db/10); negative dB -> r > 0."""
    return -db * LN10 / 20.0


@dataclass(frozen=True)
class SqueezedSpec:
    """Squeezed single-mode state given in dB.

    squeeze_db <= 0 is the variance reduction along ``axis``; antisqueeze_db
    >= 0 the increase along the orthogonal axis. ``axis`` is 'q', 'p', or an
    angle in radians (the q axis rotated counterclockwise).
    """

    squeeze_db: float
    antisqueeze_db: float
    axis: str | float = "q"

    def __post_init__(self):
        if self.squeeze_db > 0 or self.antisqueeze_db < 0:
            raise StateError("need squeeze_db <= 0 <= antisqueeze_db")
        if self.squeeze_db + self.antisqueeze_db < 0:
            raise StateError("variance product below the uncertainty bound")

    @property
    def angle(self) -> float:
        if self.axis == "q":
            return 0.0
        if self.axis == "p":
            return np.pi / 2.0
        return float(self.axis)


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of an M-mode Gaussian state."""

    mean: NDArray[np.float64]
    cov: NDArray[np.float64]

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1] or cov.shape[0] % 2:
            raise StateError("covariance must be square with even dimension")
        if mean.shape != (cov.shape[0],):
            raise StateError("mean length does not match covariance")
        if not (np.all(np.isfinite(cov)) and np.all(np.isfinite(mean))):
            raise StateError("moments must be finite")
        asym = np.max(np.abs(cov - cov.T))
        if asym > COV_SYMMETRY_TOL * max(1.0, np.max(np.abs(cov))):
            raise StateError(f"covariance asymmetric by {asym:.3e}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2

    def symplectic_eigenvalues(self) -> NDArray[np.float64]:
        """Williamson spectrum: moduli of eigenvalues of Omega @ cov (paired)."""
        omega = symplectic_form(self.n_modes)
        ev = np.abs(np.linalg.eigvals(omega @ self.cov))
        return np.sort(ev)[::2]

    def is_physical(self, slack: float = UNCERTAINTY_SLACK) -> bool:
        """Uncertainty check: all symplectic eigenvalues >= 1/2 - slack."""
        return bool(self.symplectic_eigenvalues().min() >= 0.5 - slack)

    def require_physical(self, slack: float = UNCERTAINTY_SLACK) -> "GaussianState":
        if not self.is_physical(slack):
            raise StateError("state violates the uncertainty relation")
        return self

    def purity(self) -> float:
        """1 / (2^M sqrt(det cov)); in (0, 1]."""
        sign, logdet = np.linalg.slogdet(self.cov)
        if sign <= 0:
            raise StateError("covariance is not positive definite")
        return float(np.exp(-0.5 * logdet - self.n_modes * np.log(2.0)))


def vacuum_state(n_modes: int = 1) -> GaussianState:
    return GaussianState(np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def squeezed_state(spec: SqueezedSpec) -> GaussianState:
    """Single-mode (generally mixed) squeezed state from dB levels."""
    v_min = db_to_variance(spec.squeeze_db)
    v_max = db_to_variance(spec.antisqueeze_db)
    th = spec.angle
    c, s = np.cos(th), np.sin(th)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([v_min, v_max]) @ rot.T
    return GaussianState(np.zeros(2), cov).require_physical()


def thermal_state(nbar: float) -> GaussianState:
    if nbar < 0:
        raise StateError("thermal occupancy must be >= 0")
    return GaussianState(np.zeros(2), (nbar + 0.5) * np.eye(2))


def product_state(*states: GaussianState) -> GaussianState:
    """Tensor product; mode order follows the argument order."""
    M = sum(s.n_modes for s in states)
    mean = np.zeros(2 * M)
    cov = np.zeros((2 * M, 2 * M))
    at = 0
    for s in states:
        m = s.n_modes
        ix = np.concatenate([np.arange(at, at + m), np.arange(M + at, M + at + m)])
        mean[ix] = s.mean
        cov[np.ix_(ix, ix)] = s.cov
        at += m
    return GaussianState(mean, cov)


def propagate(state: GaussianState, S: NDArray[np.float64]) -> GaussianState:
    """Apply a symplectic map: mean -> S mean, cov -> S cov S^T."""
    if S.shape != state.cov.shape:
        raise StateError("symplectic dimension does not match the state")
    return GaussianState(S @ state.mean, S @ state.cov @ S.T)


def reduce_state(state: GaussianState, mode: int) -> GaussianState:
    """Marginal single-mode state of ``mode`` (0-based)."""
    M = state.n_modes
    if not 0 <= mode < M:
        raise StateError(f"mode {mode} out of range")
    ix = np.array([mode, M + mode])
    return GaussianState(state.mean[ix], state.cov[np.ix_(ix, ix)])


def mean_photon_from_moments(
    mean: NDArray[np.float64], cov: NDArray[np.float64]
) -> NDArray[np.float64]:
    """n = (<q^2> + <p^2> + mean_q^2 + mean_p^2 - 1) / 2 over stacks of
    single-mode (..., 2) means and (..., 2, 2) covariances."""
    return 0.5 * (cov[..., 0, 0] + cov[..., 1, 1] + mean[..., 0] ** 2 + mean[..., 1] ** 2 - 1.0)


def mean_photon(state: GaussianState) -> float:
    """Mean photon number of a single-mode state."""
    if state.n_modes != 1:
        raise StateError("mean_photon expects a single-mode state")
    return float(mean_photon_from_moments(state.mean, state.cov))


def fidelity_from_moments(
    mean1: NDArray[np.float64],
    cov1: NDArray[np.float64],
    mean2: NDArray[np.float64],
    cov2: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Uhlmann fidelity of single-mode Gaussian states given by their moments.

    F = exp(-1/2 du^T (S1+S2)^-1 du) / (sqrt(L + d) - sqrt(d)) with
    L = det(S1+S2) and d = 4 (det S1 - 1/4)(det S2 - 1/4); normalized so
    pure-state fidelity is |<psi1|psi2>|^2 and F(rho, rho) = 1. Broadcasts
    over the leading axes of (..., 2) means and (..., 2, 2) covariances;
    the determinants and the inverse are the 2x2 closed forms (adjugate).
    """
    total = cov1 + cov2
    lam = _det2(total)
    if not np.all((0 < lam) & (lam < np.inf) & (total[..., 0, 0] > 0)):
        raise StateError("sum of covariances not finite and positive definite")
    delta = np.maximum(4.0 * (_det2(cov1) - 0.25) * (_det2(cov2) - 0.25), 0.0)
    du = mean1 - mean2
    dq, dp = du[..., 0], du[..., 1]
    quad = (
        dq * dq * total[..., 1, 1] - dq * dp * (total[..., 0, 1] + total[..., 1, 0])
        + dp * dp * total[..., 0, 0]
    ) / lam
    return np.exp(-0.5 * quad) / (np.sqrt(lam + delta) - np.sqrt(delta))


def _det2(a: NDArray[np.float64]) -> NDArray[np.float64]:
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def fidelity(s1: GaussianState, s2: GaussianState) -> float:
    """Uhlmann fidelity of two single-mode Gaussian states."""
    if s1.n_modes != 1 or s2.n_modes != 1:
        raise StateError("fidelity expects single-mode states")
    return float(fidelity_from_moments(s1.mean, s1.cov, s2.mean, s2.cov))
