"""Single-mode Gaussian states: preparation, photon number and fidelity.

Convention: hbar = 1, [q, p] = i, vacuum covariance = I/2, quadrature order
(q, p). Squeezing in dB is anchored to the vacuum variance 1/2, so variance
along an axis = (1/2) * 10^(dB/10).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

COV_SYMMETRY_TOL = 1e-12
UNCERTAINTY_SLACK = 1e-9

# a state with det cov - 1/4 <= _PURITY_TOL (|c00 c11| + |c01 c10|) is pure to
# round-off: propagated pure preparations land within 44 eps of that scale
_PURITY_TOL = 1e-13


class StateError(ValueError):
    """State specification violates a physicality requirement."""


def db_to_variance(db: float) -> float:
    """Quadrature variance from squeezing level in dB (0 dB = vacuum 1/2)."""
    return 0.5 * 10.0 ** (db / 10.0)


@dataclass(frozen=True)
class SqueezedSpec:
    """Squeezed single-mode state given in dB.

    squeeze_db <= 0 is the variance reduction along ``axis``; antisqueeze_db
    >= 0 the increase along the orthogonal axis. ``axis`` is 'q', 'p', or a
    finite angle in radians (the q axis rotated counterclockwise).
    """

    squeeze_db: float
    antisqueeze_db: float
    axis: str | float = "q"

    def __post_init__(self):
        if self.squeeze_db > 0 or self.antisqueeze_db < 0:
            raise StateError("need squeeze_db <= 0 <= antisqueeze_db")
        if self.squeeze_db + self.antisqueeze_db < 0:
            raise StateError("variance product below the uncertainty bound")
        if isinstance(self.axis, str):
            named = self.axis in ("q", "p")
        else:
            named = isinstance(self.axis, numbers.Real) and np.isfinite(self.axis)
        if not named:
            raise StateError(f"axis must be 'q', 'p' or a finite angle, got {self.axis!r}")

    @property
    def angle(self) -> float:
        if self.axis == "q":
            return 0.0
        if self.axis == "p":
            return np.pi / 2.0
        return float(self.axis)


@dataclass(frozen=True)
class GaussianState:
    """First and second moments of a single-mode Gaussian state."""

    mean: NDArray[np.float64]
    cov: NDArray[np.float64]

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        if mean.shape != (2,) or cov.shape != (2, 2):
            raise StateError("a state holds one mode: a mean of length 2 and a 2x2 covariance")
        if not (np.all(np.isfinite(cov)) and np.all(np.isfinite(mean))):
            raise StateError("moments must be finite")
        asym = np.max(np.abs(cov - cov.T))
        if asym > COV_SYMMETRY_TOL * max(1.0, np.max(np.abs(cov))):
            raise StateError(f"covariance asymmetric by {asym:.3e}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    def is_physical(self) -> bool:
        """Uncertainty check: cov positive definite with
        det cov >= (1/2 - UNCERTAINTY_SLACK)^2."""
        return bool(self.cov[0, 0] > 0 and _det2(self.cov) >= (0.5 - UNCERTAINTY_SLACK) ** 2)

    def require_physical(self) -> "GaussianState":
        if not self.is_physical():
            raise StateError("state violates the uncertainty relation")
        return self


def vacuum_state() -> GaussianState:
    return GaussianState(np.zeros(2), 0.5 * np.eye(2))


def squeezed_state(spec: SqueezedSpec) -> GaussianState:
    """Single-mode (generally mixed) squeezed state from dB levels."""
    v_min = db_to_variance(spec.squeeze_db)
    v_max = db_to_variance(spec.antisqueeze_db)
    th = spec.angle
    c, s = np.cos(th), np.sin(th)
    rot = np.array([[c, -s], [s, c]])
    cov = rot @ np.diag([v_min, v_max]) @ rot.T
    return GaussianState(np.zeros(2), cov).require_physical()


def mean_photon_from_moments(
    mean: NDArray[np.float64], var: NDArray[np.float64]
) -> NDArray[np.float64]:
    """n = (<q^2> + <p^2> + mean_q^2 + mean_p^2 - 1) / 2 over stacks of
    single-mode (..., 2) means and (..., 2) variances [var_q, var_p]."""
    return 0.5 * (var[..., 0] + var[..., 1] + mean[..., 0] ** 2 + mean[..., 1] ** 2 - 1.0)


def mean_photon(state: GaussianState) -> float:
    """Mean photon number of a single-mode state; StateError if it violates
    the uncertainty relation."""
    state.require_physical()
    return float(mean_photon_from_moments(state.mean, np.diagonal(state.cov)))


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

    A state whose det S - 1/4 is round-off (``_PURITY_TOL``) counts as pure,
    d = 0: F is then the pure-state form Tr(rho1 rho2), where the general
    form would move like the square root of that round-off.

    That band, det S - 1/4 <= ``_PURITY_TOL`` (|S00 S11| + |S01 S10|), also
    takes in states just above purity: up to about 4e-13 dB of excess over
    a pure state at the vacuum scale. F is off there by about sqrt(d / L)
    relative, d the true value. Against a 40-digit reference, with
    SqueezedSpec(-1, 1 + x) against SqueezedSpec(-1.3, 2.4, 'p'), that is
    1.1e-8, 3.6e-8 and 6.3e-8 at x = 1e-14, 1e-13 and 3e-13 dB; from
    x = 1e-12 dB up the general form is off by at most 4.7e-12, and an
    exactly pure state by 0. The band is that of a bare covariance:
    ``probes.qnm_trace`` passes ``_fidelity`` each preparation's det S - 1/4
    from the propagator rows and never enters it.
    """
    return _fidelity(mean1, cov1, mean2, cov2, _excess(cov1), _excess(cov2))


def _fidelity(
    mean1: NDArray[np.float64],
    cov1: NDArray[np.float64],
    mean2: NDArray[np.float64],
    cov2: NDArray[np.float64],
    excess1: NDArray[np.float64],
    excess2: NDArray[np.float64],
) -> NDArray[np.float64]:
    """``fidelity_from_moments`` with det S - 1/4 of each state given as its
    ``excess``: ``_excess`` of the covariance, or a value the caller has to
    better accuracy than the covariance carries (``probes.qnm_trace``)."""
    total = cov1 + cov2
    lam = _det2(total)
    if not np.all((0 < lam) & (lam < np.inf) & (total[..., 0, 0] > 0)):
        raise StateError("sum of covariances not finite and positive definite")
    delta = 4.0 * excess1 * excess2
    du = mean1 - mean2
    dq, dp = du[..., 0], du[..., 1]
    quad = (
        dq * dq * total[..., 1, 1] - dq * dp * (total[..., 0, 1] + total[..., 1, 0])
        + dp * dp * total[..., 0, 0]
    ) / lam
    return np.exp(-0.5 * quad) / (np.sqrt(lam + delta) - np.sqrt(delta))


def _det2(a: NDArray[np.float64]) -> NDArray[np.float64]:
    return a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]


def _excess(cov: NDArray[np.float64]) -> NDArray[np.float64]:
    """det cov - 1/4, or 0 where that is within the round-off of a pure state."""
    ad, bc = cov[..., 0, 0] * cov[..., 1, 1], cov[..., 0, 1] * cov[..., 1, 0]
    excess = ad - bc - 0.25  # _det2(cov) - 0.25
    return np.where(excess > _PURITY_TOL * (np.abs(ad) + np.abs(bc)), excess, 0.0)


def fidelity(s1: GaussianState, s2: GaussianState) -> float:
    """Uhlmann fidelity of two single-mode Gaussian states; StateError if
    either violates the uncertainty relation. A nearly pure state (within
    about 4e-13 dB of purity at the vacuum scale) counts as pure, which costs
    up to about 6e-8 relative (``fidelity_from_moments``)."""
    s1.require_physical()
    s2.require_physical()
    return float(fidelity_from_moments(s1.mean, s1.cov, s2.mean, s2.cov))
