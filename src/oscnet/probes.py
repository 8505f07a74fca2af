"""Probing protocols: spectral-density recovery and the fidelity-based
quantum-non-Markovianity witness.

Two independent routes to the spectral density J(omega_S), one function
each:

* analytic (``spectral_density_analytic``): term-by-term finite-time cosine
  transform of the damping kernel
  gamma(t) = sum_n (c_n^2 / Omega_n^2) cos(Omega_n t);
* probe (``sweep_spectral_density``): evolve probe + thermally populated
  environment to t_max, read the probe occupancy and invert
  J = (omega_S / t_max) ln[(N - n_0) / (N - n_S)], N = 1/(exp(omega_S/T)-1).

The damping-kernel plateau heuristic picks the interaction horizon t_max
before finite-size revivals set in.

Results are arrays and dataclasses; no text is formatted here (``cli``
writes every output file).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from . import gaussian as g
from .dynamics import QuadraticModel, _angle_tables, assemble_model, probe_rows
from .gaussian import GaussianState, SqueezedSpec, _fidelity
from .netmodel import CouplingGraph

DEFAULT_TEMPERATURE = 1.0
DEFAULT_SMOOTH_WINDOW = 51  # centered window must be odd

# the t_max rule: |gamma| on a _TMAX_DT grid up to _TMAX_HORIZON, its envelope
# sampled every _TMAX_STRIDE steps (unit time), the threshold the larger of
# _TMAX_PLATEAU times the envelope's _TMAX_QUANTILE and _TMAX_THETA gamma(0)
_TMAX_HORIZON = 600.0
_TMAX_DT = 0.05
_TMAX_STRIDE = 20
_TMAX_PLATEAU = 1.15
_TMAX_QUANTILE = 0.10
_TMAX_THETA = 0.05


class ProbeSaturatedError(ValueError):
    """Probe occupancy reached the bath occupancy; the excitation-gain
    inversion is undefined there."""


class PlateauError(ValueError):
    """No damping-kernel plateau found within the search horizon."""


# ---------------------------------------------------------------------------
# damping kernel and t_max heuristic


def _damping_kernel_grid(model: QuadraticModel, dt: float, n_points: int) -> NDArray:
    """gamma(i dt) for i < n_points by angle addition.

    With t = t0 + tau, block starts t0 = j B dt and in-block offsets
    tau = i dt (i < B) from ``dynamics._angle_tables``, which picks the
    block B = ceil(sqrt(n_points)) as for every uniform time grid,
    gamma = (amp cos W t0) @ cos W tau - (amp sin W t0) @ sin W tau:
    two small GEMMs instead of n_points x N cosines.
    """
    om, amp = model.env_freqs, model._kernel_weights
    cos_start, sin_start, cos_offset, sin_offset = _angle_tables(om, 0.0, dt, n_points)
    gam = (amp * cos_start) @ cos_offset - (amp * sin_start) @ sin_offset
    return gam.ravel()[:n_points]


def suggest_tmax(model: QuadraticModel) -> float:
    """Earliest damping-kernel plateau time.

    The trailing-window running max of |gamma|, the window two periods of the
    slowest environment normal mode, is compared against a plateau level
    estimated from its own low quantile over the search horizon (the
    statistical floor of the dephased kernel); the threshold never drops
    below a fixed fraction of gamma(0). The ``_TMAX_*`` constants fix the
    rule.

    |gamma| on the uniform grid comes from the angle-addition form
    ``_damping_kernel_grid``; the envelope is the exact max over each
    trailing window, sampled every ``_TMAX_STRIDE`` grid steps.

    t_max is the first envelope reading at or below the threshold. Raises
    PlateauError for an uncoupled probe, when the envelope never flattens
    (a quantile above gamma(0)/2, e.g. a single environment mode), and when
    the window outlasts the horizon (slowest environment mode below about
    0.0209).
    """
    gamma0 = model._kernel_weights.sum()
    if gamma0 == 0.0:
        raise PlateauError("probe is uncoupled; damping kernel vanishes")
    window = 2.0 * 2.0 * np.pi / model.env_freqs.min()
    ts = np.arange(0.0, _TMAX_HORIZON + _TMAX_DT, _TMAX_DT)
    gam = np.abs(_damping_kernel_grid(model, _TMAX_DT, len(ts)))
    w_n = max(int(round(window / _TMAX_DT)), 1)
    idx = np.arange(w_n, len(ts), _TMAX_STRIDE)
    if len(idx) == 0:
        raise PlateauError("search horizon shorter than the envelope window")
    # window ending at idx[i] = w_n + i stride starts at i stride
    env = sliding_window_view(gam, w_n + 1)[::_TMAX_STRIDE].max(axis=1)
    floor = float(np.quantile(env, _TMAX_QUANTILE))
    if floor > 0.5 * gamma0:
        raise PlateauError(
            "damping kernel shows no plateau within the horizon; set t_max manually"
        )
    threshold = max(_TMAX_PLATEAU * floor, _TMAX_THETA * gamma0)
    # floor is a quantile of env, so min(env) <= floor <= threshold: a hit exists
    return float(ts[idx[np.flatnonzero(env <= threshold)[0]]])


# ---------------------------------------------------------------------------
# spectral density, analytic path


def spectral_density_analytic(
    model: QuadraticModel, omega_s: float | NDArray, t_max: float
) -> float | NDArray:
    """Finite-time cosine transform of the damping kernel.

    J = omega_S sum_n (c_n^2/Omega_n^2) [sin((W_n-w)T)/(2(W_n-w))
        + sin((W_n+w)T)/(2(W_n+w))], resonant terms -> T/2, for a finite
    T = t_max >= 0.
    """
    if not 0 <= t_max < np.inf:
        raise ValueError("t_max must be finite and >= 0")
    om, amp = model.env_freqs, model._kernel_weights
    w = np.atleast_1d(np.asarray(omega_s, dtype=float))
    dm = om[None, :] - w[:, None]
    dp = om[None, :] + w[:, None]
    small = np.abs(dm) < 1e-12
    dm_safe = np.where(small, 1.0, dm)
    t1 = np.where(small, t_max / 2.0, np.sin(dm_safe * t_max) / (2.0 * dm_safe))
    t2 = np.sin(dp * t_max) / (2.0 * dp)
    out = w * ((t1 + t2) * amp[None, :]).sum(axis=1)
    return float(out[0]) if np.isscalar(omega_s) else out


# ---------------------------------------------------------------------------
# environment preparation


def thermal_occupancy(omega: float | NDArray, temperature: float) -> float | NDArray:
    """Bose-Einstein occupancy N(omega) = 1/(exp(omega/T) - 1)."""
    if not 0 < temperature < np.inf:
        raise ValueError("temperature must be finite and > 0")
    return 1.0 / np.expm1(np.asarray(omega) / temperature)


# ---------------------------------------------------------------------------
# spectral density, probe path


def _integer(x: object) -> bool:
    """Whether x is an integer, Python or NumPy; a bool is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class SamplingOptions:
    """Finite-statistics homodyne emulation: n_samples per quadrature,
    n_reps repetitions, deterministic seed.

    Each repetition's sample second moment of q_S and of p_S is drawn from
    its exact law, the (noncentral) chi-square distribution of the mean of
    n_samples squared Gaussian outcomes, so the cost does not grow with
    n_samples. A sweep draws all of them from one generator seeded with
    ``seed``; ``sweep_spectral_density`` gives the layout. The counts are
    integers and the seed an integer >= 0 or None, Python or NumPy, never a
    bool.
    """

    n_samples: int
    n_reps: int
    seed: int | None

    def __post_init__(self):
        if not (_integer(self.n_samples) and _integer(self.n_reps)):
            raise ValueError(
                f"sample and repetition counts must be integers, got {self.n_samples!r}, "
                f"{self.n_reps!r}"
            )
        if not (self.seed is None or _integer(self.seed) and self.seed >= 0):
            raise ValueError(f"seed must be an integer >= 0 or None, got {self.seed!r}")
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples per quadrature")
        if self.n_reps < 1:
            raise ValueError("need at least one repetition")


def _sample_second_moments(
    mean: float | NDArray, var: float | NDArray, n_samples: int, n_reps: int, seed
) -> NDArray[np.float64]:
    """``n_reps`` draws of (1/n) sum_i x_i^2 over n = ``n_samples`` outcomes
    x_i ~ N(mean, var) per value of ``mean`` and ``var``: (var/n) times a
    chi-square with n degrees of freedom and noncentrality n mean^2 / var.
    One generator, ``np.random.default_rng(seed)`` (an int, None, a
    SeedSequence or a Generator), fills the (*mean.shape, n_reps) draws in C
    order, each value's n_reps draws in a row."""
    mean, var = np.asarray(mean), np.asarray(var)
    nonc = (n_samples * mean**2 / var)[..., None]
    draws = np.random.default_rng(seed).noncentral_chisquare(n_samples, nonc, (*mean.shape, n_reps))
    return draws * var[..., None] / n_samples


def _invert_excitation(
    omega_s: float | NDArray,
    t_max: float,
    n_bath: float | NDArray,
    n0: float,
    n_s: float | NDArray,
) -> NDArray[np.float64]:
    omega_s, n_bath, n_s = np.broadcast_arrays(omega_s, n_bath, n_s)
    # the log argument must stay positive: the probe occupancy may approach
    # the bath occupancy from the n0 side but not cross it
    saturated = np.flatnonzero((n_bath - n0) * (n_bath - n_s) <= 0)
    if saturated.size:
        i = saturated[0]
        raise ProbeSaturatedError(
            f"probe occupancy {n_s.flat[i]:.4g} reached bath occupancy "
            f"{n_bath.flat[i]:.4g} at omega_s={omega_s.flat[i]:.6g}; "
            "raise the temperature or shorten t_max"
        )
    return (omega_s / t_max) * np.log((n_bath - n0) / (n_bath - n_s))


def _probe_variances(
    model: QuadraticModel,
    rows: NDArray[np.float64],
    probe_cov: NDArray[np.float64],
    env_prep: str,
    temperature: float | None = None,
) -> NDArray[np.float64]:
    """Probe quadrature variances [var_q, var_p], a (..., 2) stack: the
    diagonal of S_p (Sigma_probe + Sigma_env) S_p^T for the (..., 2, 2M)
    probe rows S_p and the initial probe covariance ``probe_cov``.

    ``env_prep`` only picks square-root factors F_q, F_p of the environment
    covariance on the node q and p columns, and the environment term is the
    two row dot products of (S_q F_q, S_p F_p): sqrt(1/2) I for 'vacuum'
    (1/2 I in the node-renormalized frame), else the normal modes scaled by
    their standard deviations, w O sqrt(var_q / Omega) and
    O sqrt(Omega var_p) / w, w = sqrt(bare node frequency). 'thermal' is the
    Gibbs state, occupancy N(Omega_n) per mode; 'squeezed' emulates it with
    pure squeezed vacua, sinh^2 r_n = N(Omega_n), squeezing axes alternating
    across modes (as alternate-quadrature multimode squeezing sources): the
    occupancies match, only the phase-space anisotropy differs. The probe
    adds the diagonal of C E C^T in closed form, C = [[a, b], [c, d]] the
    probe columns and E = ``probe_cov``.
    """
    m = model.n_modes
    env_q, env_p = rows[..., 1:m], rows[..., m + 1 :]
    if env_prep == "vacuum":
        x = np.sqrt(0.5) * np.concatenate([env_q, env_p], axis=-1)
    else:
        nbar = np.asarray(thermal_occupancy(model.env_freqs, temperature))
        if env_prep == "thermal":
            var_q = var_p = nbar + 0.5
        elif env_prep == "squeezed":
            r = np.arcsinh(np.sqrt(nbar))
            sign = np.where(np.arange(len(nbar)) % 2 == 0, 1.0, -1.0)
            var_q, var_p = 0.5 * np.exp(-2.0 * r * sign), 0.5 * np.exp(+2.0 * r * sign)
        else:
            raise ValueError(f"unknown environment preparation {env_prep!r}")
        O, om = model.env_modes, model.env_freqs
        w = np.sqrt(model.frequencies[1:])[:, None]
        f_q, f_p = w * O * np.sqrt(var_q / om), O * np.sqrt(om * var_p) / w
        x = np.concatenate([env_q @ f_q, env_p @ f_p], axis=-1)
    xq, xp = x[..., 0, :], x[..., 1, :]
    a, b, c, d = rows[..., 0, 0], rows[..., 0, m], rows[..., 1, 0], rows[..., 1, m]
    (e_qq, e_qp), (_, e_pp) = probe_cov
    var = np.empty((*rows.shape[:-2], 2))
    var[..., 0] = np.einsum("...i,...i", xq, xq) + (
        (a * e_qq + b * e_qp) * a + (a * e_qp + b * e_pp) * b
    )
    var[..., 1] = np.einsum("...i,...i", xp, xp) + (
        (c * e_qq + d * e_qp) * c + (c * e_qp + d * e_pp) * d
    )
    return var


def model_at(graph: CouplingGraph, omega_s: float) -> QuadraticModel:
    """Assemble the model with the probe frequency replaced."""
    probe = graph.probe
    if probe is None:
        raise ValueError("graph has no probe attached")
    return assemble_model(graph.with_probe(probe.site + 1, probe.k, omega_s))


def sweep_spectral_density(
    model: QuadraticModel,
    omega_grid: Sequence[float],
    t_max: float,
    temperature: float = DEFAULT_TEMPERATURE,
    probe_state: GaussianState | None = None,
    env_prep: str = "thermal",
    sampling: SamplingOptions | None = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64] | None]:
    """Probe-path J and its stderr over a frequency grid; stderr is None
    without ``sampling``.

    One model serves the grid: the potential at each grid frequency differs
    from the model's only in V_SS. The probe rows of the propagators to t_max
    come for the whole grid from one Chebyshev recurrence in the potentials
    V(omega_S) (``probe_rows``), with no per-point diagonalization; a grid
    frequency whose potential is not positive definite raises StabilityError,
    and a ``probe_state`` that violates the uncertainty relation StateError.
    t_max must be > 0, since J divides by it.

    One pipeline serves both paths: the second moments m2 of q_S and p_S per
    point and repetition give n_S = (m2_q + m2_p - 1)/2 and J, averaged over
    the repetitions. Without sampling m2 is exact, var + mean^2, in one
    repetition. With sampling, each repetition's homodyne m2 is drawn from
    its exact (noncentral) chi-square law given the probe moments, and
    stderr is the standard error over repetitions. One generator seeded with
    ``seed`` fills the stream point by point, q reps then p reps. NumPy's
    draw count per value depends only on the stream and on whether that
    value's noncentrality is exactly zero, so point i's draws depend on the
    seed, the counts, i and which quadrature means before them are exactly
    zero (all for the vacuum probe, generically none for a displaced one),
    never on the other grid frequencies: point 0 draws as a one-point sweep
    at its frequency.
    """
    omega = np.asarray(list(omega_grid), dtype=float)
    if len(omega) == 0:
        raise ValueError("frequency grid is empty")
    if np.any(np.diff(omega) <= 0):
        raise ValueError("frequency grid must be strictly increasing")
    if not t_max > 0:
        raise ValueError("t_max must be > 0: J divides by it")
    probe = g.vacuum_state() if probe_state is None else probe_state
    n0 = g.mean_photon(probe)
    n_bath = np.asarray(thermal_occupancy(omega, temperature))
    rows = probe_rows(model, t_max, omega)
    # the environment's mean is zero: only the probe columns carry one
    mean = rows[..., [0, model.n_modes]] @ probe.mean
    var = _probe_variances(model, rows, probe.cov, env_prep, temperature)
    if sampling is None:
        m2 = (var + mean**2)[..., None]
    elif np.all(var > 0):
        m2 = _sample_second_moments(mean, var, sampling.n_samples, sampling.n_reps, sampling.seed)
    else:
        raise g.StateError("probe quadrature variance is not positive")
    n_s = 0.5 * (m2.sum(axis=1) - 1.0)
    js = _invert_excitation(omega[:, None], t_max, n_bath[:, None], n0, n_s)
    reps = js.shape[1]
    stderr = js.std(axis=1, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros(len(omega))
    return js.mean(axis=1), None if sampling is None else stderr


# ---------------------------------------------------------------------------
# quantum non-Markovianity


def moving_average(values: NDArray[np.float64], window: int) -> NDArray[np.float64]:
    """Centered moving average with windows shrinking at the edges. A point
    whose window holds only itself (every point at window 1, both ends at
    any window) keeps its input value exactly."""
    if window < 1 or window % 2 == 0:
        raise ValueError("smoothing window must be odd and positive")
    v = np.asarray(values, dtype=float)
    i = np.arange(len(v))
    half = np.minimum(np.minimum(i, len(v) - 1 - i), window // 2)
    # running sums of deviations from the mean keep the differences accurate
    ref = v.mean() if len(v) else 0.0
    csum = np.concatenate([[0.0], np.cumsum(v - ref)])
    # the running sums round a one-point mean by an ulp; that mean is v itself
    return np.where(half > 0, ref + (csum[i + half + 1] - csum[i - half]) / (2 * half + 1), v)


@dataclass(frozen=True)
class FidelityTrace:
    """Raw probe-state fidelity versus interaction time, each in (0, 1]."""

    t: NDArray[np.float64]
    f_raw: NDArray[np.float64]

    def __post_init__(self):
        if not np.all((self.f_raw > 0) & (self.f_raw <= 1.0 + 1e-9)):
            raise ValueError("fidelity values must lie in (0, 1]")


@dataclass(frozen=True)
class WitnessReport:
    """Total fidelity back-flow and its contributing time intervals."""

    value: float
    intervals: tuple[tuple[float, float, float], ...]


def qnm_trace(
    model: QuadraticModel,
    rho1: SqueezedSpec,
    rho2: SqueezedSpec,
    t_grid: Sequence[float],
) -> FidelityTrace:
    """Raw fidelity between two probe preparations evolving in a vacuum
    network; smoothing is the caller's (``moving_average``).

    Both initial probe states (environment in vacuum) evolve under the
    same renormalized propagator; only the probe rows of the propagator
    are formed, for the whole grid at once, and the probe blocks are
    compared via the Gaussian fidelity. Each preparation, pure or mixed,
    reads its covariance and det S - 1/4 from the rows in one pass
    (``_purified_moments``).
    """
    t_grid = np.asarray(list(t_grid), dtype=float)
    if len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing with >= 2 points")
    covs, excess = _purified_moments(probe_rows(model, t_grid), (rho1, rho2))
    fs = _fidelity(covs[0], covs[1], *excess)
    return FidelityTrace(t=t_grid, f_raw=fs)


def _purified_moments(
    rows: NDArray[np.float64], specs: Sequence[SqueezedSpec]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Probe covariances S (P, T, 2, 2) and det S - 1/4 (P, T) over the
    (T, 2, 2M) probe rows for P preparations, environment in vacuum.

    Each preparation is sigma = 1/2 nu L L^T, nu - 1 = expm1(ln 10 (s+a)/20)
    and L = R(angle) diag(h, 1/h), h = 10^((s-a)/40), from its dB levels s, a.
    With u = W[:, 0] - i W[:, 1], W = C L (C the probe columns), and the
    environment vectors e = row[q cols] - i row[p cols] (n_q = |e_q|^2,
    n_p = |e_p|^2, g_qp = e_q^H e_p), S = 1/2 (nu W W^T + [[n_q, Re g_qp], [Re g_qp, n_p]]).
    As the probe half of a pure two-mode state, rows (sqrt((nu+1)/2) u,
    ancilla sqrt((nu-1)/2) conj(u), e), 4 (det S - 1/4) is their Gram
    determinant; Gram-Schmidt against e_q (beta = g_qp/n_q, residual
    r = e_p - beta e_q, shared by the preparations) sums it from non-negative
    terms with nothing to cancel: (nu^2 - 1) det(C)^2 + |r|^2 (n_q + nu |u_q|^2)
    + n_q [(nu+1)/2 |beta u_q - u_p|^2 + (nu-1)/2 |beta conj(u_q) - conj(u_p)|^2].
    """
    m = rows.shape[-1] // 2
    x, y = rows[..., 1:m], rows[..., m + 1 :]  # e = x - i y
    env = np.einsum("tak,tbk->tab", x, x) + np.einsum("tak,tbk->tab", y, y)
    n_q, g_qp = env[:, 0, 0], env[:, 0, 1] + 1j * np.einsum("tk,tk->t", y[:, 0], x[:, 1])
    g_qp -= 1j * np.einsum("tk,tk->t", x[:, 0], y[:, 1])
    beta = np.divide(g_qp, n_q, out=np.zeros_like(g_qp), where=n_q > 0)
    r_x = x[:, 1] - beta.real[:, None] * x[:, 0] - beta.imag[:, None] * y[:, 0]
    r_y = y[:, 1] - beta.real[:, None] * y[:, 0] + beta.imag[:, None] * x[:, 0]
    r2 = np.einsum("tk,tk->t", r_x, r_x) + np.einsum("tk,tk->t", r_y, r_y)
    c = rows[..., [0, m]]
    s, a, angle = np.array([(p.squeeze_db, p.antisqueeze_db, p.angle) for p in specs]).T
    nu1 = np.expm1(np.log(10.0) * (s + a) / 20.0)[:, None]  # nu - 1
    h, cos, sin = 10.0 ** ((s - a) / 40.0), np.cos(angle), np.sin(angle)
    u = np.einsum("taj,jp->pta", c, [cos * h + 1j * sin / h, sin * h - 1j * cos / h])
    ww = (u.conj()[..., :, None] * u[..., None, :]).real
    cov = 0.5 * ((1.0 + nu1)[..., None, None] * ww + env)
    u_q, u_p = u[..., 0], u[..., 1]
    excess = 0.25 * (
        nu1 * (nu1 + 2.0) * (c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]) ** 2
        + r2 * (n_q + (1.0 + nu1) * ww[..., 0, 0])
        + 0.5 * n_q * (nu1 + 2.0) * np.abs(beta * u_q - u_p) ** 2
        + 0.5 * n_q * nu1 * np.abs(beta * u_q.conj() - u_p.conj()) ** 2
    )
    return cov, excess


def blp_witness(t: NDArray[np.float64], f: NDArray[np.float64]) -> WitnessReport:
    """Total decrease of the fidelity series f over the times t, as given
    (discrete BLP back-flow measure); a smoothed f is the caller's.

    The decreasing runs are the maximal runs of consecutive steps with
    f(t_i+1) < f(t_i). A run from t_s to t_e drops by f(t_s) - f(t_e), and
    N is the sum of the drops, so N = sum_i max(0, f(t_i) - f(t_i+1)) up to
    round-off. t and f must have one shape. The maximization over state
    pairs is the caller's: fix the pair to orthogonally squeezed states for
    the standard witness.
    """
    if np.shape(t) != np.shape(f):
        raise ValueError(f"times {np.shape(t)} and fidelities {np.shape(f)} differ in shape")
    if len(f) < 2:
        raise ValueError("trace must have at least two points")
    t, f = np.asarray(t, float), np.asarray(f, float)
    # +1 where a run starts and -1 where it ends, by point index
    edges = np.diff(np.concatenate(([0], np.diff(f) < 0, [0])))
    s, e = np.flatnonzero(edges > 0), np.flatnonzero(edges < 0)
    drops = f[s] - f[e]
    intervals = tuple(zip(t[s].tolist(), t[e].tolist(), drops.tolist()))
    return WitnessReport(value=float(drops.sum()), intervals=intervals)
