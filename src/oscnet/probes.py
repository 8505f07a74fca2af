"""Probing protocols: spectral-density recovery and the fidelity-based
quantum-non-Markovianity witness.

Two independent routes to the spectral density J(omega_S):

* analytic: term-by-term finite-time cosine transform of the damping kernel
  gamma(t) = sum_n (c_n^2 / Omega_n^2) cos(Omega_n t);
* probe: evolve probe + thermally populated environment to t_max, read the
  probe occupancy and invert
  J = (omega_S / t_max) ln[(N - n_0) / (N - n_S)], N = 1/(exp(omega_S/T)-1).

The damping-kernel plateau heuristic picks the interaction horizon t_max
before finite-size revivals set in.
"""

from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from numpy.typing import NDArray

from . import gaussian as g
from .dynamics import QuadraticModel, assemble_model, probe_rows
from .gaussian import GaussianState, SqueezedSpec
from .netmodel import CouplingGraph

DEFAULT_TEMPERATURE = 1.0
DEFAULT_HORIZON = 600.0
DEFAULT_SMOOTH_WINDOW = 51  # centered window must be odd
_KERNEL_BLOCK = 128  # in-block offsets of the angle-addition damping kernel


class ProbeSaturatedError(ValueError):
    """Probe occupancy reached the bath occupancy; the excitation-gain
    inversion is undefined there."""


class PlateauError(ValueError):
    """No damping-kernel plateau found within the search horizon."""


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _fmt_rows(table: NDArray, sep: str) -> str:
    """Each row of a 2-D table as one line of ``_fmt`` numbers joined by
    ``sep``; one ``%`` per row over a prebuilt format gives the same bytes."""
    table = np.asarray(table, dtype=float)
    line = sep.join(["%.17g"] * table.shape[1]) + "\n"
    return "".join([line % tuple(row) for row in table.tolist()])


def _fmt_matrix(matrix: NDArray, sep: str) -> str:
    """The bytes of ``_fmt_rows(matrix, sep)``, formatting each distinct entry
    once: worth it where entries repeat, as in a propagator with its
    time-reversal structure, and not for tables without repeats.

    Entries are told apart by bit pattern, so 0.0 and -0.0 (and NaN
    payloads) stay distinct.
    """
    matrix = np.asarray(matrix, dtype=float)
    bits, index = np.unique(matrix.view(np.int64), return_inverse=True)
    k = len(bits)
    words = ("%.17g\n" * k % tuple(bits.view(np.float64).tolist())).split("\n")
    table = np.array(words, dtype=object)[index.reshape(matrix.shape)]
    return "".join([sep.join(row) + "\n" for row in table.tolist()])


# ---------------------------------------------------------------------------
# damping kernel and t_max heuristic


def _damping_kernel_grid(model: QuadraticModel, dt: float, n_points: int) -> NDArray:
    """gamma(i dt) for i < n_points by angle addition.

    With t = t0 + tau, block starts t0 = j B dt and in-block offsets
    tau = i dt (i < B = _KERNEL_BLOCK),
    gamma = (amp cos W t0) @ cos W tau - (amp sin W t0) @ sin W tau:
    two small GEMMs instead of n_points x N cosines.
    """
    c = model.bath_couplings()
    om = model.env_freqs
    amp = c**2 / om**2
    n_blocks = -(-n_points // _KERNEL_BLOCK)
    start = np.outer(np.arange(n_blocks) * (_KERNEL_BLOCK * dt), om)
    offset = np.outer(om, np.arange(_KERNEL_BLOCK) * dt)
    gam = (amp * np.cos(start)) @ np.cos(offset) - (amp * np.sin(start)) @ np.sin(offset)
    return gam.ravel()[:n_points]


def suggest_tmax(
    model: QuadraticModel,
    horizon: float = DEFAULT_HORIZON,
    theta: float = 0.05,
    window: float | None = None,
    plateau_factor: float = 1.15,
    floor_quantile: float = 0.10,
    dt: float = 0.05,
) -> float:
    """Earliest damping-kernel plateau time.

    The trailing-window running max of |gamma| is compared against a plateau
    level estimated from its own low quantile over the horizon (the
    statistical floor of the dephased kernel); the threshold never drops
    below theta * gamma(0). Default window: two periods of the slowest
    environment normal mode.

    |gamma| on the uniform dt grid comes from the angle-addition form
    ``_damping_kernel_grid``; the envelope is the exact max over each
    trailing window, sampled every round(1/dt) grid steps.

    Raises PlateauError when the envelope never flattens (e.g. a single
    environment mode) or never crosses the threshold within the horizon.
    """
    c = model.bath_couplings()
    amp = c**2 / model.env_freqs**2
    gamma0 = amp.sum()
    if gamma0 == 0.0:
        raise PlateauError("probe is uncoupled; damping kernel vanishes")
    if window is None:
        window = 2.0 * 2.0 * np.pi / model.env_freqs.min()
    ts = np.arange(0.0, horizon + dt, dt)
    gam = np.abs(_damping_kernel_grid(model, dt, len(ts)))
    w_n = max(int(round(window / dt)), 1)
    step = max(int(round(1.0 / dt)), 1)
    idx = np.arange(w_n, len(ts), step)
    if len(idx) == 0:
        raise PlateauError("search horizon shorter than the envelope window")
    # window ending at idx[i] = w_n + i step starts at i step
    env = sliding_window_view(gam, w_n + 1)[::step].max(axis=1)
    floor = float(np.quantile(env, floor_quantile))
    if floor > 0.5 * gamma0:
        raise PlateauError(
            "damping kernel shows no plateau within the horizon; set t_max manually"
        )
    threshold = max(plateau_factor * floor, theta * gamma0)
    hits = np.flatnonzero(env <= threshold)
    if len(hits) == 0:
        raise PlateauError(
            "damping-kernel envelope never flattens below threshold; set t_max manually"
        )
    return float(ts[idx[hits[0]]])


# ---------------------------------------------------------------------------
# spectral density, analytic path


def spectral_density_analytic(
    model: QuadraticModel, omega_s: float | NDArray, t_max: float
) -> float | NDArray:
    """Finite-time cosine transform of the damping kernel.

    J = omega_S sum_n (c_n^2/Omega_n^2) [sin((W_n-w)T)/(2(W_n-w))
        + sin((W_n+w)T)/(2(W_n+w))], resonant terms -> T/2.
    """
    c = model.bath_couplings()
    om = model.env_freqs
    amp = c**2 / om**2
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


def _environment_variances(
    model: QuadraticModel, temperature: float, env_prep: str
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Variances (var_q, var_p) of each environment normal mode.

    'thermal' is the Gibbs state: occupancy N(Omega_n) in each mode.
    'squeezed' emulates it with pure squeezed vacua, sinh^2 r_n = N(Omega_n)
    and squeezing axes alternating across modes (mirroring alternate-quadrature
    multimode squeezing sources): the occupancies match the thermal
    preparation exactly, only the phase-space anisotropy differs.
    """
    nbar = np.asarray(thermal_occupancy(model.env_freqs, temperature))
    if env_prep == "thermal":
        return nbar + 0.5, nbar + 0.5
    if env_prep == "squeezed":
        r = np.arcsinh(np.sqrt(nbar))
        sign = np.where(np.arange(len(nbar)) % 2 == 0, 1.0, -1.0)
        return 0.5 * np.exp(-2.0 * r * sign), 0.5 * np.exp(+2.0 * r * sign)
    raise ValueError(f"unknown environment preparation {env_prep!r}")


# ---------------------------------------------------------------------------
# spectral density, probe path


@dataclass(frozen=True)
class SamplingOptions:
    """Finite-statistics homodyne emulation: n_samples per quadrature,
    n_reps repetitions, deterministic seed.

    Each repetition's sample second moment of q_S and of p_S is drawn from
    its exact law, the (noncentral) chi-square distribution of the mean of
    n_samples squared Gaussian outcomes, so the cost does not grow with
    n_samples.
    """

    n_samples: int
    n_reps: int = 20
    seed: int | None = 0

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError("need at least 2 samples per quadrature")
        if self.n_reps < 1:
            raise ValueError("need at least one repetition")


def _sample_second_moments(
    mean: float, var: float, n_samples: int, n_reps: int, seed: np.random.SeedSequence
) -> NDArray[np.float64]:
    """``n_reps`` draws of (1/n) sum_i x_i^2 over n = ``n_samples`` outcomes
    x_i ~ N(mean, var): (var/n) times a chi-square with n degrees of freedom
    and noncentrality n mean^2 / var."""
    rng = np.random.default_rng(seed)
    return rng.noncentral_chisquare(n_samples, n_samples * mean**2 / var, n_reps) * var / n_samples


def _quadrature_seeds(
    seed: int | None, n_points: int
) -> list[tuple[np.random.SeedSequence, np.random.SeedSequence]]:
    """Seeds of the q and p draws at each of ``n_points`` points: the
    grandchildren (i, k) that ``SeedSequence(seed).spawn(n_points)`` and a
    further ``spawn(2)`` per child give, built directly from the root's
    entropy (the same streams, without the intermediate children). The root
    is built once, so ``seed=None`` draws its entropy once."""
    root = np.random.SeedSequence(seed)
    return [
        tuple(
            np.random.SeedSequence(root.entropy, spawn_key=(i, k), pool_size=root.pool_size)
            for k in (0, 1)
        )
        for i in range(n_points)
    ]


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


def _probe_covariances(
    model: QuadraticModel,
    rows: NDArray[np.float64],
    probe_covs: Sequence[NDArray[np.float64]],
    env_prep: str,
    temperature: float | None = None,
) -> NDArray[np.float64]:
    """Probe covariances S_p (Sigma_probe + Sigma_env) S_p^T, one (..., 2, 2)
    stack per initial probe covariance, for the (..., 2, 2M) probe rows S_p.

    The environment term is three row dot products over the columns in which
    the preparation is diagonal: every column with weight 1/2 for 'vacuum'
    (1/2 I in the node-renormalized frame, the probe's columns included), the
    environment normal modes scaled by sqrt(``_environment_variances``)
    otherwise. Each probe adds C E C^T in closed form, C = [[a, b], [c, d]]
    the probe columns and E its covariance less what the vacuum term counts.
    """
    m = model.n_modes
    if env_prep == "vacuum":
        x, weight, counted = rows, 0.5, 0.5
    else:
        # node q = m_q Q, node p = m_p Pi in the normal modes (Q, Pi)
        var_q, var_p = _environment_variances(model, temperature, env_prep)
        O, om = model.env_modes, model.env_freqs
        w = np.sqrt(model.frequencies[1:])[:, None]
        m_q = w * O * np.sqrt(var_q / om)
        m_p = O * np.sqrt(om * var_p) / w
        x = np.concatenate([rows[..., 1:m] @ m_q, rows[..., m + 1 :] @ m_p], axis=-1)
        weight, counted = 1.0, 0.0
    xq, xp = x[..., 0, :], x[..., 1, :]
    env_qq, env_qp, env_pp = (
        weight * np.einsum("...i,...i", u, v) for u, v in ((xq, xq), (xq, xp), (xp, xp))
    )
    a, b, c, d = rows[..., 0, 0], rows[..., 0, m], rows[..., 1, 0], rows[..., 1, m]
    covs = np.empty((len(probe_covs), *rows.shape[:-2], 2, 2))
    for cov, sigma in zip(covs, probe_covs):
        (e_qq, e_qp), (_, e_pp) = sigma - counted * np.eye(2)
        qa, qb = a * e_qq + b * e_qp, a * e_qp + b * e_pp  # rows of C E
        pa, pb = c * e_qq + d * e_qp, c * e_qp + d * e_pp
        cov[..., 0, 0] = env_qq + (qa * a + qb * b)
        cov[..., 0, 1] = cov[..., 1, 0] = env_qp + (qa * c + qb * d)
        cov[..., 1, 1] = env_pp + (pa * c + pb * d)
    return covs


def _probe_path(
    model: QuadraticModel,
    omega: NDArray[np.float64],
    rows: NDArray[np.float64],
    t_max: float,
    temperature: float,
    probe_state: GaussianState | None,
    env_prep: str,
    sampling: SamplingOptions | None,
) -> tuple[NDArray[np.float64], NDArray[np.float64] | None]:
    """J and its stderr at each probe frequency ``omega`` from the (G, 2, 2M)
    probe rows of the propagators to t_max.

    With sampling, each repetition's homodyne second moments of q_S and p_S
    are drawn from their exact (noncentral) chi-square law given the probe
    moments, and J is inverted per repetition. Each point draws from its own
    child of the master seed, split into one grandchild per quadrature, so
    its samples do not depend on the rest of the grid.
    """
    probe = probe_state if probe_state is not None else g.vacuum_state(1)
    n0 = g.mean_photon(probe)
    n_bath = np.asarray(thermal_occupancy(omega, temperature))
    # the environment's mean is zero: only the probe columns carry one
    mean = rows[..., [0, model.n_modes]] @ probe.mean
    cov = _probe_covariances(model, rows, [probe.cov], env_prep, temperature)[0]
    if sampling is None:
        n_s = g.mean_photon_from_moments(mean, cov)
        return _invert_excitation(omega, t_max, n_bath, n0, n_s), None

    var = np.diagonal(cov, axis1=1, axis2=2)
    if not np.all(var > 0):
        raise g.StateError("probe quadrature variance is not positive")
    reps, n = sampling.n_reps, sampling.n_samples
    # sample second moments of q_S and p_S per point and rep; they include the means
    m2 = np.empty((len(omega), 2, reps))
    for i, pair in enumerate(_quadrature_seeds(sampling.seed, len(omega))):
        for k, quad_seed in enumerate(pair):
            m2[i, k] = _sample_second_moments(mean[i, k], var[i, k], n, reps, quad_seed)
    n_s = 0.5 * (m2.sum(axis=1) - 1.0)
    js = _invert_excitation(omega[:, None], t_max, n_bath[:, None], n0, n_s)
    stderr = js.std(axis=1, ddof=1) / np.sqrt(reps) if reps > 1 else np.zeros(len(omega))
    return js.mean(axis=1), stderr


def spectral_density_probe(
    model: QuadraticModel,
    t_max: float,
    temperature: float = DEFAULT_TEMPERATURE,
    probe_state: GaussianState | None = None,
    env_prep: str = "thermal",
    sampling: SamplingOptions | None = None,
) -> tuple[float, float | None]:
    """Recover J(omega_S) from the probe's excitation gain.

    The probe (default vacuum) and thermally populated environment evolve to
    t_max; the occupancy n_S is read from exact moments, or, when
    ``sampling`` is given, from each repetition's homodyne second moments of
    q_S and p_S, drawn from their exact (noncentral) chi-square law. Returns
    (J, stderr) with stderr = standard error over repetitions (None without
    sampling).
    """
    j, stderr = _probe_path(
        model,
        np.array([model.omega_s]),
        probe_rows(model, t_max)[None],
        t_max,
        temperature,
        probe_state,
        env_prep,
        sampling,
    )
    return float(j[0]), None if stderr is None else float(stderr[0])


# ---------------------------------------------------------------------------
# sweeps


@dataclass(frozen=True)
class SpectralDensityCurve:
    """J(omega_S) over a frequency grid, by one or both recovery methods."""

    omega: NDArray[np.float64]
    method: str  # analytic | probe | both
    t_max: float
    temperature: float
    j_analytic: NDArray[np.float64] | None = None
    j_probe: NDArray[np.float64] | None = None
    stderr: NDArray[np.float64] | None = None

    def __post_init__(self):
        if np.any(np.diff(self.omega) <= 0):
            raise ValueError("frequency grid must be strictly increasing")

    def to_csv(self) -> str:
        cols = ["omega_s"]
        series = [self.omega]
        if self.j_analytic is not None:
            cols.append("J_analytic")
            series.append(self.j_analytic)
        if self.j_probe is not None:
            cols.append("J_probe")
            series.append(self.j_probe)
        if self.stderr is not None:
            cols.append("stderr")
            series.append(self.stderr)
        return ",".join(cols) + "\n" + _fmt_rows(np.column_stack(series), ",")


def model_at(graph: CouplingGraph, omega_s: float) -> QuadraticModel:
    """Assemble the model with the probe frequency replaced."""
    if graph.probe is None:
        raise ValueError("graph has no probe attached")
    return assemble_model(dc_replace(graph, probe=dc_replace(graph.probe, omega_s=omega_s)))


def sweep_spectral_density(
    graph: CouplingGraph,
    omega_grid: Sequence[float],
    t_max: float,
    temperature: float = DEFAULT_TEMPERATURE,
    method: str = "analytic",
    probe_state: GaussianState | None = None,
    env_prep: str = "thermal",
    sampling: SamplingOptions | None = None,
) -> SpectralDensityCurve:
    """Evaluate the spectral density over a frequency grid.

    The probe path takes the probe rows of the whole grid from one Chebyshev
    recurrence in the potentials V(omega_S) (``probe_rows``), with no
    per-point diagonalization. With sampling enabled,
    per-point seeds are derived from the master seed, so a one-point sweep
    reproduces ``spectral_density_probe`` with the same options.
    """
    if method not in ("analytic", "probe", "both"):
        raise ValueError(f"unknown method {method!r}")
    omega_grid = np.asarray(list(omega_grid), dtype=float)
    if len(omega_grid) == 0:
        raise ValueError("frequency grid is empty")
    # one model serves the grid and both paths: the analytic kernel only
    # involves the environment block, and the potential at each grid
    # frequency differs from the model's only in V_SS
    model = assemble_model(graph)
    ja = jp = se = None
    if method in ("analytic", "both"):
        ja = np.asarray(spectral_density_analytic(model, omega_grid, t_max))
    if method in ("probe", "both"):
        jp, se = _probe_path(
            model,
            omega_grid,
            probe_rows(model, t_max, omega_grid),
            t_max,
            temperature,
            probe_state,
            env_prep,
            sampling,
        )
    return SpectralDensityCurve(
        omega=omega_grid,
        method=method,
        t_max=t_max,
        temperature=temperature,
        j_analytic=ja,
        j_probe=jp,
        stderr=se,
    )


# ---------------------------------------------------------------------------
# quantum non-Markovianity


def moving_average(values: NDArray[np.float64], window: int) -> NDArray[np.float64]:
    """Centered moving average with windows shrinking at the edges."""
    if window < 1 or window % 2 == 0:
        raise ValueError("smoothing window must be odd and positive")
    v = np.asarray(values, dtype=float)
    i = np.arange(len(v))
    half = np.minimum(np.minimum(i, len(v) - 1 - i), window // 2)
    # running sums of deviations from the mean keep the differences accurate
    ref = v.mean() if len(v) else 0.0
    csum = np.concatenate([[0.0], np.cumsum(v - ref)])
    return ref + (csum[i + half + 1] - csum[i - half]) / (2 * half + 1)


@dataclass(frozen=True)
class FidelityTrace:
    """Probe-state fidelity versus interaction time."""

    t: NDArray[np.float64]
    f_raw: NDArray[np.float64]
    f_smooth: NDArray[np.float64]
    window: int
    rho1: SqueezedSpec
    rho2: SqueezedSpec
    omega_s: float

    def __post_init__(self):
        if not np.all((self.f_raw > 0) & (self.f_raw <= 1.0 + 1e-9)):
            raise ValueError("fidelity values must lie in (0, 1]")
        if self.window % 2 == 0:
            raise ValueError("smoothing window must be odd")

    def to_csv(self) -> str:
        return "t,F_raw,F_smooth\n" + _fmt_rows(
            np.column_stack([self.t, self.f_raw, self.f_smooth]), ","
        )


@dataclass(frozen=True)
class WitnessReport:
    """Total fidelity back-flow and its contributing time intervals."""

    value: float
    intervals: tuple[tuple[float, float, float], ...]
    smoothed: bool
    omega_s: float

    def to_text(self) -> str:
        lines = [
            f"omega_s = {_fmt(self.omega_s)}",
            f"N = {_fmt(self.value)}",
            f"smoothed = {str(self.smoothed).lower()}",
            "intervals (t_start, t_end, contribution):",
        ]
        for a, b, dv in self.intervals:
            lines.append(f"  {_fmt(a)}, {_fmt(b)}, {_fmt(dv)}")
        return "\n".join(lines) + "\n"


def qnm_trace(
    model: QuadraticModel,
    rho1: SqueezedSpec,
    rho2: SqueezedSpec,
    t_grid: Sequence[float],
    window: int = DEFAULT_SMOOTH_WINDOW,
) -> FidelityTrace:
    """Fidelity between two probe preparations evolving in a vacuum network.

    Both initial probe states (environment in vacuum) are propagated with
    the same renormalized evolution; only the probe rows of the propagator
    are formed, for the whole grid at once, and the probe blocks are
    compared via the Gaussian fidelity.
    """
    t_grid = np.asarray(list(t_grid), dtype=float)
    if len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing with >= 2 points")
    sigmas = [g.squeezed_state(spec).cov for spec in (rho1, rho2)]
    covs = _probe_covariances(model, probe_rows(model, t_grid), sigmas, "vacuum")
    zero = np.zeros(2)
    fs = g.fidelity_from_moments(zero, covs[0], zero, covs[1])
    return FidelityTrace(
        t=t_grid,
        f_raw=fs,
        f_smooth=moving_average(fs, window),
        window=window,
        rho1=rho1,
        rho2=rho2,
        omega_s=model.omega_s,
    )


def blp_witness(trace: FidelityTrace, use_smoothed: bool = True) -> WitnessReport:
    """Total fidelity decrease of the trace (discrete BLP back-flow measure).

    N = sum_i max(0, F(t_i) - F(t_i+1)); contributing intervals are maximal
    runs of consecutive decreases. The maximization over state pairs is the
    caller's: fix the pair to orthogonally squeezed states for the standard
    witness.
    """
    series = trace.f_smooth if use_smoothed else trace.f_raw
    if len(series) < 2:
        raise ValueError("trace must have at least two points")
    diffs = np.diff(series)
    total = float((-diffs[diffs < 0]).sum())  # +0.0 on a monotone trace
    intervals = []
    start = None
    acc = 0.0
    for i, d in enumerate(diffs):
        if d < 0:
            if start is None:
                start = trace.t[i]
                acc = 0.0
            acc += -d
        elif start is not None:
            intervals.append((float(start), float(trace.t[i]), float(acc)))
            start = None
    if start is not None:
        intervals.append((float(start), float(trace.t[-1]), float(acc)))
    return WitnessReport(
        value=total, intervals=tuple(intervals), smoothed=use_smoothed, omega_s=trace.omega_s
    )
