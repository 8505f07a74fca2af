"""Reference implementations and generators that only the tests use.

Each one is an independent oracle or input generator for a production path:
the per-edge assembly of the potential V for ``dynamics.assemble_model``, the
batched ``eigh`` probe rows for the Chebyshev omega_S branch of
``dynamics.probe_rows``, the direct-cosine damping kernel for
``probes._damping_kernel_grid``, the pure-state fidelity closed form and the
LAPACK route for ``gaussian.fidelity``, the per-outcome homodyne sampler for
the chi-square draws of the sampled probe path, the second-order (Fejer
window) probe-path J of the vacuum probe for its absolute scale, the multi-mode state calculus
(``JointState`` with its Williamson check and purity, product states,
symplectic propagation and the single-mode marginal), the thermal state and
the full-covariance environment states for the probe path's moments, the
stacked fidelity trace for ``probes.qnm_trace`` (with a Cauchy-Binet
det S - 1/4 over each preparation's purified rows), 40-digit mpmath probe
rows over a time grid, fidelity of two preparations, the ``qnm_trace``
fidelity over those rows and the probe-path J of every environment
preparation, the SVD route and the vacuum discard
for ``symplectic.bloch_messiah``, the unsymmetrized product form of
``dynamics.evolve``, the per-mode squeezers and the quadratic energy for the
propagator, and random (orthogonal) symplectic matrices as decomposition
inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import mpmath as mp
import numpy as np
from numpy.typing import NDArray

from oscnet import gaussian as g
from oscnet.dynamics import QuadraticModel, StabilityError
from oscnet.gaussian import _PURITY_TOL, GaussianState, SqueezedSpec, StateError
from oscnet.netmodel import CouplingGraph
from oscnet.probes import FidelityTrace, thermal_occupancy
from oscnet.symplectic import (
    PAIR_TOL,
    SYMPLECTIC_TOL,
    BlochMessiahFactors,
    SymplecticError,
    symplectic_form,
    symplectic_residual,
)


# ---------------------------------------------------------------------------
# dynamics


def potential_per_edge(graph: CouplingGraph) -> NDArray[np.float64]:
    """V of ``dynamics.assemble_model`` by one pass over the edges, adding
    each g_ij to V_ii and V_jj and subtracting it from V_ij and V_ji in
    edge order: the arithmetic, and so the bits, of its array form."""
    n = graph.n_nodes
    probe = graph.probe
    V = np.zeros((n + 1, n + 1))
    V[0, 0] = probe.omega_s**2
    V[1:, 1:][np.diag_indices(n)] = np.asarray(graph.omega) ** 2
    for (i, j), weight in graph.couplings.items():
        V[1 + i, 1 + i] += weight
        V[1 + j, 1 + j] += weight
        V[1 + i, 1 + j] -= weight
        V[1 + j, 1 + i] -= weight
    V[0, 1 + probe.site] = V[1 + probe.site, 0] = probe.k
    return V


# probe frequencies diagonalized per batch: bounds the (batch, M, M)
# potential and eigenvector stacks held at once
OMEGA_BATCH = 32


def probe_rows_eigh(
    model: QuadraticModel, t: float, omega_s: Sequence[float]
) -> NDArray[np.float64]:
    """Probe rows (G, 2, 2M) of the renormalized propagators at time ``t`` for
    a grid of G probe frequencies, each potential V(omega_S) diagonalized by
    ``eigh``, 32 at a time; a grid point whose potential is not positive
    definite raises StabilityError."""
    t = np.asarray(t, dtype=float)
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


# working precision of the mpmath references
MP_DIGITS = 40


def rows_mp(
    model: QuadraticModel, t_grid: Sequence[float], modes: Sequence[int] = (0,)
) -> NDArray[np.float64]:
    """Rows of the renormalized propagator over a time grid at ``MP_DIGITS``
    digits, rounded to float64: for K ``modes``, (T, 2K, 2M) holding the q
    rows of those modes, then their p rows. ``(0,)`` gives the probe rows
    (q_S, p_S), ``range(M)`` the whole propagator. ``mp.eigsy`` of V (its
    float64 entries taken as exact), then rows of cos(Wt), W^-1 sin(Wt) and
    W sin(Wt) and the sqrt(omega) scaling, all in mpmath. Pure Python: keep
    M small (about 8 modes) and T times K to some dozens."""
    return rows_mp_exact(model, t_grid, modes).astype(float)


def rows_mp_exact(
    model: QuadraticModel, t_grid: Sequence[float], modes: Sequence[int] = (0,)
) -> NDArray[np.object_]:
    """``rows_mp`` before its final rounding: an object array of mpf values
    at ``MP_DIGITS`` digits, for references that carry the rows on."""
    with mp.workdps(MP_DIGITS):
        evals, vecs = mp.eigsy(mp.matrix(model.V.tolist()))
        m, k = model.n_modes, len(modes)
        om = [mp.sqrt(e) for e in evals]
        rt = [mp.sqrt(mp.mpf(float(w))) for w in model.frequencies]
        out = np.empty((len(t_grid), 2 * k, 2 * m), dtype=object)
        for n_t, t in enumerate(t_grid):
            t = mp.mpf(float(t))
            fs = (
                [mp.cos(x * t) for x in om],
                [mp.sin(x * t) / x for x in om],
                [mp.sin(x * t) * x for x in om],
            )
            for r, i in enumerate(modes):
                c, sin_over, sin_times = (
                    [mp.fsum(vecs[i, n] * f * vecs[j, n] for n, f in enumerate(row)) for j in range(m)]
                    for row in fs
                )
                for j in range(m):
                    out[n_t, r, j] = c[j] * rt[i] / rt[j]
                    out[n_t, r, m + j] = sin_over[j] * rt[i] * rt[j]
                    out[n_t, k + r, j] = -sin_times[j] / (rt[i] * rt[j])
                    out[n_t, k + r, m + j] = c[j] * rt[j] / rt[i]
    return out


def renormalization_scaling(model: QuadraticModel) -> NDArray[np.float64]:
    """Diagonal of T = diag(sqrt(omega).., 1/sqrt(omega)..)."""
    rt = np.sqrt(model.frequencies)
    return np.concatenate([rt, 1.0 / rt])


def evolve_product(model: QuadraticModel, t: float) -> NDArray[np.float64]:
    """Renormalized-frame propagator as the product of the physical-frame
    closed form [[cos Wt, W^-1 sin Wt], [-W sin Wt, cos Wt]], from three
    separate products with the eigenvectors of V, and the entry scaling
    T_i / T_j, T = ``renormalization_scaling``: no symmetry is imposed."""
    evals, O = np.linalg.eigh(model.V)
    om = np.sqrt(evals)
    cos = (O * np.cos(om * t)[None, :]) @ O.T
    sin_over = (O * (np.sin(om * t) / om)[None, :]) @ O.T
    sin_times = (O * (np.sin(om * t) * om)[None, :]) @ O.T
    T = renormalization_scaling(model)
    return np.block([[cos, sin_over], [-sin_times, cos]]) * np.outer(T, 1.0 / T)


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
    model: QuadraticModel, mean: NDArray[np.float64], cov: NDArray[np.float64]
) -> float:
    """Energy <H> = 1/2 <x^T H_mat x> of a Gaussian state under the model,
    its moments given in the renormalized frame."""
    n = model.n_modes
    H = np.zeros((2 * n, 2 * n))
    H[:n, :n] = model.V
    H[n:, n:] = np.eye(n)
    T = renormalization_scaling(model)
    H = H / np.outer(T, T)
    return 0.5 * float(np.trace(H @ cov) + mean @ H @ mean)


# ---------------------------------------------------------------------------
# symplectic


def bloch_messiah_svd(
    S: NDArray[np.float64], tol: float = SYMPLECTIC_TOL
) -> BlochMessiahFactors:
    """Bloch-Messiah (Euler) decomposition of a symplectic matrix, reference
    route for ``symplectic.bloch_messiah`` (one SVD, one Gram-Schmidt pass per
    column).

    Route: one SVD S = U Sigma V^T. U is an eigenbasis of the positive polar
    factor P = U Sigma U^T and Sigma its spectrum, in descending order. The
    singular values come in (d, 1/d) pairs and Omega maps the d-singular
    space onto the 1/d one, so an orthonormal basis v_i of the singular
    vectors with d_i > 1, completed with -Omega v_i, is an orthogonal
    symplectic R1 with P = R1 Delta R1^T. The (near-)unit singular space is
    filled from its orthogonal projector applied to the canonical basis,
    in order. Finally R2 = Delta^-1 R1^T S.

    Each candidate column is projected off all accepted pairs
    (u, -Omega u) at once, twice, which pins R1's orthogonality and pairing
    to machine precision even for clustered singular values. Column signs
    are fixed so each of the first M columns of R1 has a positive leading
    entry (paired column signs follow). Passive S is returned as R1.
    """
    res = symplectic_residual(S)
    if not res < tol:
        raise SymplecticError(f"input is not symplectic (residual {res:.3e} >= {tol:.1e})")
    n = S.shape[0] // 2
    omega = symplectic_form(n)

    if np.linalg.norm(S.T @ S - np.eye(2 * n)) < tol:
        # passive transformation: all squeezing in R1 by convention
        return BlochMessiahFactors(r1=S.copy(), d=np.ones(n), r2=np.eye(2 * n))

    vecs, evals, _ = np.linalg.svd(S)

    hi = 1.0 + PAIR_TOL
    lo = 1.0 / hi
    n_squeezed = int(np.count_nonzero(evals > hi))
    if n_squeezed != np.count_nonzero(evals < lo):
        raise SymplecticError("singular values do not pair reciprocally")
    unit = vecs[:, (evals >= lo) & (evals <= hi)]
    # candidate q-columns: squeezed singular vectors (descending d), then the
    # columns of the projector onto the (near-)unit singular space
    candidates = np.hstack([vecs[:, :n_squeezed], unit @ unit.T])

    r1 = np.empty((2 * n, 2 * n))
    k = 0
    for j in range(candidates.shape[1]):
        if k == n:
            break
        basis = np.hstack([r1[:, :k], r1[:, n : n + k]])
        w = candidates[:, j]
        for _ in range(2):  # twice is enough (classical GS refinement)
            w = w - basis @ (basis.T @ w)
        norm = np.linalg.norm(w)
        if norm < 1e-8:
            if j < n_squeezed:
                raise SymplecticError("degenerate squeezed singular directions collapsed")
            continue
        w /= norm
        lead = np.flatnonzero(np.abs(w) > 1e-12)
        if lead.size and w[lead[0]] < 0:
            w = -w
        r1[:, k] = w
        r1[:, n + k] = -omega @ w
        k += 1
    if k != n:
        raise SymplecticError("failed to build a symplectic singular basis")

    d = np.concatenate([evals[:n_squeezed], np.ones(n - n_squeezed)])
    delta = np.concatenate([d, 1.0 / d])
    r2 = (r1 / delta[None, :]).T @ S  # R2 = Delta^-1 R1^T S
    return BlochMessiahFactors(r1=r1, d=d, r2=r2)


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


@dataclass(frozen=True)
class JointState:
    """First and second moments of an M-mode Gaussian state, quadrature
    order (q_1..q_M, p_1..p_M): the full-covariance reference that the
    single-mode ``gaussian.GaussianState`` is read off by ``reduce_state``."""

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
        if asym > g.COV_SYMMETRY_TOL * max(1.0, np.max(np.abs(cov))):
            raise StateError(f"covariance asymmetric by {asym:.3e}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", 0.5 * (cov + cov.T))

    @property
    def n_modes(self) -> int:
        return self.cov.shape[0] // 2

    def is_physical(self) -> bool:
        """cov positive definite, and its Williamson spectrum (moduli of the
        eigenvalues of Omega @ cov) >= 1/2 - UNCERTAINTY_SLACK."""
        if np.linalg.eigvalsh(self.cov).min() <= 0:
            return False
        nu = np.abs(np.linalg.eigvals(symplectic_form(self.n_modes) @ self.cov))
        return bool(nu.min() >= 0.5 - g.UNCERTAINTY_SLACK)

    def purity(self) -> float:
        """1 / (2^M sqrt(det cov)); in (0, 1]."""
        sign, logdet = np.linalg.slogdet(self.cov)
        if sign <= 0:
            raise StateError("covariance is not positive definite")
        return float(np.exp(-0.5 * logdet - self.n_modes * np.log(2.0)))


def thermal_state(nbar: float) -> GaussianState:
    """Single-mode thermal state of mean occupancy ``nbar``."""
    if nbar < 0:
        raise StateError("thermal occupancy must be >= 0")
    return GaussianState(np.zeros(2), (nbar + 0.5) * np.eye(2))


def joint_vacuum(n_modes: int) -> JointState:
    return JointState(np.zeros(2 * n_modes), 0.5 * np.eye(2 * n_modes))


def product_state(*states: GaussianState | JointState) -> JointState:
    """Tensor product; mode order follows the argument order."""
    sizes = [len(s.mean) // 2 for s in states]
    M = sum(sizes)
    mean = np.zeros(2 * M)
    cov = np.zeros((2 * M, 2 * M))
    at = 0
    for s, m in zip(states, sizes):
        ix = np.concatenate([np.arange(at, at + m), np.arange(M + at, M + at + m)])
        mean[ix] = s.mean
        cov[np.ix_(ix, ix)] = s.cov
        at += m
    return JointState(mean, cov)


def propagate(
    state: GaussianState | JointState, S: NDArray[np.float64]
) -> GaussianState | JointState:
    """Apply a symplectic map: mean -> S mean, cov -> S cov S^T, to a state
    of the same type."""
    if S.shape != state.cov.shape:
        raise StateError("symplectic dimension does not match the state")
    return type(state)(S @ state.mean, S @ state.cov @ S.T)


def reduce_state(state: JointState, mode: int) -> GaussianState:
    """Marginal single-mode state of ``mode`` (0-based)."""
    M = state.n_modes
    if not 0 <= mode < M:
        raise StateError(f"mode {mode} out of range")
    ix = np.array([mode, M + mode])
    return GaussianState(state.mean[ix], state.cov[np.ix_(ix, ix)])


def squeezed_fidelity_mp(spec1: SqueezedSpec, spec2: SqueezedSpec) -> float:
    """Fidelity of two squeezed preparations (zero means) at ``MP_DIGITS``
    digits: each covariance R diag(v_min, v_max) R^T built from its dB levels
    in mpmath, so a pure one has det = 1/4 to 40 digits, then
    F = 1 / (sqrt(L + d) - sqrt(d))."""
    with mp.workdps(MP_DIGITS):
        covs = []
        for spec in (spec1, spec2):
            v = [mp.mpf(1) / 2 * mp.power(10, mp.mpf(db) / 10)
                 for db in (spec.squeeze_db, spec.antisqueeze_db)]
            c, s = mp.cos(mp.mpf(spec.angle)), mp.sin(mp.mpf(spec.angle))
            covs.append(mp.matrix([[c, -s], [s, c]]) * mp.diag(v) * mp.matrix([[c, s], [-s, c]]))
        d = 4 * (mp.det(covs[0]) - mp.mpf(1) / 4) * (mp.det(covs[1]) - mp.mpf(1) / 4)
        d = max(d, mp.mpf(0))  # a pure state's det - 1/4 rounds either way at 40 digits
        return float(1 / (mp.sqrt(mp.det(covs[0] + covs[1]) + d) - mp.sqrt(d)))


def pure_fidelity_reference(r1: float, r2: float, phi0: float) -> float:
    """Closed form for two pure squeezed vacua with relative phase phi0.

    F = 2 / sqrt(2 (1 + cosh 2r1 cosh 2r2 - cos phi0 sinh 2r1 sinh 2r2)).
    Used as an independent oracle against ``fidelity``.
    """
    arg = 1.0 + np.cosh(2 * r1) * np.cosh(2 * r2) - np.cos(phi0) * np.sinh(2 * r1) * np.sinh(2 * r2)
    return float(2.0 / np.sqrt(2.0 * arg))


def fidelity_from_moments_lapack(
    mean1: NDArray[np.float64],
    cov1: NDArray[np.float64],
    mean2: NDArray[np.float64],
    cov2: NDArray[np.float64],
    excess: Sequence[NDArray[np.float64] | None] = (None, None),
) -> NDArray[np.float64]:
    """``gaussian.fidelity_from_moments`` through batched LAPACK: ``det`` and
    ``solve`` on the (..., 2, 2) stacks instead of the adjugate closed form.
    det S - 1/4 of each state is its entry of ``excess`` if given, else
    LAPACK's, with the same purity rule: within ``_PURITY_TOL`` of
    |S00 S11| + |S01 S10| it counts as 0."""
    total = cov1 + cov2
    lam = np.linalg.det(total)
    if np.any(lam <= 0):
        raise StateError("sum of covariances not positive definite")
    excess = list(excess)
    for i, cov in enumerate((cov1, cov2)):
        if excess[i] is None:
            scale = np.abs(cov[..., 0, 0] * cov[..., 1, 1]) + np.abs(cov[..., 0, 1] * cov[..., 1, 0])
            e = np.linalg.det(cov) - 0.25
            excess[i] = np.where(e > _PURITY_TOL * scale, e, 0.0)
    delta = 4.0 * excess[0] * excess[1]
    du = np.broadcast_to(mean1 - mean2, total.shape[:-1])
    quad = (du * np.linalg.solve(total, du[..., None])[..., 0]).sum(axis=-1)
    return np.exp(-0.5 * quad) / (np.sqrt(lam + delta) - np.sqrt(delta))


def homodyne_sample(
    state: GaussianState | JointState,
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
    M = len(state.mean) // 2
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


def fejer_spectral_density(
    model: QuadraticModel, omega_s: float | NDArray, t_max: float, temperature: float
) -> NDArray[np.float64]:
    """Probe-path J of the vacuum probe to second order in its coupling k,
    on a grid.

    For a vacuum probe and a thermal environment, second-order perturbation
    theory in q_S sum_n c_n Q_n gives n_S(T) = sum_n g_n^2 [N_n W(w - Omega_n)
    + (N_n + 1) W(w + Omega_n)] with g_n^2 = c_n^2 / (4 w Omega_n),
    N_n = N(Omega_n) and W(d) = |int_0^T e^(i d t) dt|^2 = 4 sin^2(dT/2) / d^2.
    The inversion (w/T) ln(N / (N - n_S)) is (w/T) n_S / N to the same order,
    N = N(w). Its co-rotating part is w sum_n (c_n^2 / Omega_n^2)
    (Omega_n / w) (N_n / N) sin^2(dT/2) / (T d^2): the Fejer window, of
    height T/4 at a line where ``spectral_density_analytic``'s Dirichlet
    window sin(dT) / (2d) has T/2, both of integral pi/2.
    """
    w = np.atleast_1d(np.asarray(omega_s, dtype=float))[:, None]
    c, om = model.bath_couplings(), model.env_freqs
    n_env = thermal_occupancy(om, temperature)

    def window(d):
        return (t_max * np.sinc(d * t_max / (2.0 * np.pi))) ** 2

    n_s = (c**2 / (4.0 * w * om)) * (n_env * window(w - om) + (n_env + 1.0) * window(w + om))
    return w[:, 0] / t_max * n_s.sum(axis=1) / thermal_occupancy(w[:, 0], temperature)


def _environment_state(
    model: QuadraticModel, var_q: NDArray[np.float64], var_p: NDArray[np.float64]
) -> JointState:
    """Environment state with variances (var_q, var_p) in each normal mode,
    node-renormalized frame.

    The normal-mode covariance is rotated to node coordinates and rescaled by
    the bare node frequencies.
    """
    om = model.env_freqs
    O = model.env_modes
    w_nodes = model.frequencies[1:]
    mq = np.sqrt(w_nodes)[:, None] * O / np.sqrt(om)[None, :]
    mp = (1.0 / np.sqrt(w_nodes))[:, None] * O * np.sqrt(om)[None, :]
    n = len(om)
    cov = np.zeros((2 * n, 2 * n))
    cov[:n, :n] = (mq * var_q[None, :]) @ mq.T
    cov[n:, n:] = (mp * var_p[None, :]) @ mp.T
    return JointState(np.zeros(2 * n), cov)


def thermal_environment(model: QuadraticModel, temperature: float) -> JointState:
    """Gibbs state of the environment block, node-renormalized frame.

    Each environment normal mode carries occupancy N(Omega_n).
    """
    occ = np.asarray(thermal_occupancy(model.env_freqs, temperature)) + 0.5
    return _environment_state(model, occ, occ)


def squeezed_environment(model: QuadraticModel, temperature: float) -> JointState:
    """Squeezed-vacuum emulation of the thermal environment.

    Each environment normal mode is prepared as a pure squeezed vacuum with
    sinh^2 r_n matching the occupancy N(Omega_n) of the Gibbs state, squeezing
    axes alternating across modes (mirroring alternate-quadrature multimode
    squeezing sources). Occupancies match the thermal preparation exactly;
    only the phase-space anisotropy differs.
    """
    om = model.env_freqs
    nbar = np.asarray(thermal_occupancy(om, temperature))
    r = np.arcsinh(np.sqrt(nbar))
    sign = np.where(np.arange(len(om)) % 2 == 0, 1.0, -1.0)
    return _environment_state(
        model, 0.5 * np.exp(-2.0 * r * sign), 0.5 * np.exp(+2.0 * r * sign)
    )


def probe_j_mp(
    models: Sequence[QuadraticModel],
    t: float,
    rows: NDArray[np.object_],
    env_prep: str,
    probe: GaussianState,
    temperature: float = 1.0,
) -> dict[str, NDArray[np.float64]]:
    """J of ``probes.sweep_spectral_density`` with exact moments at
    ``MP_DIGITS`` digits, one model per grid frequency (the model at that
    omega_S), with what it is made of: a dict of float64 arrays "j", "var"
    (the probe's [var_q, var_p] per point), "n_s", "n_bath" and "n0", each
    rounded once at the end.

    ``rows`` (G, 2, 2M) holds each model's probe rows at ``t`` from
    ``rows_mp_exact``, unrounded, so that one set serves several
    preparations. The environment normal modes come from ``mp.eigsy`` of
    V's environment block, ascending (the order of the squeezing signs);
    node q = sqrt(w) O Q / sqrt(Omega) and node p = O sqrt(Omega) Pi / sqrt(w),
    each normal mode with variances N + 1/2 ('thermal') or
    1/2 exp(-+2 r_n), sinh^2 r_n = N(Omega_n), signs alternating from + at
    the lowest mode ('squeezed'); 'vacuum' is 1/2 I on the node columns. The
    probe adds C E C^T to the variances and (C mu)^2 to the second moments,
    n_S = (m2_q + m2_p - 1)/2, and J = (omega_S / t) ln((N - n_0) / (N - n_S)),
    NaN where the log's argument is not positive. Every float64 input (V,
    the bare frequencies, the probe's moments, t, T) is taken as exact. Pure
    Python: keep M to about 8 modes and the grid to a few points."""
    m = models[0].n_modes
    out = {key: np.empty(len(models)) for key in ("j", "n_s", "n_bath", "n0")}
    out["var"] = np.empty((len(models), 2))
    with mp.workdps(MP_DIGITS):
        temp, t = mp.mpf(float(temperature)), mp.mpf(float(t))
        cov = [[mp.mpf(float(x)) for x in row] for row in probe.cov]
        mu = [mp.mpf(float(x)) for x in probe.mean]
        n0 = (cov[0][0] + cov[1][1] + mu[0] ** 2 + mu[1] ** 2 - 1) / 2
        factors = _environment_factors_mp(models[0], env_prep, temp)
        for g, model in enumerate(models):
            m2 = []
            for a, row in enumerate(rows[g]):
                env = [row[1:m], row[m + 1 :]]
                if factors is None:
                    env = mp.fsum(x * x for cols in env for x in cols) / 2
                else:
                    env = mp.fsum(
                        mp.fsum(x * f[i][n] for i, x in enumerate(cols)) ** 2
                        for cols, f in zip(env, factors)
                        for n in range(m - 1)
                    )
                c = (row[0], row[m])
                var = env + mp.fsum(c[i] * cov[i][j] * c[j] for i in range(2) for j in range(2))
                out["var"][g, a] = float(var)
                m2.append(var + (c[0] * mu[0] + c[1] * mu[1]) ** 2)
            n_s = (m2[0] + m2[1] - 1) / 2
            w = mp.mpf(float(model.omega_s))
            n_bath = 1 / mp.expm1(w / temp)
            ratio = (n_bath - n0) / (n_bath - n_s)
            j = w / t * mp.log(ratio) if ratio > 0 else mp.nan
            for key, value in (("j", j), ("n_s", n_s), ("n_bath", n_bath), ("n0", n0)):
                out[key][g] = float(value)
    return out


def _environment_factors_mp(model: QuadraticModel, env_prep: str, temperature):
    """For ``probe_j_mp`` (at its precision): the node-to-normal-mode
    factors (F_q, F_p) as nested lists, each normal-mode column scaled by
    that mode's standard deviation, or None for 'vacuum'."""
    if env_prep == "vacuum":
        return None
    m = model.n_modes
    evals, vecs = mp.eigsy(mp.matrix(model.V[1:, 1:].tolist()))
    order = sorted(range(m - 1), key=lambda n: evals[n])
    om = [mp.sqrt(evals[n]) for n in order]
    rt = [mp.sqrt(mp.mpf(float(w))) for w in model.frequencies[1:]]
    nbar = [1 / mp.expm1(x / temperature) for x in om]
    if env_prep == "thermal":
        var_q = var_p = [x + mp.mpf(0.5) for x in nbar]
    else:
        r = [mp.asinh(mp.sqrt(x)) * (-1) ** n for n, x in enumerate(nbar)]
        var_q, var_p = [mp.exp(-2 * x) / 2 for x in r], [mp.exp(2 * x) / 2 for x in r]
    cols = range(m - 1)
    f_q = [[rt[i] * vecs[i, order[n]] * mp.sqrt(var_q[n] / om[n]) for n in cols] for i in cols]
    f_p = [[vecs[i, order[n]] * mp.sqrt(om[n] * var_p[n]) / rt[i] for n in cols] for i in cols]
    return f_q, f_p


def qnm_trace_stacked(
    model: QuadraticModel,
    rho1: SqueezedSpec,
    rho2: SqueezedSpec,
    t_grid: Sequence[float],
) -> FidelityTrace:
    """``probes.qnm_trace`` by matrix stacks, reference for its closed-form
    probe blocks.

    The probe rows come from the broadcast (T, 3, M) @ (M, M) product of
    ``_probe_rows``, each probe covariance from 1/2 S_p S_p^T plus two 2x2
    matrix products with the probe's excess over vacuum, det S - 1/4 of
    each preparation from ``purified_excess_minors``, and the fidelity from
    ``fidelity_from_moments_lapack``.
    """
    t_grid = np.asarray(list(t_grid), dtype=float)
    if len(t_grid) < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("time grid must be strictly increasing with >= 2 points")
    rows = _probe_rows(model.modes, model.freqs_normal, model.frequencies, t_grid)
    cols = rows[..., [0, model.n_modes]]
    # S_p Sigma0 S_p^T with a vacuum environment: 1/2 S_p S_p^T plus the
    # probe's excess over vacuum, carried by the probe columns of S_p
    vacuum = 0.5 * rows @ np.swapaxes(rows, -1, -2)
    covs = [
        vacuum + cols @ (g.squeezed_state(spec).cov - 0.5 * np.eye(2)) @ np.swapaxes(cols, -1, -2)
        for spec in (rho1, rho2)
    ]
    excess = [purified_excess_minors(rows, spec) for spec in (rho1, rho2)]
    zero = np.zeros(2)
    fs = fidelity_from_moments_lapack(zero, covs[0], zero, covs[1], excess)
    return FidelityTrace(t=t_grid, f_raw=fs)


def purified_excess_minors(rows: NDArray[np.float64], spec: SqueezedSpec) -> NDArray[np.float64]:
    """det S - 1/4 of the probe covariance S evolved from the squeezed
    preparation ``spec`` with the environment in vacuum, for (..., 2, 2M)
    probe rows: by Cauchy-Binet, 1/4 sum over column pairs k < l of
    |det[z_k z_l]|^2 over the purified rows z. Writing the preparation as
    1/2 nu L L^T with L = R(angle) diag(h, 1/h), h = 10^((s - a)/40), from
    its dB levels s, a, the rows z_k = (column q_k) - i (column p_k) have
    the probe column replaced by sqrt((nu + 1)/2) u and an ancilla column
    sqrt((nu - 1)/2) conj(u) appended, u = (C L)[:, 0] - i (C L)[:, 1] for
    the probe columns C. Reference for ``probes._purified_moments``."""
    c, s = np.cos(spec.angle), np.sin(spec.angle)
    h = 10.0 ** ((spec.squeeze_db - spec.antisqueeze_db) / 40.0)
    nu1 = np.expm1(np.log(10.0) * (spec.squeeze_db + spec.antisqueeze_db) / 20.0)  # nu - 1
    L = np.array([[c, -s], [s, c]]) * np.array([h, 1.0 / h])
    m = rows.shape[-1] // 2
    w = rows[..., [0, m]] @ L
    u = w[..., 0] - 1j * w[..., 1]
    z = rows[..., :m] - 1j * rows[..., m:]
    z[..., 0] = np.sqrt(1.0 + 0.5 * nu1) * u
    z = np.concatenate([z, np.sqrt(0.5 * nu1) * u.conj()[..., None]], axis=-1)
    zq, zp = z[..., 0, :], z[..., 1, :]
    minors = zq[..., :, None] * zp[..., None, :] - zq[..., None, :] * zp[..., :, None]
    return 0.125 * (np.abs(minors) ** 2).sum(axis=(-2, -1))  # each pair twice


def qnm_fidelity_mp(
    model: QuadraticModel, rho1: SqueezedSpec, rho2: SqueezedSpec, t_grid: Sequence[float]
) -> NDArray[np.float64]:
    """F_raw of ``probes.qnm_trace`` at ``MP_DIGITS`` digits over the rows
    of ``rows_mp`` (their float64 entries taken as exact), for pure
    and mixed preparations alike: each preparation's purified rows z (those
    of ``purified_excess_minors``, nu and L from the dB levels in mpmath)
    give S = 1/2 Re(conj(z) z^T) and det S - 1/4 as the Cauchy-Binet sum
    1/4 sum over k < l of |det[z_k z_l]|^2. That sum is what det S - 1/4
    is for rows that keep the commutator; det S - 1/4 of the rows as
    rounded would carry their commutator defect. Pure Python: keep M and
    T small."""
    rows = rows_mp(model, t_grid)
    m = rows.shape[-1] // 2
    out = np.empty(len(rows))
    with mp.workdps(MP_DIGITS):
        preps = []
        for spec in (rho1, rho2):
            s, a = mp.mpf(spec.squeeze_db), mp.mpf(spec.antisqueeze_db)
            c, sn = mp.cos(mp.mpf(spec.angle)), mp.sin(mp.mpf(spec.angle))
            h, nu = mp.power(10, (s - a) / 40), mp.power(10, (s + a) / 20)
            L = mp.matrix([[c, -sn], [sn, c]]) * mp.diag([h, 1 / h])
            preps.append((mp.sqrt((nu + 1) / 2), mp.sqrt((nu - 1) / 2), L))
        for n, r in enumerate(rows):
            covs, excess = [], []
            for probe, ancilla, L in preps:
                y = mp.matrix(r.tolist())
                z = []
                for a in range(2):
                    wq, wp = (mp.matrix([[y[a, 0], y[a, m]]]) * L)[0, :]
                    u = wq - 1j * wp
                    env = [y[a, k] - 1j * y[a, m + k] for k in range(1, m)]
                    z.append([probe * u, *env, ancilla * mp.conj(u)])
                covs.append(mp.matrix(
                    [[mp.fsum(mp.re(mp.conj(x) * v) for x, v in zip(za, zb)) / 2 for zb in z]
                     for za in z]
                ))
                excess.append(mp.fsum(
                    abs(z[0][k] * z[1][l] - z[0][l] * z[1][k]) ** 2
                    for k in range(m + 1) for l in range(k + 1, m + 1)
                ) / 4)
            d = 4 * excess[0] * excess[1]
            out[n] = float(1 / (mp.sqrt(mp.det(covs[0] + covs[1]) + d) - mp.sqrt(d)))
    return out
