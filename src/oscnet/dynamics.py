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

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .netmodel import CouplingGraph
from .symplectic import SYMPLECTIC_TOL, SymplecticError


class StabilityError(ValueError):
    """Assembled potential matrix is not positive definite."""


class ExpansionRangeError(ValueError):
    """Time too long for the Chebyshev expansion of a probe-frequency grid."""


@dataclass(frozen=True)
class QuadraticModel:
    """Potential matrix of probe + network; its eigendecompositions are
    computed on first read and cached.

    Attributes
    ----------
    V:
        (N+1) x (N+1) symmetric potential matrix, mode order (S, 1..N); the
        probe's row holds its coupling, V_Sl = k at its node l, 0 elsewhere.
    frequencies:
        Bare mode frequencies (omega_S, omega_1..omega_N) used by the
        renormalized frame.
    modes / freqs_normal:
        Orthogonal eigenvectors and eigenfrequencies of V, from one ``eigh``
        on first read of either (propagators and time-grid probe rows).
    env_modes / env_freqs:
        Same for the environment block V[1:, 1:] (bath couplings, damping
        kernel, the probe path's thermal and squeezed preparations).
    """

    V: NDArray[np.float64]
    frequencies: NDArray[np.float64]

    @property
    def n_modes(self) -> int:
        return self.V.shape[0]

    @property
    def omega_s(self) -> float:
        return float(self.frequencies[0])

    @cached_property
    def _normal(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        return _decompose(self.V, "potential matrix")

    @cached_property
    def _env(self) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
        return _decompose(self.V[1:, 1:], "environment block")

    @cached_property
    def modes(self) -> NDArray[np.float64]:
        return self._normal[0]

    @cached_property
    def freqs_normal(self) -> NDArray[np.float64]:
        return self._normal[1]

    @cached_property
    def env_modes(self) -> NDArray[np.float64]:
        return self._env[0]

    @cached_property
    def env_freqs(self) -> NDArray[np.float64]:
        return self._env[1]

    def bath_couplings(self) -> NDArray[np.float64]:
        """Normal-mode couplings c_n = k O_{l,n} of the environment block, as
        V's probe row times O: every entry of that row but V_Sl = k is 0."""
        return self.V[0, 1:] @ self.env_modes

    @cached_property
    def _kernel_weights(self) -> NDArray[np.float64]:
        """Damping-kernel weights c_n^2 / Omega_n^2; gamma(0) is their sum."""
        return self.bath_couplings() ** 2 / self.env_freqs**2


def _unstable(name: str, lowest: float) -> StabilityError:
    return StabilityError(f"unstable network: {name} has eigenvalue {lowest:.6g} <= 0")


def _decompose(
    A: NDArray[np.float64], name: str
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigenvectors and sqrt(eigenvalues) of ``A``. V and its environment
    block, which pass with V's Cholesky check, can still round to a
    non-positive eigenvalue; that raises too, rather than leaving a NaN
    frequency."""
    evals, vecs = np.linalg.eigh(A)
    if not evals[0] > 0:
        raise _unstable(name, evals[0])
    return vecs, np.sqrt(evals)


def assemble_model(graph: CouplingGraph) -> QuadraticModel:
    """Build the quadratic model for a probed network.

    The environment block uses spring (Laplacian) coupling and the probe
    couples through the bare bilinear V_Sl = k. Raises StabilityError when V
    is not positive definite (a Cholesky check); its environment block, a
    principal submatrix, then is too. No eigendecomposition runs until a
    verb reads one.
    """
    probe = graph.probe
    if probe is None:
        raise ValueError("graph has no probe attached")
    w = np.asarray(graph.omega)
    edges = graph.couplings
    # each edge (i, j) as its rows (1 + i, 1 + j) of V, interleaved: i0, j0, i1, j1, ...
    ij = np.array(list(edges), dtype=np.intp).reshape(-1) + 1
    g = np.fromiter(edges.values(), dtype=float, count=len(edges))
    diag = np.concatenate([[probe.omega_s**2], w**2])
    # unbuffered, in index order: each V_ii adds its g_ij in edge order
    np.add.at(diag, ij, np.repeat(g, 2))
    V = np.diag(diag)
    V[ij[0::2], ij[1::2]] = V[ij[1::2], ij[0::2]] = -g
    V[0, 1 + probe.site] = V[1 + probe.site, 0] = probe.k

    try:  # eigvalsh runs only on failure, to name the smallest eigenvalue
        np.linalg.cholesky(V)
    except np.linalg.LinAlgError:
        raise _unstable("potential matrix", np.linalg.eigvalsh(V)[0]) from None
    freqs = np.concatenate([[probe.omega_s], w])
    return QuadraticModel(V=V, frequencies=freqs)


def evolve(model: QuadraticModel, t: float) -> NDArray[np.float64]:
    """Renormalized-frame propagator at time t >= 0: the rows of every mode,
    where ``probe_rows`` forms the probe's.

    With tau = sqrt(bare frequencies), q is scaled by tau and p by 1/tau, so
    S = [[A, B], [-Z~, A^T]] with A = C o (tau_i/tau_j), B = Y o (tau_i tau_j),
    Z~ = Z o 1/(tau_i tau_j) and C, Y, Z = cos(Wt), W^-1 sin(Wt), W sin(Wt),
    each made symmetric as (X + X^T)/2: H is time-reversal symmetric, and
    this structure holds to the bit. On the bundled networks the entries
    differ from the unsymmetrized product by at most 2.2e-16. Row pairs that
    break q_i . Omega . p_i^T = 1 raise SymplecticError.
    """
    if not 0 <= t < np.inf:
        raise ValueError("time must be finite and >= 0")
    blocks = _eigen_rows(model, np.asarray(t, dtype=float), model.modes)
    blocks += np.swapaxes(blocks, 1, 2)
    blocks *= 0.5
    rt = np.sqrt(model.frequencies)
    rows = _renormalized(blocks, rt[:, None], rt)  # (q rows, p rows)
    _check_commutator(np.swapaxes(rows, 0, 1))
    return rows.reshape(2 * len(rt), 2 * len(rt))


# a 1-D grid of two or more times, uniform to within _UNIFORM_ULPS ulp of its
# largest time, takes cos and sin of Omega t by angle addition
_UNIFORM_ULPS = 4

# Chebyshev vectors T_k(V~) e_S held per block; each full block is folded
# into the three row sums by one GEMM
_CHEB_BLOCK = 16

# largest DCT size of the expansion: bounds its arrays to about 25 MB and the
# recurrence to about 2^17 steps, i.e. t sqrt(lambda_max) <= 2.6e5
_CHEB_MAX_POINTS = 2**18


def probe_rows(
    model: QuadraticModel, t: float | NDArray, omega_s: Sequence[float] | None = None
) -> NDArray[np.float64]:
    """Probe rows (q_S, p_S) of the renormalized propagator, shape (..., 2, 2M).

    Row 0 and row M of ``evolve(model, t)``, without forming S(t). With
    ``omega_s`` None the cached eigendecomposition serves a time or a time
    grid (leading axes of ``t``). Given a 1-D grid of G probe frequencies,
    the (G, 2, 2M) rows are taken at the single time ``t`` from a Chebyshev
    expansion in the potentials V(omega_S), which differ from V only in
    V_SS = omega_S^2; a grid point whose potential is not positive definite
    raises StabilityError, and t sqrt(b) > 2.6e5, b the Gershgorin bound of
    the potentials, raises ExpansionRangeError. Rows that break the commutator
    q_row . Omega . p_row^T = 1 raise SymplecticError.
    """
    t = np.asarray(t, dtype=float)
    if not np.all((0 <= t) & (t < np.inf)):
        raise ValueError("time must be finite and >= 0")
    if omega_s is None:
        blocks = _eigen_rows(model, t, model.modes[0])
        bare = model.frequencies
    else:
        if t.ndim:
            raise ValueError("a probe-frequency grid takes a single time")
        omega_s = np.asarray(omega_s, dtype=float)
        _check_schur_margin(model, omega_s)
        blocks = _chebyshev_rows(model, float(t), omega_s)
        bare = np.broadcast_to(model.frequencies, (len(omega_s), model.n_modes)).copy()
        bare[:, 0] = omega_s
    rt = np.sqrt(bare)
    rows = np.moveaxis(_renormalized(blocks, rt[..., :1], rt), 0, -2)
    _check_commutator(rows)
    return rows


def _check_schur_margin(model: QuadraticModel, omega_s: NDArray[np.float64]) -> None:
    """Raise StabilityError at the first probe frequency whose potential is
    not positive definite. The environment block is (a principal submatrix
    of the V that ``assemble_model`` checked), so V(omega_S) is iff its
    Schur complement omega_S^2 - sum c_n^2/Omega_n^2 is."""
    margin = omega_s**2 - model._kernel_weights.sum()
    unstable = np.flatnonzero(margin <= 0)
    if unstable.size:
        i = unstable[0]
        raise StabilityError(
            f"unstable network at omega_s={omega_s[i]:.6g}: probe Schur complement "
            f"{margin[i]:.6g} <= 0"
        )


def _eigen_rows(
    model: QuadraticModel, t: NDArray[np.float64], left: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Rows of cos(tW), W^-1 sin(tW) and W sin(tW), W = V^(1/2), as
    ``left`` f(Omega t) O^T from the cached V = O Omega^2 O^T: ``left`` = O[0]
    gives the probe's row, O every row. Shape (3, *t.shape, *left.shape),
    from one (3TR, M) @ (M, M) GEMM over the T times and R rows. One row
    over a uniform 1-D grid of two or more times (``_uniform_step``) takes
    f(Omega t) by angle addition (``_angle_rows``); a single time, a grid of
    another shape or step, and every row of ``evolve`` take a cosine and a
    sine per time and mode."""
    O, om = model.modes, model.freqs_normal
    dt = _uniform_step(t) if left.ndim == 1 else None
    if dt is not None:
        return _angle_rows(model, t[0], dt, len(t), left)
    phase = om * t[..., None]
    coef = np.empty((3, *phase.shape))
    np.cos(phase, out=coef[0])
    np.sin(phase, out=coef[1])
    np.multiply(coef[1], om, out=coef[2])
    coef[1] /= om
    if left.ndim == 1:
        coef *= left  # one row: scaled in place
    else:
        coef = coef[..., None, :] * left
    return (coef.reshape(-1, len(om)) @ O.T).reshape(coef.shape)


def _uniform_step(t: NDArray[np.float64]) -> float | None:
    """The step dt of a 1-D grid of T >= 2 times with t_k = t_0 + k dt to
    within ``_UNIFORM_ULPS`` ulp of max|t|, else None: the grids that take
    angle addition, whatever their size."""
    if t.ndim != 1 or len(t) < 2:
        return None
    dt = (t[-1] - t[0]) / (len(t) - 1)
    deviation = np.abs(t - (t[0] + np.arange(len(t)) * dt)).max()
    return dt if deviation <= _UNIFORM_ULPS * np.spacing(np.abs(t).max()) else None


def _angle_rows(
    model: QuadraticModel, t0: float, dt: float, n: int, left: NDArray[np.float64]
) -> NDArray[np.float64]:
    """The (3, n, M) rows of ``_eigen_rows`` for one row ``left`` at the
    times t_k = t0 + k dt, k < n, by angle addition over the J blocks of
    B times that ``_angle_tables`` picks.

    ``left`` and the Omega factors are folded into the (J, M) start tables;
    per mode, one (3J, 2) @ (2, B) product of those with the offset tables
    gives the coefficients of all J B times, and one (3JB, M) @ (M, M) GEMM
    the rows: about 4 sqrt(n) M transcendentals instead of 2 n M. On the
    bundled networks the rows differ from the direct ones by at most
    0.66 eps (1 + Omega_max t_max); both stay within 1.3e-13 of a 40-digit
    reference on random networks of up to 8 modes and t up to 500.
    """
    O, om = model.modes, model.freqs_normal
    cos_start, sin_start, cos_offset, sin_offset = _angle_tables(om, t0, dt, n)
    cs, ss = cos_start * left, sin_start * left
    # cos(a + b) = cos a cos b - sin a sin b, sin(a + b) = sin a cos b + cos a sin b
    starts = np.stack([[cs, -ss], [ss / om, cs / om], [ss * om, cs * om]])  # (3, 2, J, M)
    offsets = np.stack([cos_offset, sin_offset], axis=1)  # (M, 2, B)
    m = len(om)
    coef = starts.transpose(3, 0, 2, 1).reshape(m, -1, 2) @ offsets
    rows = coef.reshape(m, -1).T @ O.T
    return rows.reshape(3, -1, m)[:, :n]  # the last block runs past the grid


def _angle_tables(
    om: NDArray[np.float64], t0: float, dt: float, n: int
) -> tuple[NDArray[np.float64], ...]:
    """cos and sin of om t at the J = ceil(n / B) block starts t0 + j B dt,
    each (J, M), and at the in-block offsets i dt, i < B, each (M, B), for
    the n >= 1 times t0 + k dt: om (t0 + k dt) for k = j B + i is then their
    angle sum. The one block rule of every angle-addition grid
    (``_angle_rows``, ``probes._damping_kernel_grid``) lives here:
    B = ceil(sqrt(n)), so J and B are both about sqrt(n)."""
    block = math.isqrt(n - 1) + 1
    starts = np.outer(t0 + np.arange(-(-n // block)) * (block * dt), om)
    offsets = np.outer(om, np.arange(block) * dt)
    return np.cos(starts), np.sin(starts), np.cos(offsets), np.sin(offsets)


def _chebyshev_rows(
    model: QuadraticModel, t: float, omega_s: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Rows S of cos(tW), W^-1 sin(tW) and W sin(tW), W = V(omega_S)^(1/2),
    as a (3, G, M) stack over the G probe frequencies.

    Each f(V) e_S = sum_k a_k T_k(V~) e_S with V~ = 2V/b - I on the spectral
    interval [0, b] (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)).
    One recurrence step is one (G, M) @ (M, M) product with V less its V_SS
    plus the rank-one fix of column S by omega_S^2, so the rows do not depend
    on the model's own probe frequency and no point is diagonalized. The
    bundled sweeps take 74 to 130 steps (``_chebyshev_coefficients``). At
    their grids and t_max the rows lie within 3.1e-14 to 7.0e-14 of rows from
    one ``eigh`` per grid point, on nets 1-5; the tests allow 1e-13.
    """
    V = model.V.copy()
    V[0, 0] = 0.0
    # Gershgorin bound over the grid: only row S depends on omega_S
    radius = np.abs(V).sum(axis=1)
    radius[0] += (omega_s**2).max(initial=-np.inf)  # an empty grid drops row S
    b = radius.max()
    coef = _chebyshev_coefficients(t, b)
    n = coef.shape[1] - 1
    # T_{k+1} = 2 V~ T_k - T_{k-1}, kept in a ring of _CHEB_BLOCK slots
    two_vt = (4.0 / b) * V - 2.0 * np.eye(len(V))
    fix = (4.0 / b) * omega_s**2
    ring = np.zeros((_CHEB_BLOCK, len(omega_s), len(V)))
    col = ring[:, :, 0]  # the S entries, a view
    col[0] = 1.0
    ring[1] = 0.5 * two_vt[0]
    col[1] += 0.5 * fix
    sums = np.zeros((3, ring[0].size))
    for start in range(0, n + 1, _CHEB_BLOCK):
        stop = min(start + _CHEB_BLOCK, n + 1)
        for k in range(max(start, 2), stop):
            slot = k - start  # slot - 1 and slot - 2 wrap to the previous block
            cur = ring[slot]
            np.dot(ring[slot - 1], two_vt, out=cur)
            col[slot] += fix * col[slot - 1]
            cur -= ring[slot - 2]
        sums += coef[:, start:stop] @ ring[: stop - start].reshape(stop - start, -1)
    return sums.reshape(3, *ring.shape[1:])


def _chebyshev_coefficients(t: float, b: float) -> NDArray[np.float64]:
    """Chebyshev coefficients on [0, b] of cos(t sqrt x), sin(t sqrt x)/sqrt x
    and sqrt x sin(t sqrt x), shape (3, n+1), cut at the round-off plateau.

    One DCT-I (an FFT of the even extension) over Chebyshev-Lobatto points
    y = cos(theta), where sqrt x = sqrt(b) cos(theta/2) is exact to round-off.
    The coefficients fall off like the Bessel functions J_2k(t sqrt b), so
    past k ~ t sqrt(b)/2 + 6 (t sqrt(b)/2)^(1/3) they reach round-off; twice
    that many points keep the aliasing below it, and the upper half of the
    coefficients measures the plateau (its largest entry, doubled).
    """
    half = t * np.sqrt(b) / 2
    points = 2 ** int(np.ceil(np.log2(2 * (half + 6 * np.cbrt(half)) + 32)))
    if points > _CHEB_MAX_POINTS:
        raise ExpansionRangeError(
            f"probe-frequency grid at t={t:.6g}: the Chebyshev expansion on [0, {b:.6g}] "
            f"needs t sqrt(b) = {2 * half:.6g} <= 2.6e5"
        )
    s = np.sqrt(b) * np.cos(np.pi / (2 * points) * np.arange(points + 1))
    f = np.empty((3, 2 * points))  # even extension, f(theta) = f(2 pi - theta)
    f[0, : points + 1] = np.cos(t * s)
    sin = np.sin(t * s)
    np.divide(sin, s, out=f[1, : points + 1], where=s > 0)
    f[1, points] = t  # sin(t s)/s at s = 0, whatever cos(pi/2) rounds to
    f[2, : points + 1] = s * sin
    f[:, points + 1 :] = f[:, points - 1 : 0 : -1]
    a = np.fft.rfft(f).real / points
    a[:, 0] /= 2
    a[:, points] /= 2
    # cut before the first two successive orders at the plateau for all three
    mag = np.abs(a)
    flat = (mag <= 2 * mag[:, points // 2 :].max(axis=1, keepdims=True)).all(axis=0)
    return a[:, : np.argmax(flat[:-1] & flat[1:])]


def _renormalized(
    blocks: NDArray[np.float64], rt_row: NDArray[np.float64], rt: NDArray[np.float64]
) -> NDArray[np.float64]:
    """q and p rows (2, ..., 2M) of the renormalized propagator, quadrature axis
    first, from the (3, ..., M) rows of cos(tW), W^-1 sin(tW) and W sin(tW):
    entry (i, j) is scaled by T_i / T_j, with ``rt_row`` the sqrt bare
    frequency of each row's mode and ``rt`` those of all M modes."""
    c, sin_over, sin_times = blocks
    inv, inv_row = 1.0 / rt, 1.0 / rt_row
    m = c.shape[-1]
    rows = np.empty((2, *c.shape[:-1], 2 * m))
    np.multiply(c, rt_row * inv, out=rows[0, ..., :m])
    np.multiply(sin_over, rt_row * rt, out=rows[0, ..., m:])
    np.multiply(sin_times, -inv_row * inv, out=rows[1, ..., :m])
    np.multiply(c, inv_row * rt, out=rows[1, ..., m:])
    return rows


def _check_commutator(rows: NDArray[np.float64]) -> None:
    """Raise SymplecticError when some row pair (..., 2, 2M) breaks
    q_row . Omega . p_row^T = 1 by SYMPLECTIC_TOL; all rows stay below 1e-13
    on the bundled networks."""
    q, p = rows[..., 0, :], rows[..., 1, :]
    m = q.shape[-1] // 2
    residual = np.abs(
        np.einsum("...i,...i", q[..., :m], p[..., m:])
        - np.einsum("...i,...i", q[..., m:], p[..., :m])
        - 1.0
    )
    worst = residual.max(initial=0.0)
    if not worst <= SYMPLECTIC_TOL:
        raise SymplecticError(
            f"propagator rows break q_row . Omega . p_row^T = 1 by {worst:.3e} "
            f"> {SYMPLECTIC_TOL:.0e}"
        )
