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

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from .netmodel import CouplingGraph
from .symplectic import SYMPLECTIC_TOL, SymplecticError, _r1_and_d


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
        (N+1) x (N+1) symmetric potential matrix, mode order (S, 1..N).
    frequencies:
        Bare mode frequencies (omega_S, omega_1..omega_N) used by the
        renormalized frame.
    site:
        0-based environment node the probe couples to.
    coupling:
        Probe coupling strength k.
    modes / freqs_normal:
        Orthogonal eigenvectors and eigenfrequencies of V, from one ``eigh``
        on first read of either (propagators and time-grid probe rows).
    env_modes / env_freqs:
        Same for the environment block V[1:, 1:] (bath couplings, damping
        kernel, environment states).
    """

    V: NDArray[np.float64]
    frequencies: NDArray[np.float64]
    site: int
    coupling: float

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
        """Normal-mode couplings c_n = k * O_{l,n} of the environment block."""
        return self.coupling * self.env_modes[self.site, :]


def _unstable(name: str, lowest: float) -> StabilityError:
    return StabilityError(f"unstable network: {name} has eigenvalue {lowest:.6g} <= 0")


def _check_positive_definite(A: NDArray[np.float64], name: str) -> None:
    """Raise StabilityError naming the smallest eigenvalue of ``A`` unless its
    Cholesky factorization exists; ``eigvalsh`` runs only on failure."""
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise _unstable(name, np.linalg.eigvalsh(A)[0]) from None


def _decompose(
    A: NDArray[np.float64], name: str
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Eigenvectors and sqrt(eigenvalues) of ``A``. A matrix that passed the
    Cholesky check can still round to a non-positive eigenvalue; that raises
    too, rather than leaving a NaN frequency."""
    evals, vecs = np.linalg.eigh(A)
    if not evals[0] > 0:
        raise _unstable(name, evals[0])
    return vecs, np.sqrt(evals)


def assemble_model(graph: CouplingGraph) -> QuadraticModel:
    """Build the quadratic model for a probed network.

    The environment block uses spring (Laplacian) coupling and the probe
    couples through the bare bilinear V_Sl = k. Raises StabilityError when V
    or, after it, its environment block is not positive definite (Cholesky
    checks); no eigendecomposition runs until a verb reads one.
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

    _check_positive_definite(V, "potential matrix")
    _check_positive_definite(VE, "environment block")
    freqs = np.concatenate([[probe.omega_s], w])
    return QuadraticModel(V=V, frequencies=freqs, site=probe.site, coupling=probe.k)


def evolve(model: QuadraticModel, t: float) -> NDArray[np.float64]:
    """Renormalized-frame propagator at time t >= 0: the rows of every mode,
    where ``probe_rows`` forms the probe's.

    With tau = sqrt(bare frequencies), q is scaled by tau and p by 1/tau, so
    S = [[A, B], [-Z~, A^T]] with A = C o (tau_i/tau_j), B = Y o (tau_i tau_j),
    Z~ = Z o 1/(tau_i tau_j) and C, Y, Z = cos(Wt), W^-1 sin(Wt), W sin(Wt),
    each made symmetric as (X + X^T)/2: H is time-reversal symmetric, and
    this structure holds to the bit. Row pairs that break
    q_i . Omega . p_i^T = 1 raise SymplecticError.
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
    not positive definite. The environment block is (``assemble_model``), so
    V(omega_S) is iff its Schur complement omega_S^2 - sum c_n^2/Omega_n^2 is."""
    margin = omega_s**2 - np.sum((model.bath_couplings() / model.env_freqs) ** 2)
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
    from one (3TR, M) @ (M, M) GEMM over the T times and R rows."""
    O, om = model.modes, model.freqs_normal
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


def _chebyshev_rows(
    model: QuadraticModel, t: float, omega_s: NDArray[np.float64]
) -> NDArray[np.float64]:
    """Rows S of cos(tW), W^-1 sin(tW) and W sin(tW), W = V(omega_S)^(1/2),
    as a (3, G, M) stack over the G probe frequencies.

    Each f(V) e_S = sum_k a_k T_k(V~) e_S with V~ = 2V/b - I on the spectral
    interval [0, b] (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984)).
    One recurrence step is one (G, M) @ (M, M) product with V plus the
    rank-one fix of column S by omega_S^2 - V_SS.
    """
    V = model.V
    shift = omega_s**2 - V[0, 0]
    # Gershgorin bound over the grid: only row S depends on omega_S
    radius = np.abs(V).sum(axis=1)
    radius[0] += shift.max(initial=-np.inf)  # an empty grid drops row S
    b = radius.max()
    coef = _chebyshev_coefficients(t, b)
    n = coef.shape[1] - 1
    # T_{k+1} = 2 V~ T_k - T_{k-1}, kept in a ring of _CHEB_BLOCK slots
    two_vt = (4.0 / b) * V - 2.0 * np.eye(len(V))
    fix = (4.0 / b) * shift
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


def probe_mask(S: NDArray[np.float64], tol: float = 1e-10) -> NDArray[np.float64]:
    """Measurement-basis coefficients for the probe quadratures.

    Returns the (2, 2M) row pair of the Bloch-Messiah R1 factor that selects
    the probe's q and p: the simulator analogue of the local-oscillator mask
    defining the measured mode. Orthogonal symplectic inputs are their own
    R1. The R2 factor is not formed.
    """
    n = S.shape[0] // 2
    r1 = _r1_and_d(S, tol)[0]
    return np.vstack([r1[0, :], r1[n, :]])
