"""Symplectic-form utilities and the Bloch-Messiah decomposition.

Quadrature ordering is (q_1..q_M, p_1..p_M) throughout, with symplectic form

    Omega = [[0, I], [-I, 0]].

``bloch_messiah`` factors a symplectic S as R1 @ D @ R2 with R1, R2 orthogonal
symplectic and D = diag(d_1..d_M, 1/d_1..1/d_M), d_i >= 1 sorted descending.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

SYMPLECTIC_TOL = 1e-10
PAIR_TOL = 1e-10


class SymplecticError(ValueError):
    """Input matrix fails a symplectic-structure requirement."""


@lru_cache(maxsize=32)
def symplectic_form(n_modes: int) -> NDArray[np.float64]:
    """The 2M x 2M form Omega = [[0, I], [-I, 0]], cached and read-only."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    out = np.block([[zero, eye], [-eye, zero]])
    out.setflags(write=False)
    return out


def symplectic_residual(S: NDArray[np.float64]) -> float:
    """Frobenius norm of S^T Omega S - Omega."""
    n = S.shape[0]
    if S.shape[0] != S.shape[1] or n % 2:
        raise SymplecticError("matrix must be square with even dimension")
    omega = symplectic_form(n // 2)
    return float(np.linalg.norm(S.T @ omega @ S - omega))


def is_symplectic(S: NDArray[np.float64], tol: float = SYMPLECTIC_TOL) -> tuple[bool, float]:
    """Check S^T Omega S = Omega; returns (verdict, residual)."""
    res = symplectic_residual(S)
    return res < tol, res


@dataclass(frozen=True)
class BlochMessiahFactors:
    """Factors of S = R1 @ D @ R2.

    d holds the M squeezing singular values >= 1 (descending); the full
    diagonal of D is (d, 1/d). R1 and R2 are orthogonal symplectic.
    """

    r1: NDArray[np.float64]
    d: NDArray[np.float64]
    r2: NDArray[np.float64]

    @property
    def n_modes(self) -> int:
        return len(self.d)

    @property
    def delta(self) -> NDArray[np.float64]:
        return np.diag(np.concatenate([self.d, 1.0 / self.d]))

    def reconstruct(self) -> NDArray[np.float64]:
        return self.r1 @ self.delta @ self.r2


def bloch_messiah(S: NDArray[np.float64], tol: float = SYMPLECTIC_TOL) -> BlochMessiahFactors:
    """Bloch-Messiah (Euler) decomposition of a symplectic matrix.

    Route: one ``eigh`` of S S^T = U Sigma^2 U^T, in descending order, gives
    the eigenbasis U of the positive polar factor P = U Sigma U^T and its
    spectrum Sigma = sqrt(eigenvalues). The singular values come in (d, 1/d)
    pairs and Omega maps the d-singular space onto the 1/d one, so an
    orthonormal basis v_i of the singular vectors with d_i > 1, completed
    with -Omega v_i, is an orthogonal symplectic R1 with P = R1 Delta R1^T.
    With x + iy for the real vector (x, y), -Omega acts as i, so
    Gram-Schmidt over the real pairs (v, -Omega v) is complex Gram-Schmidt:
    the squeezed basis is the Q of one complex QR of those singular vectors
    (descending d). The (near-)unit singular space is filled from its
    orthogonal projector applied to the canonical basis, in order, each
    column projected off all accepted pairs at once, twice. Finally
    R2 = Delta^-1 R1^T S.

    ``is_symplectic`` already refuses S with |S| beyond about 1e3, where the
    rounding of S S^T (eps |S|^2) would blur the d >= 1 block. Column signs
    are fixed so each of the first M columns of R1 has a positive leading
    entry (paired column signs follow). Inside a degenerate d, R1 is the
    basis LAPACK returns. Passive S is returned as R1.
    """
    r1, d, passive = _r1_and_d(S, tol)
    if passive:
        return BlochMessiahFactors(r1=r1, d=d, r2=np.eye(len(r1)))
    delta = np.concatenate([d, 1.0 / d])
    r2 = (r1 / delta[None, :]).T @ S  # R2 = Delta^-1 R1^T S
    return BlochMessiahFactors(r1=r1, d=d, r2=r2)


def _r1_and_d(
    S: NDArray[np.float64], tol: float = SYMPLECTIC_TOL
) -> tuple[NDArray[np.float64], NDArray[np.float64], bool]:
    """The R1 factor and d of ``bloch_messiah``, without R2, and whether S is
    passive (then R1 = S and d = 1)."""
    ok, res = is_symplectic(S, tol)
    if not ok:
        raise SymplecticError(f"input is not symplectic (residual {res:.3e} >= {tol:.1e})")
    n = S.shape[0] // 2
    omega = symplectic_form(n)

    if np.linalg.norm(S.T @ S - np.eye(2 * n)) < tol:
        # passive transformation: all squeezing in R1 by convention
        return S.copy(), np.ones(n), True

    evals, vecs = np.linalg.eigh(_gram(S))
    evals, vecs = np.sqrt(evals[::-1]), vecs[:, ::-1]

    hi = 1.0 + PAIR_TOL
    lo = 1.0 / hi
    n_squeezed = int(np.count_nonzero(evals > hi))
    if n_squeezed != np.count_nonzero(evals < lo):
        raise SymplecticError("singular values do not pair reciprocally")

    r1 = np.empty((2 * n, 2 * n))
    q, r = np.linalg.qr(vecs[:n, :n_squeezed] + 1j * vecs[n:, :n_squeezed])
    if np.any(np.abs(np.diagonal(r)) < 1e-8):
        raise SymplecticError("degenerate squeezed singular directions collapsed")
    w = np.vstack([q.real, q.imag])  # unit columns, each with a real sign left free
    lead = np.argmax(np.abs(w) > 1e-12, axis=0)
    w *= np.copysign(1.0, w[lead, np.arange(n_squeezed)])
    r1[:, :n_squeezed] = w
    r1[:, n : n + n_squeezed] = -omega @ w

    # candidate q-columns of the rest: the columns of the projector onto the
    # (near-)unit singular space
    unit = vecs[:, (evals >= lo) & (evals <= hi)]
    candidates = unit @ unit.T
    k = n_squeezed
    for j in range(candidates.shape[1]):
        if k == n:
            break
        basis = np.hstack([r1[:, :k], r1[:, n : n + k]])
        w = candidates[:, j]
        for _ in range(2):  # twice is enough (classical GS refinement)
            w = w - basis @ (basis.T @ w)
        norm = np.linalg.norm(w)
        if norm < 1e-8:
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

    return r1, np.concatenate([evals[:n_squeezed], np.ones(n - n_squeezed)]), False


def _gram(S: NDArray[np.float64]) -> NDArray[np.float64]:
    """S S^T from M x M block products. OpenBLAS splits the one 2M x 2M
    product across threads at M = 51, which moves its last bits with the
    thread count; the block products stay below its threading threshold."""
    n = S.shape[0] // 2
    a, b, c, d = S[:n, :n], S[:n, n:], S[n:, :n], S[n:, n:]
    gram = np.empty_like(S)
    gram[:n, :n] = a @ a.T + b @ b.T
    gram[:n, n:] = a @ c.T + b @ d.T
    gram[n:, :n] = gram[:n, n:].T
    gram[n:, n:] = c @ c.T + d @ d.T
    return gram
