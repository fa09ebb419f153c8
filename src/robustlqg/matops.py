"""Symmetric positive-semidefinite matrix primitives shared by all numeric modules."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import InstabilityError, InvalidInputError

# Eigenvalues in [-EIG_CLAMP, 0) are rounding noise and get clamped to zero;
# anything more negative signals a genuine bug upstream.
EIG_CLAMP = 1e-10


def _check_finite(X: np.ndarray, name: str) -> np.ndarray:
    """Return X; raise InvalidInputError on non-finite entries (bad input or overflow)."""
    if not np.isfinite(X).all():
        raise InvalidInputError(f"{name} has non-finite entries")
    return X


def _is_number(x, integer: bool = False) -> bool:
    """Whether x is a finite real (an integer if integer); numpy scalars count, bools do not."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral if integer else numbers.Real):
        return False
    return isinstance(x, numbers.Integral) or math.isfinite(x)


def _check_square(S: np.ndarray, name: str = "matrix") -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {S.shape}")
    return _check_finite(S, name)


def symmetrize(S: np.ndarray) -> np.ndarray:
    """(S + S^T)/2 of a matrix or of each matrix of a (..., d, d) stack, against
    asymmetry drift in long recursions. No validation: matrices are checked
    where they enter the library (_check_square), internal results are not."""
    S = np.asarray(S)
    return 0.5 * (S + S.swapaxes(-1, -2))


def _cholesky_certifies(S: np.ndarray, shift=None) -> bool:
    """Whether one batched Cholesky factors S + shift I for a symmetric matrix
    or (k, d, d) stack S, a scalar shift or one per block (None: S itself): a
    certificate that every block has lam_min(S) > -shift, so a rule
    lam_min >= -tol with shift <= tol passes. A failure certifies nothing;
    the caller then runs its eigenvalue rule, which alone decides. Cholesky
    reads the lower triangle only and lets nan through, so S must be
    symmetric, and a factor whose diagonal is not finite (where any nan or
    inf in it ends up) fails."""
    if shift is not None:
        S = S + np.asarray(shift)[..., None, None] * np.eye(S.shape[-1])
    try:
        chol = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return False
    return bool(np.isfinite(np.diagonal(chol, axis1=-2, axis2=-1)).all())


def sym_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric psd square root R with R @ R ~= S, via eigendecomposition.

    Eigenvalues in [-EIG_CLAMP, 0) are set to 0; values below -EIG_CLAMP raise.
    """
    vals, vecs = np.linalg.eigh(symmetrize(_check_square(S)))
    if vals.min(initial=0.0) < -EIG_CLAMP:
        raise InvalidInputError(
            f"matrix is not psd: min eigenvalue {vals.min():.3e} < -{EIG_CLAMP:.0e}"
        )
    return symmetrize((vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T)


def spectral_radius(F: np.ndarray) -> float:
    """Largest eigenvalue modulus of a (possibly nonsymmetric) square matrix."""
    F = _check_square(F, "F")
    return float(np.abs(np.linalg.eigvals(F)).max(initial=0.0))


def solve_discrete_lyapunov(F: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve Sigma = F Sigma F^T + Q for Schur-stable F and psd Q.

    Doubling iteration: after k steps Sigma sums the first 2^k terms of the
    series sum_j F^j Q (F^j)^T.
    """
    F = _check_square(F, "F")
    Q = symmetrize(_check_square(Q, "Q"))
    if F.shape != Q.shape:
        raise InvalidInputError(f"dimension mismatch: F {F.shape}, Q {Q.shape}")
    rho = spectral_radius(F)
    if rho >= 1.0 - 1e-8:
        raise InstabilityError(f"spectral radius {rho:.6f} >= 1 - 1e-8")
    sigma = Q.copy()
    Fk = F.copy()
    for _ in range(200):
        incr = Fk @ sigma @ Fk.T
        sigma = sigma + incr
        Fk = Fk @ Fk
        if np.linalg.norm(incr, "fro") <= 1e-16 * (1.0 + np.linalg.norm(sigma, "fro")):
            break
    return symmetrize(_check_finite(sigma, "Lyapunov solution"))
