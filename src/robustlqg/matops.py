"""Symmetric positive-semidefinite matrix primitives shared by all numeric modules."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InstabilityError, InvalidInputError

# Eigenvalues in [-EIG_CLAMP, 0) are rounding noise and get clamped to zero;
# anything more negative signals a genuine bug upstream.
EIG_CLAMP = 1e-10


@dataclass(frozen=True)
class SpdCertificate:
    """Certificate of (semi)definiteness based on the minimum eigenvalue."""

    min_eigenvalue: float
    is_psd: bool
    is_pd: bool


def _check_square(S: np.ndarray, name: str = "matrix") -> np.ndarray:
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise InvalidInputError(f"{name} must be square, got shape {S.shape}")
    if not np.all(np.isfinite(S)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return S


def symmetrize(S: np.ndarray) -> np.ndarray:
    """Return (S + S^T)/2; prevents asymmetry drift across long recursions."""
    S = _check_square(S)
    return 0.5 * (S + S.T)


def psd_eigh(S: np.ndarray, clamp: float = EIG_CLAMP):
    """Eigendecompose a symmetric matrix expected to be psd.

    Eigenvalues in [-clamp, 0) are set to 0; values below -clamp raise.
    Returns (eigenvalues, eigenvectors).
    """
    S = symmetrize(S)
    vals, vecs = np.linalg.eigh(S)
    if vals.min(initial=0.0) < -clamp:
        raise InvalidInputError(
            f"matrix is not psd: min eigenvalue {vals.min():.3e} < -{clamp:.0e}"
        )
    return np.maximum(vals, 0.0), vecs


def sym_sqrt(S: np.ndarray) -> np.ndarray:
    """Symmetric psd square root R with R @ R ~= S, via eigendecomposition."""
    vals, vecs = psd_eigh(S)
    R = (vecs * np.sqrt(vals)) @ vecs.T
    return 0.5 * (R + R.T)

def loewner_geq(A: np.ndarray, B: np.ndarray, tol: float = 1e-8) -> SpdCertificate:
    """Certify A >= B in Loewner order: psd iff lambda_min(A - B) >= -tol."""
    A = _check_square(A, "A")
    B = _check_square(B, "B")
    if A.shape != B.shape:
        raise InvalidInputError(f"dimension mismatch: {A.shape} vs {B.shape}")
    lam_min = float(np.linalg.eigvalsh(symmetrize(A - B)).min())
    return SpdCertificate(
        min_eigenvalue=lam_min, is_psd=lam_min >= -tol, is_pd=lam_min >= tol
    )


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
    Q = symmetrize(Q)
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
    return symmetrize(sigma)
