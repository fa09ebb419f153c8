"""Symmetric positive-semidefinite matrix primitives shared by all numeric
modules, and the LAPACK kernels of the solve path.

The kernels _solve, _inv, _cholesky, _eigh, _eigvalsh and _slogdet call the
gufuncs of numpy.linalg._umath_linalg, the module behind every numpy.linalg
function, with the signature and the errstate callback numpy.linalg itself
uses, so they return what np.linalg.solve, inv, cholesky, eigh (lower
triangle), eigvalsh and slogdet return, bit for bit, and a singular input
raises np.linalg.LinAlgError with numpy's message. _cholesky alone raises
nothing: a block LAPACK cannot factor comes back as nan, and its callers
read those blocks. What they
skip is the wrapper's per-call work (array conversion, type promotion,
shape checks, result wrapping), which on matrices of size 10 or less costs
as much as LAPACK itself. So they take float64 arrays that the library
built: square matrices or stacks of them, and for _solve a right-hand side
that is a matrix or a stack of them, never a vector. _fro is the Frobenius
norm sqrt(<x, x>), equal to np.linalg.norm(x, "fro") on C-contiguous input.
Every solve, factorization and Frobenius norm of the solve path goes
through them; numpy.linalg stays for eigvals, cond and qr, which the solve
path calls only to decide or report a failure, and for the verification
module stacked. _first_below is the psd and pd floor check,
lam_min >= floor or lam_min > floor for a stack, of every caller but
oracles' gradient check, whose floor scales with max |eig|: a shifted
batched Cholesky certifies it (_cholesky_certifies), and only where that
fails do eigenvalues decide.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import InstabilityError, InvalidInputError

# Eigenvalues in [-EIG_CLAMP * scale, 0) are rounding noise and get clamped
# to zero (scale is max |eig| unless the caller knows better, see sym_sqrt);
# anything more negative signals a genuine bug upstream.
EIG_CLAMP = 1e-10

# A loop is Schur stable when its spectral radius is below 1 - _SCHUR_MARGIN.
_SCHUR_MARGIN = 1e-8
_UNIT_ROUNDOFF = 2.0**-53


def _singular(err, flag):
    raise LinAlgError("Singular matrix")


def _no_convergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _raising(call):
    """numpy.linalg's errstate: a gufunc that fails sets the invalid flag,
    and call raises LinAlgError for it."""
    return np.errstate(call=call, invalid="call", over="ignore", divide="ignore", under="ignore")


@_raising(_singular)
def _solve(a, b):
    """np.linalg.solve(a, b) for a (..., n, n) and b (..., n, k)."""
    return _umath_linalg.solve(a, b, signature="dd->d")


@_raising(_singular)
def _inv(a):
    """np.linalg.inv(a)."""
    return _umath_linalg.inv(a, signature="d->d")


@np.errstate(all="ignore")
def _cholesky(a):
    """np.linalg.cholesky(a): the lower factor, reading the lower triangle,
    of every block LAPACK factors, and nan for every block it cannot, where
    np.linalg.cholesky raises. It raises and warns of nothing."""
    return _umath_linalg.cholesky_lo(a, signature="d->d")


@_raising(_no_convergence)
def _eigh(a):
    """np.linalg.eigh(a): (ascending eigenvalues, eigenvectors), from the lower triangle."""
    return _umath_linalg.eigh_lo(a, signature="d->dd")


@_raising(_no_convergence)
def _eigvalsh(a):
    """np.linalg.eigvalsh(a): ascending eigenvalues, from the lower triangle."""
    return _umath_linalg.eigvalsh_lo(a, signature="d->d")


def _slogdet(a):
    """np.linalg.slogdet(a) as (sign, logdet). Like numpy's, it raises
    nothing: a singular matrix has sign 0."""
    return _umath_linalg.slogdet(a, signature="d->dd")


def _fro(x) -> float:
    """Frobenius norm sqrt(<x, x>) of an array."""
    return math.sqrt(np.vdot(x, x))


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


def _float_array(x, name: str) -> np.ndarray:
    """x as a float array; InvalidInputError where numpy cannot convert it."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{name} must be an array of real numbers") from exc


def _check_square(S: np.ndarray, name: str = "matrix") -> np.ndarray:
    S = _float_array(S, name)
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
    inf in it ends up, and a block _cholesky cannot factor is nan) fails."""
    if shift is not None:
        S = S + np.asarray(shift)[..., None, None] * np.eye(S.shape[-1])
    return bool(np.isfinite(np.diagonal(_cholesky(S), axis1=-2, axis2=-1)).all())


def _first_below(S: np.ndarray, floor, strict: bool = False) -> tuple[int, float] | None:
    """The first block of a symmetric (k, d, d) stack S that breaks the rule
    lam_min >= floor (lam_min > floor if strict), for a scalar floor or one
    per block, as (index, its lam_min); None if no block breaks it. One
    batched Cholesky of S - floor I certifies the rule for the whole stack
    (_cholesky_certifies); only where it fails are the eigenvalues
    computed, and they alone decide. A nan eigenvalue breaks every rule
    (the callers' stacks are finite; on a nan block of size 3 or more,
    _eigvalsh raises LinAlgError as numpy does)."""
    if _cholesky_certifies(S, -floor):
        return None
    lam = _eigvalsh(S)[:, 0]
    ok = lam > floor if strict else lam >= floor
    i = int(ok.argmin())  # the first block that breaks the rule, or 0 if none does
    return None if ok[i] else (i, float(lam[i]))


def sym_sqrt(S: np.ndarray, *, scale: float | None = None) -> np.ndarray:
    """Symmetric psd square root R with R @ R ~= S, via eigendecomposition.

    Eigenvalues in [-EIG_CLAMP * scale, 0) are set to 0; more negative ones
    raise. scale defaults to max |eig| of S, so s * S is accepted exactly
    when S is, for any s > 0. A caller whose S is a product of psd factors
    passes the factors' scale instead: the product's rounding follows their
    norms, not its own largest eigenvalue, which may be near 0.
    """
    vals, vecs = _eigh(symmetrize(_check_square(S)))
    if scale is None:
        scale = np.abs(vals).max(initial=0.0)
    floor = EIG_CLAMP * scale
    if vals.min(initial=0.0) < -floor:
        raise InvalidInputError(
            f"matrix is not psd: min eigenvalue {vals.min():.3e} < -{floor:.3e}"
        )
    return symmetrize((vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.T)


def spectral_radius(F: np.ndarray) -> float:
    """Largest eigenvalue modulus of a (possibly nonsymmetric) square matrix."""
    F = _check_square(F, "F")
    return float(np.abs(np.linalg.eigvals(F)).max(initial=0.0))


def _schur_certified(F: np.ndarray) -> bool:
    """Whether ||F||_F proves rho(F) < 1 - _SCHUR_MARGIN for a square F.

    rho(F) <= ||F||_F; the computed norm errs by less than (n^2 + 2) u
    relative (u the unit roundoff), which a slack of (n^2 + 4) u covers
    with the rounding of the test itself. A failure certifies nothing: the
    caller then runs its eigenvalue rule, which alone decides. A norm that
    is not finite fails.
    """
    n = F.shape[0]
    return _fro(F) * (1.0 + (n * n + 4) * _UNIT_ROUNDOFF) < 1.0 - _SCHUR_MARGIN


def _unstable_radius(F: np.ndarray) -> float | None:
    """None if the square matrix F is Schur stable with margin _SCHUR_MARGIN,
    else its spectral radius. The one stability decision of the library's
    solves: a Frobenius norm below the margin (_schur_certified) settles it
    without eigenvalues; where it does not, spectral_radius alone decides,
    and its non-finite-entry check applies."""
    if _schur_certified(F):
        return None
    rho = spectral_radius(F)
    return rho if rho >= 1.0 - _SCHUR_MARGIN else None


def solve_discrete_lyapunov(F: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """Solve Sigma = F Sigma F^T + Q for Schur-stable F and psd Q.

    F must be Schur stable with margin 1e-8 (_unstable_radius), else
    InstabilityError reports its spectral radius. Doubling iteration: after
    k steps Sigma sums the first 2^k terms of the series
    sum_j F^j Q (F^j)^T. It stops once a step adds at most 1e-16 of
    ||Sigma||_F, a rule relative to Sigma's scale, so s * Q gives s * Sigma
    for any s > 0 (and Q = 0 gives 0).
    """
    F = _check_square(F, "F")
    Q = symmetrize(_check_square(Q, "Q"))
    if F.shape != Q.shape:
        raise InvalidInputError(f"dimension mismatch: F {F.shape}, Q {Q.shape}")
    rho = _unstable_radius(F)
    if rho is not None:
        raise InstabilityError(f"spectral radius {rho:.6f} >= 1 - 1e-8")
    sigma = Q.copy()
    Fk = F.copy()
    for _ in range(200):
        incr = Fk @ sigma @ Fk.T
        sigma = sigma + incr
        Fk = Fk @ Fk
        if _fro(incr) <= 1e-16 * _fro(sigma):
            break
    return symmetrize(_check_finite(sigma, "Lyapunov solution"))
