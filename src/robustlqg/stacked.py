"""Stacked-matrix machinery over purified observations, for verification only.

Stacking x = (x_0..x_T), u = (u_0..u_{T-1}), w = (x_0, w_0..w_{T-1}),
v = (v_0..v_{T-1}) turns the dynamics into x = Hu + Gw and the purified
observations into eta = Dw + v with D = CG. Causal affine policies
u = q + U eta (U block lower triangular) make the expected cost an explicit
convex quadratic in (U, q) that is linear in the noise moments, which
enables the strong-duality and zero-mean-optimality checks.

These matrices are materialized densely; the module exists for verification
at small horizons, with a hard size cap. The library's solve and experiment
paths do not use it: the tests compare them against it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidInputError
from .lqg import CovarianceProfile, SystemInstance, kalman_forward, riccati_backward
from .matops import symmetrize

_SIZE_CAP = 200


@dataclass(frozen=True)
class StackedSystem:
    T: int
    n: int
    m: int
    p: int
    H: np.ndarray  # n(T+1) x mT
    G: np.ndarray  # n(T+1) x n(T+1)
    C: np.ndarray  # pT x n(T+1)
    D: np.ndarray  # pT x n(T+1), = C G
    Q: np.ndarray  # n(T+1) block diagonal
    R: np.ndarray  # mT block diagonal
    Rbar: np.ndarray  # R + H^T Q H, positive definite


def causal_mask(T: int, m: int, p: int) -> np.ndarray:
    """Boolean mT x pT mask of allowed (block lower triangular) entries."""
    mask = np.zeros((m * T, p * T), dtype=bool)
    for t in range(T):
        mask[t * m : (t + 1) * m, : (t + 1) * p] = True
    return mask


@dataclass(frozen=True)
class AffinePolicy:
    """Causal affine policy u = q + U eta on the purified observations."""

    U: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        q = np.asarray(self.q, dtype=float).reshape(-1)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "q", q)

    def validated(self, ss: StackedSystem) -> "AffinePolicy":
        mask = causal_mask(ss.T, ss.m, ss.p)
        if self.U.shape != mask.shape or self.q.shape != (ss.m * ss.T,):
            raise InvalidInputError("policy dimensions inconsistent with system")
        spill = np.abs(self.U[~mask]).max(initial=0.0)
        if spill > 1e-10 * (1.0 + np.abs(self.U).max()):
            raise InvalidInputError("policy violates causality (upper blocks nonzero)")
        U = np.where(mask, self.U, 0.0)
        return AffinePolicy(U=U, q=self.q)


def build_stacked(sys: SystemInstance) -> StackedSystem:
    """Materialize the stacked system matrices for a finite-horizon instance."""
    T, n, m, p = sys.T, sys.n, sys.m, sys.p
    if n * (T + 1) > _SIZE_CAP:
        raise InvalidInputError(
            f"stacked size n(T+1) = {n * (T + 1)} exceeds the cap {_SIZE_CAP}"
        )
    # transition products A^t_s = A_{t-1} ... A_s, identity at s = t
    trans = [[None] * (T + 1) for _ in range(T + 1)]
    for s in range(T + 1):
        trans[s][s] = np.eye(n)
        for t in range(s + 1, T + 1):
            trans[t][s] = sys.A[t - 1] @ trans[t - 1][s]

    G = np.zeros((n * (T + 1), n * (T + 1)))
    for t in range(T + 1):
        for s in range(t + 1):
            G[t * n : (t + 1) * n, s * n : (s + 1) * n] = trans[t][s]

    H = np.zeros((n * (T + 1), m * T))
    for t in range(1, T + 1):
        for s in range(t):
            H[t * n : (t + 1) * n, s * m : (s + 1) * m] = trans[t][s + 1] @ sys.B[s]

    C = np.zeros((p * T, n * (T + 1)))
    for t in range(T):
        C[t * p : (t + 1) * p, t * n : (t + 1) * n] = sys.C[t]

    Q = np.zeros((n * (T + 1), n * (T + 1)))
    for t in range(T + 1):
        Q[t * n : (t + 1) * n, t * n : (t + 1) * n] = sys.Q[t]
    R = np.zeros((m * T, m * T))
    for t in range(T):
        R[t * m : (t + 1) * m, t * m : (t + 1) * m] = sys.R[t]

    Rbar = symmetrize(R + H.T @ Q @ H)
    return StackedSystem(T=T, n=n, m=m, p=p, H=H, G=G, C=C, D=C @ G, Q=Q, R=R, Rbar=Rbar)


def _check_block_diagonal(M: np.ndarray, block: int, what: str) -> None:
    """The ambiguity model keeps noise terms uncorrelated; reject anything else."""
    d = M.shape[0]
    mask = np.zeros_like(M, dtype=bool)
    for s in range(0, d, block):
        mask[s : s + block, s : s + block] = True
    if np.abs(M[~mask]).max(initial=0.0) > 1e-12 * (1.0 + np.abs(M).max()):
        raise InvalidInputError(f"{what} must be block diagonal (uncorrelated noise)")


def stack_moments(
    cov: CovarianceProfile, n: int, p: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Zero-mean stacked moments (mu_w, M_w, mu_v, M_v) from a profile."""
    T = cov.T
    M_w = np.zeros((n * (T + 1), n * (T + 1)))
    M_w[:n, :n] = cov.X0
    for t in range(T):
        M_w[(t + 1) * n : (t + 2) * n, (t + 1) * n : (t + 2) * n] = cov.W[t]
    M_v = np.zeros((p * T, p * T))
    for t in range(T):
        M_v[t * p : (t + 1) * p, t * p : (t + 1) * p] = cov.V[t]
    return np.zeros(n * (T + 1)), M_w, np.zeros(p * T), M_v


def affine_objective(
    ss: StackedSystem,
    pol: AffinePolicy,
    mu_w: np.ndarray,
    M_w: np.ndarray,
    mu_v: np.ndarray,
    M_v: np.ndarray,
) -> float:
    """Expected cost of the affine policy under the given noise moments.

    M_w and M_v are uncentered second moments, and w and v are independent:

    Tr(((UD)^T R UD + (G+HUD)^T Q (G+HUD)) M_w + U^T Rbar U M_v)
      + 2 q^T (Rbar U D + H^T Q G) mu_w + 2 q^T Rbar U mu_v + q^T Rbar q
      + 2 mu_w^T (G^T Q H U + D^T U^T Rbar U) mu_v.
    """
    pol = pol.validated(ss)
    _check_block_diagonal(M_w - np.outer(mu_w, mu_w), ss.n, "M_w")
    _check_block_diagonal(M_v - np.outer(mu_v, mu_v), ss.p, "M_v")
    U, q = pol.U, pol.q
    UD = U @ ss.D
    GHUD = ss.G + ss.H @ UD
    quad_w = UD.T @ ss.R @ UD + GHUD.T @ ss.Q @ GHUD
    quad_v = U.T @ ss.Rbar @ U
    value = float(np.sum(quad_w * M_w) + np.sum(quad_v * M_v))
    value += 2.0 * float(q @ ((ss.Rbar @ UD + ss.H.T @ ss.Q @ ss.G) @ mu_w))
    value += 2.0 * float(q @ (ss.Rbar @ (U @ mu_v)))
    value += 2.0 * float(mu_w @ ((ss.G.T @ ss.Q @ ss.H @ U + UD.T @ ss.Rbar @ U) @ mu_v))
    value += float(q @ ss.Rbar @ q)
    return value


def optimal_intercept(
    ss: StackedSystem, U: np.ndarray, mu_w: np.ndarray, mu_v: np.ndarray
) -> np.ndarray:
    """Intercept minimizing the affine objective for fixed U:

    q* = -Rbar^{-1} ((Rbar U D + H^T Q G) mu_w + Rbar U mu_v).
    """
    UD = U @ ss.D
    rhs = (ss.Rbar @ UD + ss.H.T @ ss.Q @ ss.G) @ mu_w + ss.Rbar @ (U @ mu_v)
    return -np.linalg.solve(ss.Rbar, rhs)


class ConvertDirection(Enum):
    OUTPUT_TO_PURIFIED = "output_to_purified"
    PURIFIED_TO_OUTPUT = "purified_to_output"


def policy_convert(
    ss: StackedSystem,
    direction: ConvertDirection,
    U_in: np.ndarray,
    q_in: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Convert between purified-feedback and output-feedback coefficients.

    u = U eta + q  <=>  u = U' y + q' with U' = (I + U C H)^{-1} U and
    q' = (I + U C H)^{-1} q; the reverse uses (I - U' C H)^{-1}. Both
    transforms preserve block lower triangularity; zero blocks are kept
    exactly zero.
    """
    mask = causal_mask(ss.T, ss.m, ss.p)
    U_in = np.where(mask, np.asarray(U_in, dtype=float), 0.0)
    q_in = np.asarray(q_in, dtype=float).reshape(-1)
    CH = ss.C @ ss.H
    eye = np.eye(ss.m * ss.T)
    if direction is ConvertDirection.PURIFIED_TO_OUTPUT:
        lhs = eye + U_in @ CH
    else:
        lhs = eye - U_in @ CH
    U_out = np.linalg.solve(lhs, U_in)
    q_out = np.linalg.solve(lhs, q_in)
    return np.where(mask, U_out, 0.0), q_out


def kalman_policy_to_purified(sys: SystemInstance, cov: CovarianceProfile) -> AffinePolicy:
    """Express u_t = K_t xhat_t as a causal linear purified-feedback policy.

    The Kalman estimate is a causal linear map of the outputs; composing it
    with the feedback gains gives the output-feedback coefficients, which are
    then converted to purified coordinates. Its objective at the generating
    zero-mean moments equals the dynamic-programming value.
    """
    _, K = riccati_backward(sys)
    filt, _, L = kalman_forward(sys, cov)
    T, n, m, p = sys.T, sys.n, sys.m, sys.p
    M = [[np.zeros((n, p)) for _ in range(T)] for _ in range(T)]
    M[0][0] = L[0]
    for t in range(T - 1):
        Abar = sys.A[t] + sys.B[t] @ K[t]
        shrink = (np.eye(n) - L[t + 1] @ sys.C[t + 1]) @ Abar
        for tau in range(t + 1):
            M[t + 1][tau] = shrink @ M[t][tau]
        M[t + 1][t + 1] = L[t + 1]
    U_y = np.zeros((m * T, p * T))
    for t in range(T):
        for tau in range(t + 1):
            U_y[t * m : (t + 1) * m, tau * p : (tau + 1) * p] = K[t] @ M[t][tau]
    ss = build_stacked(sys)
    U_eta, q = policy_convert(
        ss, ConvertDirection.OUTPUT_TO_PURIFIED, U_y, np.zeros(m * T)
    )
    return AffinePolicy(U=U_eta, q=q)


def solve_inner_policy(
    ss: StackedSystem, M_w: np.ndarray, M_v: np.ndarray
) -> tuple[np.ndarray, float]:
    """Exact minimizer of the zero-mean affine objective over causal U.

    The objective is an unconstrained convex quadratic on the causal entries
    (Rbar and the stacked second moments are positive definite); projecting
    the stationarity condition Rbar U (D M_w D^T + M_v) + H^T Q G M_w D^T = 0
    onto the causal support and solving the resulting normal equations gives
    the unique optimum. Returns (U*, objective value).
    """
    _check_block_diagonal(M_w, ss.n, "M_w")
    _check_block_diagonal(M_v, ss.p, "M_v")
    mask = causal_mask(ss.T, ss.m, ss.p)
    idx = np.argwhere(mask)
    S = ss.D @ M_w @ ss.D.T + M_v
    N = ss.H.T @ ss.Q @ ss.G @ M_w @ ss.D.T
    k = idx.shape[0]
    A = np.empty((k, k))
    for col, (i, j) in enumerate(idx):
        # column = causal restriction of Rbar E_ij S = Rbar[:, i] outer S[j, :]
        contrib = np.outer(ss.Rbar[:, i], S[j, :])
        A[:, col] = contrib[mask]
    b = -N[mask]
    x = np.linalg.solve(A, b)
    U = np.zeros_like(mask, dtype=float)
    U[mask] = x
    value = affine_objective(
        ss,
        AffinePolicy(U=U, q=np.zeros(ss.m * ss.T)),
        np.zeros(ss.n * (ss.T + 1)),
        M_w,
        np.zeros(ss.p * ss.T),
        M_v,
    )
    return U, value
