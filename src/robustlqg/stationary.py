"""Infinite-horizon average-cost machinery: DARE, filter ARE, stationary cost.

The stationary problem is the steady state of the finite-horizon one. Both
algebraic Riccati equations are solved by one structure-preserving doubling
loop (the filter equation is the control equation of the dual pair
(A^T, C^T)) and accepted on their residual, at 1e-8 relative, once their
closed loop is Schur stable. The average cost of the
policy u_t = K xhat_t is the per-step term of lqg._lqg_cost at the steady
state, Tr((Q - P) Sigma_f) + Tr(P S), and its exact gradient in
(Sigma_w, Sigma_v) is the fixed point of the adjoint sweep of
gradient.lqg_gradient, one n x n Lyapunov solve. The Frank-Wolfe driver of
frank_wolfe, run over the two time-invariant blocks with the configured step
rule, computes nature's worst case; the control DARE does not depend on the
noise, so it is solved once per solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import AmbiguityBall, MomentPair, membership
from .errors import ConditioningError, InvalidInputError, StabilizabilityError
from .frank_wolfe import FwConfig, FwTrace, maximize
from .lqg import _riccati_step
from .matops import (
    _check_finite, _check_square, _cholesky_certifies, solve_discrete_lyapunov, spectral_radius,
    symmetrize,
)
from .oracles import _plan
from .oracles import solve_oracle  # noqa: F401  unused; bench/tracer.py wraps this binding

_MAX_DOUBLINGS = 64  # as many as 2^64 fixed-point steps
_REL_TOL = 1e-12
_RESIDUAL_TOL = 1e-8
_STAB_MARGIN = 1e-8


@dataclass(frozen=True)
class StationarySystem:
    """Time-invariant system with Q positive definite (average-cost setting)."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray

    def __post_init__(self):
        for name in ("A", "B", "C", "Q", "R"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.ndim != 2:
                raise InvalidInputError(f"{name} must be a matrix, got shape {arr.shape}")
            object.__setattr__(self, name, _check_finite(arr, name))
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape[0] != n or self.C.shape[1] != n:
            raise InvalidInputError("system matrix dimensions inconsistent")
        if self.Q.shape != (n, n) or self.R.shape != (self.m, self.m):
            raise InvalidInputError(f"Q must be ({n}, {n}) and R ({self.m}, {self.m})")
        for name in ("Q", "R"):
            M = symmetrize(getattr(self, name))
            if not _cholesky_certifies(M) and np.linalg.eigvalsh(M).min() <= 0.0:
                raise InvalidInputError(f"{name} must be positive definite")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class StationarySolution:
    P: np.ndarray
    K: np.ndarray
    Sigma_pred: np.ndarray  # steady-state one-step-ahead error covariance
    L: np.ndarray
    avg_cost: float


def _doubling(A, B, Q, R, what: str) -> np.ndarray:
    """Stabilizing solution X of X = A^T X A + Q - A^T X B (R + B^T X B)^{-1} B^T X A.

    Structure-preserving doubling (SDA-1; Chu, Fan, Lin & Wang, Linear
    Algebra Appl. 2004) for X = A^T X (I + G X)^{-1} A + H with
    G = B R^{-1} B^T and H = Q. A doubling solves W = I + G_k H_k once
    against [A_k, G_k], giving Y1 and Y2, and sets A_{k+1} = A_k Y1,
    G_{k+1} = G_k + A_k Y2 A_k^T and H_{k+1} = H_k + A_k^T H_k Y1; H_k is the
    fixed-point iterate after 2^k Riccati steps from 0, so it converges
    quadratically where that iteration converges linearly. The loop stops
    when H changes by at most 1e-12 relative, or once ||A_k||_F^2 <= 1e-12,
    the relative order of the next correction. It does not certify X: the
    callers check the residual and the closed loop (_accept). An H_k or A_k
    of Frobenius norm above 1e150 raises StabilizabilityError naming `what`,
    and an H_k that overflows raises InvalidInputError.
    """
    n = A.shape[0]
    eye = np.eye(n)
    G = symmetrize(B @ np.linalg.solve(R, B.T))
    H = symmetrize(Q)
    for _ in range(_MAX_DOUBLINGS):
        Y = np.linalg.solve(eye + G @ H, np.concatenate((A, G), axis=1))
        Y1 = Y[:, :n]
        step = A.T @ (H @ Y1)  # H Y1 first: about 10 times smaller residuals at cond 5e9
        H = H + step
        G = G + A @ Y[:, n:] @ A.T
        A = A @ Y1
        size, decay = np.linalg.norm(H, "fro"), np.vdot(A, A)
        if not (size <= 1e150 and decay <= 1e300):  # also true for inf and nan
            _check_finite(H, "Riccati iterate")  # an overflow is an input error
            raise StabilizabilityError(f"Riccati iterates diverge; {what}")
        if np.linalg.norm(step, "fro") <= _REL_TOL * size or decay <= _REL_TOL:
            break
    return symmetrize(H)


def _accept(equation: str, X, residual, closed_loop, what: str) -> None:
    """Certify the doubling solution X of `equation` from its residual and
    closed loop.

    A closed loop that is not Schur stable (margin 1e-8) raises
    StabilizabilityError naming `what`; besides _doubling's divergence
    guard, only this check raises it. A stable one
    whose relative residual ||residual||_F / ||X||_F exceeds 1e-8 raises
    ConditioningError, with the residual and cond(X) in the message: the
    equation is too ill-conditioned for double precision. The tolerance lies
    between what doubling reaches on the filter ARE of a near-unstable
    system over 20 nominal draws: at most 2.3e-9 at d = 20, p = 2 (cond(X)
    5e9 to 7e9), and at least 1.4e-5 at d = 30, p = 3 (cond(X) about 1e15).
    1e-10 would reject the first.
    """
    if spectral_radius(closed_loop) >= 1.0 - _STAB_MARGIN:
        raise StabilizabilityError(f"closed loop is not Schur stable; {what}")
    rel = np.linalg.norm(residual, "fro") / np.linalg.norm(X, "fro")
    if not rel <= _RESIDUAL_TOL:
        raise ConditioningError(
            f"{equation} residual {rel:.1e} exceeds {_RESIDUAL_TOL:.0e} relative at "
            f"cond ~ {np.linalg.cond(X):.1e}; the equation is beyond double precision"
        )


def solve_dare(ss: StationarySystem) -> tuple[np.ndarray, np.ndarray]:
    """Control algebraic Riccati equation: P and the gain
    K = -(R + B^T P B)^{-1} B^T P A, with A + BK Schur stable (margin 1e-8).

    P is the doubling solution (_doubling). One lqg._riccati_step at P gives
    both K and the residual, and P is accepted when that residual is at most
    1e-8 relative (_accept)."""
    P = _doubling(ss.A, ss.B, ss.Q, ss.R, "(A, B) looks unstabilizable")
    P_next, K = _riccati_step(P, ss.A, ss.B, ss.Q, ss.R)
    _accept("control ARE", P, P_next - P, ss.A + ss.B @ K, "(A, B) looks unstabilizable")
    return P, K


def solve_filter_are(
    ss: StationarySystem, Sigma_w: np.ndarray, Sigma_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stabilizing solution of the one-step-ahead filter Riccati equation.

    S = A S A^T + Sigma_w - A S C^T (C S C^T + Sigma_v)^{-1} C S A^T is the
    control equation of the dual pair (A^T, C^T), solved by doubling
    (_doubling); steady gain L = S C^T (Sigma_v + C S C^T)^{-1}. The error
    matrix (I - LC) A, which has the spectrum of the dual closed loop
    A^T + C^T K, is Schur stable (margin 1e-8), and S is accepted when the
    residual A Sigma_f A^T + Sigma_w - S, with Sigma_f = S - L C S, is at
    most 1e-8 relative (_accept).
    """
    Sigma_w = symmetrize(_check_square(Sigma_w, "Sigma_w"))
    Sigma_v = symmetrize(_check_square(Sigma_v, "Sigma_v"))
    if Sigma_w.shape != (ss.n, ss.n) or Sigma_v.shape != (ss.p, ss.p):
        raise InvalidInputError(f"Sigma_w must be ({ss.n}, {ss.n}) and Sigma_v ({ss.p}, {ss.p})")
    for M in (Sigma_w, Sigma_v):  # a Cholesky certifies lam_min > 0; else the eigenvalues decide
        if not _cholesky_certifies(M) and np.linalg.eigvalsh(M).min() <= 0.0:
            raise InvalidInputError("stationary noise covariances must be positive definite")
    A, C = ss.A, ss.C
    S = _doubling(A.T, C.T, Sigma_w, Sigma_v, "(A, C) looks undetectable")
    SC = S @ C.T
    L = np.linalg.solve(Sigma_v + C @ SC, SC.T).T
    _accept("filter ARE", S, A @ (S - L @ SC.T) @ A.T + Sigma_w - S, A - L @ C @ A,
            "(A, C) looks undetectable")
    return S, L


def stationary_cost(
    ss: StationarySystem, Sigma_w: np.ndarray, Sigma_v: np.ndarray
) -> tuple[float, StationarySolution]:
    """Long-run average cost of the optimal stationary policy.

    The per-step term of the finite-horizon trace formula at its steady state:
    Tr((Q - P) Sigma_f) + Tr(P S) with Sigma_f = S - L C S.
    """
    P, K = solve_dare(ss)
    return _stationary_cost(ss, P, K, Sigma_w, Sigma_v)


def _stationary_cost(
    ss: StationarySystem, P: np.ndarray, K: np.ndarray, Sigma_w: np.ndarray, Sigma_v: np.ndarray
) -> tuple[float, StationarySolution]:
    """stationary_cost given the DARE solution (P, K) of ss."""
    S, L = solve_filter_are(ss, Sigma_w, Sigma_v)
    Sigma_f = symmetrize(S - L @ ss.C @ S)
    avg_cost = float(np.trace((ss.Q - P) @ Sigma_f) + np.trace(P @ S))
    sol = StationarySolution(P=P, K=K, Sigma_pred=S, L=L, avg_cost=avg_cost)
    return avg_cost, sol


def stationary_gradient(
    ss: StationarySystem, Sigma_w: np.ndarray, Sigma_v: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Average cost and its exact gradient [G_w, G_v] (trace pairing).

    The fixed point of the adjoint sweep of gradient.lqg_gradient: with
    Phi = (I - LC) A, Y = Phi^T Y Phi + Q - P + A^T P A, then
    G_w = P + (I - LC)^T Y (I - LC) and G_v = L^T Y L.
    """
    P, K = solve_dare(ss)
    avg_cost, sol = _stationary_cost(ss, P, K, Sigma_w, Sigma_v)
    return avg_cost, _stationary_adjoint(ss, P, sol.L)


def _stationary_adjoint(ss: StationarySystem, P: np.ndarray, L: np.ndarray) -> list[np.ndarray]:
    """The gradient [G_w, G_v] from the DARE solution P and the steady filter
    gain L: one Lyapunov solve."""
    A = ss.A
    closed = np.eye(ss.n) - L @ ss.C
    Y = solve_discrete_lyapunov((closed @ A).T, ss.Q - P + A.T @ P @ A)
    G_w = symmetrize(P + closed.T @ Y @ closed)
    G_v = symmetrize(L.T @ Y @ L)
    return [G_w, G_v]


def solve_stationary_fw(
    ss: StationarySystem,
    ball_w: AmbiguityBall,
    ball_v: AmbiguityBall,
    cfg: FwConfig = FwConfig(),
) -> tuple[np.ndarray, np.ndarray, FwTrace]:
    """Frank-Wolfe over the two stationary blocks (Sigma_w, Sigma_v), each a
    stack of one for the driver. The balls are planned first, so a ball the
    oracles reject fails before the DARE, which runs once. An evaluation solves
    the filter ARE and forms the cost, and its grad() solves the one
    Lyapunov equation of the gradient from that filter gain
    (_stationary_adjoint); an accepted line-search trial's
    evaluation serves the next iteration, so each iterate's filter ARE is
    solved once. The loop stops as maximize does: a bound stop reads only
    the returned iterate's cost, so it solves no Lyapunov equation for it.
    The returned pair is checked against its balls at membership tolerance
    1e-8."""
    plan = _plan([ball_w, ball_v], [1, 1])
    P, K = solve_dare(ss)

    def evaluate(stacks):
        avg_cost, sol = _stationary_cost(ss, P, K, stacks[0][0], stacks[1][0])

        def grad():
            return [G[None] for G in _stationary_adjoint(ss, P, sol.L)]

        return avg_cost, grad

    start = [ball_w.nominal.cov[None], ball_v.nominal.cov[None]]
    ((Sw,), (Sv,)), trace = maximize(evaluate, plan, start, cfg)
    if not membership(ball_w, MomentPair.zero_mean(Sw), 1e-8) or not membership(
        ball_v, MomentPair.zero_mean(Sv), 1e-8
    ):
        raise InvalidInputError("stationary iterate left the ambiguity balls")
    return Sw, Sv, trace
