"""Infinite-horizon average-cost machinery: DARE, filter ARE, stationary cost.

The stationary problem is the steady state of the finite-horizon one. Both
algebraic Riccati equations run one fixed-point loop (the filter equation is
the control equation of the dual pair (A^T, C^T)). The average cost of the
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
from .errors import InvalidInputError, StabilizabilityError
from .frank_wolfe import FwConfig, FwTrace, maximize
from .lqg import _riccati_step
from .matops import (
    _check_finite, _check_square, solve_discrete_lyapunov, spectral_radius, symmetrize,
)
from .oracles import solve_oracle  # noqa: F401  unused; bench/tracer.py wraps this binding

_FIXED_POINT_MAX_ITERS = 100_000
_REL_TOL = 1e-12
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
        if np.linalg.eigvalsh(symmetrize(self.Q)).min() <= 0.0:
            raise InvalidInputError("Q must be positive definite")
        if np.linalg.eigvalsh(symmetrize(self.R)).min() <= 0.0:
            raise InvalidInputError("R must be positive definite")

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


def _riccati_fixed_point(A, B, Q, R, what: str) -> np.ndarray:
    """Fixed point X of lqg._riccati_step.

    Started at X = Q, stopped on relative change 1e-12. Divergence raises
    StabilizabilityError naming `what`, and an iterate that overflows raises
    InvalidInputError.
    """
    X = symmetrize(Q)
    for _ in range(_FIXED_POINT_MAX_ITERS):
        X_next, _ = _riccati_step(X, A, B, Q, R)
        if not np.abs(X_next).max() <= 1e150:  # also true for inf and nan entries
            _check_finite(X_next, "Riccati iterate")  # an overflow is an input error
            raise StabilizabilityError(f"Riccati iterates diverge; {what}")
        delta = np.linalg.norm(X_next - X, "fro")
        X = X_next
        if delta <= _REL_TOL * (1.0 + np.linalg.norm(X, "fro")):
            return X
    raise StabilizabilityError(f"Riccati iteration did not converge; {what}")


def solve_dare(ss: StationarySystem) -> tuple[np.ndarray, np.ndarray]:
    """Control algebraic Riccati equation: P and the gain
    K = -(R + B^T P B)^{-1} B^T P A, with A + BK Schur stable (margin 1e-8)."""
    P = _riccati_fixed_point(ss.A, ss.B, ss.Q, ss.R, "(A, B) looks unstabilizable")
    _, K = _riccati_step(P, ss.A, ss.B, ss.Q, ss.R)
    if spectral_radius(ss.A + ss.B @ K) >= 1.0 - _STAB_MARGIN:
        raise StabilizabilityError("closed loop is not Schur stable; (A, B) looks unstabilizable")
    return P, K


def solve_filter_are(
    ss: StationarySystem, Sigma_w: np.ndarray, Sigma_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of the one-step-ahead filter Riccati equation.

    S = A S A^T + Sigma_w - A S C^T (C S C^T + Sigma_v)^{-1} C S A^T is the
    control equation of the dual pair (A^T, C^T); steady gain
    L = S C^T (Sigma_v + C S C^T)^{-1}. The error matrix (I - LC) A, which
    has the spectrum of the dual closed loop A^T + C^T K, is Schur stable
    (margin 1e-8).
    """
    Sigma_w = symmetrize(_check_square(Sigma_w, "Sigma_w"))
    Sigma_v = symmetrize(_check_square(Sigma_v, "Sigma_v"))
    if Sigma_w.shape != (ss.n, ss.n) or Sigma_v.shape != (ss.p, ss.p):
        raise InvalidInputError(f"Sigma_w must be ({ss.n}, {ss.n}) and Sigma_v ({ss.p}, {ss.p})")
    if np.linalg.eigvalsh(Sigma_w).min() <= 0.0 or np.linalg.eigvalsh(Sigma_v).min() <= 0.0:
        raise InvalidInputError("stationary noise covariances must be positive definite")
    A, C = ss.A, ss.C
    S = _riccati_fixed_point(A.T, C.T, Sigma_w, Sigma_v, "(A, C) looks undetectable")
    SC = S @ C.T
    L = np.linalg.solve(Sigma_v + C @ SC, SC.T).T
    if spectral_radius(A - L @ C @ A) >= 1.0 - _STAB_MARGIN:
        raise StabilizabilityError("closed loop is not Schur stable; (A, C) looks undetectable")
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
    return _stationary_gradient(ss, P, K, Sigma_w, Sigma_v)


def _stationary_gradient(
    ss: StationarySystem, P: np.ndarray, K: np.ndarray, Sigma_w: np.ndarray, Sigma_v: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """stationary_gradient given the DARE solution (P, K) of ss: the cost and
    the _stationary_adjoint of its filter gain."""
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
    stack of one for the driver. The DARE runs once. An evaluation solves
    the filter ARE and forms the cost, and its grad() solves the one
    Lyapunov equation of the gradient from that filter gain
    (_stationary_adjoint); an accepted line-search trial's
    evaluation serves the next iteration, so each iterate's filter ARE is
    solved once."""
    if np.linalg.norm(ball_w.nominal.mean) != 0.0 or np.linalg.norm(ball_v.nominal.mean) != 0.0:
        raise InvalidInputError("stationary ambiguity balls must be zero-mean")
    P, K = solve_dare(ss)

    def evaluate(stacks):
        avg_cost, sol = _stationary_cost(ss, P, K, stacks[0][0], stacks[1][0])

        def grad():
            return [G[None] for G in _stationary_adjoint(ss, P, sol.L)]

        return avg_cost, grad

    floors = [0.0, float(np.linalg.eigvalsh(ball_v.nominal.cov).min())]
    start = [ball_w.nominal.cov[None], ball_v.nominal.cov[None]]
    ((Sw,), (Sv,)), trace = maximize(evaluate, [ball_w, ball_v], start, floors, cfg)
    if not membership(ball_w, MomentPair.zero_mean(Sw), 1e-8) or not membership(
        ball_v, MomentPair.zero_mean(Sv), 1e-8
    ):
        raise InvalidInputError("stationary iterate left the ambiguity balls")
    return Sw, Sv, trace
