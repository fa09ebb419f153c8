"""Infinite-horizon average-cost machinery: DARE, filter ARE, stationary cost.

The average cost of the stationary policy u_t = K xhat_t under time-invariant
Gaussian noise is evaluated through the joint (state, estimation error)
dynamics: with F = [[A+BK, -BK], [0, A - LCA]] and input matrix
Xi = [[I, 0], [I-LC, -L]] driven by (w_t, v_{t+1}), the stationary joint
covariance solves the discrete Lyapunov equation, and the cost is
Tr(Sigma_x Q) + Tr(K Sigma_xhat K^T R). The Frank-Wolfe driver of
frank_wolfe, run over the two time-invariant blocks (Sigma_w, Sigma_v) with
the configured step rule, computes nature's worst case, with gradients by
central finite differences (the blocks are small).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .divergences import AmbiguityBall, MomentPair, membership
from .errors import InvalidInputError, StabilizabilityError
from .frank_wolfe import FwConfig, FwTrace, maximize
from .gradient import fd_block_gradients
from .matops import solve_discrete_lyapunov, spectral_radius, symmetrize
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
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"{name} has non-finite entries")
            object.__setattr__(self, name, arr)
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.B.shape[0] != n or self.C.shape[1] != n:
            raise InvalidInputError("system matrix dimensions inconsistent")
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


def solve_dare(ss: StationarySystem) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point iteration for the control algebraic Riccati equation.

    P = A^T P A + Q - A^T P B (R + B^T P B)^{-1} B^T P A, started at P = Q,
    stopped on relative change 1e-12. The closed loop A + BK must be Schur
    stable with margin 1e-8; failure to converge certifies a
    stabilizability violation.
    """
    A, B, Q, R = ss.A, ss.B, ss.Q, ss.R
    P = symmetrize(Q)
    for _ in range(_FIXED_POINT_MAX_ITERS):
        PB = P @ B
        gain_sys = R + B.T @ PB
        K = -np.linalg.solve(gain_sys, PB.T @ A)
        P_next = symmetrize(A.T @ P @ A + Q + (PB.T @ A).T @ K)
        if not np.all(np.isfinite(P_next)) or np.abs(P_next).max() > 1e150:
            raise StabilizabilityError(
                "Riccati iterates diverge; (A, B) looks unstabilizable"
            )
        delta = np.linalg.norm(P_next - P, "fro")
        P = P_next
        if delta <= _REL_TOL * (1.0 + np.linalg.norm(P, "fro")):
            break
    else:
        raise StabilizabilityError("Riccati iteration did not converge; (A, B) looks unstabilizable")
    PB = P @ B
    K = -np.linalg.solve(R + B.T @ PB, PB.T @ A)
    if spectral_radius(A + B @ K) >= 1.0 - _STAB_MARGIN:
        raise StabilizabilityError("closed loop A + BK is not Schur stable")
    return P, K


def solve_filter_are(
    ss: StationarySystem, Sigma_w: np.ndarray, Sigma_v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fixed point of the one-step-ahead filter Riccati equation.

    S = A S A^T + Sigma_w - A S C^T (C S C^T + Sigma_v)^{-1} C S A^T, with
    steady gain L = S C^T (Sigma_v + C S C^T)^{-1}; the error matrix
    (I - LC) A must be Schur stable.
    """
    Sigma_w = symmetrize(np.asarray(Sigma_w, dtype=float))
    Sigma_v = symmetrize(np.asarray(Sigma_v, dtype=float))
    if np.linalg.eigvalsh(Sigma_w).min() <= 0.0 or np.linalg.eigvalsh(Sigma_v).min() <= 0.0:
        raise InvalidInputError("stationary noise covariances must be positive definite")
    A, C = ss.A, ss.C
    S = Sigma_w.copy()
    for _ in range(_FIXED_POINT_MAX_ITERS):
        SC = S @ C.T
        innov = C @ SC + Sigma_v
        gain = np.linalg.solve(innov, SC.T).T
        S_next = symmetrize(A @ (S - gain @ SC.T) @ A.T + Sigma_w)
        if not np.all(np.isfinite(S_next)) or np.abs(S_next).max() > 1e150:
            raise StabilizabilityError(
                "filter Riccati iterates diverge; (A, C) looks undetectable"
            )
        delta = np.linalg.norm(S_next - S, "fro")
        S = S_next
        if delta <= _REL_TOL * (1.0 + np.linalg.norm(S, "fro")):
            break
    else:
        raise StabilizabilityError("filter Riccati iteration did not converge; (A, C) looks undetectable")
    SC = S @ C.T
    L = np.linalg.solve(Sigma_v + C @ SC, SC.T).T
    if spectral_radius((np.eye(ss.n) - L @ C) @ A) >= 1.0 - _STAB_MARGIN:
        raise StabilizabilityError("filter error dynamics are not Schur stable")
    return S, L


def stationary_cost(
    ss: StationarySystem, Sigma_w: np.ndarray, Sigma_v: np.ndarray
) -> tuple[float, StationarySolution]:
    """Long-run average cost of the optimal stationary policy.

    Solves the joint (x, e) Lyapunov equation for the stationary covariance
    and assembles Tr(Sigma_x Q) + Tr(Sigma_u R) with Sigma_u = K Sigma_xhat K^T.
    """
    P, K = solve_dare(ss)
    S, L = solve_filter_are(ss, Sigma_w, Sigma_v)
    A, B, C = ss.A, ss.B, ss.C
    n = ss.n
    LC = L @ C
    F = np.block([[A + B @ K, -B @ K], [np.zeros((n, n)), A - LC @ A]])
    if spectral_radius(F) >= 1.0 - _STAB_MARGIN:
        raise StabilizabilityError("joint state/error dynamics are not Schur stable")
    Xi = np.block([[np.eye(n), np.zeros((n, ss.p))], [np.eye(n) - LC, -L]])
    Sigma_xi = np.block(
        [
            [Sigma_w, np.zeros((n, ss.p))],
            [np.zeros((ss.p, n)), Sigma_v],
        ]
    )
    joint = solve_discrete_lyapunov(F, symmetrize(Xi @ Sigma_xi @ Xi.T))
    Sigma_x = joint[:n, :n]
    Sigma_e = joint[n:, n:]
    Sigma_xe = joint[:n, n:]
    Sigma_xhat = symmetrize(Sigma_x + Sigma_e - Sigma_xe - Sigma_xe.T)
    Sigma_u = K @ Sigma_xhat @ K.T
    avg_cost = float(np.trace(Sigma_x @ ss.Q) + np.trace(Sigma_u @ ss.R))
    sol = StationarySolution(P=P, K=K, Sigma_pred=S, L=L, avg_cost=avg_cost)
    return avg_cost, sol


def solve_stationary_fw(
    ss: StationarySystem,
    ball_w: AmbiguityBall,
    ball_v: AmbiguityBall,
    cfg: FwConfig = FwConfig(),
) -> tuple[np.ndarray, np.ndarray, FwTrace]:
    """Frank-Wolfe over the two stationary blocks (Sigma_w, Sigma_v)."""
    if np.linalg.norm(ball_w.nominal.mean) != 0.0 or np.linalg.norm(ball_v.nominal.mean) != 0.0:
        raise InvalidInputError("stationary ambiguity balls must be zero-mean")

    def value(blocks):
        return stationary_cost(ss, *blocks)[0]

    def value_and_grad(blocks):
        return value(blocks), fd_block_gradients(value, blocks)

    floors = [0.0, float(np.linalg.eigvalsh(ball_v.nominal.cov).min())]
    (Sw, Sv), trace = maximize(
        value_and_grad, value, [ball_w, ball_v], [ball_w.nominal.cov, ball_v.nominal.cov],
        floors, cfg,
    )
    if not membership(ball_w, MomentPair.zero_mean(Sw), 1e-8) or not membership(
        ball_v, MomentPair.zero_mean(Sv), 1e-8
    ):
        raise InvalidInputError("stationary iterate left the ambiguity balls")
    return Sw, Sv, trace
