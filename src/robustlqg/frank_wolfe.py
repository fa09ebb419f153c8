"""Frank-Wolfe maximization of a concave cost over products of ambiguity balls.

One driver, maximize, serves both horizons: it works on a list of covariance
blocks, one ball each. Every iteration evaluates the cost gradient in every
block, solves the separable linearization oracle of each block in turn, and
takes a convex-combination step toward the oracle targets. The surrogate gap
sum_z <grad_z, Sigma_z* - Sigma_z> certifies epsilon-suboptimality for the
concave objective and drives the stopping rule. solve adapts the driver to
the finite-horizon LQG value over the 2T+1 blocks [X0, W_t.., V_t..];
stationary.solve_stationary_fw adapts it to the average cost over
[Sigma_w, Sigma_v].
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import lqg
from .divergences import AmbiguityBall, DivergenceKind, MomentPair, membership
from .errors import InvalidInputError
from .gradient import lqg_gradient
from .lqg import CovarianceProfile, SystemInstance
from .matops import symmetrize
from .oracles import solve_oracle


@dataclass(frozen=True)
class FwConfig:
    max_iters: int = 500
    gap_tol: float = 1e-3
    oracle_delta: float = 0.95
    step_rule: str = "vanishing"  # or "line_search"

    def __post_init__(self):
        if self.gap_tol <= 0.0:
            raise InvalidInputError("gap_tol must be positive")
        if not 0.0 < self.oracle_delta < 1.0:
            raise InvalidInputError("oracle_delta must lie in (0, 1)")
        if self.step_rule not in ("vanishing", "line_search"):
            raise InvalidInputError(f"unknown step rule '{self.step_rule}'")


@dataclass(frozen=True)
class FwRecord:
    iter: int
    objective: float
    fw_gap: float
    step_size: float
    wall_ms: float
    rel_gap: float  # gap / max(|objective|, 1); kept in the record, not the CSV


@dataclass
class FwTrace:
    records: list[FwRecord] = field(default_factory=list)
    converged: bool = False


@dataclass(frozen=True)
class BallProfile:
    """One ambiguity ball per noise term, ordered [x0, w_0.., v_0..]."""

    x0: AmbiguityBall
    w: tuple[AmbiguityBall, ...]
    v: tuple[AmbiguityBall, ...]

    @property
    def T(self) -> int:
        return len(self.w)

    def blocks(self) -> list[AmbiguityBall]:
        return [self.x0] + list(self.w) + list(self.v)

    def nominal_profile(self) -> CovarianceProfile:
        return CovarianceProfile(
            X0=self.x0.nominal.cov,
            W=np.stack([b.nominal.cov for b in self.w]),
            V=np.stack([b.nominal.cov for b in self.v]),
        )


@dataclass(frozen=True)
class NominalModel:
    """Zero-mean nominal noise model plus ambiguity radii for each noise term."""

    kind: DivergenceKind
    X0: np.ndarray
    W: np.ndarray  # (T, n, n)
    V: np.ndarray  # (T, p, p)
    rho_x0: float
    rho_w: np.ndarray  # (T,)
    rho_v: np.ndarray  # (T,)
    eps: float = 0.0

    @classmethod
    def uniform(cls, kind: DivergenceKind, cov: CovarianceProfile, rho: float, eps: float = 0.0):
        T = cov.T
        return cls(
            kind=kind, X0=cov.X0, W=cov.W, V=cov.V,
            rho_x0=rho, rho_w=np.full(T, float(rho)), rho_v=np.full(T, float(rho)), eps=eps,
        )

    def nominal_profile(self) -> CovarianceProfile:
        return CovarianceProfile(X0=self.X0, W=self.W, V=self.V)

    def ball_profile(self) -> BallProfile:
        def ball(cov, rho):
            return AmbiguityBall(
                kind=self.kind, nominal=MomentPair.zero_mean(cov),
                radius=float(rho), eps=self.eps,
            )

        return BallProfile(
            x0=ball(self.X0, self.rho_x0),
            w=tuple(ball(self.W[t], self.rho_w[t]) for t in range(self.W.shape[0])),
            v=tuple(ball(self.V[t], self.rho_v[t]) for t in range(self.V.shape[0])),
        )


def _lam_floors(balls: BallProfile) -> list[float]:
    """Observation-noise blocks keep their nominal minimum eigenvalue as floor."""
    floors = [0.0] * (1 + balls.T)
    for b in balls.v:
        floors.append(float(np.linalg.eigvalsh(b.nominal.cov).min()))
    return floors


def _oracle_pass(balls, grads, current, floors, delta):
    """Oracle target per block and the surrogate gap sum_z <G_z, Sigma_z* - Sigma_z>."""
    gap = 0.0
    targets = []
    for ball, G, S, floor in zip(balls, grads, current, floors):
        star = solve_oracle(ball, G, S, floor, delta).sigma_star
        gap += float(np.sum(G * (star - S)))
        targets.append(star)
    return gap, targets


def fw_gap(
    sys: SystemInstance,
    balls: BallProfile,
    current: CovarianceProfile,
    delta: float = 0.95,
) -> tuple[float, CovarianceProfile]:
    """Surrogate duality gap and oracle targets at the current profile.

    gap = sum_z <grad_z f, Sigma_z* - Sigma_z>; for concave f this upper
    bounds f* - f(current) (up to the oracle delta factor).
    """
    _, grad = lqg_gradient(sys, current)
    gap, targets = _oracle_pass(
        balls.blocks(), grad.blocks(), current.blocks(), _lam_floors(balls), delta
    )
    return gap, CovarianceProfile.from_blocks(targets, sys.T)


def _step(current, targets, alpha):
    return [symmetrize((1.0 - alpha) * c + alpha * t) for c, t in zip(current, targets)]


def _backtrack(value, current, targets, objective, gap, alpha_min, shrink=0.5, armijo=0.1):
    """Backtracking line search exploiting concavity; falls back to 2/(2+k)."""
    alpha = 1.0
    while alpha > alpha_min:
        if value(_step(current, targets, alpha)) >= objective + armijo * alpha * gap:
            return alpha
        alpha *= shrink
    return alpha_min


def maximize(
    value_and_grad: Callable[[list], tuple[float, list]],
    value: Callable[[list], float],
    balls: Sequence[AmbiguityBall],
    start: Sequence[np.ndarray],
    floors: Sequence[float],
    cfg: FwConfig,
) -> tuple[list[np.ndarray], FwTrace]:
    """Maximize a concave function of covariance blocks, one ball per block.

    value_and_grad(blocks) returns the objective and its per-block gradients
    (trace pairing); value(blocks) returns the objective alone and is called
    only by the line search. floors are the oracles' eigenvalue floors.
    Iterates move as (1 - alpha) * current + alpha * targets with
    alpha = 2/(2+k) (or a backtracking line search when configured); the
    loop stops when the surrogate gap falls below cfg.gap_tol or the
    iteration budget is exhausted. Returns (final blocks, trace).
    """
    for ball, block in zip(balls, start):
        if not membership(ball, MomentPair.zero_mean(block), 1e-8):
            raise InvalidInputError("initial profile is infeasible in an ambiguity ball")
    current = list(start)
    trace = FwTrace()
    for k in range(cfg.max_iters):
        t0 = time.perf_counter()
        objective, grads = value_and_grad(current)
        gap, targets = _oracle_pass(balls, grads, current, floors, cfg.oracle_delta)
        if gap <= cfg.gap_tol:
            alpha = 0.0
            trace.converged = True
        else:
            alpha = 2.0 / (2.0 + k)
            if cfg.step_rule == "line_search":
                alpha = _backtrack(value, current, targets, objective, gap, alpha)
            current = _step(current, targets, alpha)
        wall = (time.perf_counter() - t0) * 1e3
        trace.records.append(
            FwRecord(k, objective, gap, alpha, wall, gap / max(abs(objective), 1.0))
        )
        if trace.converged:
            break
    return current, trace


def solve(
    sys: SystemInstance,
    balls: BallProfile,
    init: Optional[CovarianceProfile] = None,
    cfg: FwConfig = FwConfig(),
) -> tuple[CovarianceProfile, FwTrace]:
    """Run Frank-Wolfe on the finite-horizon LQG value; returns (worst-case
    profile, trace). init defaults to the nominal covariances, which are
    feasible in every ball."""
    current = balls.nominal_profile() if init is None else init
    if current.T != sys.T:
        raise InvalidInputError("initial profile horizon mismatch")

    def value_and_grad(blocks):
        objective, grad = lqg_gradient(sys, CovarianceProfile.from_blocks(blocks, sys.T))
        return objective, grad.blocks()

    def value(blocks):
        # module lookup at call time, so a rebinding of lqg.lqg_value is seen
        return lqg.lqg_value(sys, CovarianceProfile.from_blocks(blocks, sys.T)).cost

    final, trace = maximize(
        value_and_grad, value, balls.blocks(), current.blocks(), _lam_floors(balls), cfg
    )
    return CovarianceProfile.from_blocks(final, sys.T), trace
