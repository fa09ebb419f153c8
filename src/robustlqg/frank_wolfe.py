"""Frank-Wolfe maximization of a concave cost over products of ambiguity balls.

One driver, maximize, serves both horizons: it works on a list of covariance
blocks, one ball each. Every iteration evaluates the cost gradient in every
block, solves the separable linearization oracles of all blocks in one
batched pass (oracles.oracle_pass), and takes a convex-combination step
toward the oracle targets. The step is chosen by backtracking line search on
the objective by default, or is the open-loop 2/(2+k). The surrogate gap
sum_z <grad_z, Sigma_z* - Sigma_z> certifies epsilon-suboptimality for the
concave objective and drives the stopping rule. solve adapts the driver to
the finite-horizon LQG value over the 2T+1 blocks [X0, W_t.., V_t..];
stationary.solve_stationary_fw adapts it to the average cost over
[Sigma_w, Sigma_v]. Both run the noise-independent Riccati solution once per
solve and reuse it in every gradient and line-search evaluation. maximize
takes its start as feasible. Both adapters start at the nominals, which lie
in every ball; solve also accepts a start from its caller, and checks it.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import lqg
from .divergences import AmbiguityBall, DivergenceKind, MomentPair, membership
from .errors import InvalidInputError
from .gradient import _lqg_gradient, lqg_gradient
from .lqg import CovarianceProfile, SystemInstance
from .oracles import oracle_pass
from .oracles import solve_oracle  # noqa: F401  unused; bench/tracer.py wraps this binding

log = logging.getLogger("robustlqg")


@dataclass(frozen=True)
class FwConfig:
    max_iters: int = 500
    gap_tol: float = 1e-3
    oracle_delta: float = 0.95
    # "line_search": backtracking from alpha = 1, halving down to 2/(2+k);
    # "vanishing": the open-loop alpha = 2/(2+k)
    step_rule: str = "line_search"

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidInputError("max_iters must be >= 1")
        if not (np.isfinite(self.gap_tol) and self.gap_tol > 0.0):
            raise InvalidInputError("gap_tol must be positive and finite")
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
    # kept in the record, not the CSV:
    rel_gap: float  # gap / max(|objective|, 1)
    oracle_s: float  # wall seconds of the iteration's oracle pass
    oracle_steps: int  # root-search steps summed over blocks
    ls_trials: int  # line-search value calls; 0 under "vanishing" and at k = 0
    grad_s: float  # wall seconds of the value_and_grad call
    ls_s: float  # wall seconds of the line search; 0 when it does not run


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
    v_min = np.linalg.eigvalsh(np.stack([b.nominal.cov for b in balls.v]))[:, 0]
    return [0.0] * (1 + balls.T) + [float(x) for x in v_min]


def _oracle_pass(balls, grads, current, floors, delta):
    """Oracle target per block, the surrogate gap sum_z <G_z, Sigma_z* - Sigma_z>
    and the root-search steps summed over blocks."""
    results = oracle_pass(balls, grads, current, floors, delta)
    targets = [r.sigma_star for r in results]
    gap = 0.0
    for G, S, star in zip(grads, current, targets):
        gap += float(np.sum(G * (star - S)))
    return gap, targets, sum(r.steps for r in results)


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
    gap, targets, _ = _oracle_pass(
        balls.blocks(), grad.blocks(), current.blocks(), _lam_floors(balls), delta
    )
    return gap, CovarianceProfile.from_blocks(targets, sys.T)


def _step(current, targets, alpha):
    """Convex combination of exactly symmetric blocks, hence exactly symmetric."""
    return [(1.0 - alpha) * c + alpha * t for c, t in zip(current, targets)]


def _backtrack(value, current, targets, objective, gap, alpha_min, shrink=0.5, armijo=0.1):
    """Backtracking line search exploiting concavity; falls back to 2/(2+k).
    Returns (alpha, number of value calls)."""
    alpha, trials = 1.0, 0
    while alpha > alpha_min:
        trials += 1
        if value(_step(current, targets, alpha)) >= objective + armijo * alpha * gap:
            return alpha, trials
        alpha *= shrink
    return alpha_min, trials


def maximize(
    value_and_grad: Callable[[list], tuple[float, list]],
    value: Callable[[list], float],
    balls: Sequence[AmbiguityBall],
    start: Sequence[np.ndarray],
    floors: Sequence[float],
    cfg: FwConfig,
) -> tuple[list[np.ndarray], FwTrace]:
    """Maximize a concave function of covariance blocks, one ball per block.

    start must lie in the balls; it is not checked here. value_and_grad(blocks)
    returns the objective and its per-block gradients (trace pairing);
    value(blocks) returns the objective alone and is called only by the line
    search. floors are the oracles' eigenvalue floors.
    Iterates move as (1 - alpha) * current + alpha * targets. By default
    alpha is the largest of 1, 1/2, 1/4, ... above 2/(2+k) whose step gains
    at least 0.1 * alpha * gap in value (Armijo), else 2/(2+k); with
    step_rule="vanishing" it is 2/(2+k). The loop stops when the surrogate gap
    falls below cfg.gap_tol or the iteration budget is exhausted. Each
    iteration is recorded in the trace and, when the "robustlqg" logger is
    enabled for DEBUG, logged in one line. Returns (final blocks, trace).
    """
    current = list(start)
    trace = FwTrace()
    for k in range(cfg.max_iters):
        t0 = time.perf_counter()
        objective, grads = value_and_grad(current)
        t_oracle = time.perf_counter()
        gap, targets, steps = _oracle_pass(balls, grads, current, floors, cfg.oracle_delta)
        t_ls = time.perf_counter()
        trials, ls_s = 0, 0.0
        if gap <= cfg.gap_tol:
            alpha = 0.0
            trace.converged = True
        else:
            alpha = 2.0 / (2.0 + k)
            if cfg.step_rule == "line_search":
                alpha, trials = _backtrack(value, current, targets, objective, gap, alpha)
                ls_s = time.perf_counter() - t_ls
            current = _step(current, targets, alpha)
        record = FwRecord(
            k, objective, gap, alpha, (time.perf_counter() - t0) * 1e3,
            gap / max(abs(objective), 1.0), t_ls - t_oracle, steps, trials, t_oracle - t0, ls_s,
        )
        trace.records.append(record)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "fw iter %d objective %.12g gap %.6g step %.6g oracle_s %.6f oracle_steps %d "
                "ls_trials %d", k, objective, gap, alpha, record.oracle_s, steps, trials,
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
    profile, trace). init defaults to the nominal covariances, which lie in
    every ball by construction and are not checked. A caller-supplied init is
    checked block by block, at membership tolerance 1e-8, before anything is
    evaluated. The Riccati sweep P does not depend on the noise, so it runs
    once here; each gradient is then one forward and one adjoint sweep, and
    each line-search trial one forward sweep."""
    if balls.T != sys.T:
        raise InvalidInputError("ball profile horizon mismatch")
    if init is not None:
        if init.T != sys.T:
            raise InvalidInputError("initial profile horizon mismatch")
        for ball, block in zip(balls.blocks(), init.blocks()):
            if not membership(ball, MomentPair.zero_mean(block), 1e-8):
                raise InvalidInputError("initial profile is infeasible in an ambiguity ball")
    current = balls.nominal_profile() if init is None else init
    # module lookups at call time, so rebinding lqg.riccati_backward or
    # lqg._forward_cost is seen
    P, _ = lqg.riccati_backward(sys)

    def value_and_grad(blocks):
        objective, grad = _lqg_gradient(sys, P, CovarianceProfile.from_blocks(blocks, sys.T))
        return objective, grad.blocks()

    def value(blocks):
        return lqg._forward_cost(sys, P, CovarianceProfile.from_blocks(blocks, sys.T))

    final, trace = maximize(
        value_and_grad, value, balls.blocks(), current.blocks(), _lam_floors(balls), cfg
    )
    return CovarianceProfile.from_blocks(final, sys.T), trace
