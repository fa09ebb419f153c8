"""Frank-Wolfe maximization of a concave cost over products of ambiguity balls.

One driver, maximize, serves both horizons. It keeps the iterate, the
gradients and the oracle targets as stacks of covariance blocks, (k, d, d)
arrays with one ball per block, so the step, the surrogate gap and each
line-search trial are one array expression per stack. Every iteration
evaluates the cost gradient in every block, solves the separable
linearization oracles of all blocks in one batched pass (oracles._run), and
takes a convex-combination step toward the oracle targets. The step is
chosen by a line search on the objective by default, or is the open-loop
2/(2+k). The line search tries the full step and, when that gains too
little, the maximizer of the concave quadratic model the full step and the
surrogate gap (the objective's slope at 0) fix, so it makes at most two
evaluations. Two certificates stop the loop (Jaggi, ICML 2013). The
surrogate gap sum_z <grad_z, Sigma_z* - Sigma_z> certifies its iterate up
to the oracles' factor 1/0.95. The upper bound objective + dual gap, the
sum of the oracles' per-block upper bounds, bounds the optimum over the
balls; the next iterate, once evaluated, stops the loop when it lies
within gap_tol of that bound, before its gradient and oracle pass run.
solve adapts the driver to the finite-horizon LQG value over
the 2T+1 blocks [X0, W_t.., V_t..], stacked as [X0; W] and V;
stationary.solve_stationary_fw adapts it to the average cost over
[Sigma_w] and [Sigma_v]. Both run the noise-independent Riccati solution
once per solve and reuse it in every evaluation. An evaluation gives the
objective and, on demand, the gradient of the same forward sweep, so the
iterate an accepted line-search trial lands on is not evaluated again; the
oracle pass is planned, and the ball nominals factored, once per solve,
before anything is evaluated. The trace keeps the gradient stacks of its
last record's iterate (FwTrace.grads). With the first and last records they
price the fixed policies designed at the start and at that iterate, with no
further sweep or oracle pass (experiments.run_gaps); on a bound stop that
iterate is the one before the returned one.
Every solve starts at the balls' nominals, which lie in every ball: the
plan lays them out as the driver's stacks (oracles._Plan.start), and
maximize checks nothing it builds from them.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import lqg
from .divergences import AmbiguityBall, DivergenceKind, _check_fields, _zero_mean_balls
from .divergences import membership  # noqa: F401  unused; bench/tracer.py wraps this binding
from .errors import InvalidInputError
from .gradient import _adjoint
from .gradient import lqg_gradient  # noqa: F401  unused; bench/tracer.py wraps this binding
from .lqg import CovarianceProfile, SystemInstance
from .matops import _float_array, _is_number
from .oracles import _Plan, _plan, _run
from .oracles import solve_oracle  # noqa: F401  unused; bench/tracer.py wraps this binding

log = logging.getLogger("robustlqg")

_ARMIJO = 0.1  # share of the surrogate gap a line-search step must gain


@dataclass(frozen=True)
class FwConfig:
    max_iters: int = 500
    gap_tol: float = 1e-3
    # "line_search": alpha = 1, else the concave quadratic model's maximizer,
    # else 2/(2+k) (_backtrack); "vanishing": the open-loop alpha = 2/(2+k)
    step_rule: str = "line_search"

    def __post_init__(self):
        if not (_is_number(self.max_iters, integer=True) and self.max_iters >= 1):
            raise InvalidInputError("max_iters must be an integer >= 1")
        if not (_is_number(self.gap_tol) and self.gap_tol > 0.0):
            raise InvalidInputError("gap_tol must be a positive finite number")
        if self.step_rule not in ("vanishing", "line_search"):
            raise InvalidInputError(f"unknown step rule '{self.step_rule}'")


@dataclass(frozen=True)
class FwRecord:
    iter: int
    objective: float
    fw_gap: float
    # the sum of the pass's per-block upper bounds (oracles._Pass.upper):
    # objective + dual_gap bounds the optimum over the balls from above
    dual_gap: float
    step_size: float
    wall_ms: float
    oracle_s: float  # wall seconds of the iteration's oracle pass
    oracle_steps: int  # root-search steps summed over blocks
    # lockstep root-search rounds summed over the pass's groups; a group's
    # rounds are the largest steps of its blocks
    oracle_rounds: int
    ls_trials: int  # line-search evaluations; 0 under "vanishing" and at k = 0
    # wall seconds of the gradient: the evaluation of the iterate, unless the
    # previous line search made it, plus the adjoint
    grad_s: float
    # wall seconds of the line search, the accepted trial's evaluation
    # included; 0 when it does not run
    ls_s: float


@dataclass
class FwTrace:
    """A solve's records, one per iteration that ran a gradient and an oracle
    pass, and how it stopped. stop is "gap" (the last record's surrogate gap
    fell to gap_tol; it is the returned iterate's record), "bound" (the
    returned iterate, one step past the last record, came within gap_tol of
    the upper bound objective + dual_gap of the last record's pass) or
    "max_iters" (the budget ran out; the returned iterate is one step past
    the last record, uncertified). objective and gap are the returned
    iterate's objective and certified gap: on a "gap" stop the last record's
    objective and fw_gap, on a "bound" stop its own objective and the upper
    bound less that objective, and nan on a "max_iters" stop."""

    records: list[FwRecord] = field(default_factory=list)
    stop: str = "max_iters"
    objective: float = float("nan")
    gap: float = float("nan")
    # the gradient stacks (trace pairing) of the last record's iterate, laid
    # out as the iterate: its objective is records[-1].objective and its
    # surrogate gap records[-1].fw_gap. That iterate is the returned one on a
    # "gap" stop, and the one before the last step otherwise.
    grads: list[np.ndarray] = field(default_factory=list)

    @property
    def converged(self) -> bool:
        """Whether a certificate stopped the solve, not the budget."""
        return self.stop != "max_iters"


@dataclass(frozen=True)
class BallProfile:
    """One ambiguity ball per noise term, ordered [x0, w_0.., v_0..]."""

    x0: AmbiguityBall
    w: tuple[AmbiguityBall, ...]
    v: tuple[AmbiguityBall, ...]

    def __post_init__(self):
        if not (isinstance(self.w, Sequence) and isinstance(self.v, Sequence)
                and all(isinstance(ball, AmbiguityBall) for ball in self.blocks())):
            raise InvalidInputError("a BallProfile holds an AmbiguityBall x0 and sequences w "
                                    "and v of AmbiguityBalls")

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
    """Zero-mean nominal noise model with one ambiguity radius for every noise
    term; a BallProfile built directly sets radii block by block."""

    kind: DivergenceKind
    X0: np.ndarray
    W: np.ndarray  # (T, n, n)
    V: np.ndarray  # (T, p, p)
    rho: float

    def nominal_profile(self) -> CovarianceProfile:
        return CovarianceProfile(X0=self.X0, W=self.W, V=self.V)

    def ball_profile(self) -> BallProfile:
        """One ball of radius rho about each nominal block. It checks what
        building each block's ball alone would, rho once and each rule once
        per stack, [X0; W] and V (divergences._zero_mean_balls). A block's
        error names the first failing one, as in "W[3]: " followed by the
        message of its ball alone; a misshaped X0, W or V, or W blocks of
        another size than X0, fail before any block is checked."""
        _check_fields(self.kind, self.rho, 0.0, None)
        rho = float(self.rho)
        X0, W, V = (_float_array(getattr(self, a), a) for a in ("X0", "W", "V"))
        for name, shape in (("X0", X0.shape), ("W[0]", W.shape[1:]), ("V[0]", V.shape[1:])):
            if len(shape) != 2 or shape[0] != shape[1]:
                raise InvalidInputError(f"{name}: second moment must be square, got shape {shape}")
        if W.shape[1:] != X0.shape:
            raise InvalidInputError(f"W blocks must have X0's shape {X0.shape}, got {W.shape[1:]}")
        xw = _zero_mean_balls(self.kind, np.concatenate((X0[None], W)), rho,
                              lambda i: f"W[{i - 1}]" if i else "X0")
        v = _zero_mean_balls(self.kind, V, rho, lambda t: f"V[{t}]")
        return BallProfile(x0=xw[0], w=tuple(xw[1:]), v=tuple(v))


def _profile_plan(balls: BallProfile) -> _Plan:
    """The oracle plan (oracles._plan) of a ball profile's blocks, laid out as
    the stacks [X0; W] and V."""
    return _plan(balls.blocks(), [balls.T + 1, balls.T])


def _stacked(x0: np.ndarray, w: np.ndarray, v: np.ndarray) -> list[np.ndarray]:
    """The finite-horizon blocks as the driver's stacks: [x0; w] of shape
    (T+1, n, n) and v of shape (T, p, p)."""
    return [np.concatenate((x0[None], w)), v]


def _inner(xs: Sequence[np.ndarray], ys: Sequence[np.ndarray]) -> float:
    """sum_z <x_z, y_z> over the blocks of matching stacks, added up block by
    block in block order."""
    return sum(v for x, y in zip(xs, ys) for v in (x * y).sum(axis=(1, 2)).tolist())


def _oracle_pass(plan, grads, current):
    """The surrogate gap sum_z <G_z, Sigma_z* - Sigma_z>, the oracle targets,
    stacked like current, the root-search steps summed over blocks, the
    lockstep rounds summed over groups and the dual gap, the sum of the
    blocks' upper bounds (oracles._Pass.upper), for an oracles._plan. A
    group's search makes one round per step of its slowest block, so its
    rounds are the largest steps of its blocks."""
    found = _run(plan, grads, current)
    diff = [star - S for S, star in zip(current, found.targets)]
    rounds = sum(int(found.steps[group.idx].max()) for group in plan.groups)
    return (_inner(grads, diff), found.targets, int(found.steps.sum()), rounds,
            sum(found.upper.tolist()))


def _step(current, targets, alpha):
    """Convex combination of stacks of exactly symmetric blocks, hence exactly
    symmetric."""
    return [(1.0 - alpha) * c + alpha * t for c, t in zip(current, targets)]


def _backtrack(evaluate, current, targets, objective, gap, alpha_min):
    """Line search exploiting concavity: a trial at alpha gains enough when
    its objective is at least objective + _ARMIJO * alpha * gap. The full
    step is tried first. If it falls short, the second and last trial is the
    maximizer gap / (2 (objective + gap - J(1))) of the concave quadratic
    through J(0) = objective, J'(0) = gap and J(1), which then lies in
    (0, 0.56) and is kept when it gains enough, also below alpha_min;
    otherwise the step falls back to alpha_min = 2/(2+k). At k = 0 alpha_min
    is 1 and nothing is evaluated. Returns (alpha, number of evaluations,
    the accepted trial's stacks and its evaluation); the last two are None
    at the fallback, which is not evaluated."""
    if alpha_min >= 1.0:
        return alpha_min, 0, None, None
    alpha = 1.0
    for trials in (1, 2):
        trial = _step(current, targets, alpha)
        evaluation = evaluate(trial)
        if evaluation[0] >= objective + _ARMIJO * alpha * gap:
            return alpha, trials, trial, evaluation
        alpha = gap / (2.0 * (objective + gap - evaluation[0]))  # read after the first trial only
    return alpha_min, 2, None, None


def maximize(
    evaluate: Callable[[list], tuple[float, Callable[[], list]]],
    plan: _Plan,
    cfg: FwConfig,
) -> tuple[list[np.ndarray], FwTrace]:
    """Maximize a concave function of covariance blocks, one ball per block.

    The iterate is a list of stacks, each a (k, d, d) array of blocks; block
    order runs through the stacks in turn. plan is the oracle pass over the
    blocks' balls (oracles._plan), and the loop starts at its nominals,
    laid out as the iterate (plan.start). The caller plans before it
    evaluates anything, so a ball the oracles reject (one with a nonzero
    nominal mean or no oracle) fails before any work, and each ball's
    nominal is factored once per solve. The nominals lie in their balls by
    construction, so nothing the loop builds from them is checked here.
    evaluate(stacks) returns (objective, grad), where
    grad() returns the gradient stacks (trace pairing), laid out as the
    iterate, from that evaluation's own forward sweep. Each iteration calls grad() of
    its iterate's evaluation; a line-search trial reads only the objective.
    The iterate a line search accepts is its trial's stacks, and the next
    iteration uses that trial's evaluation as it is, so every iterate is
    evaluated once. Iterates move as (1 - alpha) * current + alpha *
    targets, one array expression per stack. By default alpha is 1 if that
    step gains at least 0.1 * alpha * gap in value (Armijo), else the
    maximizer of the concave quadratic through the objective, its slope gap
    at 0 and the value at 1, if that step gains as much, else 2/(2+k)
    (_backtrack); with step_rule="vanishing" it is 2/(2+k).

    The loop stops on one of two certificates, or when the iteration budget
    is exhausted (trace.stop "max_iters"). The concave objective lies below
    its linearization, so each pass bounds the optimum over the balls the
    oracles accept by U = objective + dual_gap (oracles._Pass.upper; the
    balls are those of radius rho + the search's feasibility slack, and
    they hold every iterate). At the top of the next iteration, once the new
    iterate's objective is known and before its gradient or oracle pass
    runs, the loop stops if U - objective <= cfg.gap_tol (stop "bound"):
    the returned iterate is then gap_tol-optimal over those balls, and the
    test costs no evaluation the next iteration would not make anyway.
    After each pass the loop stops if the surrogate gap is at most
    cfg.gap_tol (stop "gap"), which certifies the iterate up to the oracles'
    factor 1/0.95 (oracles._DELTA). Each iteration that runs a gradient and
    an oracle pass is recorded in the trace and, when the "robustlqg"
    logger is enabled for DEBUG, logged in one line; a bound stop logs one
    more line. Returns (final stacks, trace); trace.grads is set once,
    after the loop, to the gradient stacks of the last record's iterate.
    """
    current = list(plan.start)
    trace = FwTrace()
    evaluation = None  # of current, when the line search made it
    upper = np.inf  # the last pass's bound on the optimum, objective + dual_gap
    for k in range(cfg.max_iters):
        t0 = time.perf_counter()
        objective, grad = evaluate(current) if evaluation is None else evaluation
        if upper - objective <= cfg.gap_tol:
            trace.stop = "bound"
            trace.objective, trace.gap = objective, upper - objective
            if log.isEnabledFor(logging.DEBUG):
                log.debug("fw bound stop upper %.12g objective %.12g gap_tol %.6g",
                          upper, objective, cfg.gap_tol)
            break
        grads = grad()
        t_oracle = time.perf_counter()
        gap, targets, steps, rounds, dual_gap = _oracle_pass(plan, grads, current)
        upper = objective + dual_gap
        t_ls = time.perf_counter()
        trials, ls_s, evaluation = 0, 0.0, None
        if gap <= cfg.gap_tol:
            alpha = 0.0
            trace.stop = "gap"
            trace.objective, trace.gap = objective, gap
        else:
            alpha, trial = 2.0 / (2.0 + k), None
            if cfg.step_rule == "line_search":
                alpha, trials, trial, evaluation = _backtrack(
                    evaluate, current, targets, objective, gap, alpha
                )
                ls_s = time.perf_counter() - t_ls
            current = _step(current, targets, alpha) if trial is None else trial
        record = FwRecord(
            k, objective, gap, dual_gap, alpha, (time.perf_counter() - t0) * 1e3,
            t_ls - t_oracle, steps, rounds, trials, t_oracle - t0, ls_s,
        )
        trace.records.append(record)
        if log.isEnabledFor(logging.DEBUG):
            log.debug(
                "fw iter %d objective %.12g gap %.6g dual_gap %.6g step %.6g oracle_s %.6f "
                "oracle_steps %d ls_trials %d",
                k, objective, gap, dual_gap, alpha, record.oracle_s, steps, trials,
            )
        if trace.converged:
            break
    trace.grads = grads
    return current, trace


def solve(
    sys: SystemInstance,
    balls: BallProfile,
    cfg: FwConfig = FwConfig(),
) -> tuple[CovarianceProfile, FwTrace]:
    """Run Frank-Wolfe on the finite-horizon LQG value; returns (worst-case
    profile, trace). The profile is the returned iterate, at
    trace.objective and certified to trace.gap; trace.stop says which
    certificate stopped the loop (maximize). The ball profile's horizon (the
    number of w and of v balls) and block sizes are checked against sys,
    then the balls are planned
    (_profile_plan), so a mismatched profile or a ball the oracles reject
    fails before anything is evaluated. The loop starts at the nominal
    covariances, which lie in every ball by construction and are not
    checked. The Riccati sweep P does not depend on the noise, so it runs
    once here. An evaluation is one forward Kalman sweep and the cost
    formula, and its grad() the adjoint sweep of that forward sweep
    (gradient._adjoint); an accepted line-search trial's evaluation serves
    the next iteration, so each iterate's forward sweep runs once."""
    if not isinstance(balls, BallProfile):
        raise InvalidInputError(f"balls must be a BallProfile, got {type(balls).__name__} "
                                "(NominalModel.ball_profile builds one)")
    if not isinstance(cfg, FwConfig):
        raise InvalidInputError(f"cfg must be an FwConfig, got {type(cfg).__name__}")
    if balls.T != sys.T or len(balls.v) != sys.T:
        raise InvalidInputError("ball profile horizon mismatch")
    if any(b.nominal.dim != sys.n for b in (balls.x0, *balls.w)) or any(
            b.nominal.dim != sys.p for b in balls.v):
        raise InvalidInputError(f"ball profile block size mismatch: x0 and w blocks must be "
                                f"{sys.n} x {sys.n}, v blocks {sys.p} x {sys.p}")
    plan = _profile_plan(balls)
    # module lookups at call time, so rebinding lqg.riccati_backward or
    # lqg.kalman_forward is seen
    P, _ = lqg.riccati_backward(sys)

    def evaluate(stacks):
        xw, v = stacks
        sweep = lqg.kalman_forward(sys, CovarianceProfile._of(xw[0], xw[1:], v))

        def grad():
            return _adjoint(sys, P, sweep)

        return lqg._lqg_cost(sys, P, sweep[0], sweep[1]), grad

    (xw, v), trace = maximize(evaluate, plan, cfg)
    return CovarianceProfile(X0=xw[0], W=xw[1:], V=v), trace
