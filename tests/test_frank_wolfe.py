import csv
import dataclasses
import io
import typing

import numpy as np
import pytest

from robustlqg.divergences import AmbiguityBall, DivergenceKind, MomentPair, membership
from robustlqg.errors import InvalidInputError
from robustlqg.experiments import _trace_csv_text
from robustlqg.frank_wolfe import BallProfile, FwConfig, FwRecord, NominalModel, solve
from robustlqg.gradient import lqg_gradient
from robustlqg.instances import generate_instance
from robustlqg.lqg import CovarianceProfile, lqg_value

from conftest import accepted_line_searches, counting, rand_profile, rand_system
from reference import fw_gap


def _model(rng, sys, kind, rho):
    cov = rand_profile(rng, sys, lo=1.0, hi=2.0)
    return NominalModel(kind, cov.X0, cov.W, cov.V, rho)


def test_zero_radius_returns_nominal_in_one_iteration():
    rng = np.random.default_rng(0)
    sys = rand_system(rng, n=2, m=2, p=2, T=3)
    model = _model(rng, sys, DivergenceKind.WASSERSTEIN2, 0.0)
    worst, trace = solve(sys, model.ball_profile(), cfg=FwConfig(max_iters=50))
    assert trace.converged and len(trace.records) == 1
    for got, want in zip(worst.blocks(), model.nominal_profile().blocks()):
        assert np.linalg.norm(got - want, "fro") <= 1e-12


def test_scalar_t1_matches_two_dimensional_grid():
    # the X0 ball has radius 0 so the maximization is over (W0, V0) only; f
    # evaluated in closed form on the grid (T = 1 scalar LQG)
    eye = np.eye(1)
    from robustlqg.lqg import SystemInstance

    sys = SystemInstance.time_invariant(eye, eye, eye, eye, eye, T=1)
    rho = 0.6

    def ball(radius):
        return AmbiguityBall(DivergenceKind.WASSERSTEIN2, MomentPair.zero_mean(eye), radius)

    balls = BallProfile(x0=ball(0.0), w=(ball(rho),), v=(ball(rho),))
    worst, trace = solve(sys, balls, cfg=FwConfig(max_iters=400, gap_tol=1e-9))
    assert trace.converged
    f_fw = lqg_value(sys, worst).cost

    # closed-form scalar objective on a refining grid over the two balls
    p1, p0 = 1.0, 1.5  # Riccati values for the unit scalar instance
    x0 = 1.0

    def f(w, v):
        sig0 = x0 - x0**2 / (x0 + v)
        return (1.0 - p0) * sig0 + p1 * (sig0 + w) + p0 * x0

    lo_w, hi_w = 1e-6, (1 + rho) ** 2
    lo_v, hi_v = 1e-6, (1 + rho) ** 2
    best = -np.inf
    for _ in range(6):
        ws = np.linspace(lo_w, hi_w, 201)
        vs = np.linspace(lo_v, hi_v, 201)
        Wg, Vg = np.meshgrid(ws, vs, indexing="ij")
        feas = (np.abs(np.sqrt(Wg) - 1.0) <= rho) & (np.abs(np.sqrt(Vg) - 1.0) <= rho)
        vals = np.where(feas, f(Wg, Vg), -np.inf)
        idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
        best = max(best, float(vals[idx]))
        dw, dv = ws[1] - ws[0], vs[1] - vs[0]
        lo_w, hi_w = max(lo_w, ws[idx[0]] - 2 * dw), min(hi_w, ws[idx[0]] + 2 * dw)
        lo_v, hi_v = max(lo_v, vs[idx[1]] - 2 * dv), min(hi_v, vs[idx[1]] + 2 * dv)
    assert f_fw == pytest.approx(best, abs=1e-4)


def test_gap_upper_bound_property():
    # one-point spot check: gap at the current iterate bounds the improvement
    # of the full step toward the targets
    rng = np.random.default_rng(1)
    sys, model = generate_instance(3, 3, seed=4, kind=DivergenceKind.WASSERSTEIN2, rho=0.4)
    balls = model.ball_profile()
    current = balls.nominal_profile()
    gap, targets = fw_gap(sys, balls, current)
    f_cur = lqg_value(sys, current).cost
    f_step = lqg_value(sys, targets).cost
    assert gap >= f_step - f_cur - 1e-9
    assert gap >= -1e-9


def test_gap_near_zero_at_maximizer():
    sys, model = generate_instance(2, 2, seed=1, kind=DivergenceKind.WASSERSTEIN2, rho=0.0)
    balls = model.ball_profile()
    gap, _ = fw_gap(sys, balls, balls.nominal_profile())
    assert abs(gap) <= 1e-10


def test_trace_gap_decreases_below_tol():
    sys, model = generate_instance(1, 1, seed=2, kind=DivergenceKind.WASSERSTEIN2, rho=0.5)
    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(max_iters=300, gap_tol=1e-6))
    gaps = [r.fw_gap for r in trace.records]
    assert trace.converged
    assert all(g > 1e-6 for g in gaps[:-1])
    assert gaps[-1] <= 1e-6


def test_iterates_stay_feasible_and_near_monotone():
    sys, model = generate_instance(4, 4, seed=3, kind=DivergenceKind.KULLBACK_LEIBLER, rho=0.3)
    balls = model.ball_profile()
    ball_list = balls.blocks()
    current = balls.nominal_profile()
    objectives = []
    for k in range(25):
        gap, targets = fw_gap(sys, balls, current)
        objectives.append(lqg_value(sys, current).cost)
        alpha = 2.0 / (2.0 + k)
        blocks = [
            (1 - alpha) * c + alpha * t
            for c, t in zip(current.blocks(), targets.blocks())
        ]
        current = CovarianceProfile.from_blocks(blocks, sys.T)
        for ball, blk in zip(ball_list, current.blocks()):
            assert membership(ball, MomentPair.zero_mean(blk), 1e-8)
    drops = sum(1 for a, b in zip(objectives, objectives[1:]) if b < a - 1e-9)
    assert drops <= max(1, int(0.1 * len(objectives)))


def test_sublinear_gap_trend():
    # median over seeds of gap(2k)/gap(k) stays below 0.75
    ratios = []
    for seed in range(10):
        sys, model = generate_instance(3, 3, seed=seed, kind=DivergenceKind.WASSERSTEIN2, rho=0.5)
        balls = model.ball_profile()
        current = balls.nominal_profile()
        gaps = {}
        for k in range(21):
            gap, targets = fw_gap(sys, balls, current)
            gaps[k] = gap
            alpha = 2.0 / (2.0 + k)
            blocks = [
                (1 - alpha) * c + alpha * t
                for c, t in zip(current.blocks(), targets.blocks())
            ]
            current = CovarianceProfile.from_blocks(blocks, sys.T)
        ratios.append(gaps[20] / gaps[10])
    assert np.median(ratios) <= 0.75


def test_kl_dominance_at_convergence():
    # the KL oracle map provably inflates the nominal, so every converged
    # block dominates
    for seed in range(3):
        sys, model = generate_instance(3, 3, seed=seed, kind=DivergenceKind.KULLBACK_LEIBLER, rho=0.4)
        worst, trace = solve(sys, model.ball_profile(), cfg=FwConfig(max_iters=300, gap_tol=1e-5))
        assert trace.converged
        for got, want in zip(worst.blocks(), model.nominal_profile().blocks()):
            assert np.linalg.eigvalsh(got - want).min() >= -1e-7


def test_horizon_mismatch_rejected_before_evaluation(monkeypatch):
    from robustlqg import frank_wolfe, lqg

    def never(*args):
        raise AssertionError("evaluated a mismatched profile")

    monkeypatch.setattr(lqg, "riccati_backward", never)
    monkeypatch.setattr(lqg, "kalman_forward", never)
    monkeypatch.setattr(frank_wolfe, "_adjoint", never)
    # a profile of another horizon, one with a V ball too few, one of d = 3
    # blocks on a d = 2 system, and one with d-sized V balls on a system
    # observing p = 1 < d outputs
    sys3, model3 = generate_instance(2, 3, seed=0, kind=DivergenceKind.WASSERSTEIN2, rho=0.1)
    _, model2 = generate_instance(2, 2, seed=0, kind=DivergenceKind.WASSERSTEIN2, rho=0.1)
    _, wide = generate_instance(3, 3, seed=0, kind=DivergenceKind.WASSERSTEIN2, rho=0.1)
    observed = dataclasses.replace(sys3, C=sys3.C[:, :1])
    short = model3.ball_profile()
    short = dataclasses.replace(short, v=short.v[:2])
    for sys, balls, match in ((sys3, model2.ball_profile(), "horizon mismatch"),
                              (sys3, short, "horizon mismatch"),
                              (sys3, wide.ball_profile(), "block size mismatch"),
                              (observed, model3.ball_profile(), "block size mismatch")):
        with pytest.raises(InvalidInputError, match=match):
            solve(sys, balls)


def test_default_solve_makes_no_membership_call(monkeypatch):
    # the nominal start lies in every ball by construction and is not checked
    from robustlqg import divergences, frank_wolfe

    calls = []

    def counting(inner):
        def wrapped(*args):
            calls.append(1)
            return inner(*args)
        return wrapped

    monkeypatch.setattr(frank_wolfe, "membership", counting(frank_wolfe.membership))
    monkeypatch.setattr(divergences, "membership", counting(divergences.membership))
    for kind in (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER,
                 DivergenceKind.FISHER):
        sys, model = generate_instance(3, 4, seed=0, kind=kind, rho=0.5)
        _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-4))
        assert trace.converged
    assert not calls


def test_line_search_step_rule_converges():
    sys, model = generate_instance(2, 2, seed=7, kind=DivergenceKind.WASSERSTEIN2, rho=0.4)
    worst, trace = solve(
        sys, model.ball_profile(), cfg=FwConfig(step_rule="line_search", gap_tol=1e-5)
    )
    assert trace.converged


def test_trace_csv_schema_and_roundtrip():
    # one column per FwRecord field, each written by repr: every record
    # reads back equal
    sys, model = generate_instance(2, 2, seed=8, kind=DivergenceKind.KULLBACK_LEIBLER, rho=0.2)
    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-6))
    reader = csv.DictReader(io.StringIO(_trace_csv_text(trace)))
    types = typing.get_type_hints(FwRecord)
    assert reader.fieldnames == [f.name for f in dataclasses.fields(FwRecord)] == list(types)
    rebuilt = [FwRecord(**{name: types[name](value) for name, value in row.items()})
               for row in reader]
    assert len(rebuilt) > 1 and rebuilt == trace.records


def test_config_validation():
    with pytest.raises(InvalidInputError):
        FwConfig(gap_tol=0.0)
    for gap_tol in (float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            FwConfig(gap_tol=gap_tol)
    for max_iters in (0, -3):
        with pytest.raises(InvalidInputError):
            FwConfig(max_iters=max_iters)
    with pytest.raises(InvalidInputError):
        FwConfig(step_rule="bogus")


def test_saddle_point_identity_end_to_end():
    # at the converged pair, the worst case of the robust policy (one oracle
    # pass on its fixed-policy cost coefficients, the adjoint gradient at the
    # worst case) equals the maximized LQG value: the pipeline agrees with itself
    from robustlqg.experiments import policy_worst_case_cost

    for kind in (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER):
        sys, model = generate_instance(2, 3, seed=0, kind=kind, rho=0.4)
        balls = model.ball_profile()
        worst, trace = solve(sys, balls, cfg=FwConfig(max_iters=2000, gap_tol=1e-8))
        assert trace.converged
        fw_value = lqg_value(sys, worst).cost
        wc, _ = policy_worst_case_cost(lqg_gradient(sys, worst)[1], balls)
        assert wc == pytest.approx(fw_value, rel=1e-5)


def test_fisher_frank_wolfe_converges_with_dominance():
    sys, model = generate_instance(3, 3, seed=11, kind=DivergenceKind.FISHER, rho=0.5)
    worst, trace = solve(sys, model.ball_profile(), cfg=FwConfig(max_iters=500, gap_tol=1e-5))
    assert trace.converged
    for got, want in zip(worst.blocks(), model.nominal_profile().blocks()):
        assert np.linalg.eigvalsh(got - want).min() >= -1e-7


def _rejected_before_any_sweep(monkeypatch, sys, balls, match):
    """Both horizons reject balls, a BallProfile on a system of 2 states and
    outputs, with UnsupportedDivergenceError matching match, when they plan
    and so before any sweep: no Riccati or Kalman sweep, adjoint, DARE or
    filter ARE runs. The stationary solve takes the W[0] and V[0] balls."""
    from robustlqg import frank_wolfe, lqg, stationary
    from robustlqg.errors import UnsupportedDivergenceError

    calls = [counting(monkeypatch, module, name) for module, name in (
        (lqg, "riccati_backward"), (lqg, "kalman_forward"), (frank_wolfe, "_adjoint"),
        (stationary, "solve_dare"), (stationary, "solve_filter_are"),
    )]
    eye = np.eye(2)
    ss = stationary.StationarySystem(A=0.5 * eye, B=eye, C=eye, Q=eye, R=eye)
    with pytest.raises(UnsupportedDivergenceError, match=match):
        solve(sys, balls, cfg=FwConfig(max_iters=5))
    with pytest.raises(UnsupportedDivergenceError, match=match):
        stationary.solve_stationary_fw(ss, balls.w[0], balls.v[0])
    assert calls == [[]] * 5


def test_entropic_model_supports_membership_but_not_solving(monkeypatch):
    sys, model = generate_instance(2, 2, seed=12)
    nominal = model.nominal_profile()

    def ball(cov):
        return AmbiguityBall(kind=DivergenceKind.ENTROPIC_OT, nominal=MomentPair.zero_mean(cov),
                             radius=1.0, eps=0.05)

    balls = BallProfile(x0=ball(nominal.X0), w=tuple(map(ball, nominal.W)),
                        v=tuple(map(ball, nominal.V)))
    for ball, blk in zip(balls.blocks(), nominal.blocks()):
        assert membership(ball, MomentPair.zero_mean(blk + 0.01 * np.eye(2)))
    _rejected_before_any_sweep(monkeypatch, sys, balls,
                               "no linearization oracle for divergence kind 'entropic_ot'")


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("step_rule", ["vanishing", "line_search"])
@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER]
)
def test_rectangular_system_converges_inside_balls(kind, step_rule, p):
    # n = 3 states, m = 2 inputs, p < n outputs
    rng = np.random.default_rng(40 + p)
    sys = rand_system(rng, n=3, m=2, p=p, T=3)
    balls = _model(rng, sys, kind, 0.3).ball_profile()
    worst, trace = solve(sys, balls, cfg=FwConfig(gap_tol=1e-5, step_rule=step_rule))
    assert trace.converged
    for ball, block in zip(balls.blocks(), worst.blocks()):
        assert membership(ball, MomentPair.zero_mean(block), 1e-8)


def test_trace_records_carry_oracle_cost():
    from robustlqg.gradient import lqg_gradient
    from robustlqg.oracles import oracle_pass

    sys, model = generate_instance(3, 3, seed=9, kind=DivergenceKind.KULLBACK_LEIBLER, rho=0.3)
    balls = model.ball_profile()
    _, trace = solve(sys, balls)
    for rec in trace.records:
        assert 0.0 < rec.oracle_s <= rec.wall_ms / 1e3
        assert rec.oracle_steps > 0
    # the first pass runs at the nominal: its steps are the blocks' own counts
    nominal = balls.nominal_profile()
    grads = lqg_gradient(sys, nominal)[1].blocks()
    results = oracle_pass(balls.blocks(), grads, nominal.blocks())
    assert trace.records[0].oracle_steps == sum(r.steps for r in results)


def _frobenius(candidate, nominal):
    return float(np.linalg.norm(candidate.second_moment - nominal.second_moment, "fro"))


def _frobenius_linearization(gradient, nominal, rho, reference):
    # <G, Sigma> over ||Sigma - Shat||_F <= rho is maximized along G itself
    norm = np.linalg.norm(gradient, "fro")
    return nominal.cov + (rho / norm) * gradient if norm > 0.0 else nominal.cov


def _custom_balls(sys, handle, rho):
    cov = rand_profile(np.random.default_rng(3), sys, lo=1.0, hi=2.0)

    def ball(S):
        return AmbiguityBall(kind=DivergenceKind.MOMENT_CUSTOM, nominal=MomentPair.zero_mean(S),
                             radius=rho, custom=handle)

    return BallProfile(x0=ball(cov.X0), w=tuple(ball(S) for S in cov.W),
                       v=tuple(ball(S) for S in cov.V))


def _frobenius_handle(linearization):
    from robustlqg.divergences import CustomDivergence

    return CustomDivergence(name="frobenius", evaluate=_frobenius, linearization=linearization,
                            nominal=MomentPair.zero_mean(np.eye(2)), rho=0.5)


def test_custom_divergence_solves_inside_its_balls():
    # a custom linearization has no dual, so each custom block's upper bound
    # is the primal value of its target, taken as exact: over custom balls
    # alone the dual gap is the surrogate gap
    sys = rand_system(np.random.default_rng(2), n=2, m=2, p=2, T=3)
    balls = _custom_balls(sys, _frobenius_handle(_frobenius_linearization), 0.4)
    worst, trace = solve(sys, balls, cfg=FwConfig(gap_tol=1e-6, step_rule="line_search"))
    assert trace.converged and trace.gap <= 1e-6 and len(trace.records) > 2
    assert trace.records[-1].objective > trace.records[0].objective
    for rec in trace.records:
        assert rec.dual_gap == pytest.approx(rec.fw_gap, rel=1e-12, abs=1e-12)
    assert trace.objective == pytest.approx(lqg_value(sys, worst).cost, rel=1e-12)
    for ball, block in zip(balls.blocks(), worst.blocks()):
        assert membership(ball, MomentPair.zero_mean(block), 1e-8)


def test_mixed_kind_targets_match_the_public_pass_block_by_block(monkeypatch):
    # W2 on X0 and W, KL on V with p != n, and a custom Frobenius ball on
    # W[1]: the W2 group takes only some rows of the [X0; W] stack, so that
    # stack's targets are assembled row by row, while the KL group fills the
    # V stack whole. Each iteration's targets must be oracle_pass on that
    # iteration's gradients and iterate, block by block and bit for bit.
    from robustlqg import frank_wolfe
    from robustlqg.oracles import oracle_pass

    handle = _frobenius_handle(_frobenius_linearization)
    rng = np.random.default_rng(5)
    sys = rand_system(rng, n=3, m=2, p=2, T=4)
    cov = rand_profile(rng, sys, lo=1.0, hi=2.0)

    def ball(kind, S, custom=None):
        return AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(S), radius=0.3,
                             custom=custom)

    w = [ball(DivergenceKind.WASSERSTEIN2, S) for S in cov.W]
    w[1] = ball(DivergenceKind.MOMENT_CUSTOM, cov.W[1], handle)
    balls = BallProfile(x0=ball(DivergenceKind.WASSERSTEIN2, cov.X0), w=tuple(w),
                        v=tuple(ball(DivergenceKind.KULLBACK_LEIBLER, S) for S in cov.V))

    passes = []
    inner = frank_wolfe._oracle_pass

    def recording(plan, grads, current):
        out = inner(plan, grads, current)
        passes.append((grads, current, out[1]))
        return out

    monkeypatch.setattr(frank_wolfe, "_oracle_pass", recording)
    worst, trace = solve(sys, balls, cfg=FwConfig(gap_tol=1e-6))
    assert trace.converged and len(passes) == len(trace.records) > 2

    def flat(stacks):
        return [S for stack in stacks for S in stack]

    for grads, current, targets in passes:
        want = oracle_pass(balls.blocks(), flat(grads), flat(current))
        assert len(flat(targets)) == len(want) == 2 * sys.T + 1
        for got, res in zip(flat(targets), want):
            assert np.array_equal(got, res.sigma_star)
    for b, block in zip(balls.blocks(), worst.blocks()):
        assert membership(b, MomentPair.zero_mean(block), 1e-8)


def test_oracle_rounds_count_the_lockstep_rounds_of_each_pass(monkeypatch):
    # five groups: W2 on X0 and V[0], KL and Fisher on alternate W[t], Fisher
    # on the other V[t] with p != n. Each round of a group's search makes one
    # divergence call, so a record's oracle_rounds is the number of calls
    # its pass makes, and the sum over groups of their blocks' largest steps
    from robustlqg import frank_wolfe, oracles
    from robustlqg.oracles import oracle_pass

    W2, KL, FISHER = (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER,
                      DivergenceKind.FISHER)
    rng = np.random.default_rng(8)
    sys = rand_system(rng, n=3, m=2, p=2, T=4)
    cov = rand_profile(rng, sys, lo=1.0, hi=2.0)

    def ball(kind, S):
        return AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(S), radius=0.4)

    balls = BallProfile(
        x0=ball(W2, cov.X0), w=tuple(ball((KL, FISHER)[t % 2], S) for t, S in enumerate(cov.W)),
        v=tuple(ball(W2 if t == 0 else FISHER, S) for t, S in enumerate(cov.V)),
    )
    calls = [counting(monkeypatch, oracles, name)
             for name in ("_w2_divergence", "_kl_divergence", "_pencil")]
    passes = []
    inner = frank_wolfe._oracle_pass

    def recording(plan, grads, current):
        before = sum(map(len, calls))
        out = inner(plan, grads, current)
        passes.append((grads, current, sum(map(len, calls)) - before))
        return out

    monkeypatch.setattr(frank_wolfe, "_oracle_pass", recording)
    _, trace = solve(sys, balls, cfg=FwConfig(gap_tol=1e-6))
    assert trace.converged and len(passes) == len(trace.records) > 2

    def flat(stacks):
        return [S for stack in stacks for S in stack]

    for rec, (grads, current, made) in zip(trace.records, passes):
        results = oracle_pass(balls.blocks(), flat(grads), flat(current))
        largest = {}
        for b, res in zip(balls.blocks(), results):
            key = (b.kind, b.nominal.dim)
            largest[key] = max(largest.get(key, 0), res.steps)
        assert len(largest) == 5
        assert rec.oracle_rounds == made == sum(largest.values())
        assert rec.oracle_rounds < rec.oracle_steps


def test_solves_build_no_oracle_results(monkeypatch):
    # the loop keeps its iterate, gradients and targets stacked: OracleResult
    # objects are for the public oracle wrappers only, and a solve builds its
    # profile from the blocks list at most once, for its return value
    from robustlqg import oracles
    from robustlqg.stationary import StationarySystem, solve_stationary_fw

    results = counting(monkeypatch, oracles, "OracleResult")
    profiles = counting(monkeypatch, CovarianceProfile, "from_blocks")
    sys, model = generate_instance(3, 4, seed=1, kind=DivergenceKind.KULLBACK_LEIBLER, rho=1.0)
    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-6))
    assert len(trace.records) > 2
    assert results == [] and len(profiles) <= 1

    eye = np.eye(3)
    ss = StationarySystem(A=sys.A[0], B=eye, C=eye, Q=eye, R=eye)
    b_w, b_v = (AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(S),
                              radius=0.5) for S in (model.W[0], model.V[0]))
    _, _, trace = solve_stationary_fw(ss, b_w, b_v, FwConfig(gap_tol=1e-6))
    assert len(trace.records) > 2
    assert results == []


def test_custom_divergence_without_linearization_is_unsupported(monkeypatch):
    sys = rand_system(np.random.default_rng(2), n=2, m=2, p=2, T=3)
    _rejected_before_any_sweep(monkeypatch, sys, _custom_balls(sys, _frobenius_handle(None), 0.4),
                               "divergence 'frobenius' has no linearization oracle")


def test_default_step_rule_is_line_search():
    assert FwConfig().step_rule == "line_search"


def _hard_system(d, T):
    # the bench "hard" dynamics: near-unstable A (spectral radius 0.95), B = C = Q = R = I
    from robustlqg.lqg import SystemInstance
    from robustlqg.matops import spectral_radius

    A = 0.95 * np.eye(d) + 0.3 * np.diag(np.ones(d - 1), 1)
    A *= 0.95 / spectral_radius(A)
    eye = np.eye(d)
    return SystemInstance.time_invariant(A, eye, eye, eye, eye, T=T)


@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER]
)
def test_default_line_search_matches_vanishing_in_half_the_iterations(kind):
    sys = _hard_system(3, 6)
    _, model = generate_instance(3, 6, seed=0, kind=kind, rho=1.0)
    balls = model.ball_profile()
    gap_tol = 1e-4
    worst, trace = solve(sys, balls, cfg=FwConfig(gap_tol=gap_tol))
    worst_v, trace_v = solve(sys, balls, cfg=FwConfig(gap_tol=gap_tol, step_rule="vanishing"))
    assert trace.converged and trace_v.converged
    # each run is within gap_tol / 0.95 (the oracles' fixed delta) of the maximum
    assert lqg_value(sys, worst).cost == pytest.approx(
        lqg_value(sys, worst_v).cost, abs=gap_tol / 0.95
    )
    assert len(trace.records) <= len(trace_v.records) / 2


@pytest.mark.parametrize("step_rule", ["vanishing", "line_search"])
def test_riccati_sweep_runs_once_per_solve(monkeypatch, step_rule):
    from robustlqg import lqg

    calls = []
    inner = lqg.riccati_backward

    def counting(sys):
        calls.append(sys)
        return inner(sys)

    monkeypatch.setattr(lqg, "riccati_backward", counting)
    sys = _hard_system(3, 4)
    _, model = generate_instance(3, 4, seed=1, kind=DivergenceKind.KULLBACK_LEIBLER, rho=1.0)
    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-4, step_rule=step_rule))
    assert len(trace.records) > 2
    assert len(calls) == 1


@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER]
)
def test_ls_trials_count_the_line_search_evaluations(monkeypatch, kind):
    # one forward sweep per iterate and per line-search trial, except that
    # the iterate an accepted trial lands on reuses that trial's sweep; a
    # bound stop evaluates the iterate it returns and runs no adjoint; one
    # adjoint sweep per iteration
    from robustlqg import frank_wolfe, lqg

    sweeps = counting(monkeypatch, lqg, "kalman_forward")
    adjoints = counting(monkeypatch, frank_wolfe, "_adjoint")
    sys = _hard_system(3, 6)
    _, model = generate_instance(3, 6, seed=0, kind=kind, rho=1.0)
    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-4))
    trials = sum(r.ls_trials for r in trace.records)
    accepted = accepted_line_searches(trace)
    assert trace.converged and trace.records[0].ls_trials == 0
    assert trials > accepted > 0
    bound = trace.stop == "bound"
    assert len(sweeps) == len(trace.records) + bound + trials - accepted
    assert len(adjoints) == len(trace.records)

    sweeps.clear()
    adjoints.clear()
    _, trace = solve(sys, model.ball_profile(),
                     cfg=FwConfig(gap_tol=1e-4, step_rule="vanishing"))
    assert trace.converged and all(r.ls_trials == 0 for r in trace.records)
    assert len(sweeps) == len(trace.records) + (trace.stop == "bound")
    assert len(adjoints) == len(trace.records)


@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER]
)
def test_every_iteration_evaluates_its_own_iterate(monkeypatch, kind):
    # an iterate reached by an accepted line-search trial keeps that trial's
    # evaluation; its objective and the gradients the oracle pass sees must
    # still be lqg_gradient at that iterate, bit for bit, not a stale one
    from robustlqg import frank_wolfe
    from robustlqg.gradient import lqg_gradient

    passes = counting(monkeypatch, frank_wolfe, "_oracle_pass")
    sys = _hard_system(3, 5)
    _, model = generate_instance(3, 5, seed=2, kind=kind, rho=1.0)
    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-4))
    assert trace.converged and accepted_line_searches(trace) > 0
    assert len(passes) == len(trace.records)
    for rec, (_, grads, (xw, v)) in zip(trace.records, passes):
        value, grad = lqg_gradient(sys, CovarianceProfile(X0=xw[0], W=xw[1:], V=v))
        assert rec.objective == value
        assert np.array_equal(grads[0][0], grad.dX0) and np.array_equal(grads[0][1:], grad.dW)
        assert np.array_equal(grads[1], grad.dV)


@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER]
)
def test_nominal_factors_formed_once_per_group_per_solve(monkeypatch, kind):
    # n = 3 and p = 2 make two (kind, size) groups: [X0, W..] and [V..]
    from robustlqg import oracles

    calls = counting(monkeypatch, oracles, "_nominal_factors")
    rng = np.random.default_rng(3)
    sys = rand_system(rng, n=3, m=2, p=2, T=4)
    model = _model(rng, sys, kind, 1.0)
    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-6))
    assert len(trace.records) > 2
    assert [(k, nominal.shape) for k, nominal in calls] == [(kind, (5, 3, 3)), (kind, (4, 2, 2))]


@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER]
)
def test_phase_times_account_for_the_iteration_wall_time(kind):
    # gradient, oracle pass and line search are the whole iteration; what is
    # left (the convex step, the record) stays under 5% of the wall time. A
    # gap stop's last record takes no step and runs no line search; a bound
    # stop's last record steps to the returned iterate
    sys, model = generate_instance(10, 10, seed=0, kind=kind, rho=0.1)
    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-4))
    wall = sum(r.wall_ms for r in trace.records) / 1e3
    phases = sum(r.oracle_s + r.grad_s + r.ls_s for r in trace.records)
    assert phases <= wall and phases >= 0.95 * wall
    for rec in trace.records:
        assert rec.grad_s > 0.0 and rec.oracle_s > 0.0
        assert rec.ls_s > 0.0 if rec.ls_trials else rec.ls_s < 1e-3
    last = trace.records[-1]
    assert trace.converged and trace.stop in ("gap", "bound")
    if trace.stop == "gap":
        assert last.ls_s == 0.0 and last.step_size == 0.0
    else:
        assert last.step_size > 0.0


def test_iterations_log_at_debug_only(caplog, monkeypatch):
    import logging

    from robustlqg import frank_wolfe

    # seed 9 stops on the surrogate gap, seed 7 on the upper bound
    for seed, stop in ((9, "gap"), (7, "bound")):
        sys, model = generate_instance(3, 3, seed=seed, kind=DivergenceKind.KULLBACK_LEIBLER,
                                       rho=0.3)
        balls = model.ball_profile()
        # off by default, and the guard skips the call altogether, also for
        # the line of a bound stop
        monkeypatch.setattr(frank_wolfe.log, "debug", lambda *a, **k: pytest.fail("logged"))
        _, trace = solve(sys, balls)
        assert trace.stop == stop
        assert not [r for r in caplog.records if r.name == "robustlqg"]
        monkeypatch.undo()

        caplog.clear()
        caplog.set_level(logging.DEBUG, logger="robustlqg")
        _, trace = solve(sys, balls)
        caplog.set_level(logging.WARNING, logger="robustlqg")
        lines = [r for r in caplog.records if r.name == "robustlqg"]
        assert len(lines) == len(trace.records) + (stop == "bound")
        for rec, line in zip(trace.records, lines):
            assert line.levelno == logging.DEBUG
            msg = line.getMessage()
            assert msg.startswith(f"fw iter {rec.iter} objective {rec.objective:.12g} "
                                  f"gap {rec.fw_gap:.6g} dual_gap {rec.dual_gap:.6g} ")
            assert f"oracle_steps {rec.oracle_steps} ls_trials {rec.ls_trials}" in msg
        if stop == "bound":
            # the last pass's upper bound, the returned objective, the tolerance
            last = trace.records[-1]
            assert lines[-1].levelno == logging.DEBUG
            assert lines[-1].getMessage() == (
                f"fw bound stop upper {last.objective + last.dual_gap:.12g} "
                f"objective {trace.objective:.12g} gap_tol {1e-3:.6g}")
        caplog.clear()


@pytest.mark.parametrize("kind", [DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER])
def test_kl_and_fisher_worst_cases_dominate_their_nominals(kind):
    # the paper's Loewner inflation, for the divergences where it provably
    # holds: the KL and Fisher oracle maps (Shat^{-1} - Gamma/g)^{-1} and
    # (Shat^{-2} - Gamma/g)^{-1/2} dominate Shat for psd Gamma, so every FW
    # iterate, a convex combination of them and the nominal, does too. The
    # threshold is acceptance criterion 4's; W2 fails it (README "Known
    # limitation")
    lmin = []
    for seed in range(10):
        sys, model = generate_instance(10, 10, seed, kind=kind, rho=0.1)
        worst, trace = solve(sys, model.ball_profile())
        assert trace.converged
        lmin += [float(np.linalg.eigvalsh(got - nom).min())
                 for got, nom in zip(worst.blocks(), model.nominal_profile().blocks())]
    assert min(lmin) >= -1e-7


@pytest.mark.parametrize("max_iters", [1, 500])
def test_trace_keeps_the_gradients_of_the_last_records_iterate(max_iters):
    # the returned iterate on a gap stop, the one before it on a bound stop;
    # the nominal start when the budget ends after one iteration, whose step
    # the trace never certifies. A budget of len(records) - 1 iterations
    # returns the last record's iterate
    sys = _hard_system(3, 4)
    _, model = generate_instance(3, 4, seed=1, kind=DivergenceKind.KULLBACK_LEIBLER, rho=1.0)
    balls = model.ball_profile()
    worst, trace = solve(sys, balls, cfg=FwConfig(max_iters=max_iters, gap_tol=1e-4))
    assert trace.converged == (max_iters > 1)
    n = len(trace.records)
    at = model.nominal_profile() if n == 1 else solve(
        sys, balls, cfg=FwConfig(max_iters=n - 1, gap_tol=1e-4))[0]
    if trace.stop == "gap":
        assert all(np.array_equal(a, b) for a, b in zip(at.blocks(), worst.blocks()))
    value, grad = lqg_gradient(sys, at)
    assert value == pytest.approx(trace.records[-1].objective, rel=1e-12)
    want = [np.concatenate((grad.dX0[None], grad.dW)), grad.dV]
    assert len(trace.grads) == len(want)
    for got, exp in zip(trace.grads, want):
        np.testing.assert_allclose(got, exp, rtol=1e-12, atol=0.0)


def _segment(J):
    """evaluate for _backtrack on the segment [0, 1] of one 1x1 block, which
    reads alpha off a trial as its entry; returns (evaluate, the alphas
    evaluated, current, targets)."""
    seen = []

    def evaluate(stacks):
        alpha = float(stacks[0][0, 0, 0])
        seen.append(alpha)
        return J(alpha), None

    return evaluate, seen, [np.zeros((1, 1, 1))], [np.ones((1, 1, 1))]


@pytest.mark.parametrize("c_over_gap", [0.0, 0.3, 0.89, 0.91, 1.0, 5.0, 1e3])
def test_backtrack_steps_to_the_quadratic_models_maximizer(c_over_gap):
    # on J(a) = J0 + gap a - c a^2 the full step gains 0.1 gap exactly when
    # c <= 0.9 gap; otherwise the second trial is the maximizer gap / (2c),
    # which gains gap^2 / (4c) >= 0.1 (gap / 2c) gap, also below 2/(2+k)
    from robustlqg.frank_wolfe import _backtrack

    J0, gap = 3.7, 0.25
    c = c_over_gap * gap
    evaluate, seen, current, targets = _segment(lambda a: J0 + gap * a - c * a * a)
    alpha_min = 2.0 / (2.0 + 5)
    alpha, trials, trial, evaluation = _backtrack(evaluate, current, targets, J0, gap, alpha_min)
    if c_over_gap <= 0.9:
        assert (alpha, trials, seen) == (1.0, 1, [1.0])
    else:
        assert trials == 2 and seen[0] == 1.0 and seen[1] == alpha
        assert alpha == pytest.approx(gap / (2.0 * c), rel=1e-12, abs=0.0)
    assert trial[0][0, 0, 0] == alpha and evaluation[0] == J0 + gap * alpha - c * alpha * alpha


def test_backtrack_falls_back_unevaluated_after_two_trials():
    # concave, but all its curvature sits at a = 0.01: the quadratic model's
    # maximizer overshoots and loses value, so the step is 2/(2+k), not evaluated
    from robustlqg.frank_wolfe import _backtrack

    J0, gap = 1.0, 2.0
    evaluate, seen, current, targets = _segment(
        lambda a: J0 + gap * min(a, 0.01) - gap * max(a - 0.01, 0.0))
    alpha_min = 2.0 / (2.0 + 3)
    assert _backtrack(evaluate, current, targets, J0, gap, alpha_min) == (alpha_min, 2, None, None)
    assert len(seen) == 2 and 0.0 < seen[1] < 0.56

    # at k = 0 the fallback is the full step itself, and nothing is evaluated
    seen.clear()
    assert _backtrack(evaluate, current, targets, J0, gap, 1.0) == (1.0, 0, None, None)
    assert seen == []


@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER]
)
def test_line_search_takes_at_most_two_trials_and_accepts_on_armijo(kind):
    # the next record's objective is the accepted trial's, bit for bit
    from robustlqg.frank_wolfe import _ARMIJO

    sys = _hard_system(3, 6)
    _, model = generate_instance(3, 6, seed=0, kind=kind, rho=1.0)
    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-4))
    assert trace.converged and accepted_line_searches(trace) > 0
    assert all(r.ls_trials <= 2 for r in trace.records)
    for r, nxt in zip(trace.records, trace.records[1:]):
        if r.ls_trials and r.step_size != 2.0 / (2.0 + r.iter):
            assert nxt.objective >= r.objective + _ARMIJO * r.step_size * r.fw_gap


@pytest.mark.parametrize(
    "kind, most", [(DivergenceKind.WASSERSTEIN2, 45), (DivergenceKind.KULLBACK_LEIBLER, 35)]
)
def test_large_radius_iteration_counts(kind, most):
    # rho = 10 on the paper's d = 10 family, where a line search limited to
    # steps 1, 1/2, 1/4, ... needs 62 (W2) and 45 (KL) iterations
    sys, model = generate_instance(10, 20, 0, kind=kind, rho=10.0)
    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(gap_tol=1e-3))
    assert trace.converged and len(trace.records) <= most


def test_w2_worst_case_cost_holds_under_student_t_noise():
    # the abstract's elliptical claim: the Gelbrich (W2) ball and a linear
    # policy's cost see only the first two moments, so the robust policy
    # simulated with multivariate-t noise (nu = 5) at the worst-case
    # covariances costs lqg_value, within Monte-Carlo error
    from reference import simulate_closed_loop

    sys, model = generate_instance(3, 5, seed=0, kind=DivergenceKind.WASSERSTEIN2, rho=0.5)
    worst, trace = solve(sys, model.ball_profile())
    assert trace.converged
    sol = lqg_value(sys, worst)
    mc, se = simulate_closed_loop(sys, worst, sol, 200_000, seed=5, t_dof=5.0)
    assert abs(mc - sol.cost) <= 4.0 * se


_KINDS = (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER)


def test_stop_reasons():
    # "gap": the last record's surrogate gap certifies its own iterate, which
    # is returned; "bound": the returned iterate is one step past the last
    # record, whose surrogate gap is still above gap_tol; "max_iters": the
    # budget ran out and nothing is certified
    KL = DivergenceKind.KULLBACK_LEIBLER
    sys, model = generate_instance(3, 3, seed=9, kind=KL, rho=0.3)
    _, trace = solve(sys, model.ball_profile())
    last = trace.records[-1]
    assert trace.converged and trace.stop == "gap"
    assert last.step_size == 0.0 and last.fw_gap <= 1e-3
    assert (trace.objective, trace.gap) == (last.objective, last.fw_gap)

    sys, model = generate_instance(3, 3, seed=7, kind=KL, rho=0.3)
    _, trace = solve(sys, model.ball_profile())
    last = trace.records[-1]
    assert trace.converged and trace.stop == "bound"
    assert last.step_size > 0.0 and last.fw_gap > 1e-3
    assert trace.objective > last.objective and 0.0 <= trace.gap <= 1e-3

    _, trace = solve(sys, model.ball_profile(), cfg=FwConfig(max_iters=1, gap_tol=1e-9))
    assert not trace.converged and trace.stop == "max_iters" and len(trace.records) == 1
    assert np.isnan(trace.objective) and np.isnan(trace.gap)


@pytest.mark.parametrize("kind", _KINDS)
def test_bound_stop_returns_a_feasible_iterate_at_its_own_objective(kind):
    # the iterate a bound stop returns lies in every ball at membership
    # tolerance 1e-8, trace.objective is its value, and trace.gap is the
    # last pass's upper bound, objective + dual_gap, less that value
    stops = 0
    for seed in range(4):
        for rho in (0.1, 1.0):
            sys, model = generate_instance(4, 5, seed, kind, rho)
            balls = model.ball_profile()
            worst, trace = solve(sys, balls, cfg=FwConfig(gap_tol=1e-4))
            assert trace.converged
            if trace.stop != "bound":
                continue
            stops += 1
            last = trace.records[-1]
            assert last.step_size > 0.0
            assert trace.objective == pytest.approx(lqg_value(sys, worst).cost, rel=1e-12)
            assert trace.gap == last.objective + last.dual_gap - trace.objective
            assert trace.gap <= 1e-4
            for ball, block in zip(balls.blocks(), worst.blocks()):
                assert membership(ball, MomentPair.zero_mean(block), 1e-8)
    assert stops > 0


def test_bound_stop_is_certified_against_a_tight_reference(monkeypatch):
    # no solve returns an objective more than gap_tol below a reference
    # solve at gap 1e-11 that stops on the surrogate gap alone (its passes
    # report an infinite dual gap), so the reference does not lean on the
    # bound under test. A bound stop certifies its iterate rigorously, the
    # surrogate stop up to the oracles' factor 1/0.95. Without the
    # feasibility slack in the upper bound, Fisher solves at gap 1e-9 stop
    # up to 20 gap_tol short of the reference
    from robustlqg import frank_wolfe

    inner = frank_wolfe._oracle_pass

    def surrogate_only(plan, grads, current):
        return (*inner(plan, grads, current)[:-1], np.inf)

    short = {}
    for kind in _KINDS:
        for seed in range(10):
            sys, model = generate_instance(10, 10, seed, kind, 0.1)
            balls = model.ball_profile()
            monkeypatch.setattr(frank_wolfe, "_oracle_pass", surrogate_only)
            _, ref = solve(sys, balls, cfg=FwConfig(max_iters=5000, gap_tol=1e-11))
            monkeypatch.undo()
            assert ref.stop == "gap"
            for tol in (1e-3, 1e-6, 1e-9):
                _, trace = solve(sys, balls, cfg=FwConfig(gap_tol=tol))
                assert trace.converged
                short[kind.value, seed, tol] = (ref.objective - trace.objective) / tol
    worst = max(short, key=short.get)
    assert short[worst] <= 1.0, (worst, short[worst])

