import numpy as np
import pytest
import scipy.linalg

from robustlqg.divergences import AmbiguityBall, DivergenceKind, MomentPair, membership
from robustlqg.errors import ConditioningError, InvalidInputError, StabilizabilityError
from robustlqg.frank_wolfe import FwConfig
from robustlqg.instances import instance_rng, random_covariance
from robustlqg.lqg import CovarianceProfile, SystemInstance, kalman_forward, lqg_value, riccati_backward
from robustlqg.matops import spectral_radius
from robustlqg.stationary import (
    StationarySystem,
    solve_dare,
    solve_filter_are,
    solve_stationary_fw,
    stationary_cost,
    stationary_gradient,
)

from conftest import accepted_line_searches, counting, rand_spd
from reference import fd_block_gradients

GOLDEN = (1.0 + np.sqrt(5.0)) / 2.0
# (n, m, p): one square system and two rectangular ones
SHAPES = [(3, 3, 3), (3, 2, 1), (3, 2, 2)]


def _scalar(a=1.0, b=1.0, c=1.0, q=1.0, r=1.0):
    eye = np.eye(1)
    return StationarySystem(A=a * eye, B=b * eye, C=c * eye, Q=q * eye, R=r * eye)


def _stabilizable_instance(rng, n=3, m=2, p=2):
    A = rng.standard_normal((n, n))
    A *= rng.uniform(0.3, 0.8) / max(spectral_radius(A), 1e-12)
    return StationarySystem(
        A=A,
        B=rng.standard_normal((n, m)),
        C=rng.standard_normal((p, n)),
        Q=rand_spd(n, rng),
        R=rand_spd(m, rng),
    )


def test_dare_memoryless():
    ss = _scalar(a=0.0)
    P, K = solve_dare(ss)
    np.testing.assert_allclose(P, np.eye(1))
    np.testing.assert_allclose(K, 0.0)


def test_dare_golden_ratio():
    P, K = solve_dare(_scalar())
    assert P[0, 0] == pytest.approx(GOLDEN, abs=1e-10)
    assert K[0, 0] == pytest.approx(-(GOLDEN - 1.0), abs=1e-10)


def test_dare_residual_and_stability():
    rng = np.random.default_rng(0)
    for _ in range(10):
        ss = _stabilizable_instance(rng)
        P, K = solve_dare(ss)
        gain = np.linalg.solve(ss.R + ss.B.T @ P @ ss.B, ss.B.T @ P @ ss.A)
        resid = P - (ss.A.T @ P @ ss.A + ss.Q - ss.A.T @ P @ ss.B @ gain)
        assert np.linalg.norm(resid, "fro") <= 1e-9 * (1 + np.linalg.norm(P, "fro"))
        assert spectral_radius(ss.A + ss.B @ K) < 1.0 - 1e-8


def test_dare_matches_long_horizon_riccati():
    rng = np.random.default_rng(1)
    ss = _stabilizable_instance(rng)
    P, _ = solve_dare(ss)
    T = 500
    sysT = SystemInstance.time_invariant(ss.A, ss.B, ss.C, ss.Q, ss.R, T=T)
    P_seq, _ = riccati_backward(sysT)
    assert np.abs(P_seq[0] - P).max() <= 1e-8


def test_dare_unique_from_multiple_initializations():
    # the fixed point is independent of where the iteration starts
    rng = np.random.default_rng(2)
    ss = _stabilizable_instance(rng)
    P_ref, _ = solve_dare(ss)
    for trial in range(3):
        P = rand_spd(ss.n, rng, 0.1, 3.0)
        for _ in range(100_000):
            PB = P @ ss.B
            K = -np.linalg.solve(ss.R + ss.B.T @ PB, PB.T @ ss.A)
            P_next = ss.A.T @ P @ ss.A + ss.Q + (PB.T @ ss.A).T @ K
            P_next = 0.5 * (P_next + P_next.T)
            done = np.linalg.norm(P_next - P, "fro") <= 1e-13 * (1 + np.linalg.norm(P, "fro"))
            P = P_next
            if done:
                break
        assert np.abs(P - P_ref).max() <= 1e-8


def test_filter_are_golden_ratio():
    S, L = solve_filter_are(_scalar(), np.eye(1), np.eye(1))
    assert S[0, 0] == pytest.approx(GOLDEN, abs=1e-10)
    assert L[0, 0] == pytest.approx(GOLDEN / (GOLDEN + 1.0), abs=1e-10)


def test_filter_are_small_observation_noise_limit():
    # scalar, C = 1: with Sigma_v = eps the prediction covariance approaches
    # Sigma_w + O(eps)
    eps = 1e-6
    S, _ = solve_filter_are(_scalar(a=0.9), 1.0 * np.eye(1), eps * np.eye(1))
    assert S[0, 0] == pytest.approx(1.0, abs=5e-6 * (1 + 0.81))


def test_filter_are_matches_long_kalman_recursion():
    rng = np.random.default_rng(3)
    ss = _stabilizable_instance(rng)
    Sw, Sv = rand_spd(ss.n, rng, 0.8, 2.0), rand_spd(ss.p, rng, 0.8, 2.0)
    S, _ = solve_filter_are(ss, Sw, Sv)
    T = 500
    sysT = SystemInstance.time_invariant(ss.A, ss.B, ss.C, ss.Q, ss.R, T=T)
    covT = CovarianceProfile(
        X0=Sw, W=np.repeat(Sw[None], T, 0), V=np.repeat(Sv[None], T, 0)
    )
    _, pred, _ = kalman_forward(sysT, covT)
    assert np.abs(pred[-1] - S).max() <= 1e-8


def test_filter_are_rejects_degenerate_noise():
    with pytest.raises(InvalidInputError):
        solve_filter_are(_scalar(), np.zeros((1, 1)), np.eye(1))


def test_stationary_cost_memoryless_hand_case():
    cost, sol = stationary_cost(_scalar(a=0.0), np.eye(1), np.eye(1))
    assert cost == pytest.approx(1.0, abs=1e-12)
    assert np.abs(sol.K).max() == 0.0


def test_stationary_cost_matches_long_horizon_average():
    # needs an instance with active control: the terminal state cost biases
    # the finite average by ~Tr(Q Sigma_x)/(T avg), so input costs must carry
    # a comparable share of the average for the 1e-3 bound to be meaningful
    ss = _scalar(a=1.2, q=1.2, r=0.7)
    Sw, Sv = 1.4 * np.eye(1), 0.9 * np.eye(1)
    avg, _ = stationary_cost(ss, Sw, Sv)
    T = 500
    sysT = SystemInstance.time_invariant(ss.A, ss.B, ss.C, ss.Q, ss.R, T=T)
    covT = CovarianceProfile(X0=Sw, W=np.repeat(Sw[None], T, 0), V=np.repeat(Sv[None], T, 0))
    finite = lqg_value(sysT, covT).cost / T
    assert finite == pytest.approx(avg, rel=1e-3)


def test_average_cost_trend_over_horizons():
    ss = _scalar(a=0.5)
    Sw, Sv = np.eye(1), np.eye(1)
    avg, _ = stationary_cost(ss, Sw, Sv)
    errs = []
    for T in (50, 100, 200, 500):
        sysT = SystemInstance.time_invariant(ss.A, ss.B, ss.C, ss.Q, ss.R, T=T)
        covT = CovarianceProfile(X0=Sw, W=np.repeat(Sw[None], T, 0), V=np.repeat(Sv[None], T, 0))
        errs.append(abs(lqg_value(sysT, covT).cost / T - avg))
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_stationary_cost_matches_ergodic_simulation():
    ss = _scalar(a=0.7, q=1.1, r=0.9)
    Sw, Sv = 1.2 * np.eye(1), 0.8 * np.eye(1)
    avg, sol = stationary_cost(ss, Sw, Sv)
    rng = np.random.default_rng(4)
    burn, horizon = 1_000, 100_000
    x = 0.0
    xhat = 0.0
    total = 0.0
    sw, sv = np.sqrt(Sw[0, 0]), np.sqrt(Sv[0, 0])
    K, L = sol.K[0, 0], sol.L[0, 0]
    a, b, c = ss.A[0, 0], ss.B[0, 0], ss.C[0, 0]
    for t in range(burn + horizon):
        u = K * xhat
        if t >= burn:
            total += ss.Q[0, 0] * x * x + ss.R[0, 0] * u * u
        x_next = a * x + b * u + sw * rng.standard_normal()
        y_next = c * x_next + sv * rng.standard_normal()
        pred = a * xhat + b * u
        xhat = pred + L * (y_next - c * pred)
        x = x_next
    assert total / horizon == pytest.approx(avg, rel=0.01)


def test_stationary_cost_concave_along_segments():
    rng = np.random.default_rng(5)
    ss = _stabilizable_instance(rng, n=2, m=1, p=1)
    for _ in range(5):
        Sw1, Sw2 = rand_spd(2, rng, 0.8, 2.0), rand_spd(2, rng, 0.8, 2.0)
        Sv1, Sv2 = rand_spd(1, rng, 0.8, 2.0), rand_spd(1, rng, 0.8, 2.0)
        f1, _ = stationary_cost(ss, Sw1, Sv1)
        f2, _ = stationary_cost(ss, Sw2, Sv2)
        for lam in (0.25, 0.5, 0.75):
            mix, _ = stationary_cost(
                ss, lam * Sw1 + (1 - lam) * Sw2, lam * Sv1 + (1 - lam) * Sv2
            )
            assert mix >= lam * f1 + (1 - lam) * f2 - 1e-8


def test_stationary_fw_zero_radius():
    ss = _scalar(a=0.5)
    ball = lambda: AmbiguityBall(
        kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(np.eye(1)), radius=0.0
    )
    Sw, Sv, trace = solve_stationary_fw(ss, ball(), ball(), FwConfig(max_iters=10))
    assert trace.converged and len(trace.records) == 1
    np.testing.assert_allclose(Sw, np.eye(1))
    np.testing.assert_allclose(Sv, np.eye(1))


def test_stationary_fw_matches_grid_and_hits_boundary():
    ss = _scalar(a=0.5)
    nominal = MomentPair.zero_mean(np.eye(1))
    ball_w = AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=nominal, radius=1.0)
    ball_v = AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=nominal, radius=1.0)
    Sw, Sv, trace = solve_stationary_fw(ss, ball_w, ball_v, FwConfig(max_iters=400, gap_tol=1e-7))
    assert trace.converged
    value, _ = stationary_cost(ss, Sw, Sv)

    def best_on_grid(lo_w, hi_w, lo_v, hi_v, pts=41):
        best, arg = -np.inf, None
        for sw in np.linspace(lo_w, hi_w, pts):
            for sv in np.linspace(lo_v, hi_v, pts):
                if abs(np.sqrt(sw) - 1.0) <= 1.0 and abs(np.sqrt(sv) - 1.0) <= 1.0:
                    c, _ = stationary_cost(ss, np.array([[sw]]), np.array([[sv]]))
                    if c > best:
                        best, arg = c, (sw, sv)
        return best, arg

    lo_w, hi_w, lo_v, hi_v = 0.01, 4.0, 0.01, 4.0
    for _ in range(4):  # refine toward resolution ~1e-3
        best, (aw, av) = best_on_grid(lo_w, hi_w, lo_v, hi_v)
        dw, dv = (hi_w - lo_w) / 40, (hi_v - lo_v) / 40
        lo_w, hi_w = max(0.01, aw - 1.5 * dw), min(4.0, aw + 1.5 * dw)
        lo_v, hi_v = max(0.01, av - 1.5 * dv), min(4.0, av + 1.5 * dv)
    assert value == pytest.approx(best, abs=1e-3)
    # activity: both covariances on the ball boundary
    assert abs(ball_w.divergence(MomentPair.zero_mean(Sw)) - 1.0) <= 1e-5
    assert abs(ball_v.divergence(MomentPair.zero_mean(Sv)) - 1.0) <= 1e-5
    # dominance of the stationary worst case
    assert np.linalg.eigvalsh(Sw - np.eye(1)).min() >= -1e-7
    assert np.linalg.eigvalsh(Sv - np.eye(1)).min() >= -1e-7


@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER]
)
def test_stationary_fw_honours_line_search(kind):
    A = 0.95 * np.eye(3) + 0.3 * np.diag(np.ones(2), 1)
    A *= 0.9 / spectral_radius(A)
    eye = np.eye(3)
    ss = StationarySystem(A=A, B=eye, C=eye, Q=eye, R=eye)
    rng = instance_rng(2)
    Sw, Sv = random_covariance(3, rng), random_covariance(3, rng)
    ball_w = AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(Sw), radius=1.0)
    ball_v = AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(Sv), radius=1.0)
    objectives = {}
    for rule in ("vanishing", "line_search"):
        cfg = FwConfig(max_iters=1000, gap_tol=1e-6, step_rule=rule)
        Sw_star, Sv_star, trace = solve_stationary_fw(ss, ball_w, ball_v, cfg)
        assert trace.converged
        objectives[rule] = stationary_cost(ss, Sw_star, Sv_star)[0]
        if rule == "line_search":
            assert len(trace.records) <= 25
    # each run is within gap_tol / 0.95 (the oracles' fixed delta) of the maximum
    assert objectives["line_search"] == pytest.approx(objectives["vanishing"], abs=1e-6 / 0.95)


def test_stationary_system_validation():
    eye = np.eye(1)
    with pytest.raises(InvalidInputError):
        StationarySystem(A=eye, B=eye, C=eye, Q=0.0 * eye, R=eye)  # Q must be pd
    with pytest.raises(InvalidInputError):
        StationarySystem(A=eye, B=np.ones(1), C=eye, Q=eye, R=eye)  # B must be 2-D
    # unstabilizable: A = 2 with B = 0 cannot be stabilized
    ss = StationarySystem(A=2.0 * eye, B=0.0 * eye, C=eye, Q=eye, R=eye)
    with pytest.raises(StabilizabilityError):
        solve_dare(ss)


@pytest.mark.parametrize("field", ["Q", "R", "Sigma_w", "Sigma_v"])
def test_misshaped_stationary_inputs_raise_typed_errors(field):
    eye = np.eye(3)
    mats = dict(A=0.5 * eye, B=eye, C=eye, Q=eye, R=eye, Sigma_w=eye, Sigma_v=eye)
    mats[field] = np.eye(2)
    with pytest.raises(InvalidInputError):
        ss = StationarySystem(**{k: mats[k] for k in "ABCQR"})
        stationary_cost(ss, mats["Sigma_w"], mats["Sigma_v"])


def _noise(rng, ss):
    return rand_spd(ss.n, rng, 0.8, 2.0), rand_spd(ss.p, rng, 0.8, 2.0)


@pytest.mark.parametrize("n,m,p", SHAPES)
def test_stationary_gradient_matches_finite_differences(n, m, p):
    rng = np.random.default_rng(10 + p + m)
    for _ in range(3):
        ss = _stabilizable_instance(rng, n, m, p)
        Sw, Sv = _noise(rng, ss)
        cost, grads = stationary_gradient(ss, Sw, Sv)
        assert cost == stationary_cost(ss, Sw, Sv)[0]
        fd = fd_block_gradients(lambda b: stationary_cost(ss, *b)[0], [Sw, Sv])
        for G, G_fd in zip(grads, fd):
            assert np.linalg.norm(G - G_fd, "fro") <= 1e-6 * np.linalg.norm(G_fd, "fro")


@pytest.mark.parametrize("n,m,p", SHAPES)
def test_stationary_cost_matches_joint_lyapunov_cost(n, m, p):
    # reference: the stationary covariance of the joint (state, estimation
    # error) dynamics under the policy (K, L), driven by (w_t, v_{t+1})
    rng = np.random.default_rng(20 + p + m)
    for _ in range(3):
        ss = _stabilizable_instance(rng, n, m, p)
        Sw, Sv = _noise(rng, ss)
        cost, sol = stationary_cost(ss, Sw, Sv)
        A, B, C, K, L = ss.A, ss.B, ss.C, sol.K, sol.L
        I, LC = np.eye(n), L @ C
        F = np.block([[A + B @ K, -B @ K], [np.zeros((n, n)), (I - LC) @ A]])
        Xi = np.block([[I, np.zeros((n, p))], [I - LC, -L]])
        noise = scipy.linalg.block_diag(Sw, Sv)
        joint = scipy.linalg.solve_discrete_lyapunov(F, Xi @ noise @ Xi.T)
        Sx, Se, Sxe = joint[:n, :n], joint[n:, n:], joint[:n, n:]
        Sxhat = Sx + Se - Sxe - Sxe.T
        ref = np.trace(Sx @ ss.Q) + np.trace(K @ Sxhat @ K.T @ ss.R)
        assert cost == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("n,m,p", SHAPES)
def test_riccati_solvers_match_scipy(n, m, p):
    rng = np.random.default_rng(30 + p + m)
    for _ in range(3):
        ss = _stabilizable_instance(rng, n, m, p)
        Sw, Sv = _noise(rng, ss)
        P, _ = solve_dare(ss)
        S, _ = solve_filter_are(ss, Sw, Sv)
        P_ref = scipy.linalg.solve_discrete_are(ss.A, ss.B, ss.Q, ss.R)
        S_ref = scipy.linalg.solve_discrete_are(ss.A.T, ss.C.T, Sw, Sv)
        assert np.abs(P - P_ref).max() <= 1e-8 * (1 + np.abs(P_ref).max())
        assert np.abs(S - S_ref).max() <= 1e-8 * (1 + np.abs(S_ref).max())


def test_filter_are_rejects_undetectable_pair():
    # A = 2 with C = 0: the unstable mode is never observed
    eye = np.eye(1)
    ss = StationarySystem(A=2.0 * eye, B=eye, C=0.0 * eye, Q=eye, R=eye)
    with pytest.raises(StabilizabilityError, match=r"\(A, C\)"):
        solve_filter_are(ss, eye, eye)


@pytest.mark.parametrize("step_rule", ["vanishing", "line_search"])
def test_dare_runs_once_per_stationary_solve(monkeypatch, step_rule):
    import robustlqg.stationary as stationary

    dare_calls, cost_calls = [], []
    dare, cost = stationary.solve_dare, stationary._stationary_cost

    def counting_dare(ss):
        dare_calls.append(1)
        return dare(ss)

    def counting_cost(*args):
        cost_calls.append(1)
        return cost(*args)

    monkeypatch.setattr(stationary, "solve_dare", counting_dare)
    monkeypatch.setattr(stationary, "_stationary_cost", counting_cost)
    A = 0.95 * np.eye(3) + 0.3 * np.diag(np.ones(2), 1)
    A *= 0.9 / spectral_radius(A)
    eye = np.eye(3)
    ss = StationarySystem(A=A, B=eye, C=eye, Q=eye, R=eye)
    rng = instance_rng(2)
    Sw, Sv = random_covariance(3, rng), random_covariance(3, rng)
    ball_w = AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(Sw),
                           radius=1.0)
    ball_v = AmbiguityBall(kind=DivergenceKind.WASSERSTEIN2, nominal=MomentPair.zero_mean(Sv),
                           radius=1.0)
    lyapunov_calls = counting(monkeypatch, stationary, "solve_discrete_lyapunov")
    cfg = FwConfig(gap_tol=1e-6, step_rule=step_rule)
    _, _, trace = solve_stationary_fw(ss, ball_w, ball_v, cfg)
    assert trace.converged and len(trace.records) > 2
    assert len(dare_calls) == 1
    # one evaluation (a filter ARE) per iterate and per line-search trial,
    # except that the iterate an accepted trial lands on reuses that trial's;
    # a bound stop evaluates the iterate it returns; one Lyapunov solve per
    # iteration, for the gradient
    trials = sum(r.ls_trials for r in trace.records)
    accepted = accepted_line_searches(trace)
    assert (accepted > 0) == (step_rule == "line_search")
    assert len(cost_calls) == len(trace.records) + (trace.stop == "bound") + trials - accepted
    assert len(lyapunov_calls) == len(trace.records)


def _stationary_balls(kind, n, p, rho, seed):
    rng = instance_rng(seed)
    Sw, Sv = random_covariance(n, rng), random_covariance(p, rng)
    return (AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(Sw), radius=rho),
            AmbiguityBall(kind=kind, nominal=MomentPair.zero_mean(Sv), radius=rho))


@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER]
)
def test_every_stationary_iteration_evaluates_its_own_iterate(monkeypatch, kind):
    # an iterate reached by an accepted line-search trial keeps that trial's
    # evaluation; its objective and the gradients the oracle pass sees must
    # still be stationary_gradient at that iterate, bit for bit
    from robustlqg import frank_wolfe

    passes = counting(monkeypatch, frank_wolfe, "_oracle_pass")
    A = 0.95 * np.eye(3) + 0.3 * np.diag(np.ones(2), 1)
    A *= 0.9 / spectral_radius(A)
    eye = np.eye(3)
    ss = StationarySystem(A=A, B=eye, C=eye, Q=eye, R=eye)
    _, _, trace = solve_stationary_fw(ss, *_stationary_balls(kind, 3, 3, 1.0, 2),
                                      FwConfig(gap_tol=1e-6))
    assert trace.converged and accepted_line_searches(trace) > 0
    assert len(passes) == len(trace.records)
    for rec, (_, grads, ((Sw,), (Sv,))) in zip(trace.records, passes):
        value, want = stationary_gradient(ss, Sw, Sv)
        assert rec.objective == value
        for (got,), w in zip(grads, want):
            assert np.array_equal(got, w)


@pytest.mark.parametrize(
    "kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER, DivergenceKind.FISHER]
)
def test_stationary_nominal_factors_formed_once_per_group(monkeypatch, kind):
    # n = 3 and p = 2: Sigma_w and Sigma_v are groups of one block each
    from robustlqg import oracles

    calls = counting(monkeypatch, oracles, "_nominal_factors")
    rng = np.random.default_rng(4)
    ss = _stabilizable_instance(rng, n=3, m=2, p=2)
    _, _, trace = solve_stationary_fw(ss, *_stationary_balls(kind, 3, 2, 1.0, 5),
                                      FwConfig(gap_tol=1e-6))
    assert len(trace.records) > 2
    assert [(k, nominal.shape) for k, nominal in calls] == [(kind, (1, 3, 3)), (kind, (1, 2, 2))]


def test_cost_and_gradient_given_the_dare_are_bit_identical():
    # what a Frank-Wolfe evaluation runs, the cost and the adjoint of its
    # filter gain given the DARE, against the public pair
    from robustlqg.stationary import _stationary_adjoint, _stationary_cost

    rng = np.random.default_rng(7)
    for n, m, p in SHAPES:
        ss = StationarySystem(A=0.3 * rng.standard_normal((n, n)), B=rng.standard_normal((n, m)),
                              C=rng.standard_normal((p, n)), Q=rand_spd(n, rng), R=rand_spd(m, rng))
        P, K = solve_dare(ss)
        Sw, Sv = rand_spd(n, rng), rand_spd(p, rng)
        cost = stationary_cost(ss, Sw, Sv)[0]
        value, sol = _stationary_cost(ss, P, K, Sw, Sv)
        assert value == cost
        grads = _stationary_adjoint(ss, P, sol.L)
        public_value, public_grads = stationary_gradient(ss, Sw, Sv)
        assert value == public_value == cost
        for a, b in zip(grads, public_grads):
            assert np.array_equal(a, b)


def test_finite_horizon_middle_matches_the_stationary_problem():
    # the average-cost problem is the steady state of the finite-horizon one:
    # at T = 50 the middle adjoint gradients are the stationary gradient, and
    # one more stage adds the average cost to the finite-horizon value
    from robustlqg.gradient import lqg_gradient

    rng = np.random.default_rng(6)
    n, m, p = 3, 2, 2
    A = rng.standard_normal((n, n))
    A *= 0.9 / spectral_radius(A)
    ss = StationarySystem(A=A, B=rng.standard_normal((n, m)), C=rng.standard_normal((p, n)),
                          Q=rand_spd(n, rng), R=rand_spd(m, rng))
    Sw, Sv = rand_spd(n, rng), rand_spd(p, rng)

    def finite(T):
        sys = SystemInstance.time_invariant(ss.A, ss.B, ss.C, ss.Q, ss.R, T=T)
        return sys, CovarianceProfile(X0=Sw, W=np.repeat(Sw[None], T, axis=0),
                                      V=np.repeat(Sv[None], T, axis=0))

    avg_cost, (G_w, G_v) = stationary_gradient(ss, Sw, Sv)
    _, grad = lqg_gradient(*finite(50))
    for got, want in ((grad.dW[25], G_w), (grad.dV[25], G_v)):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    step = lqg_value(*finite(51)).cost - lqg_value(*finite(50)).cost
    assert step == pytest.approx(avg_cost, rel=1e-10)


@pytest.mark.parametrize("d", [3, 10])
def test_bench_construction_stops_after_one_pass_and_one_lyapunov_solve(monkeypatch, d):
    # the stationary benchmark's instances (run_stationary's dynamics,
    # nominals from instance_rng(seed), rho 0.1, gap 1e-3): the first full
    # step comes within gap_tol of the first pass's upper bound, so each
    # solve makes one oracle pass and one Lyapunov solve, for its gradient
    from robustlqg import frank_wolfe, stationary
    from robustlqg.instances import benchmark_dynamics

    eye = np.eye(d)
    ss = StationarySystem(A=benchmark_dynamics(d), B=eye, C=eye, Q=eye, R=eye)
    for kind in (DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER):
        for seed in range(6):
            passes = counting(monkeypatch, frank_wolfe, "_oracle_pass")
            lyapunov = counting(monkeypatch, stationary, "solve_discrete_lyapunov")
            _, _, trace = solve_stationary_fw(ss, *_stationary_balls(kind, d, d, 0.1, seed),
                                              FwConfig(gap_tol=1e-3))
            monkeypatch.undo()
            assert trace.stop == "bound" and len(trace.records) == 1
            assert len(passes) == len(lyapunov) == 1


def _near_unstable(d, p, radius):
    # A = 0.95 I + 0.3 superdiag scaled to the given spectral radius; C reads
    # the first p states and B drives the last p, both through the chain of
    # superdiagonal couplings, so (A, B) is controllable and (A, C)
    # observable, but ever more weakly as d grows; Q = I and R = I
    A = 0.95 * np.eye(d) + 0.3 * np.diag(np.ones(d - 1), 1)
    A *= radius / spectral_radius(A)
    eye = np.eye(d)
    return StationarySystem(A=A, B=eye[:, d - p:], C=eye[:p], Q=eye, R=np.eye(p))


def _nominal_noise(ss, seed=0):
    rng = instance_rng(seed)
    return random_covariance(ss.n, rng), random_covariance(ss.p, rng)


def _doublings(monkeypatch, n):
    """Count doublings: each solves I + G H against [A_k, G_k], an (n, 2n)
    right-hand side that no other solve of the stationary layer has.
    Returns the list of per-call counts of stationary._doubling."""
    import robustlqg.stationary as stationary

    solves, per_call = [], []
    solve, doubling = np.linalg.solve, stationary._doubling

    def counting_solve(a, b):
        if np.shape(b) == (n, 2 * n):
            solves.append(1)
        return solve(a, b)

    def counting_doubling(*args):
        before = len(solves)
        try:
            return doubling(*args)
        finally:
            per_call.append(len(solves) - before)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(stationary, "_doubling", counting_doubling)
    return per_call


def _rel_err(X, ref):
    return np.linalg.norm(X - ref, "fro") / np.linalg.norm(ref, "fro")


# Agreement with scipy: at cond(X) <= 1e6 both solutions are accurate to
# 1e-10 relative. Beyond it each is accurate to about eps cond(X), and
# scipy's residual is up to 100 times doubling's, so the bound is
# 1e-14 cond(X), about 45 eps cond(X).
def _agreement_bound(cond):
    return 1e-10 if cond <= 1e6 else 1e-14 * cond


@pytest.mark.parametrize("d", [2, 5, 10, 20])
def test_riccati_solvers_match_scipy_over_a_seeded_grid(monkeypatch, d):
    counts = _doublings(monkeypatch, d)
    conds = []
    for p in sorted({1, 2, d}):
        for radius in (0.5, 0.9, 0.99):
            ss = _near_unstable(d, p, radius)
            Sw, Sv = _nominal_noise(ss, seed=100 * d + p)
            for solve, ref in (
                (lambda: solve_dare(ss)[0],
                 scipy.linalg.solve_discrete_are(ss.A, ss.B, ss.Q, ss.R)),
                (lambda: solve_filter_are(ss, Sw, Sv)[0],
                 scipy.linalg.solve_discrete_are(ss.A.T, ss.C.T, Sw, Sv)),
            ):
                conds.append(np.linalg.cond(ref))
                assert _rel_err(solve(), ref) <= _agreement_bound(conds[-1]), (p, radius)
    assert max(counts) <= 10, counts
    if d == 20:  # the grid reaches past cond 1e6 only at d = 20, up to 1.6e10
        assert sum(c > 1e6 for c in conds) >= 6 and max(conds) > 1e10


@pytest.mark.parametrize("radius", [0.99, 0.995])
def test_near_unstable_filter_are_solves_within_its_conditioning(monkeypatch, radius):
    # d = 20, p = 2: a detectable pair at cond(S) 5e9 to 7e9, on whose
    # rounding plateau a linearly converging iteration stalls; doubling
    # reaches it in 9-10 steps
    ss = _near_unstable(20, 2, radius)
    Sw, Sv = _nominal_noise(ss)
    counts = _doublings(monkeypatch, 20)
    S, L = solve_filter_are(ss, Sw, Sv)
    P, _ = solve_dare(ss)
    assert 8 <= min(counts) and max(counts) <= 10, counts
    assert spectral_radius(ss.A - L @ ss.C @ ss.A) < 0.95
    for X, ref in ((S, scipy.linalg.solve_discrete_are(ss.A.T, ss.C.T, Sw, Sv)),
                   (P, scipy.linalg.solve_discrete_are(ss.A, ss.B, ss.Q, ss.R))):
        cond = np.linalg.cond(ref)
        assert 1e9 < cond < 1e10
        assert _rel_err(X, ref) <= _agreement_bound(cond)
    Sigma_f = S - L @ ss.C @ S
    assert _rel_err(ss.A @ Sigma_f @ ss.A.T + Sw, S) <= 1e-8


def test_are_beyond_double_precision_raises_conditioning_error():
    # d = 30, p = 3: cond(S) ~ 1e15, and doubling stalls at a residual near
    # 1e-4 (scipy's own solution has residual 7e-3); Schur stability alone
    # decides StabilizabilityError, so this is a ConditioningError
    ss = _near_unstable(30, 3, 0.99)
    Sw, Sv = _nominal_noise(ss)
    message = r"{} ARE residual \S+ exceeds 1e-08 relative at cond ~ \S+e\+1[4-6]"
    with pytest.raises(ConditioningError, match=message.format("filter")):
        solve_filter_are(ss, Sw, Sv)
    with pytest.raises(ConditioningError, match=message.format("control")):
        solve_dare(ss)


@pytest.mark.parametrize(
    "a, observed, message",
    [(2.0, "dare", r"Riccati iterates diverge; \(A, B\) looks unstabilizable"),
     (2.0, "filter", r"Riccati iterates diverge; \(A, C\) looks undetectable"),
     (1.0, "dare", r"not Schur stable; \(A, B\) looks unstabilizable"),
     (1.0, "filter", r"not Schur stable; \(A, C\) looks undetectable")],
)
def test_structural_failures_raise_stabilizability_errors(a, observed, message):
    # an unstable mode that no input reaches (B = 0) or no output sees
    # (C = 0): at a = 2 the doubling iterates pass 1e150, and at a = 1 they
    # grow only linearly, so the loop ends unconverged and the closed loop,
    # with spectral radius 1, fails the Schur check
    eye = np.eye(1)
    B = 0.0 * eye if observed == "dare" else eye
    C = 0.0 * eye if observed == "filter" else eye
    ss = StationarySystem(A=a * eye, B=B, C=C, Q=eye, R=eye)
    with pytest.raises(StabilizabilityError, match=message):
        solve_dare(ss) if observed == "dare" else solve_filter_are(ss, eye, eye)


@pytest.mark.parametrize("d", [3, 10])
def test_bench_stationary_ares_make_three_doublings_and_one_residual(monkeypatch, d):
    # a timing-free guard on the stationary benchmark's instances (its
    # dynamics, B = C = Q = R = I, nominals from instance_rng(seed)): each
    # ARE makes 3 doublings (the third leaves ||A_3||_F^2 below 2e-15, far
    # under the 1e-12 exit), one solve for G = B R^{-1} B^T and one residual
    # evaluation, the DARE's by one lqg._riccati_step that also gives K, the
    # filter's from its gain L; one eigvals is the Schur check
    import robustlqg.stationary as stationary
    from robustlqg.instances import benchmark_dynamics

    eye = np.eye(d)
    ss = StationarySystem(A=benchmark_dynamics(d), B=eye, C=eye, Q=eye, R=eye)
    steps = counting(monkeypatch, stationary, "_riccati_step")
    counts = _doublings(monkeypatch, d)
    linalg = {name: counting(monkeypatch, np.linalg, name)
              for name in ("solve", "eigvals", "eigvalsh", "cond")}

    def calls_of(solve):
        for c in linalg.values():
            c.clear()
        solve()
        return {name: len(c) for name, c in linalg.items()}

    want = {"solve": 3 + 2, "eigvals": 1, "eigvalsh": 0, "cond": 0}
    assert calls_of(lambda: solve_dare(ss)) == want
    assert len(steps) == 1 and counts == [3]
    for seed in range(6):
        Sw, Sv = _nominal_noise(ss, seed)
        assert calls_of(lambda: solve_filter_are(ss, Sw, Sv)) == want
    assert len(steps) == 1 and counts == [3] * 7


@pytest.mark.parametrize("p", [1, 3])
@pytest.mark.parametrize("kind", [DivergenceKind.WASSERSTEIN2, DivergenceKind.KULLBACK_LEIBLER])
def test_stationary_fw_converges_on_partially_observed_systems(monkeypatch, p, kind):
    # d = 10 at spectral radius 0.99 with B = Q = R = I and C the first p
    # rows of I: slow filters, for which doubling needs about 8 steps per
    # filter ARE
    d = 10
    eye = np.eye(d)
    ss = StationarySystem(A=_near_unstable(d, p, 0.99).A, B=eye, C=eye[:p], Q=eye, R=eye)
    ball_w, ball_v = _stationary_balls(kind, d, p, 0.1, 0)
    counts = _doublings(monkeypatch, d)
    Sw, Sv, trace = solve_stationary_fw(ss, ball_w, ball_v, FwConfig(gap_tol=1e-3))
    assert trace.converged
    assert membership(ball_w, MomentPair.zero_mean(Sw), 1e-8)
    assert membership(ball_v, MomentPair.zero_mean(Sv), 1e-8)
    assert len(counts) > len(trace.records) and max(counts) <= 10, counts
