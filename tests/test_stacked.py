import numpy as np
import pytest

from robustlqg.errors import InvalidInputError
from robustlqg.gradient import lqg_gradient
from robustlqg.lqg import CovarianceProfile, SystemInstance, lqg_value
from robustlqg.stacked import (
    AffinePolicy,
    ConvertDirection,
    affine_objective,
    build_stacked,
    causal_mask,
    kalman_policy_to_purified,
    optimal_intercept,
    policy_convert,
    solve_inner_policy,
    stack_moments,
)

from conftest import rand_profile, rand_spd, rand_system, scalar_unit_profile, scalar_unit_system


def _mc_affine_cost(ss, U, q, M_w_blocks, M_v_blocks, mu_w, mu_v, samples, seed):
    """Monte-Carlo oracle for the affine objective: simulate u = q + U(Dw+v)."""
    from robustlqg.matops import sym_sqrt

    rng = np.random.default_rng(seed)
    n, p, T = ss.n, ss.p, ss.T
    w = np.empty((samples, n * (T + 1)))
    for t, blk in enumerate(M_w_blocks):
        w[:, t * n : (t + 1) * n] = rng.standard_normal((samples, n)) @ sym_sqrt(blk).T
    w += mu_w
    v = np.empty((samples, p * T))
    for t, blk in enumerate(M_v_blocks):
        v[:, t * p : (t + 1) * p] = rng.standard_normal((samples, p)) @ sym_sqrt(blk).T
    v += mu_v
    eta = w @ ss.D.T + v
    u = q + eta @ U.T
    x = u @ ss.H.T + w @ ss.G.T
    costs = np.einsum("ij,jk,ik->i", u, ss.R, u) + np.einsum("ij,jk,ik->i", x, ss.Q, x)
    return float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(samples))


def test_build_stacked_one_step_pattern():
    sys = scalar_unit_system(T=1)
    ss = build_stacked(sys)
    np.testing.assert_array_equal(ss.H, np.array([[0.0], [1.0]]))
    np.testing.assert_array_equal(ss.G, np.array([[1.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_array_equal(ss.C, np.array([[1.0, 0.0]]))
    np.testing.assert_array_equal(ss.D, np.array([[1.0, 0.0]]))
    assert np.linalg.eigvalsh(ss.Rbar).min() > 0


def test_stacked_reproduces_trajectories():
    rng = np.random.default_rng(0)
    sys = rand_system(rng, n=2, m=2, p=1, T=4)
    ss = build_stacked(sys)
    u = rng.standard_normal(2 * 4)
    w = rng.standard_normal(2 * 5)
    v = rng.standard_normal(1 * 4)
    x = np.zeros((5, 2))
    x[0] = w[:2]
    eta = np.zeros(4)
    xf = np.zeros((5, 2))
    for t in range(4):
        y = sys.C[t] @ x[t] + v[t : t + 1]
        eta[t] = (y - sys.C[t] @ xf[t])[0]
        x[t + 1] = sys.A[t] @ x[t] + sys.B[t] @ u[2 * t : 2 * t + 2] + w[2 * (t + 1) : 2 * (t + 2)]
        xf[t + 1] = sys.A[t] @ xf[t] + sys.B[t] @ u[2 * t : 2 * t + 2]
    np.testing.assert_allclose(ss.H @ u + ss.G @ w, x.reshape(-1), atol=1e-12)
    np.testing.assert_allclose(ss.D @ w + v, eta, atol=1e-12)


def test_structural_triangularity():
    rng = np.random.default_rng(1)
    sys = rand_system(rng, n=2, m=1, p=2, T=3)
    ss = build_stacked(sys)
    n, m, T = 2, 1, 3
    # H strictly block lower triangular, G and D block lower triangular
    for t in range(T + 1):
        for s in range(T):
            if s >= t:
                assert np.abs(ss.H[t * n : (t + 1) * n, s * m : (s + 1) * m]).max() == 0.0


def test_size_cap():
    sys = scalar_unit_system(T=250)
    with pytest.raises(InvalidInputError):
        build_stacked(sys)


def test_affine_objective_substitutions():
    rng = np.random.default_rng(2)
    sys = rand_system(rng, n=2, m=2, p=2, T=3)
    ss = build_stacked(sys)
    cov = rand_profile(rng, sys)
    mu_w, M_w, mu_v, M_v = stack_moments(cov, ss.n, ss.p)
    zero_pol = AffinePolicy(U=np.zeros((ss.m * ss.T, ss.p * ss.T)), q=np.zeros(ss.m * ss.T))
    open_loop = affine_objective(ss, zero_pol, mu_w, M_w, mu_v, M_v)
    assert open_loop == pytest.approx(float(np.sum((ss.G.T @ ss.Q @ ss.G) * M_w)))
    q = rng.standard_normal(ss.m * ss.T)
    pol = AffinePolicy(U=zero_pol.U, q=q)
    only_q = affine_objective(ss, pol, mu_w, 0.0 * M_w, mu_v, 0.0 * M_v)
    assert only_q == pytest.approx(float(q @ ss.Rbar @ q))


@pytest.mark.parametrize("mean_block", ["x0", "v1"])
def test_affine_objective_matches_monte_carlo(mean_block):
    # uncorrelated noise blocks allow at most one nonzero-mean block
    # (cross second moments must vanish), so the means are placed on a
    # single block per case
    rng = np.random.default_rng(3)
    sys = rand_system(rng, n=2, m=1, p=1, T=3)
    ss = build_stacked(sys)
    cov = rand_profile(rng, sys)
    mask = causal_mask(ss.T, ss.m, ss.p)
    U = np.where(mask, 0.3 * rng.standard_normal(mask.shape), 0.0)
    q = 0.5 * rng.standard_normal(ss.m * ss.T)
    mu_w = np.zeros(ss.n * (ss.T + 1))
    mu_v = np.zeros(ss.p * ss.T)
    if mean_block == "x0":
        mu_w[: ss.n] = 0.6 * rng.standard_normal(ss.n)
    else:
        mu_v[ss.p : 2 * ss.p] = 0.6 * rng.standard_normal(ss.p)
    M_w_blocks = [cov.X0] + list(cov.W)
    M_v_blocks = list(cov.V)
    # second moments include the means
    M_w = np.zeros((ss.n * (ss.T + 1),) * 2)
    for t, blk in enumerate(M_w_blocks):
        sl = slice(t * ss.n, (t + 1) * ss.n)
        M_w[sl, sl] = blk + np.outer(mu_w[sl], mu_w[sl])
    M_v = np.zeros((ss.p * ss.T,) * 2)
    for t, blk in enumerate(M_v_blocks):
        sl = slice(t * ss.p, (t + 1) * ss.p)
        M_v[sl, sl] = blk + np.outer(mu_v[sl], mu_v[sl])
    exact = affine_objective(ss, AffinePolicy(U=U, q=q), mu_w, M_w, mu_v, M_v)
    mc, se = _mc_affine_cost(ss, U, q, M_w_blocks, M_v_blocks, mu_w, mu_v, 100_000, seed=4)
    assert abs(exact - mc) <= 3.0 * se


def _deterministic_cost(ss, U, q, w, v):
    """x^T Q x + u^T R u of one noise draw (w, v) under u = q + U(Dw + v)."""
    u = q + U @ (ss.D @ w + v)
    x = ss.H @ u + ss.G @ w
    return float(x @ ss.Q @ x + u @ ss.R @ u)


def _means_on_every_block(seed):
    rng = np.random.default_rng(seed)
    sys = rand_system(rng, n=2, m=2, p=2, T=3)
    ss = build_stacked(sys)
    mask = causal_mask(ss.T, ss.m, ss.p)
    U = np.where(mask, 0.5 * rng.standard_normal(mask.shape), 0.0)
    q = rng.standard_normal(ss.m * ss.T)
    mu_w = rng.standard_normal(ss.n * (ss.T + 1))
    mu_v = rng.standard_normal(ss.p * ss.T)
    return rng, sys, ss, U, q, mu_w, mu_v


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_affine_objective_at_zero_covariance_is_the_deterministic_cost(seed):
    # M = mu mu^T: the noise is the point (mu_w, mu_v), with both means
    # nonzero on every block, so the w-v cross term is exercised
    _, _, ss, U, q, mu_w, mu_v = _means_on_every_block(seed)
    value = affine_objective(ss, AffinePolicy(U=U, q=q), mu_w, np.outer(mu_w, mu_w),
                             mu_v, np.outer(mu_v, mu_v))
    assert value == pytest.approx(_deterministic_cost(ss, U, q, mu_w, mu_v), rel=1e-10)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_affine_objective_splits_into_covariance_and_mean_parts(seed):
    # uncentered second moments M = Sigma + mu mu^T with block-diagonal
    # Sigma: the cost is the zero-mean, zero-intercept cost at Sigma plus
    # the deterministic cost at the means
    rng, sys, ss, U, q, mu_w, mu_v = _means_on_every_block(seed)
    _, S_w, _, S_v = stack_moments(rand_profile(rng, sys), ss.n, ss.p)
    value = affine_objective(ss, AffinePolicy(U=U, q=q), mu_w, S_w + np.outer(mu_w, mu_w),
                             mu_v, S_v + np.outer(mu_v, mu_v))
    cov_only = affine_objective(ss, AffinePolicy(U=U, q=np.zeros_like(q)),
                                np.zeros_like(mu_w), S_w, np.zeros_like(mu_v), S_v)
    want = cov_only + _deterministic_cost(ss, U, q, mu_w, mu_v)
    assert value == pytest.approx(want, rel=1e-10)


def test_correlated_moments_rejected():
    rng = np.random.default_rng(4)
    sys = rand_system(rng, n=2, m=1, p=1, T=2)
    ss = build_stacked(sys)
    cov = rand_profile(rng, sys)
    mu_w, M_w, mu_v, M_v = stack_moments(cov, ss.n, ss.p)
    M_w_bad = M_w.copy()
    M_w_bad[0, ss.n] = M_w_bad[ss.n, 0] = 0.5
    pol = AffinePolicy(U=np.zeros((ss.m * ss.T, ss.p * ss.T)), q=np.zeros(ss.m * ss.T))
    with pytest.raises(InvalidInputError):
        affine_objective(ss, pol, mu_w, M_w_bad, mu_v, M_v)


def test_optimal_intercept_zero_for_zero_means():
    rng = np.random.default_rng(5)
    sys = rand_system(rng, n=2, m=2, p=1, T=3)
    ss = build_stacked(sys)
    mask = causal_mask(ss.T, ss.m, ss.p)
    U = np.where(mask, rng.standard_normal(mask.shape), 0.0)
    q = optimal_intercept(ss, U, np.zeros(ss.n * (ss.T + 1)), np.zeros(ss.p * ss.T))
    assert np.abs(q).max() <= 1e-12


def test_optimal_intercept_first_order_optimality():
    rng = np.random.default_rng(6)
    sys = rand_system(rng, n=2, m=1, p=2, T=3)
    ss = build_stacked(sys)
    cov = rand_profile(rng, sys)
    _, S_w, _, S_v = stack_moments(cov, ss.n, ss.p)
    mu_w = 0.5 * rng.standard_normal(ss.n * (ss.T + 1))
    mu_v = 0.5 * rng.standard_normal(ss.p * ss.T)
    # uncentered second moments of independent blocks with these means
    M_w, M_v = S_w + np.outer(mu_w, mu_w), S_v + np.outer(mu_v, mu_v)
    mask = causal_mask(ss.T, ss.m, ss.p)
    U = np.where(mask, rng.standard_normal(mask.shape), 0.0)
    q_star = optimal_intercept(ss, U, mu_w, mu_v)
    base = affine_objective(ss, AffinePolicy(U=U, q=q_star), mu_w, M_w, mu_v, M_v)
    for _ in range(20):
        pert = 1e-3 * rng.standard_normal(q_star.shape)
        moved = affine_objective(ss, AffinePolicy(U=U, q=q_star + pert), mu_w, M_w, mu_v, M_v)
        assert moved >= base - 1e-9
    # gradient residual of the quadratic in q at q*
    grad = 2.0 * (ss.Rbar @ (U @ ss.D) + ss.H.T @ ss.Q @ ss.G) @ mu_w
    grad += 2.0 * ss.Rbar @ (U @ mu_v) + 2.0 * ss.Rbar @ q_star
    assert np.abs(grad).max() <= 1e-9


def test_zero_mean_adversary_never_worse():
    # with the intercept optimized, moving the mean into covariance can only
    # increase the objective. Uncorrelated zero-mean noise has a block
    # diagonal second moment, so the same second moment with a mean allows
    # at most one nonzero-mean block: the mean sits on one block per case
    rng = np.random.default_rng(7)
    sys = rand_system(rng, n=2, m=1, p=1, T=2)
    ss = build_stacked(sys)
    cov = rand_profile(rng, sys)
    mask = causal_mask(ss.T, ss.m, ss.p)
    for case in range(25):
        U = np.where(mask, rng.standard_normal(mask.shape), 0.0)
        mu_w = np.zeros(ss.n * (ss.T + 1))
        mu_v = np.zeros(ss.p * ss.T)
        block = case % (2 * ss.T + 1)  # x0, w_0.., v_0..
        if block <= ss.T:
            mu_w[block * ss.n : (block + 1) * ss.n] = 0.5 * rng.standard_normal(ss.n)
        else:
            block -= ss.T + 1
            mu_v[block * ss.p : (block + 1) * ss.p] = 0.5 * rng.standard_normal(ss.p)
        _, M_w, _, M_v = stack_moments(cov, ss.n, ss.p)
        # same second moments, nonzero vs zero means
        q_star = optimal_intercept(ss, U, mu_w, mu_v)
        with_mean = affine_objective(ss, AffinePolicy(U=U, q=q_star), mu_w, M_w, mu_v, M_v)
        zero_mean = affine_objective(
            ss,
            AffinePolicy(U=U, q=np.zeros(ss.m * ss.T)),
            np.zeros_like(mu_w), M_w, np.zeros_like(mu_v), M_v,
        )
        assert zero_mean >= with_mean - 1e-9


def test_policy_convert_round_trip_and_zero():
    rng = np.random.default_rng(8)
    sys = rand_system(rng, n=2, m=2, p=2, T=4)
    ss = build_stacked(sys)
    mask = causal_mask(ss.T, ss.m, ss.p)
    zero = np.zeros(mask.shape)
    q = rng.standard_normal(ss.m * ss.T)
    U_out, q_out = policy_convert(ss, ConvertDirection.PURIFIED_TO_OUTPUT, zero, q)
    assert np.abs(U_out).max() == 0.0
    np.testing.assert_allclose(q_out, q, atol=1e-14)

    U = np.where(mask, rng.standard_normal(mask.shape), 0.0)
    U_y, q_y = policy_convert(ss, ConvertDirection.PURIFIED_TO_OUTPUT, U, q)
    U_back, q_back = policy_convert(ss, ConvertDirection.OUTPUT_TO_PURIFIED, U_y, q_y)
    assert np.abs(U_back - U).max() <= 1e-10
    assert np.abs(q_back - q).max() <= 1e-10
    # causality is exact: zero blocks stay bit-zero
    assert np.abs(U_y[~mask]).max() == 0.0
    assert np.abs(U_back[~mask]).max() == 0.0


def test_policy_convert_simulation_equivalence():
    # cost under (U', q') on y equals cost under (U, q) on eta
    rng = np.random.default_rng(9)
    sys = rand_system(rng, n=2, m=1, p=1, T=3)
    ss = build_stacked(sys)
    cov = rand_profile(rng, sys)
    mask = causal_mask(ss.T, ss.m, ss.p)
    U = np.where(mask, 0.2 * rng.standard_normal(mask.shape), 0.0)
    q = 0.3 * rng.standard_normal(ss.m * ss.T)
    U_y, q_y = policy_convert(ss, ConvertDirection.PURIFIED_TO_OUTPUT, U, q)
    from robustlqg.matops import sym_sqrt

    samples = 100_000
    rng2 = np.random.default_rng(10)
    n, p, T = ss.n, ss.p, ss.T
    w = np.empty((samples, n * (T + 1)))
    for t, blk in enumerate([cov.X0] + list(cov.W)):
        w[:, t * n : (t + 1) * n] = rng2.standard_normal((samples, n)) @ sym_sqrt(blk).T
    v = np.empty((samples, p * T))
    for t, blk in enumerate(cov.V):
        v[:, t * p : (t + 1) * p] = rng2.standard_normal((samples, p)) @ sym_sqrt(blk).T
    eta = w @ ss.D.T + v
    u_eta = q + eta @ U.T
    x_eta = u_eta @ ss.H.T + w @ ss.G.T
    # y-feedback rollout must be causal: y depends on u through x
    u_y = np.zeros((samples, ss.m * T))
    for t in range(T):
        x_now = u_y @ ss.H.T + w @ ss.G.T
        y = x_now @ ss.C.T + v
        rows = slice(t * ss.m, (t + 1) * ss.m)
        u_y[:, rows] = q_y[rows] + y[:, : (t + 1) * p] @ U_y[rows, : (t + 1) * p].T
    x_y = u_y @ ss.H.T + w @ ss.G.T
    cost_eta = np.einsum("ij,jk,ik->i", u_eta, ss.R, u_eta) + np.einsum(
        "ij,jk,ik->i", x_eta, ss.Q, x_eta
    )
    cost_y = np.einsum("ij,jk,ik->i", u_y, ss.R, u_y) + np.einsum(
        "ij,jk,ik->i", x_y, ss.Q, x_y
    )
    np.testing.assert_allclose(u_y, u_eta, atol=1e-10)
    assert abs(cost_eta.mean() - cost_y.mean()) <= 1e-10 * max(1.0, abs(cost_eta.mean()))


def test_kalman_policy_matches_dp_value():
    # scalar hand case: u0 = K0 L0 y0 = -0.25 y0, objective 2.75
    sys = scalar_unit_system()
    cov = scalar_unit_profile()
    pol = kalman_policy_to_purified(sys, cov)
    assert pol.U[0, 0] == pytest.approx(-0.25, abs=1e-12)
    ss = build_stacked(sys)
    obj = affine_objective(ss, pol, *stack_moments(cov, ss.n, ss.p))
    assert obj == pytest.approx(2.75, rel=1e-12)

    rng = np.random.default_rng(11)
    for _ in range(5):
        sys = rand_system(rng, n=2, m=2, p=2, T=3)
        cov = rand_profile(rng, sys)
        pol = kalman_policy_to_purified(sys, cov)
        ss = build_stacked(sys)
        obj = affine_objective(ss, pol, *stack_moments(cov, ss.n, ss.p))
        dp = lqg_value(sys, cov).cost
        assert obj == pytest.approx(dp, rel=1e-6)


@pytest.mark.parametrize("n,m,p", [(2, 2, 2), (3, 2, 1), (3, 2, 2)])
def test_fixed_kalman_policy_cost_is_lqg_gradient(n, m, p):
    # Danskin: the Kalman/LQR policy designed at cov0 costs <grad V(cov0), cov1>
    # at any zero-mean cov1, which is how the gaps experiment prices policies
    rng = np.random.default_rng(14 + n + p)
    sys = rand_system(rng, n=n, m=m, p=p, T=3)
    cov0, cov1 = rand_profile(rng, sys), rand_profile(rng, sys)
    ss = build_stacked(sys)
    pol = kalman_policy_to_purified(sys, cov0)
    stacked_cost = affine_objective(ss, pol, *stack_moments(cov1, n, p))
    assert stacked_cost == pytest.approx(lqg_gradient(sys, cov0)[1].inner(cov1), rel=1e-10)


def test_kalman_policy_is_inner_minimizer():
    rng = np.random.default_rng(12)
    sys = rand_system(rng, n=2, m=1, p=2, T=3)
    cov = rand_profile(rng, sys)
    pol = kalman_policy_to_purified(sys, cov)
    ss = build_stacked(sys)
    mu_w, M_w, mu_v, M_v = stack_moments(cov, ss.n, ss.p)
    base = affine_objective(ss, pol, mu_w, M_w, mu_v, M_v)
    mask = causal_mask(ss.T, ss.m, ss.p)
    for _ in range(20):
        pert = np.where(mask, 1e-3 * rng.standard_normal(mask.shape), 0.0)
        moved = affine_objective(
            ss, AffinePolicy(U=pol.U + pert, q=pol.q), mu_w, M_w, mu_v, M_v
        )
        assert moved >= base - 1e-9


def test_solve_inner_policy_strong_duality():
    rng = np.random.default_rng(13)
    for _ in range(5):
        sys = rand_system(rng, n=2, m=1, p=1, T=3)
        cov = rand_profile(rng, sys)
        ss = build_stacked(sys)
        _, M_w, _, M_v = stack_moments(cov, ss.n, ss.p)
        U_star, inner = solve_inner_policy(ss, M_w, M_v)
        dp = lqg_value(sys, cov).cost
        assert inner == pytest.approx(dp, rel=1e-5)
        # and the solver's optimum is not improved by the Kalman policy
        pol = kalman_policy_to_purified(sys, cov)
        obj = affine_objective(ss, pol, np.zeros(ss.n * (ss.T + 1)), M_w,
                               np.zeros(ss.p * ss.T), M_v)
        assert inner <= obj + 1e-9


def test_affine_policy_causality_validation():
    sys = scalar_unit_system(T=2)
    ss = build_stacked(sys)
    U = np.array([[0.0, 1.0], [0.0, 0.0]])  # upper block nonzero
    with pytest.raises(InvalidInputError):
        AffinePolicy(U=U, q=np.zeros(2)).validated(ss)
