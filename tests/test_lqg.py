import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlqg.errors import ConditioningError, InvalidInputError
from robustlqg.lqg import (
    CovarianceProfile,
    SystemInstance,
    kalman_forward,
    lqg_value,
    riccati_backward,
    simulate_closed_loop,
)

from conftest import rand_profile, rand_spd, rand_system, scalar_unit_profile, scalar_unit_system


def test_riccati_scalar_hand_case():
    P, K = riccati_backward(scalar_unit_system(T=1))
    assert P[1, 0, 0] == pytest.approx(1.0)
    assert P[0, 0, 0] == pytest.approx(1.5)
    assert K[0, 0, 0] == pytest.approx(-0.5)


def test_riccati_uncontrollable_limit():
    rng = np.random.default_rng(0)
    n, T = 3, 4
    sys = SystemInstance(
        T=T,
        A=0.7 * rng.standard_normal((T, n, n)),
        B=np.zeros((T, n, 1)),
        C=rng.standard_normal((T, 2, n)),
        Q=np.stack([rand_spd(n, rng) for _ in range(T + 1)]),
        R=np.ones((T, 1, 1)),
    )
    P, K = riccati_backward(sys)
    assert np.abs(K).max() == 0.0
    expected = sys.Q[T]
    for t in range(T - 1, -1, -1):
        expected = sys.A[t].T @ expected @ sys.A[t] + sys.Q[t]
        np.testing.assert_allclose(P[t], expected, atol=1e-10)


def test_riccati_matches_bellman_minimization_oracle():
    # value iteration through direct minimization of the one-step quadratic
    # via normal equations, independent of the Riccati algebra
    rng = np.random.default_rng(1)
    sys = rand_system(rng, n=3, m=2, p=2, T=5)
    P, K = riccati_backward(sys)
    P_oracle = sys.Q[sys.T].copy()
    for t in range(sys.T - 1, -1, -1):
        A, B, Q, R = sys.A[t], sys.B[t], sys.Q[t], sys.R[t]
        # min_u x'Qx + u'Ru + (Ax+Bu)'P(Ax+Bu): u* = -(R+B'PB)^{-1}B'PA x
        Ku = -np.linalg.solve(R + B.T @ P_oracle @ B, B.T @ P_oracle @ A)
        np.testing.assert_allclose(K[t], Ku, atol=1e-9)
        closed = A + B @ Ku
        P_next = Q + Ku.T @ R @ Ku + closed.T @ P_oracle @ closed
        P_oracle = 0.5 * (P_next + P_next.T)
        np.testing.assert_allclose(P[t], P_oracle, atol=1e-8)


def test_riccati_terminal_equals_Q_T_exactly():
    rng = np.random.default_rng(2)
    sys = rand_system(rng, T=3)
    P, _ = riccati_backward(sys)
    assert np.array_equal(P[sys.T], 0.5 * (sys.Q[sys.T] + sys.Q[sys.T].T))


def test_kalman_scalar_hand_case():
    sys = scalar_unit_system(T=2)
    cov = scalar_unit_profile(T=2)
    filt, pred, L = kalman_forward(sys, cov)
    assert filt[0, 0, 0] == pytest.approx(0.5)
    assert pred[1, 0, 0] == pytest.approx(1.5)
    assert filt[1, 0, 0] == pytest.approx(1.5 - 1.5**2 / 2.5)
    assert L[0, 0, 0] == pytest.approx(0.5)


def test_kalman_uninformative_observations():
    rng = np.random.default_rng(3)
    n, p, T = 3, 2, 4
    sys = SystemInstance(
        T=T,
        A=0.6 * rng.standard_normal((T, n, n)),
        B=rng.standard_normal((T, n, 1)),
        C=np.zeros((T, p, n)),
        Q=np.stack([rand_spd(n, rng) for _ in range(T + 1)]),
        R=np.ones((T, 1, 1)),
    )
    cov = rand_profile(rng, sys)
    cov = CovarianceProfile(X0=cov.X0, W=cov.W, V=np.repeat(np.eye(p)[None], T, 0))
    filt, pred, L = kalman_forward(sys, cov)
    for t in range(T):
        np.testing.assert_allclose(filt[t], pred[t], atol=1e-12)
        np.testing.assert_allclose(
            pred[t + 1], sys.A[t] @ filt[t] @ sys.A[t].T + cov.W[t], atol=1e-12
        )
    assert np.abs(L).max() == 0.0


def test_kalman_matches_joint_gaussian_conditioning_oracle():
    # brute-force conditional covariance of x_t given y_0..y_t from the
    # stacked joint Gaussian
    from robustlqg.stacked import build_stacked

    rng = np.random.default_rng(4)
    sys = rand_system(rng, n=3, m=2, p=2, T=4)
    cov = rand_profile(rng, sys)
    filt, pred, _ = kalman_forward(sys, cov)
    ss = build_stacked(sys)
    n, p, T = sys.n, sys.p, sys.T
    # joint of (w_stack, v_stack): x = G w (u = 0 contributes nothing to covariances)
    M_w = np.zeros((n * (T + 1), n * (T + 1)))
    M_w[:n, :n] = cov.X0
    for t in range(T):
        M_w[(t + 1) * n :(t + 2) * n, (t + 1) * n :(t + 2) * n] = cov.W[t]
    M_v = np.zeros((p * T, p * T))
    for t in range(T):
        M_v[t * p : (t + 1) * p, t * p : (t + 1) * p] = cov.V[t]
    cov_x = ss.G @ M_w @ ss.G.T
    cov_y = ss.C @ cov_x @ ss.C.T + M_v
    cov_xy = cov_x @ ss.C.T
    for t in range(T):
        rows = slice(t * n, (t + 1) * n)
        obs = slice(0, (t + 1) * p)
        S_xx = cov_x[rows, rows]
        S_xy = cov_xy[rows, obs]
        S_yy = cov_y[obs, obs]
        cond = S_xx - S_xy @ np.linalg.solve(S_yy, S_xy.T)
        np.testing.assert_allclose(filt[t], cond, atol=1e-8)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    m=st.integers(1, 4),
    p=st.integers(1, 4),
    T=st.integers(1, 5),
)
def test_kalman_gain_is_the_filter_gain(seed, n, m, p, T):
    # the innovation gain S C^T E^{-1} that kalman_forward returns equals the
    # filter gain Sigma_filt C^T V^{-1}
    rng = np.random.default_rng(seed)
    sys = rand_system(rng, n=n, m=m, p=p, T=T)
    cov = rand_profile(rng, sys)
    filt, _, L = kalman_forward(sys, cov)
    for t in range(T):
        want = np.linalg.solve(cov.V[t], (filt[t] @ sys.C[t].T).T).T
        assert np.abs(L[t] - want).max() <= 1e-10 * np.abs(want).max()


def test_kalman_rejects_singular_V():
    sys = scalar_unit_system(T=2)
    cov = CovarianceProfile(X0=np.eye(1), W=np.ones((2, 1, 1)), V=np.zeros((2, 1, 1)))
    with pytest.raises(ConditioningError, match=r"V\[0\]"):
        kalman_forward(sys, cov)


def test_lqg_value_zero_state_cost():
    rng = np.random.default_rng(5)
    n, m, p, T = 2, 2, 2, 3
    sys = SystemInstance(
        T=T,
        A=0.6 * rng.standard_normal((T, n, n)),
        B=rng.standard_normal((T, n, m)),
        C=rng.standard_normal((T, p, n)),
        Q=np.zeros((T + 1, n, n)),
        R=np.stack([rand_spd(m, rng) for _ in range(T)]),
    )
    cov = rand_profile(rng, sys)
    sol = lqg_value(sys, cov)
    assert sol.cost == pytest.approx(0.0, abs=1e-12)
    assert np.abs(sol.K).max() <= 1e-12


def test_lqg_value_scalar_hand_composition():
    # hand composition of the cost formula gives 2.75 for the scalar
    # T=1 unit instance; Monte Carlo agrees within 3 standard errors
    sol = lqg_value(scalar_unit_system(), scalar_unit_profile())
    hand = (1.0 - 1.5) * 0.5 + 1.0 * 1.5 + 1.5 * 1.0
    assert hand == pytest.approx(2.75)
    assert sol.cost == pytest.approx(hand, abs=1e-12)
    mc, se = simulate_closed_loop(
        scalar_unit_system(), scalar_unit_profile(), sol, 100_000, seed=7
    )
    assert abs(mc - sol.cost) <= 3.0 * se


def test_lqg_value_matches_monte_carlo_random_instance():
    rng = np.random.default_rng(6)
    sys = rand_system(rng, n=3, m=2, p=2, T=4)
    cov = rand_profile(rng, sys)
    sol = lqg_value(sys, cov)
    mc, se = simulate_closed_loop(sys, cov, sol, 100_000, seed=8)
    assert abs(mc - sol.cost) <= 3.0 * se


def test_lqg_monotone_in_noise():
    rng = np.random.default_rng(7)
    for _ in range(10):
        sys = rand_system(rng, n=2, m=2, p=2, T=3)
        cov = rand_profile(rng, sys)
        bump = CovarianceProfile(
            X0=cov.X0 + 0.3 * rand_spd(sys.n, rng, 0.1, 1.0),
            W=np.stack([Wt + 0.3 * rand_spd(sys.n, rng, 0.1, 1.0) for Wt in cov.W]),
            V=np.stack([Vt + 0.3 * rand_spd(sys.p, rng, 0.1, 1.0) for Vt in cov.V]),
        )
        assert lqg_value(sys, bump).cost >= lqg_value(sys, cov).cost - 1e-9


def test_lqg_concavity_along_segments():
    rng = np.random.default_rng(8)
    for _ in range(10):
        sys = rand_system(rng, n=2, m=1, p=2, T=3)
        c1, c2 = rand_profile(rng, sys), rand_profile(rng, sys)
        f1, f2 = lqg_value(sys, c1).cost, lqg_value(sys, c2).cost
        for lam in (0.25, 0.5, 0.75):
            mix = CovarianceProfile(
                X0=lam * c1.X0 + (1 - lam) * c2.X0,
                W=lam * c1.W + (1 - lam) * c2.W,
                V=lam * c1.V + (1 - lam) * c2.V,
            )
            assert lqg_value(sys, mix).cost >= lam * f1 + (1 - lam) * f2 - 1e-8


def test_feedback_gains_independent_of_noise():
    rng = np.random.default_rng(9)
    sys = rand_system(rng, T=3)
    _, K1 = riccati_backward(sys)
    _, K2 = riccati_backward(sys)
    assert np.array_equal(K1, K2)
    # and through lqg_value with different covariances
    sol1 = lqg_value(sys, rand_profile(rng, sys))
    sol2 = lqg_value(sys, rand_profile(rng, sys))
    assert np.array_equal(sol1.K, sol2.K)


def test_degenerate_horizon_one_step_closed_form():
    # T=1: cost = E[x0 Q0 x0] + min_u E[u R u + (Ax0+Bu+w) Q1 (.)]
    # with u = k * xhat0; direct closed form on scalars
    a, b, c = 1.3, 0.7, 1.1
    q0, q1, r = 0.9, 1.4, 0.8
    x0v, wv, vv = 1.2, 0.6, 0.5
    eye = np.eye(1)
    sys = SystemInstance.time_invariant(a * eye, b * eye, c * eye, q0 * eye, r * eye, T=1, Qf=q1 * eye)
    cov = CovarianceProfile(X0=x0v * np.ones((1, 1, 1))[0], W=wv * np.ones((1, 1, 1)), V=vv * np.ones((1, 1, 1)))
    sol = lqg_value(sys, cov)
    # filtered moments
    sig0 = x0v - x0v * c * (1.0 / (c * x0v * c + vv)) * c * x0v
    xhat_var = x0v - sig0
    kgain = -(r + b * q1 * b) ** -1 * b * q1 * a
    direct = (
        q0 * x0v
        + r * kgain**2 * xhat_var
        + q1 * (a**2 * sig0 + (a + b * kgain) ** 2 * xhat_var + wv)
    )
    assert sol.cost == pytest.approx(direct, rel=1e-12)


def test_simulate_noiseless_zero_cost():
    sys = scalar_unit_system(T=2)
    gains = lqg_value(sys, scalar_unit_profile(T=2))
    zero = CovarianceProfile(X0=np.zeros((1, 1)), W=np.zeros((2, 1, 1)), V=np.zeros((2, 1, 1)))
    mean, se = simulate_closed_loop(sys, zero, gains, 500, seed=0)
    assert mean == 0.0 and se == 0.0


def test_simulate_clt_scaling():
    # standard error scales as 1/sqrt(N): quadrupling the sample count
    # halves it, within 20%
    sys = scalar_unit_system()
    cov = scalar_unit_profile()
    gains = lqg_value(sys, cov)
    _, se1 = simulate_closed_loop(sys, cov, gains, 20_000, seed=11)
    _, se2 = simulate_closed_loop(sys, cov, gains, 80_000, seed=12)
    assert abs(se2 / se1 - 0.5) <= 0.1


def test_simulate_deterministic_given_seed():
    rng = np.random.default_rng(10)
    sys = rand_system(rng, T=3)
    cov = rand_profile(rng, sys)
    gains = lqg_value(sys, cov)
    assert simulate_closed_loop(sys, cov, gains, 1000, seed=5) == simulate_closed_loop(
        sys, cov, gains, 1000, seed=5
    )


def test_system_validation():
    eye = np.eye(2)
    with pytest.raises(InvalidInputError):
        SystemInstance.time_invariant(eye, eye, eye, -eye, eye, T=2)  # Q not psd
    with pytest.raises(InvalidInputError):
        SystemInstance.time_invariant(eye, eye, eye, eye, 0.0 * eye, T=2)  # R not pd
